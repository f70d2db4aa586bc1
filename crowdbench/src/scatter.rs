//! `serve-scatter`: a `Router` over two in-process `ShardServer`s on
//! loopback, reached through `RemoteShard`, itself behind the serve front
//! end. One connection carries a fixed interleave of new `/sql` queries,
//! global reads and a write trickle through `ShardSet::put`; a second
//! carries an open loop of point reads.

use crate::common::now;
use crate::common::{self, Outcome, Rng, RunArgs, Zipf, LEGS};
use crate::http::Client;
use crate::load::{self, Lane, Timing};
use crate::oracle::{self, Corpus, NS_USERS};
use crate::stats;
use crate::trace::{
    shard_leg, Breakdown, CountingTransport, Recorder, TimedBackend, TimedHandler, WireStats,
};
use crowdnet_chaos::{RealTcp, Transport};
use crowdnet_json::{obj, Value};
use crowdnet_serve::{bind, Request, RequestHandler, Server, ServerConfig, TcpHandle};
use crowdnet_shard::{LocalShard, Router, RouterConfig, ShardBackend, ShardSet};
use crowdnet_shardnet::{RemoteShard, RemoteShardConfig, ShardServer};
use crowdnet_store::{Document, SnapshotId, Store};
use crowdnet_telemetry::Telemetry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fraction of the paper's crawl served.
pub const DENOM: u32 = 64;
const SHARDS: usize = 2;
/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Open-loop rate of the point-read connection, requests per second.
pub const POINT_RATE: f64 = 200.0;
/// Zipf exponent of point-read ids.
const ZIPF_S: f64 = 1.1;

/// One step of the scan connection's fixed interleave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    Sql,
    Write,
    PageRank,
    Communities,
    /// A crawled investor's portfolio right after a global read, while the
    /// global artifacts are current (the `investor_edges` leg).
    Portfolio,
    /// `/top/investors` by degree (the `top_k_prefix` leg).
    TopDegree,
    /// `/stats` (the `shard_stats` leg).
    Stats,
}

/// The interleave, repeated in whole rounds.
pub const ROUND: &[Step] = &[
    Step::Sql,
    Step::Write,
    Step::PageRank,
    Step::Portfolio,
    Step::Sql,
    Step::Write,
    Step::Communities,
    Step::TopDegree,
    Step::Stats,
];

struct Deployment {
    set: Arc<ShardSet>,
    front: Arc<Server>,
    front_handle: TcpHandle,
    shards: Vec<(Arc<Server>, TcpHandle)>,
    telemetry: Telemetry,
    /// The unsharded source store: the oracle's copy of the corpus.
    store: Store,
}

impl Deployment {
    /// Stop the front end, then drop the router and its remote shards —
    /// closing their pooled keep-alive connections — so the shard servers
    /// drain at once instead of waiting out their idle timeout.
    fn shutdown(self) {
        self.front_handle.shutdown();
        self.front.shutdown();
        drop(self.front);
        drop(self.set);
        for (server, handle) in self.shards {
            handle.shutdown();
            server.shutdown();
        }
    }
}

/// Instruments installed in a traced deployment.
struct Tracing {
    rec: Arc<Recorder>,
    wire: Arc<WireStats>,
}

fn router_class(req: &Request) -> String {
    match req.path() {
        "/sql" => "sql",
        "/communities" => "global",
        "/top/investors" if req.query().is_some_and(|q| q.contains("by=pagerank")) => "global",
        _ => "point",
    }
    .to_string()
}

fn deploy(seed: u64, tracing: Option<&Tracing>) -> Result<Deployment, String> {
    let telemetry = common::wall_telemetry();
    let outcome = oracle::crawl(seed, DENOM, &telemetry)?;
    let store = outcome.store;
    if store.latest_snapshot(NS_USERS).map_err(|e| e.to_string())? != SnapshotId(0) {
        return Err("corpus has more than one user snapshot".into());
    }
    let mut shards = Vec::new();
    let mut backends: Vec<Arc<dyn ShardBackend>> = Vec::new();
    for index in 0..SHARDS {
        let shard_telemetry = common::wall_telemetry();
        let shard = Arc::new(
            LocalShard::open_memory(index, store.partitions(), &shard_telemetry)
                .map_err(|e| format!("shard {index}: {e}"))?,
        );
        let mut handler: Arc<dyn RequestHandler> =
            Arc::new(ShardServer::new(shard, &shard_telemetry));
        let mut transport: Arc<dyn Transport> = Arc::new(RealTcp);
        if let Some(t) = tracing {
            handler = Arc::new(TimedHandler::new(
                handler,
                Arc::clone(&t.rec),
                "shard",
                shard_leg,
            ));
            transport = Arc::new(CountingTransport::new(transport, Arc::clone(&t.wire)));
        }
        let server = Arc::new(Server::with_handler(
            handler,
            shard_telemetry,
            ServerConfig::default(),
        ));
        let handle = bind(Arc::clone(&server), 0).map_err(|e| format!("bind shard: {e}"))?;
        let remote = RemoteShard::with_transport(
            index,
            handle.addr(),
            RemoteShardConfig::default(),
            transport,
            &telemetry,
        )
        .map_err(|e| format!("remote shard {index}: {e}"))?;
        let mut backend: Arc<dyn ShardBackend> = Arc::new(remote);
        if let Some(t) = tracing {
            backend = Arc::new(TimedBackend::new(backend, Arc::clone(&t.rec)));
        }
        backends.push(backend);
        shards.push((server, handle));
    }
    let set = Arc::new(ShardSet::from_backends(backends, &telemetry));
    set.import_store(&store)
        .map_err(|e| format!("import: {e}"))?;
    let router = Arc::new(Router::new(
        Arc::clone(&set),
        RouterConfig::default(),
        telemetry.clone(),
    ));
    let mut handler: Arc<dyn RequestHandler> = router;
    if let Some(t) = tracing {
        handler = Arc::new(TimedHandler::new(
            handler,
            Arc::clone(&t.rec),
            "router",
            router_class,
        ));
    }
    let front = Arc::new(Server::with_handler(
        handler,
        telemetry.clone(),
        ServerConfig::default(),
    ));
    let front_handle = bind(Arc::clone(&front), 0).map_err(|e| format!("bind front: {e}"))?;
    // Warm: global artifacts, one scan, one point read.
    let mut client = Client::new(
        Arc::new(RealTcp),
        front_handle.addr(),
        Duration::from_secs(30),
    );
    for target in [
        pagerank_target().to_string(),
        sql_target(0),
        "/entity/company/1".to_string(),
    ] {
        let reply = client.get(&target)?;
        if reply.status != 200 && reply.status != 404 {
            return Err(format!("warm-up {target}: status {}", reply.status));
        }
    }
    Ok(Deployment {
        set,
        front,
        front_handle,
        shards,
        telemetry,
        store,
    })
}

fn pagerank_target() -> &'static str {
    "/top/investors?by=pagerank&k=1000000"
}

/// A parameterised query over `angellist/users`; `n` makes it new to the
/// cache.
pub fn sql_text(n: u64) -> String {
    format!(
        "SELECT role, COUNT(*) AS n, AVG(follow_count) AS avg_follows FROM docs \
         WHERE follow_count > {} GROUP BY role ORDER BY role",
        n % 97
    )
}

fn sql_target(n: u64) -> String {
    let q: String = sql_text(n)
        .bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect();
    format!("/sql?ns=angellist%2Fusers&q={q}&n={n}")
}

/// What the scan connection did, in order, for the replay afterwards.
enum Logged {
    Sql {
        n: u64,
        latency: f64,
        body: Option<Vec<u8>>,
        status: u16,
    },
    Read {
        step: Step,
        target: String,
        latency: f64,
        body: Option<Vec<u8>>,
        status: u16,
    },
    Write {
        doc: Document,
        latency: f64,
        ok: bool,
    },
}

/// What the scan connection sends next: query numbers and new documents.
struct ScanInputs {
    next_sql: u64,
    next_id: u32,
    /// Companies that already have investors.
    backed: Vec<u32>,
    /// Crawled investors, whose portfolios no write here changes.
    investors: Vec<u32>,
    rng: Rng,
}

impl ScanInputs {
    /// A crawled investor, uniformly.
    fn crawled_investor(&mut self) -> u32 {
        self.investors[self.rng.below(self.investors.len())]
    }

    fn sql(&mut self) -> u64 {
        self.next_sql += 1;
        self.next_sql - 1
    }

    /// A new investor document: an id past every crawled user, four to
    /// six investments in companies that already have investors.
    fn investor(&mut self) -> Document {
        let id = self.next_id;
        self.next_id += 1;
        let count = 4 + self.rng.below(3);
        let companies: Vec<Value> = (0..count)
            .map(|_| Value::from(u64::from(self.backed[self.rng.below(self.backed.len())])))
            .collect();
        let body = obj! {
            "id" => u64::from(id),
            "name" => format!("bench investor {id}"),
            "role" => "investor",
            "follow_count" => self.rng.below(400) as u64,
            "investments" => Value::Arr(companies),
        };
        Document::new(format!("user:{id}"), body)
    }
}

/// Run the scan connection for whole rounds until `until`. Returns the
/// round walls and the highest resident set seen between rounds.
fn scan_lane(
    dep: &Deployment,
    client: &mut Client,
    until: Instant,
    inputs: &mut ScanInputs,
    log: &mut Vec<Logged>,
) -> (Vec<f64>, f64) {
    let mut rounds = Vec::new();
    let mut rss: f64 = 0.0;
    while rounds.is_empty() || now() < until {
        let round_start = now();
        for step in ROUND {
            let t = now();
            match step {
                Step::Sql => {
                    let n = inputs.sql();
                    let reply = client.get(&sql_target(n));
                    let latency = t.elapsed().as_secs_f64() * 1e6;
                    let (status, body) = match reply {
                        Ok(r) => (r.status, Some(r.body)),
                        Err(_) => (0, None),
                    };
                    log.push(Logged::Sql {
                        n,
                        latency,
                        body,
                        status,
                    });
                }
                Step::Write => {
                    let doc = inputs.investor();
                    let ok = dep.set.put(NS_USERS, doc.clone()).is_ok();
                    let latency = t.elapsed().as_secs_f64() * 1e6;
                    log.push(Logged::Write { doc, latency, ok });
                }
                _ => {
                    let target = match step {
                        Step::PageRank => pagerank_target().to_string(),
                        Step::Communities => "/communities".to_string(),
                        Step::Portfolio => {
                            format!("/investor/{}/portfolio", inputs.crawled_investor())
                        }
                        Step::TopDegree => "/top/investors?k=10".to_string(),
                        _ => "/stats".to_string(),
                    };
                    let reply = client.get(&target);
                    let latency = t.elapsed().as_secs_f64() * 1e6;
                    let (status, body) = match reply {
                        Ok(r) => (r.status, Some(r.body)),
                        Err(_) => (0, None),
                    };
                    log.push(Logged::Read {
                        step: *step,
                        target,
                        latency,
                        body,
                        status,
                    });
                }
            }
        }
        rounds.push(round_start.elapsed().as_secs_f64());
        rss = rss.max(common::self_rss_mb());
    }
    (rounds, rss)
}

fn partial(body: &[u8]) -> bool {
    std::str::from_utf8(body)
        .ok()
        .and_then(|s| Value::parse(s).ok())
        .and_then(|v| v.get("partial").and_then(Value::as_bool))
        .unwrap_or(false)
}

/// Replay the scan log onto the unsharded oracle store and check every
/// answer at the point of the write sequence it was given.
fn judge_scans(outcome: &mut Outcome, store: &Store, base: &Corpus, log: &[Logged]) {
    let mut corpus = base.clone();
    for entry in log {
        match entry {
            Logged::Write { doc, ok, .. } => {
                if *ok {
                    corpus.absorb(NS_USERS, &doc.key, doc.body.clone());
                    if store.put(NS_USERS, doc.clone()).is_err() {
                        outcome.require(Err("oracle store rejected a write".into()));
                    }
                    outcome.op(Ok(()));
                } else {
                    outcome.op(Err(format!("write {} not acknowledged", doc.key)));
                }
            }
            Logged::Sql {
                n, body, status, ..
            } => {
                let Some(body) = answered(*status, body) else {
                    outcome.op(Err(format!("sql #{n}: status {status}")));
                    continue;
                };
                match oracle::sql_answer(store, NS_USERS, &sql_text(*n))
                    .and_then(|want| oracle::check_sql(&want, body))
                {
                    Ok(()) => outcome.op(Ok(())),
                    Err(e) => outcome.wrong_answer(format!("sql #{n}: {e}")),
                }
            }
            Logged::Read {
                step,
                target,
                body,
                status,
                ..
            } => {
                let Some(body) = answered(*status, body) else {
                    outcome.op(Err(format!("{step:?}: status {status}")));
                    continue;
                };
                let verdict = match step {
                    Step::PageRank => oracle::check_pagerank(&corpus, body),
                    Step::Communities => oracle::check_communities(&corpus, body),
                    Step::Portfolio => oracle::check_point(&corpus, target, body),
                    Step::TopDegree => oracle::check_point(&corpus, target, body),
                    _ => check_stats(store, body),
                };
                match verdict {
                    Ok(()) => outcome.op(Ok(())),
                    Err(e) => outcome.wrong_answer(format!("{step:?}: {e}")),
                }
            }
        }
    }
}

/// `/stats`: every namespace's counts equal the unsharded store's.
fn check_stats(store: &Store, body: &[u8]) -> Result<(), String> {
    let v = Value::parse(std::str::from_utf8(body).map_err(|_| "not utf-8")?)
        .map_err(|e| e.to_string())?;
    let got = v
        .get("namespaces")
        .and_then(Value::as_arr)
        .ok_or("missing namespaces")?;
    let want = store.stats().map_err(|e| e.to_string())?;
    let rows: Vec<(String, u64, u64, u64)> = want
        .iter()
        .map(|n| {
            (
                n.namespace.clone(),
                n.documents as u64,
                n.encoded_bytes as u64,
                n.snapshots as u64,
            )
        })
        .collect();
    let seen: Vec<(String, u64, u64, u64)> = got
        .iter()
        .map(|n| {
            let num = |f: &str| n.get(f).and_then(Value::as_u64).unwrap_or(u64::MAX);
            (
                n.get("namespace")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                num("documents"),
                num("encoded_bytes"),
                num("snapshots"),
            )
        })
        .collect();
    if seen == rows {
        Ok(())
    } else {
        Err(format!("stats {seen:?} != unsharded {rows:?}"))
    }
}

/// The body of a complete answer: status 200 and not `partial`.
fn answered(status: u16, body: &Option<Vec<u8>>) -> Option<&[u8]> {
    body.as_deref().filter(|b| status == 200 && !partial(b))
}

/// Point-read targets over crawled ids: entity reads, whose answers no
/// write here changes, and company-investor lists, which writes only
/// extend. Portfolios and community memberships are left out: on the
/// router they read the global artifacts, so after a write they pay a
/// global rebuild and are global reads in effect.
fn point_ops(corpus: &Corpus, count: usize, rng: &mut Rng) -> Vec<String> {
    let users = Zipf::new(corpus.user_ids.len(), ZIPF_S, rng);
    let companies = Zipf::new(corpus.company_ids.len(), ZIPF_S, rng);
    let backed: Vec<u32> = corpus.backers.keys().copied().collect();
    let back = Zipf::new(backed.len(), ZIPF_S, rng);
    (0..count)
        .map(|_| match rng.below(3) {
            0 => format!("/entity/user/{}", corpus.user_ids[users.sample(rng)]),
            1 => format!(
                "/entity/company/{}",
                corpus.company_ids[companies.sample(rng)]
            ),
            _ => format!("/company/{}/investors", backed[back.sample(rng)]),
        })
        .collect()
}

/// A point answer read while writes ran beside it: entities as crawled;
/// a company's investors at least its crawled ones and at most those plus
/// the investors written during the run.
fn check_point_beside_writes(
    base: &Corpus,
    written: &Corpus,
    target: &str,
    body: &[u8],
) -> Result<(), String> {
    if !target.starts_with("/company/") {
        return oracle::check_point(base, target, body);
    }
    let id: u32 = target
        .trim_start_matches("/company/")
        .trim_end_matches("/investors")
        .parse()
        .map_err(|_| format!("bad target {target}"))?;
    let v = Value::parse(std::str::from_utf8(body).map_err(|_| "not utf-8")?)
        .map_err(|e| e.to_string())?;
    let got: Vec<u32> = v
        .get("investors")
        .and_then(Value::as_arr)
        .ok_or("missing investors")?
        .iter()
        .filter_map(Value::as_u64)
        .map(|i| i as u32)
        .collect();
    let floor = base.backers.get(&id).cloned().unwrap_or_default();
    let extra = written.backers.get(&id).cloned().unwrap_or_default();
    let sorted = got.windows(2).all(|w| w[0] < w[1]);
    let within = got.iter().all(|i| floor.contains(i) || extra.contains(i));
    let covers = floor.iter().all(|i| got.binary_search(i).is_ok());
    let degree = v.get("degree").and_then(Value::as_u64) == Some(got.len() as u64);
    if sorted && within && covers && degree {
        Ok(())
    } else {
        Err(format!(
            "{target}: investors {got:?} not between crawled {floor:?} and crawled+written"
        ))
    }
}

struct PhaseResult {
    rounds: Vec<f64>,
    rss: f64,
    sql_ms: Vec<f64>,
    global_ms: Vec<f64>,
    write_us: Vec<f64>,
    point: Vec<Timing>,
    front_requests: usize,
}

fn phase(
    outcome: &mut Outcome,
    dep: &Deployment,
    corpus: &Corpus,
    seconds: f64,
    rng: &mut Rng,
    inputs: &mut ScanInputs,
    log_all: &mut Vec<Logged>,
) -> PhaseResult {
    let addr = dep.front_handle.addr();
    let count = (seconds * POINT_RATE) as usize;
    let ops = point_ops(corpus, count, rng);
    let mut bodies: Vec<(usize, u16, Vec<u8>)> = Vec::with_capacity(count);
    let mut log = Vec::new();
    let until = now() + Duration::from_secs_f64(seconds);
    let ((rounds, rss), point) = std::thread::scope(|scope| {
        let scan = scope.spawn(|| {
            let mut client = Client::new(Arc::new(RealTcp), addr, Duration::from_secs(30));
            scan_lane(dep, &mut client, until, inputs, &mut log)
        });
        let mut client = Client::new(Arc::new(RealTcp), addr, Duration::from_secs(30));
        let lane: Lane = Box::new(|i| match client.get(&ops[i]) {
            Ok(r) => {
                let ok = r.status == 200;
                bodies.push((i, r.status, r.body));
                ok
            }
            Err(_) => {
                bodies.push((i, 0, Vec::new()));
                false
            }
        });
        let point = load::open_loop(vec![lane], count, Duration::from_secs_f64(1.0 / POINT_RATE));
        (
            scan.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
            point,
        )
    });
    let mut written = Corpus::default();
    for entry in log_all.iter().chain(&log) {
        if let Logged::Write { doc, .. } = entry {
            written.absorb(NS_USERS, &doc.key, doc.body.clone());
        }
    }
    for (i, status, body) in &bodies {
        if *status != 200 || partial(body) {
            outcome.op(Err(format!("{}: status {status}", ops[*i])));
        } else {
            match check_point_beside_writes(corpus, &written, &ops[*i], body) {
                Ok(()) => outcome.op(Ok(())),
                Err(e) => outcome.wrong_answer(format!("{}: {e}", ops[*i])),
            }
        }
    }
    let mut result = PhaseResult {
        rounds,
        rss,
        sql_ms: Vec::new(),
        global_ms: Vec::new(),
        write_us: Vec::new(),
        point,
        front_requests: count,
    };
    for entry in &log {
        match entry {
            Logged::Sql { latency, .. } => {
                result.sql_ms.push(latency / 1e3);
                result.front_requests += 1;
            }
            Logged::Read { step, latency, .. } => {
                if matches!(step, Step::PageRank | Step::Communities) {
                    result.global_ms.push(latency / 1e3);
                }
                result.front_requests += 1;
            }
            Logged::Write { latency, .. } => result.write_us.push(*latency),
        }
    }
    log_all.extend(log);
    result
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let tracing = args.trace.then(|| Tracing {
        rec: Arc::new(Recorder::default()),
        wire: Arc::new(WireStats::default()),
    });
    // Set-up (the import's submit legs, the warm-up reads) is not traced.
    if let Some(t) = &tracing {
        t.rec.set_paused(true);
    }
    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUPS {
        if let Some(old) = deployment.take() {
            Deployment::shutdown(old);
        }
        let t = now();
        deployment = Some(deploy(args.seed, tracing.as_ref())?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let dep = deployment.ok_or("no deployment")?;
    outcome.set("setup_s", stats::median(&setups));
    let base = Corpus::from_store(&dep.store)?;
    println!(
        "serve-scatter: {SHARDS} remote shards over {} users / {} companies; round {ROUND:?}; point reads at {POINT_RATE} req/s",
        base.user_ids.len(),
        base.company_ids.len()
    );

    let mut rng = Rng::new(args.seed);
    let mut inputs = ScanInputs {
        next_sql: args.seed.wrapping_mul(1_000),
        next_id: base.user_ids.last().copied().unwrap_or(0) + 1,
        backed: base.backers.keys().copied().collect(),
        investors: base.portfolios.keys().copied().collect(),
        rng: Rng::new(rng.next_u64()),
    };
    let mut log = Vec::new();
    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let share = args.seconds as f64 / phases.len() as f64;
    let mut medians = Vec::new();
    let mut rss: f64 = 0.0;
    for &traced in phases {
        if let Some(t) = &tracing {
            t.rec.set_paused(!traced);
        }
        let before = Snapshot::take(&dep, tracing.as_ref());
        let r = phase(
            &mut outcome,
            &dep,
            &base,
            share,
            &mut rng,
            &mut inputs,
            &mut log,
        );
        let round = stats::median(&r.rounds);
        medians.push(round);
        rss = rss.max(r.rss);
        if !traced {
            report_plain(&mut outcome, &r);
        } else if let Some(t) = &tracing {
            traced_layers(&mut outcome, &dep, t, &before, &r);
        }
    }
    outcome.set("batch_s", medians[0]);
    if let Some(traced) = medians.get(1) {
        outcome.set(
            "trace.overhead_pct",
            (traced - medians[0]) / medians[0] * 100.0,
        );
    }
    outcome.set("peak_rss_mb", rss);
    outcome.set(
        "serve.queue_depth_max",
        dep.telemetry.gauge("serve.queue_depth").value() as f64,
    );
    outcome.set(
        "telemetry.span_records",
        dep.telemetry.span_records().len() as f64,
    );
    crate::point::pipeline_layers(&mut outcome, &dep.telemetry);
    // Checks after the window: replay the writes onto the unsharded store.
    judge_scans(&mut outcome, &dep.store, &base, &log);
    Deployment::shutdown(dep);
    Ok(outcome)
}

fn report_plain(outcome: &mut Outcome, r: &PhaseResult) {
    let sql = stats::sorted(&r.sql_ms);
    let sql_tail = stats::tail_percentile(sql.len()).unwrap_or(50.0);
    let lat: Vec<f64> = r.point.iter().map(|t| t.latency_us).collect();
    let point = stats::sorted(&lat);
    let point_tail = stats::tail_percentile(point.len()).unwrap_or(50.0);
    outcome.set("scan_p50_ms", stats::quantile(&sql, 0.5));
    outcome.set("scan_tail_ms", stats::quantile(&sql, sql_tail / 100.0));
    outcome.set("global_p50_ms", stats::median(&r.global_ms));
    outcome.set("write_p50_us", stats::median(&r.write_us));
    outcome.set("point_p50_us", stats::quantile(&point, 0.5));
    outcome.set("point_tail_us", stats::quantile(&point, point_tail / 100.0));
    let late: Vec<f64> = r.point.iter().map(|t| t.late_us).collect();
    outcome.set("gen.late_us", stats::median(&late));
    println!(
        "untraced: {} round(s), median {:.1} ms; sql p50 {:.1} ms p{sql_tail} {:.1} ms (n={}); global p50 {:.1} ms; write p50 {:.0} us; point p50 {:.0} us p{point_tail} {:.0} us (n={})",
        r.rounds.len(),
        stats::median(&r.rounds) * 1e3,
        stats::quantile(&sql, 0.5),
        stats::quantile(&sql, sql_tail / 100.0),
        sql.len(),
        stats::median(&r.global_ms),
        stats::median(&r.write_us),
        stats::quantile(&point, 0.5),
        stats::quantile(&point, point_tail / 100.0),
        point.len()
    );
}

/// Counter readings at the start of the traced phase.
struct Snapshot {
    values: Vec<u64>,
    wire_bytes: u64,
    wire_connects: u64,
}

const COUNTERS: &[&str] = &[
    "shard.router.epoch_builds",
    "serve.cache.hit",
    "serve.cache.miss",
    "shardnet.legs",
    "shardnet.retries",
    "shardnet.timeouts",
];

impl Snapshot {
    fn take(dep: &Deployment, tracing: Option<&Tracing>) -> Snapshot {
        Snapshot {
            values: COUNTERS
                .iter()
                .map(|c| dep.telemetry.counter(c).value())
                .collect(),
            wire_bytes: tracing.map(|t| t.wire.bytes()).unwrap_or(0),
            wire_connects: tracing
                .map(|t| t.wire.connects.load(Ordering::Relaxed))
                .unwrap_or(0),
        }
    }

    fn delta(&self, dep: &Deployment, name: &str) -> f64 {
        let i = COUNTERS.iter().position(|c| *c == name).unwrap_or(0);
        (dep.telemetry.counter(name).value() - self.values[i]) as f64
    }
}

fn traced_layers(
    outcome: &mut Outcome,
    dep: &Deployment,
    t: &Tracing,
    before: &Snapshot,
    r: &PhaseResult,
) {
    let rec = &t.rec;
    let requests = (r.front_requests + r.write_us.len()).max(1) as f64;
    outcome.set("router.sql_ms", rec.median("router.sql") / 1e3);
    outcome.set("router.global_ms", rec.median("router.global") / 1e3);
    outcome.set("router.point_us", rec.median("router.point"));
    outcome.set(
        "router.global_rebuilds",
        before.delta(dep, "shard.router.epoch_builds"),
    );
    let hits = before.delta(dep, "serve.cache.hit");
    let misses = before.delta(dep, "serve.cache.miss");
    outcome.set("router.cache.hit_ratio", hits / (hits + misses).max(1.0));
    for leg in LEGS {
        outcome.set(&format!("leg.{leg}_us"), rec.median(&format!("leg.{leg}")));
        outcome.set(
            &format!("shard.{leg}_us"),
            rec.median(&format!("shard.{leg}")),
        );
    }
    outcome.set(
        "shard.epoch_refresh_ms",
        rec.median("shard.epoch_refresh") / 1e3,
    );
    outcome.set(
        "wire.bytes_per_req",
        (t.wire.bytes() - before.wire_bytes) as f64 / requests,
    );
    outcome.set(
        "wire.legs_per_req",
        before.delta(dep, "shardnet.legs") / requests,
    );
    outcome.set(
        "wire.connects",
        (t.wire.connects.load(Ordering::Relaxed) - before.wire_connects) as f64,
    );
    outcome.set("shardnet.retries", before.delta(dep, "shardnet.retries"));
    outcome.set("shardnet.timeouts", before.delta(dep, "shardnet.timeouts"));

    // A remote /sql: client latency = router handler + front-end rest;
    // the handler = its scan legs (run concurrently, one per shard) +
    // merge and query; a leg = shard work + wire and codecs.
    let client_ms = stats::mean(&r.sql_ms);
    let router_ms = stats::mean(&rec.values("router.sql")) / 1e3;
    let leg_ms = stats::mean(&rec.values("leg.scan_partitions")) / 1e3;
    let shard_ms = stats::mean(&rec.values("shard.scan_partitions")) / 1e3;
    let front = Breakdown::new(client_ms, vec![("router".into(), router_ms)]);
    outcome.set("router.residual_ms", front.residual);
    println!(
        "traced /sql (mean of {}): client {client_ms:.1} ms = router {router_ms:.1} ms [scan leg {leg_ms:.1} ms = shard {shard_ms:.1} ms + wire/codec {:.1} ms; merge+query {:.1} ms] + front end {:.1} ms",
        r.sql_ms.len(),
        leg_ms - shard_ms,
        router_ms - leg_ms,
        front.residual
    );
    println!(
        "after a write: first leg on the written shard {:.1} ms (median of {}); global read {:.1} ms ({} rebuilds)",
        rec.median("shard.epoch_refresh") / 1e3,
        rec.count("shard.epoch_refresh"),
        stats::median(&r.global_ms),
        before.delta(dep, "shard.router.epoch_builds")
    );
}
