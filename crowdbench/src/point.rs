//! `serve-point`: the unsharded `Service` behind `crowdnet_serve::bind`,
//! reached only through loopback sockets. An open loop of zipfian point
//! reads at a fixed rate measures latency from each request's due time;
//! closed-loop batches over `nproc` keep-alive connections measure
//! capacity.

use crate::common::now;
use crate::common::{self, Outcome, Rng, RunArgs, Zipf};
use crate::http::{self, Client};
use crate::load::{self, Lane, Timing};
use crate::oracle::{self, Corpus};
use crate::stats;
use crate::trace::{Breakdown, Recorder, TimedHandler};
use crowdnet_chaos::{RealTcp, Transport};
use crowdnet_serve::{
    bind, Request, RequestHandler, RequestParser, Server, ServerConfig, Service, ServiceConfig,
    TcpHandle,
};
use crowdnet_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Fraction of the paper's crawl served.
pub const DENOM: u32 = 16;
/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Open-loop arrival rate, requests per second.
pub const RATE: f64 = 1_500.0;
/// Zipf exponent of the id popularity in every request class.
pub const ZIPF_S: f64 = 1.1;
/// Share of the window the open loop takes; closed-loop batches fill the
/// rest.
pub const OPEN_SHARE: f64 = 0.3;
/// Requests per closed-loop batch.
pub const BATCH: usize = 20_000;
/// Request mix: (class, weight in percent).
pub const MIX: &[(&str, u32)] = &[
    ("entity_user", 30),
    ("entity_company", 20),
    ("portfolio", 15),
    ("company_investors", 15),
    ("investor_communities", 15),
    ("top", 5),
];

/// One running deployment: corpus, service, front end.
struct Deployment {
    service: Arc<Service>,
    server: Arc<Server>,
    handle: TcpHandle,
    telemetry: Telemetry,
    artifacts_ms: f64,
}

impl Deployment {
    fn shutdown(self) {
        self.handle.shutdown();
        self.server.shutdown();
    }
}

/// Generate and crawl the corpus, build the service's artifacts, bind the
/// front end and answer one request of each class through the socket.
fn deploy(seed: u64, rec: Option<&Arc<Recorder>>) -> Result<Deployment, String> {
    let telemetry = common::wall_telemetry();
    let outcome = oracle::crawl(seed, DENOM, &telemetry)?;
    let service = Arc::new(Service::new(
        Arc::new(outcome.store),
        ServiceConfig::default(),
        telemetry.clone(),
    ));
    let t = now();
    let artifacts = service.artifacts().map_err(|e| format!("artifacts: {e}"))?;
    let artifacts_ms = t.elapsed().as_secs_f64() * 1e3;
    let handler: Arc<dyn RequestHandler> = match rec {
        Some(rec) => Arc::new(
            TimedHandler::new(
                Arc::clone(&service) as _,
                Arc::clone(rec),
                "serve",
                class_of_request,
            )
            .with_cache_misses(telemetry.counter("serve.cache.miss")),
        ),
        None => Arc::clone(&service) as _,
    };
    let server = Arc::new(Server::with_handler(
        handler,
        telemetry.clone(),
        ServerConfig::default(),
    ));
    let handle = bind(Arc::clone(&server), 0).map_err(|e| format!("bind: {e}"))?;
    let inv = artifacts.graph.investor_id(0);
    let com = artifacts.graph.company_id(0);
    let mut client = Client::new(Arc::new(RealTcp), handle.addr(), Duration::from_secs(10));
    for target in [
        format!("/entity/user/{inv}"),
        format!("/entity/company/{com}"),
        format!("/investor/{inv}/portfolio"),
        format!("/company/{com}/investors"),
        format!("/investor/{inv}/communities"),
        "/top/investors?k=3".to_string(),
    ] {
        // A graph company need not have been crawled itself: 404 is a
        // well-formed answer for the warm-up.
        let reply = client.get(&target)?;
        if reply.status != 200 && reply.status != 404 {
            return Err(format!("warm-up {target}: status {}", reply.status));
        }
    }
    Ok(Deployment {
        service,
        server,
        handle,
        telemetry,
        artifacts_ms,
    })
}

/// The request class of a request, for the handler decorator.
fn class_of_request(req: &Request) -> String {
    let path = req.path();
    if path.starts_with("/entity/user/") {
        "entity_user"
    } else if path.starts_with("/entity/company/") {
        "entity_company"
    } else if path.ends_with("/portfolio") {
        "portfolio"
    } else if path.ends_with("/investors") && path.starts_with("/company/") {
        "company_investors"
    } else if path.ends_with("/communities") {
        "investor_communities"
    } else {
        "top"
    }
    .to_string()
}

/// Draws request targets: per class, zipfian ids over that class's
/// population.
pub struct Targets {
    users: (Vec<u32>, Zipf),
    companies: (Vec<u32>, Zipf),
    investors: (Vec<u32>, Zipf),
    backed: (Vec<u32>, Zipf),
}

impl Targets {
    pub fn new(corpus: &Corpus, rng: &mut Rng) -> Targets {
        let mut pool = |ids: Vec<u32>| {
            let z = Zipf::new(ids.len(), ZIPF_S, rng);
            (ids, z)
        };
        Targets {
            users: pool(corpus.user_ids.clone()),
            companies: pool(corpus.company_ids.clone()),
            investors: pool(corpus.portfolios.keys().copied().collect()),
            backed: pool(corpus.backers.keys().copied().collect()),
        }
    }

    fn pick(pool: &(Vec<u32>, Zipf), rng: &mut Rng) -> u32 {
        pool.0[pool.1.sample(rng)]
    }

    pub fn draw(&self, rng: &mut Rng) -> String {
        let mut roll = rng.below(100) as u32;
        let mut class = MIX[0].0;
        for (c, w) in MIX {
            if roll < *w {
                class = c;
                break;
            }
            roll -= w;
        }
        match class {
            "entity_user" => format!("/entity/user/{}", Self::pick(&self.users, rng)),
            "entity_company" => format!("/entity/company/{}", Self::pick(&self.companies, rng)),
            "portfolio" => format!("/investor/{}/portfolio", Self::pick(&self.investors, rng)),
            "company_investors" => format!("/company/{}/investors", Self::pick(&self.backed, rng)),
            "investor_communities" => {
                format!("/investor/{}/communities", Self::pick(&self.investors, rng))
            }
            _ => format!("/top/investors?k={}", 1 + rng.below(10)),
        }
    }
}

/// What the lanes saw: per op, its status and body hash; the first body
/// of every distinct target, for the oracle after the window.
#[derive(Default)]
pub struct Seen {
    pub statuses: Vec<(usize, u16, u64)>,
    pub bodies: HashMap<String, Vec<u8>>,
    pub reconnects: u64,
}

pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `ops` through `lanes` keep-alive clients, open or closed loop.
pub fn drive(
    transport: &Arc<dyn Transport>,
    addr: std::net::SocketAddr,
    ops: &[String],
    lanes: usize,
    open_interval: Option<Duration>,
) -> (Vec<Timing>, Duration, Seen) {
    let mut seen: Vec<Seen> = (0..lanes).map(|_| Seen::default()).collect();
    let mut clients: Vec<Client> = (0..lanes)
        .map(|_| Client::new(Arc::clone(transport), addr, Duration::from_secs(10)))
        .collect();
    let lane_fns: Vec<Lane> = clients
        .iter_mut()
        .zip(seen.iter_mut())
        .map(|(client, seen)| {
            Box::new(move |i: usize| match client.get(&ops[i]) {
                Ok(reply) => {
                    seen.statuses.push((i, reply.status, fnv(&reply.body)));
                    if !seen.bodies.contains_key(&ops[i]) {
                        seen.bodies.insert(ops[i].clone(), reply.body);
                    }
                    reply.status == 200
                }
                Err(_) => {
                    seen.statuses.push((i, 0, 0));
                    false
                }
            }) as Lane
        })
        .collect();
    let (timings, wall) = match open_interval {
        Some(interval) => {
            let t = now();
            let timings = load::open_loop(lane_fns, ops.len(), interval);
            (timings, t.elapsed())
        }
        None => load::closed_loop(lane_fns, ops.len()),
    };
    let mut merged = Seen::default();
    for (s, c) in seen.into_iter().zip(&clients) {
        merged.statuses.extend(s.statuses);
        for (k, v) in s.bodies {
            merged.bodies.entry(k).or_insert(v);
        }
        merged.reconnects += c.reconnects;
    }
    merged.statuses.sort_by_key(|s| s.0);
    (timings, wall, merged)
}

/// Count every op and check every distinct answer against the corpus;
/// a repeat must match the first answer to its target byte for byte.
fn judge(outcome: &mut Outcome, corpus: &Corpus, ops: &[String], seen: &Seen) {
    let firsts: HashMap<&str, u64> = seen
        .bodies
        .iter()
        .map(|(k, v)| (k.as_str(), fnv(v)))
        .collect();
    let mut verdicts: HashMap<&str, Result<(), String>> = HashMap::new();
    for (target, body) in &seen.bodies {
        verdicts.insert(
            target,
            oracle::check_point(corpus, target, body).map_err(|e| format!("{target}: {e}")),
        );
    }
    for &(i, status, hash) in &seen.statuses {
        let target = ops[i].as_str();
        if status != 200 {
            outcome.op(Err(format!("{target}: status {status}")));
        } else if firsts.get(target) != Some(&hash) {
            outcome.wrong_answer(format!("{target}: answer changed between requests"));
        } else {
            match verdicts.get(target) {
                Some(Err(e)) => outcome.wrong_answer(e.clone()),
                _ => outcome.op(Ok(())),
            }
        }
    }
}

/// Every point target the mix can ask for, class by class.
fn all_targets(corpus: &Corpus) -> Vec<String> {
    let mut all = Vec::new();
    all.extend(
        corpus
            .user_ids
            .iter()
            .map(|id| format!("/entity/user/{id}")),
    );
    all.extend(
        corpus
            .company_ids
            .iter()
            .map(|id| format!("/entity/company/{id}")),
    );
    for id in corpus.portfolios.keys() {
        all.push(format!("/investor/{id}/portfolio"));
        all.push(format!("/investor/{id}/communities"));
    }
    all.extend(
        corpus
            .backers
            .keys()
            .map(|id| format!("/company/{id}/investors")),
    );
    all.extend((1..=10).map(|k| format!("/top/investors?k={k}")));
    all
}

/// Roughly what the cache would charge for every answer the mix can ask
/// for (key, body and a fixed per-entry overhead), in MiB.
fn working_set_mib(corpus: &Corpus, targets: &[String]) -> f64 {
    let bodies: usize = corpus
        .entities
        .values()
        .map(|v| v.to_compact().len() + 40)
        .sum::<usize>()
        + corpus
            .portfolios
            .values()
            .chain(corpus.backers.values())
            .map(|s| s.len() * 7 + 60)
            .sum::<usize>();
    let keys: usize = targets.iter().map(|t| t.len() + 4 + 128).sum();
    (bodies + keys) as f64 / (1024.0 * 1024.0)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let lanes = common::nproc();
    let mut outcome = Outcome::default();
    let rec = args.trace.then(|| Arc::new(Recorder::default()));
    // Set-up (the warm-up reads) is not traced.
    if let Some(rec) = &rec {
        rec.set_paused(true);
    }

    // Set-up, several times over; the last deployment serves the run.
    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUPS {
        if let Some(old) = deployment.take() {
            Deployment::shutdown(old);
        }
        let t = now();
        deployment = Some(deploy(args.seed, rec.as_ref())?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let dep = deployment.ok_or("no deployment")?;
    outcome.set("setup_s", stats::median(&setups));
    outcome.set("serve.artifacts_build_ms", dep.artifacts_ms);
    let corpus = Corpus::from_store(dep.service.store())?;
    let mut rng = Rng::new(args.seed);
    let targets = Targets::new(&corpus, &mut rng);
    let every = all_targets(&corpus);
    println!(
        "serve-point: {} users, {} companies, {} investors; {} distinct targets, working set ~{:.1} MiB vs 16 MiB cache; zipf({ZIPF_S}) head of 1000 ids draws {:.0}% of entity reads",
        corpus.user_ids.len(),
        corpus.company_ids.len(),
        corpus.portfolios.len(),
        every.len(),
        working_set_mib(&corpus, &every),
        targets.users.1.head_share(1000) * 100.0,
    );

    let transport: Arc<dyn Transport> = Arc::new(RealTcp);
    let addr = dep.handle.addr();
    // Fill the cache past its budget with one untimed sweep over every
    // target, so the measured phases start in the steady state where tail
    // misses evict.
    let (_, sweep_wall, seen) = drive(&transport, addr, &every, lanes, None);
    judge(&mut outcome, &corpus, &every, &seen);
    println!(
        "cache sweep: {} targets in {:.2} s, {} evictions",
        every.len(),
        sweep_wall.as_secs_f64(),
        dep.telemetry.counter("serve.cache.evict").value()
    );
    let window = args.seconds as f64;
    // Untraced, the whole window measures; traced, the first half runs
    // untraced (request-class figures, overhead baseline) and the second
    // half traced.
    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let share = window / phases.len() as f64;
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let mut batch_walls: HashMap<bool, Vec<f64>> = HashMap::new();
    let mut closed_latency: Vec<f64> = Vec::new();
    let mut closed_ops = 0usize;
    let mut rss: f64 = 0.0;
    for &traced in phases {
        if let Some(rec) = &rec {
            rec.set_paused(!traced);
        }
        let before = counters(&dep.telemetry);
        let open_count = (share * OPEN_SHARE * RATE) as usize;
        let open_ops: Vec<String> = (0..open_count).map(|_| targets.draw(&mut rng)).collect();
        let (timings, _, seen) = drive(&transport, addr, &open_ops, lanes, Some(interval));
        judge(&mut outcome, &corpus, &open_ops, &seen);
        if !traced {
            let lat: Vec<f64> = timings.iter().map(|t| t.latency_us).collect();
            let sorted = stats::sorted(&lat);
            let tail = stats::tail_percentile(sorted.len()).unwrap_or(50.0);
            outcome.set("point_p50_us", stats::quantile(&sorted, 0.5));
            outcome.set("point_tail_us", stats::quantile(&sorted, tail / 100.0));
            let late: Vec<f64> = timings.iter().map(|t| t.late_us).collect();
            outcome.set("gen.late_us", stats::median(&late));
            outcome.set(
                "serve.reconnects_per_k",
                seen.reconnects as f64 * 1000.0 / open_count.max(1) as f64,
            );
            println!(
                "open loop: {open_count} reads at {RATE} req/s over {lanes} connection(s): p50 {:.0} us, p{tail} {:.0} us, {} not 200",
                stats::quantile(&sorted, 0.5),
                stats::quantile(&sorted, tail / 100.0),
                timings.iter().filter(|t| !t.ok).count()
            );
        }
        // Closed loop: whole batches until the phase's share is used up
        // (at least three, so the median has a middle).
        let closed_until = now() + Duration::from_secs_f64(share * (1.0 - OPEN_SHARE));
        let walls = batch_walls.entry(traced).or_default();
        while walls.len() < 3 || now() < closed_until {
            let ops: Vec<String> = (0..BATCH).map(|_| targets.draw(&mut rng)).collect();
            let (timings, wall, seen) = drive(&transport, addr, &ops, lanes, None);
            judge(&mut outcome, &corpus, &ops, &seen);
            walls.push(wall.as_secs_f64());
            rss = rss.max(common::self_rss_mb());
            if traced {
                closed_latency.extend(timings.iter().map(|t| t.latency_us));
                closed_ops += ops.len();
            }
        }
        if traced {
            if let Some(rec) = &rec {
                layer_metrics(
                    &mut outcome,
                    rec,
                    &dep,
                    &before,
                    &closed_latency,
                    closed_ops,
                    &targets,
                    &mut rng,
                );
            }
        }
    }
    let plain = stats::median(&batch_walls[&false]);
    let (q1, _, q3) = stats::quartiles(&batch_walls[&false]);
    outcome.set("batch_s", plain);
    outcome.set("point_capacity_rps", BATCH as f64 / plain);
    println!(
        "closed loop: {} batch(es) of {BATCH} over {lanes} connection(s): median {plain:.4} s (q1 {q1:.4}, q3 {q3:.4}; {:.0} req/s)",
        batch_walls[&false].len(),
        BATCH as f64 / plain
    );
    if let Some(traced) = batch_walls.get(&true) {
        outcome.set(
            "trace.overhead_pct",
            (stats::median(traced) - plain) / plain * 100.0,
        );
    }
    outcome.set("peak_rss_mb", rss);
    let cache = dep.service.cache_stats();
    println!(
        "result cache: {} entries, {:.1} MiB of {:.1} MiB, {} evictions",
        cache.entries,
        cache.bytes as f64 / 1048576.0,
        cache.capacity_bytes as f64 / 1048576.0,
        dep.telemetry.counter("serve.cache.evict").value()
    );
    outcome.set(
        "telemetry.span_records",
        dep.telemetry.span_records().len() as f64,
    );
    pipeline_layers(&mut outcome, &dep.telemetry);
    Deployment::shutdown(dep);
    Ok(outcome)
}

/// Counter readings at the start of the traced phase.
fn counters(t: &Telemetry) -> [u64; 3] {
    [
        t.counter("serve.cache.hit").value(),
        t.counter("serve.cache.miss").value(),
        t.counter("serve.cache.evict").value(),
    ]
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    outcome: &mut Outcome,
    rec: &Recorder,
    dep: &Deployment,
    before: &[u64; 3],
    closed_latency: &[f64],
    closed_ops: usize,
    targets: &Targets,
    rng: &mut Rng,
) {
    let after = counters(&dep.telemetry);
    let hits = (after[0] - before[0]) as f64;
    let misses = (after[1] - before[1]) as f64;
    outcome.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    outcome.set("serve.cache.evictions", (after[2] - before[2]) as f64);
    outcome.set(
        "serve.queue_depth_max",
        dep.telemetry.gauge("serve.queue_depth").value() as f64,
    );
    let mut hit_us = Vec::new();
    let mut miss_us = Vec::new();
    for (class, _) in MIX {
        hit_us.extend(rec.values(&format!("serve.{class}.hit")));
        miss_us.extend(rec.values(&format!("serve.{class}.miss")));
    }
    outcome.set("serve.handle_hit_us", stats::median(&hit_us));
    outcome.set("serve.handle_miss_us", stats::median(&miss_us));
    // Parse cost of the requests this generator sends, through the
    // server's own parser.
    let mut parse_us = Vec::new();
    for _ in 0..2_000 {
        let bytes = http::get_request(&targets.draw(rng));
        let t = now();
        let mut parser = RequestParser::new();
        parser.feed(&bytes);
        let ok = matches!(parser.poll(), Ok(Some(_)));
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !ok {
            outcome.require(Err(
                "the server's parser rejected a generated request".into()
            ));
            break;
        }
    }
    outcome.set("serve.parse_us", stats::median(&parse_us));
    // Mean request = parse + handler + the rest (socket, admission queue,
    // render and write, client).
    let handled: Vec<f64> = hit_us.iter().chain(&miss_us).copied().collect();
    let per_op_handle = handled.iter().sum::<f64>() / handled.len().max(1) as f64;
    let breakdown = Breakdown::new(
        stats::mean(closed_latency),
        vec![
            ("serve.parse".into(), stats::mean(&parse_us)),
            ("serve.handle".into(), per_op_handle),
        ],
    );
    println!(
        "traced closed loop ({closed_ops} requests): mean {:.1} us = parse {:.1} + handle {:.1} (hit median {:.1}, miss median {:.1}) + residual {:.1}",
        breakdown.total,
        breakdown.layers[0].1,
        breakdown.layers[1].1,
        stats::median(&hit_us),
        stats::median(&miss_us),
        breakdown.residual
    );
    outcome.set("serve.residual_us", breakdown.residual);
}

/// Generation, crawl and store figures of the serving deployment's corpus.
pub fn pipeline_layers(outcome: &mut Outcome, t: &Telemetry) {
    outcome.set(
        "socialsim.generate_ms",
        common::span_ms(t, "world.generate", 0),
    );
    let mut crawl_ms = 0.0;
    for source in ["angellist", "crunchbase", "facebook", "twitter"] {
        let ms = common::span_ms(t, &format!("crawl.{source}"), 0);
        crawl_ms += ms;
        outcome.set(&format!("crawl.{source}_ms"), ms);
    }
    let docs = t.counter("store.append.docs").value() as f64;
    outcome.set("crawl.docs_per_s", docs / (crawl_ms / 1e3).max(1e-3));
    outcome.set(
        "store.append_bytes",
        t.counter("store.append.bytes").value() as f64,
    );
    outcome.set(
        "store.scan_docs",
        t.counter("store.scan.docs").value() as f64,
    );
}
