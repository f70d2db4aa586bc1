//! What every workload shares: the metric catalogue, the run header, the
//! result line, memory readings and the telemetry clock.

use crowdnet_socialsim::Clock;
use crowdnet_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics (name, unit), in `BENCHMARK.json` order. Every
/// workload reports each of them; README.md says what each means there.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("batch_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (name, unit), in `BENCHMARK.json` order. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // request classes, measured by the load generator while untraced
    ("point_p50_us", "us"),
    ("point_tail_us", "us"),
    ("point_capacity_rps", "1/s"),
    ("scan_p50_ms", "ms"),
    ("scan_tail_ms", "ms"),
    ("global_p50_ms", "ms"),
    ("write_p50_us", "us"),
    // socialsim, crawl, store
    ("socialsim.generate_ms", "ms"),
    ("crawl.angellist_ms", "ms"),
    ("crawl.crunchbase_ms", "ms"),
    ("crawl.facebook_ms", "ms"),
    ("crawl.twitter_ms", "ms"),
    ("crawl.docs_per_s", "1/s"),
    ("store.append_bytes", "bytes"),
    ("store.scan_docs", "count"),
    // column, dataflow, graph, core
    ("column.build_ms", "ms"),
    ("column.bytes_ratio", "ratio"),
    ("dataflow.sql_ms", "ms"),
    ("dataflow.pairs_ms", "ms"),
    ("dataflow.kde_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.coda_fit_ms", "ms"),
    ("graph.coda_iterations", "count"),
    ("graph.model_select_ms", "ms"),
    ("core.predict_ms", "ms"),
    ("batch.residual_ms", "ms"),
    // serve front end and service
    ("serve.parse_us", "us"),
    ("serve.handle_hit_us", "us"),
    ("serve.handle_miss_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.reconnects_per_k", "count"),
    ("serve.residual_us", "us"),
    ("serve.artifacts_build_ms", "ms"),
    ("telemetry.span_records", "count"),
    // shard router
    ("router.sql_ms", "ms"),
    ("router.global_ms", "ms"),
    ("router.point_us", "us"),
    ("router.global_rebuilds", "count"),
    ("router.cache.hit_ratio", "ratio"),
    ("router.residual_ms", "ms"),
    // shardnet legs, client side then server side
    ("leg.scan_partitions_us", "us"),
    ("leg.entity_docs_us", "us"),
    ("leg.investor_edges_us", "us"),
    ("leg.company_edges_us", "us"),
    ("leg.top_k_prefix_us", "us"),
    ("leg.epoch_meta_us", "us"),
    ("leg.shard_stats_us", "us"),
    ("leg.submit_us", "us"),
    ("shard.scan_partitions_us", "us"),
    ("shard.entity_docs_us", "us"),
    ("shard.investor_edges_us", "us"),
    ("shard.company_edges_us", "us"),
    ("shard.top_k_prefix_us", "us"),
    ("shard.epoch_meta_us", "us"),
    ("shard.shard_stats_us", "us"),
    ("shard.submit_us", "us"),
    ("shard.epoch_refresh_ms", "ms"),
    // chaos transport and shardnet client
    ("wire.bytes_per_req", "bytes"),
    ("wire.legs_per_req", "count"),
    ("wire.connects", "count"),
    ("shardnet.retries", "count"),
    ("shardnet.timeouts", "count"),
    // load generator and tracing
    ("gen.late_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The shard legs, in catalogue order.
pub const LEGS: &[&str] = &[
    "scan_partitions",
    "entity_docs",
    "investor_edges",
    "company_edges",
    "top_k_prefix",
    "epoch_meta",
    "shard_stats",
    "submit",
];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Operation counts and the correctness verdict of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons for failed checks (printed, at most a few).
    pub problems: Vec<String>,
    /// A check on an answer failed (a wrong answer, not a refusal).
    pub wrong: bool,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Count one attempted operation; `check` is its verdict.
    pub fn op(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(e);
            }
        }
    }

    /// Count one attempted operation whose answer was wrong.
    pub fn wrong_answer(&mut self, why: String) {
        self.wrong = true;
        self.op(Err(why));
    }

    /// A check that is not about one operation (e.g. replay identity).
    pub fn require(&mut self, check: Result<(), String>) {
        if let Err(e) = check {
            self.wrong = true;
            self.problems.push(e);
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Print the run header: everything needed to tell two result files apart.
pub fn print_header(args: &RunArgs, scale: &str) {
    let header = crowdnet_json::obj! {
        "workload" => args.workload.as_str(),
        "scale" => scale,
        "seed" => args.seed,
        "seconds" => args.seconds,
        "trace" => args.trace,
        "nproc" => nproc(),
        "revision" => revision(),
        "profile" => if cfg!(debug_assertions) { "debug" } else { "release" },
    };
    println!("header {}", header.to_compact());
}

/// Print the result as the last stdout line: every metric of the run's
/// kind (end-to-end untraced, per-layer traced), by name with its unit.
pub fn print_result(args: &RunArgs, outcome: &Outcome) {
    for p in &outcome.problems {
        println!("check failed: {p}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = crowdnet_json::Object::new();
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(*name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.insert(
            *name,
            crowdnet_json::obj! {"value" => value, "unit" => *unit},
        );
    }
    let result = crowdnet_json::obj! {
        "correct" => !outcome.wrong,
        "attempted" => outcome.attempted.max(1),
        "failed" => outcome.failed,
        "metrics" => crowdnet_json::Value::Obj(metrics),
    };
    println!("{}", result.to_compact());
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The git revision when the checkout is a repository, else a fingerprint
/// of the workspace sources (so two trees can still be told apart).
pub fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !rev.is_empty() {
            return rev;
        }
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            for b in f.to_string_lossy().bytes().chain(bytes) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("src-{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// The benchmark's one wall-clock read. It measures the program in real
/// time, so every timing takes its instants from here.
pub fn now() -> Instant {
    // lint:allow(no-wallclock): a benchmark times the program against the wall clock
    Instant::now()
}

/// This process's current resident set, MiB (`VmRSS`). The serving
/// workloads sample it while they serve and report the highest reading:
/// the memory a deployment holds under load, without the transients of
/// building the corpus and the set-ups before it.
pub fn self_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A telemetry sink on the wall clock (ms), bound before any tier can bind
/// its simulated clock, so crawl spans measure real time.
pub fn wall_telemetry() -> Telemetry {
    let telemetry = Telemetry::new();
    let wall = crowdnet_socialsim::clock::SystemClock;
    telemetry.bind_clock(Arc::new(move || wall.now_ms()));
    telemetry
}

/// Wall-clock duration of the spans named `name` recorded at or after
/// position `from` of the span log, in ms.
pub fn span_ms(telemetry: &Telemetry, name: &str, from: usize) -> f64 {
    telemetry
        .span_records()
        .iter()
        .skip(from)
        .filter(|s| s.name == name)
        .filter_map(|s| s.end_ms.map(|e| e.saturating_sub(s.start_ms) as f64))
        .sum()
}

/// Deterministic per-run RNG stream (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Zipf(s) over ranks `0..n`: rank 0 is the most popular. Ranks map to
/// items through a seeded shuffle, so the hot set is not the lowest ids.
pub struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut order: Vec<usize> = (0..n.max(1)).collect();
        for i in (1..order.len()).rev() {
            let j = rng.below(i + 1);
            order.swap(i, j);
        }
        Zipf { cdf, order }
    }

    /// An item index in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }

    /// Share of draws landing on the `k` most popular items.
    pub fn head_share(&self, k: usize) -> f64 {
        self.cdf.get(k.saturating_sub(1)).copied().unwrap_or(1.0)
    }
}

/// Scratch space inside the checkout (ignored by git).
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(".crowdbench").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::Value;

    /// The catalogue the runs print is the one `BENCHMARK.json` declares.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn zipf_draws_favour_the_head_and_stay_in_range() {
        let mut rng = Rng::new(7);
        let z = Zipf::new(1_000, 1.1, &mut rng);
        let mut counts = vec![0usize; 1_000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = sorted[..10].iter().sum();
        let share = head as f64 / 20_000.0;
        assert!(
            (z.head_share(10) - share).abs() < 0.05,
            "{share} vs {}",
            z.head_share(10)
        );
        assert!(share > 0.3, "head share {share}");
    }
}
