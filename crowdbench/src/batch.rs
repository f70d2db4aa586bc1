//! `repro-batch`: the paper's own output, produced by the `repro` binary.
//!
//! Untraced, the workload times whole `repro --columnar` runs back to back,
//! in rounds of one run per world (five worlds per seed) plus a repeat of
//! the first world, whose stdout must match byte for byte; whole rounds
//! until the run length is used up. Traced, it runs `repro` once
//! untraced, then makes the same calls `repro` makes, in process, timing
//! each public function.

use crate::common::now;
use crate::common::{self, Outcome, RunArgs};
use crate::oracle::{self, Corpus};
use crate::stats;
use crate::trace::Breakdown;
use crowdnet_column::{ColumnConfig, ColumnSet};
use crowdnet_core::experiments::{
    communities, correlations, dataset_stats, fig3, fig4, fig5, fig6, fig7, investor_graph, predict,
};
use crowdnet_core::pipeline::{DatasetStats, PipelineOutcome};
use crowdnet_crawl::Crawler;
use crowdnet_dataflow::ExecCtx;
use crowdnet_socialsim::World;
use crowdnet_store::Store;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fraction of the paper's crawl the batch runs at.
pub const DENOM: u32 = 32;

/// The experiments, in the order `repro` runs them.
pub const EXPERIMENTS: &[&str] = &[
    "dataset-stats",
    "fig3",
    "fig6",
    "investor-graph",
    "communities",
    "fig4",
    "fig5",
    "fig7",
    "correlations",
    "predict",
    "query",
];

/// The line `repro` prints once generation, crawl and column projection
/// are done: the end of its set-up.
const SETUP_DONE: &str = "crawled:";

/// One timed `repro` run.
struct ReproRun {
    stdout: String,
    wall: Duration,
    setup: Duration,
    /// Spawn time minus the scheduled start (the previous run's end).
    late: Duration,
    max_rss_kb: u64,
    status_ok: bool,
}

/// Build `repro` from the checkout's sources (a no-op when up to date)
/// and return its path.
pub fn build_repro() -> Result<PathBuf, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let status = Command::new("cargo")
        .args([
            "build",
            "--quiet",
            "--release",
            "--offline",
            "-p",
            "crowdnet-core",
            "--bin",
            "repro",
            "--target-dir",
            &target,
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed: {status}"));
    }
    Ok(Path::new(&target).join("release").join("repro"))
}

fn run_repro(repro: &Path, seed: u64, out: &Path, scheduled: Instant) -> Result<ReproRun, String> {
    let mut cmd = Command::new(repro);
    cmd.args([
        "--columnar",
        "--scale",
        &format!("1/{DENOM}"),
        "--seed",
        &seed.to_string(),
    ])
    .arg("--out")
    .arg(out)
    .args(EXPERIMENTS)
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    let start = now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn repro: {e}"))?;
    let late = start.saturating_duration_since(scheduled);
    let mut setup = None;
    let mut stdout = String::new();
    if let Some(pipe) = child.stdout.take() {
        for line in BufReader::new(pipe).lines() {
            let line = line.map_err(|e| format!("repro stdout: {e}"))?;
            if setup.is_none() && line.starts_with(SETUP_DONE) {
                setup = Some(start.elapsed());
            }
            stdout.push_str(&line);
            stdout.push('\n');
        }
    }
    let (status_ok, max_rss_kb) = reap(&mut child)?;
    let wall = start.elapsed();
    Ok(ReproRun {
        stdout,
        wall,
        setup: setup.unwrap_or(wall),
        late,
        max_rss_kb,
        status_ok,
    })
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then fourteen
/// longs, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Wait for the child and read its own peak RSS from the kernel's
/// accounting. Returns (exited with 0, peak RSS KiB).
fn reap(child: &mut std::process::Child) -> Result<(bool, u64), String> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are valid for writes for the duration
    // of the call, and `pid` is our own unreaped child.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if rc != pid {
        // Fall back to std's wait (no RSS figure then).
        let st = child.wait().map_err(|e| format!("wait repro: {e}"))?;
        return Ok((st.success(), 0));
    }
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_zero, usage.maxrss.max(0) as u64))
}

/// Check one run's output against oracles computed from the corpus.
fn check_run(run: &ReproRun, out: &Path, store: &Store, corpus: &Corpus) -> Result<(), String> {
    if !run.status_ok {
        return Err("repro exited with an error".into());
    }
    oracle::check_section3(&run.stdout, store)?;
    let csv = std::fs::read_to_string(out.join("fig3_investment_cdf.csv"))
        .map_err(|e| format!("fig3 csv: {e}"))?;
    oracle::check_cdf_csv(&csv)?;
    oracle::check_dkw(&run.stdout)?;
    oracle::check_graph_edges(&run.stdout, corpus)
}

/// Worlds one run covers. A world's shape moves the batch's cost by up to
/// ±15% (feature selection in `predict`, CoDA and the fig4 pair sample
/// most), so a run averages over several worlds derived from `--seed`.
pub const WORLDS: u64 = 5;

pub fn worlds(seed: u64) -> Vec<u64> {
    (0..WORLDS)
        .map(|k| seed.wrapping_mul(WORLDS).wrapping_add(k))
        .collect()
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let repro = build_repro()?;
    let worlds = worlds(args.seed);
    let out = common::scratch_dir("repro-batch");
    let mut outcome = Outcome::default();

    // A round is one run per world and a second run of the first world,
    // whose stdout must match its first byte for byte; whole rounds until
    // the window is used up. Traced, one untraced run of the first world
    // is the overhead baseline. The oracle corpora are built after the
    // runs, so the runs start from a small parent process.
    let round: Vec<usize> = if args.trace {
        vec![0]
    } else {
        (0..worlds.len()).chain([0]).collect()
    };
    let window = Duration::from_secs(args.seconds);
    let begin = now();
    let mut runs: Vec<(usize, PathBuf, ReproRun)> = Vec::new();
    let mut scheduled = now();
    loop {
        for &i in &round {
            // One output directory per world: stdout names it, and a
            // repeat must print exactly what the first run printed.
            let dir = out.join(format!("world{}", worlds[i]));
            let run = run_repro(&repro, worlds[i], &dir, scheduled)?;
            scheduled = now();
            runs.push((i, dir, run));
        }
        if args.trace || begin.elapsed() >= window {
            break;
        }
    }
    let walls: Vec<f64> = runs.iter().map(|(_, _, r)| r.wall.as_secs_f64()).collect();
    let setups: Vec<f64> = runs.iter().map(|(_, _, r)| r.setup.as_secs_f64()).collect();
    // Each run's own peak, averaged over the runs (the worlds differ).
    let peaks: Vec<f64> = runs
        .iter()
        .map(|(_, _, r)| r.max_rss_kb as f64 / 1024.0)
        .collect();
    let rss = stats::mean(&peaks);
    // The mean, not the median: the spread between runs is mostly the
    // worlds' own, which a mean averages down faster.
    let mean = stats::mean(&walls);
    let (q1, med, q3) = stats::quartiles(&walls);
    println!(
        "repro-batch: {} run(s) of repro --columnar --scale 1/{DENOM} over worlds {worlds:?}: wall mean {mean:.3} s (q1 {q1:.3}, median {med:.3}, q3 {q3:.3}), set-up median {:.3} s, mean peak RSS {rss:.1} MiB",
        runs.len(),
        stats::median(&setups),
    );
    outcome.set("batch_s", mean);
    outcome.set("setup_s", stats::median(&setups));
    outcome.set("peak_rss_mb", rss);
    let late: Vec<f64> = runs
        .iter()
        .map(|(_, _, r)| r.late.as_secs_f64() * 1e6)
        .collect();
    outcome.set("gen.late_us", stats::median(&late));

    // Checks, after the timed runs: each world's oracle corpus, crawled
    // in process with the same configuration.
    let mut first_corpus = None;
    for (i, &w) in worlds.iter().enumerate() {
        let mine: Vec<&(usize, PathBuf, ReproRun)> =
            runs.iter().filter(|(j, _, _)| *j == i).collect();
        if mine.is_empty() {
            continue;
        }
        let reference = oracle::crawl(w, DENOM, &crowdnet_telemetry::Telemetry::new())?;
        let corpus = Corpus::from_store(&reference.store)?;
        for (_, dir, run) in &mine {
            match check_run(run, dir, &reference.store, &corpus) {
                Err(e) if run.status_ok => outcome.wrong_answer(format!("world {w}: {e}")),
                other => outcome.op(other),
            }
        }
        if mine.iter().any(|(_, _, r)| r.stdout != mine[0].2.stdout) {
            outcome.require(Err(format!(
                "world {w}: one seed gave different stdout on two runs"
            )));
        }
        if i == 0 {
            first_corpus = Some(corpus);
        }
    }
    if args.trace {
        let corpus = first_corpus.ok_or("no run of the first world")?;
        traced(worlds[0], &mut outcome, &corpus, mean * 1e3)?;
    }
    Ok(outcome)
}

/// The traced half: `repro`'s calls made in process, each timed.
fn traced(
    world_seed: u64,
    outcome: &mut Outcome,
    corpus: &Corpus,
    plain_ms: f64,
) -> Result<(), String> {
    let telemetry = common::wall_telemetry();
    let cfg = oracle::pipeline_config(world_seed, DENOM, &telemetry);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let total = now();

    let t = now();
    let world = Arc::new(World::generate(&cfg.world));
    let generate_ms = ms(t);

    let store = Store::memory(cfg.partitions).with_telemetry(&telemetry);
    let mut crawl_cfg = cfg.crawl.clone();
    crawl_cfg.telemetry = telemetry.clone();
    let t = now();
    let crawl = Crawler::new(Arc::clone(&world), crawl_cfg)
        .run(&store)
        .map_err(|e| format!("crawl: {e}"))?;
    let crawl_ms = ms(t);
    for source in ["angellist", "crunchbase", "facebook", "twitter"] {
        outcome.set(
            &format!("crawl.{source}_ms"),
            common::span_ms(&telemetry, &format!("crawl.{source}"), 0),
        );
    }
    let appended = telemetry.counter("store.append.docs").value() as f64;
    outcome.set("crawl.docs_per_s", appended / (crawl_ms / 1e3).max(1e-9));

    let t = now();
    let set = ColumnSet::build_from_store(&store, ColumnConfig::default(), Some(&telemetry))
        .map_err(|e| format!("columns: {e}"))?;
    let column_ms = ms(t);
    let column_bytes = set.catalog().stats().encoded_bytes as f64;
    let store_bytes: f64 = store
        .stats()
        .map_err(|e| format!("stats: {e}"))?
        .iter()
        .map(|s| s.encoded_bytes as f64)
        .sum();
    outcome.set("column.bytes_ratio", column_bytes / store_bytes.max(1.0));

    let dataset = DatasetStats {
        companies: crawl.bfs.companies,
        users: crawl.bfs.users,
        crunchbase: crawl.augment.resolved(),
        facebook: crawl.facebook.facebook_pages,
        twitter: crawl.twitter.twitter_profiles,
    };
    let run = PipelineOutcome {
        world,
        store,
        crawl,
        dataset,
        ctx: ExecCtx::new(cfg.threads),
        config: cfg.clone(),
        telemetry: telemetry.clone(),
        columns: Some(set.catalog()),
    };
    let err = |what: &str| {
        let what = what.to_string();
        move |e: crowdnet_core::CoreError| format!("{what}: {e}")
    };

    let t = now();
    dataset_stats::run(&run).map_err(err("dataset-stats"))?;
    fig3::run(&run).map_err(err("fig3"))?;
    fig6::run(&run).map_err(err("fig6"))?;
    let other_a = ms(t);

    let t = now();
    let (graph_result, _) = investor_graph::run(&run).map_err(err("investor-graph"))?;
    let graph_ms = ms(t);
    if graph_result.edges != corpus.edge_count() {
        outcome.wrong_answer(format!(
            "traced investor graph has {} edges, corpus walk {}",
            graph_result.edges,
            corpus.edge_count()
        ));
    }

    let t = now();
    let (_, filtered, model, coda_cfg) = communities::run(&run).map_err(err("communities"))?;
    let coda_ms = ms(t);
    outcome.set("graph.coda_iterations", model.ll_trace.len() as f64);
    let k = coda_cfg.communities;
    let t = now();
    crowdnet_graph::coda::choose_communities(
        &filtered,
        &[k / 2, k, k * 2],
        &coda_cfg,
        0.1,
        run.config.world.seed,
    );
    let select_ms = ms(t);

    let t = now();
    fig4::run(&run).map_err(err("fig4"))?;
    let pairs_ms = ms(t);
    let t = now();
    fig5::run(&run).map_err(err("fig5"))?;
    let kde_ms = ms(t);

    let t = now();
    fig7::run(&run).map_err(err("fig7"))?;
    correlations::run(&run).map_err(err("correlations"))?;
    let other_b = ms(t);

    let t = now();
    predict::run(&run).map_err(err("predict"))?;
    let predict_ms = ms(t);

    let sql = "SELECT role, COUNT(*) AS n, AVG(follow_count) AS avg_follows \
               FROM users GROUP BY role ORDER BY n DESC";
    let t = now();
    let docs = crowdnet_dataflow::dataset::scan_store(
        &run.store,
        crowdnet_crawl::bfs::NS_USERS,
        crowdnet_store::SnapshotId(0),
        run.ctx,
    )
    .map_err(|e| format!("scan: {e}"))?
    .map(|d| d.body);
    crowdnet_dataflow::sql::query(sql, docs).map_err(|e| format!("sql: {e}"))?;
    let sql_ms = ms(t);
    let total_ms = ms(total);

    let breakdown = Breakdown::new(
        total_ms,
        vec![
            ("socialsim.generate".into(), generate_ms),
            ("crawl".into(), crawl_ms),
            ("column.build".into(), column_ms),
            ("graph.build".into(), graph_ms),
            ("graph.coda_fit".into(), coda_ms),
            ("graph.model_select".into(), select_ms),
            ("dataflow.pairs".into(), pairs_ms),
            ("dataflow.kde".into(), kde_ms),
            ("core.predict".into(), predict_ms),
            ("dataflow.sql".into(), sql_ms),
        ],
    );
    println!(
        "repro-batch traced: {total_ms:.1} ms in process vs {plain_ms:.1} ms for the repro binary"
    );
    for (name, v) in &breakdown.layers {
        println!("  {name:<22} {v:>10.1} ms");
    }
    println!(
        "  {:<22} {:>10.1} ms (other experiments {:.1} ms, rest {:.1} ms)",
        "residual",
        breakdown.residual,
        other_a + other_b,
        breakdown.residual - other_a - other_b
    );
    for (name, v) in &breakdown.layers {
        outcome.set(&format!("{name}_ms"), *v);
    }
    outcome.set("batch.residual_ms", breakdown.residual);
    outcome.set(
        "store.append_bytes",
        telemetry.counter("store.append.bytes").value() as f64,
    );
    outcome.set(
        "store.scan_docs",
        telemetry.counter("store.scan.docs").value() as f64,
    );
    outcome.set(
        "telemetry.span_records",
        telemetry.span_records().len() as f64,
    );
    outcome.set(
        "trace.overhead_pct",
        (total_ms - plain_ms) / plain_ms.max(1e-9) * 100.0,
    );
    Ok(())
}
