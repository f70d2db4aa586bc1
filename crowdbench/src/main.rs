//! `crowdbench` — CrowdNet's end-to-end benchmark.
//!
//! ```text
//! crowdbench --workload repro-batch|serve-point|serve-scatter --seed N --seconds S --trace 0|1
//! crowdbench compare OLD_DIR NEW_DIR
//! ```
//!
//! A run prints a `header {...}` line, human-readable figures, and as its
//! last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics untraced, the per-layer metrics
//! traced. `compare` reads two directories of saved run outputs and
//! prints each metric's median and quartiles per side, flagging any
//! end-to-end metric past its `BENCHMARK.json` bound. README.md describes
//! the workloads, the metrics and reference figures.

mod batch;
mod common;
mod compare;
mod http;
mod load;
mod oracle;
mod point;
mod scatter;
mod stats;
mod trace;

use common::RunArgs;

fn usage() -> ! {
    eprintln!(
        "usage: crowdbench --workload repro-batch|serve-point|serve-scatter --seed N --seconds S --trace 0|1\n       crowdbench compare OLD_DIR NEW_DIR"
    );
    std::process::exit(2);
}

fn parse_args(raw: &[String]) -> RunArgs {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        match raw.as_slice() {
            [_, old, new] => std::process::exit(compare::run(old, new)),
            _ => usage(),
        }
    }
    let args = parse_args(&raw);
    let (scale, result) = match args.workload.as_str() {
        "repro-batch" => (
            format!("1/{}", batch::DENOM),
            batch::run as fn(&RunArgs) -> _,
        ),
        "serve-point" => (
            format!("1/{}", point::DENOM),
            point::run as fn(&RunArgs) -> _,
        ),
        "serve-scatter" => (
            format!("1/{}", scatter::DENOM),
            scatter::run as fn(&RunArgs) -> _,
        ),
        _ => usage(),
    };
    common::print_header(&args, &scale);
    match result(&args) {
        Ok(outcome) => common::print_result(&args, &outcome),
        Err(e) => {
            eprintln!("crowdbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
