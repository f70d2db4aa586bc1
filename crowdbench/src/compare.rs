//! `crowdbench compare OLD_DIR NEW_DIR`: each directory holds saved
//! outputs of runs (one file per run). For every workload and metric it
//! prints both sides' median and quartiles, and flags each end-to-end
//! metric whose new median is worse than the old one by more than its
//! `BENCHMARK.json` bound. Exit code 1 when anything is flagged.

use crate::stats;
use crowdnet_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, traced) → metric → values, plus each metric's unit.
type Side = BTreeMap<(String, bool), BTreeMap<String, (String, Vec<f64>)>>;

/// Read one saved run: its header and its result line.
/// (name, unit, value) of each metric of one run.
type Metrics = Vec<(String, String, f64)>;

fn parse_run(text: &str) -> Option<((String, bool), Metrics)> {
    let header = text
        .lines()
        .find_map(|l| l.strip_prefix("header "))
        .and_then(|h| Value::parse(h).ok())?;
    let workload = header.get("workload")?.as_str()?.to_string();
    let traced = header
        .get("trace")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let result = Value::parse(text.lines().rev().find(|l| !l.trim().is_empty())?).ok()?;
    let metrics = result.get("metrics")?.as_obj()?;
    let values = metrics
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.to_string(),
                m.get("unit")?.as_str()?.to_string(),
                m.get("value")?.as_f64()?,
            ))
        })
        .collect();
    Some(((workload, traced), values))
}

fn read_side(dir: &str) -> Result<Side, String> {
    let mut side = Side::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for entry in entries.flatten() {
        let Ok(text) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        if let Some((key, values)) = parse_run(&text) {
            let metrics = side.entry(key).or_default();
            for (name, unit, v) in values {
                metrics
                    .entry(name)
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(v);
            }
        }
    }
    Ok(side)
}

/// End-to-end metric → (better, bound), from `BENCHMARK.json`.
fn bounds(path: &Path) -> BTreeMap<String, (String, f64)> {
    let mut out = BTreeMap::new();
    let Some(doc) = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Value::parse(&t).ok())
    else {
        return out;
    };
    for m in doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
    {
        if let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Value::as_str),
            m.get("better").and_then(Value::as_str),
            m.get("bound").and_then(Value::as_f64),
        ) {
            out.insert(name.to_string(), (better.to_string(), bound));
        }
    }
    out
}

/// How much worse `new` is than `old`, as a share of `old` (positive =
/// worse).
pub fn worsening(better: &str, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    let change = (new - old) / old.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

pub fn run(old_dir: &str, new_dir: &str) -> i32 {
    let (old, new) = match (read_side(old_dir), read_side(new_dir)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let bounds = bounds(Path::new("BENCHMARK.json"));
    let mut flagged = 0;
    for (key, old_metrics) in &old {
        let Some(new_metrics) = new.get(key) else {
            println!(
                "{} (trace {}): no runs on the new side",
                key.0,
                u8::from(key.1)
            );
            continue;
        };
        println!("== {} (trace {})", key.0, u8::from(key.1));
        println!(
            "{:<28} {:>8} {:>36} {:>36}  verdict",
            "metric", "unit", "old q1 / median / q3 (n)", "new q1 / median / q3 (n)"
        );
        for (name, (unit, old_values)) in old_metrics {
            let Some((_, new_values)) = new_metrics.get(name) else {
                continue;
            };
            let (oq1, om, oq3) = stats::quartiles(old_values);
            let (nq1, nm, nq3) = stats::quartiles(new_values);
            let verdict = match (key.1, bounds.get(name)) {
                (false, Some((better, bound))) => {
                    let worse = worsening(better, om, nm);
                    if worse > *bound {
                        flagged += 1;
                        format!(
                            "WORSE by {:.1}% (bound {:.0}%)",
                            worse * 100.0,
                            bound * 100.0
                        )
                    } else {
                        format!("ok ({:+.1}%, bound {:.0}%)", -worse * 100.0, bound * 100.0)
                    }
                }
                _ => String::new(),
            };
            println!(
                "{name:<28} {unit:>8} {:>36} {:>36}  {verdict}",
                format!("{oq1:.4} / {om:.4} / {oq3:.4} ({})", old_values.len()),
                format!("{nq1:.4} / {nm:.4} / {nq3:.4} ({})", new_values.len()),
            );
        }
    }
    if flagged > 0 {
        println!("{flagged} end-to-end metric(s) past their bound");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening("lower", 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening("higher", 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert!(worsening("lower", 10.0, 9.0) < 0.0);
    }

    #[test]
    fn parses_a_saved_run() {
        let text = "header {\"workload\":\"serve-point\",\"trace\":false}\nsome line\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let ((w, t), m) = parse_run(text).unwrap();
        assert_eq!((w.as_str(), t), ("serve-point", false));
        assert_eq!(m, vec![("setup_s".to_string(), "s".to_string(), 1.5)]);
    }
}
