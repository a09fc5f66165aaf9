//! `bench compare BASE.json... -- HEAD.json...`: the verdict on a change.
//!
//! Each file is one run's `--out` record (or a multi-workload `--out`
//! file holding several). For every metric × workload it prints each
//! side's median and quartiles and a verdict, by the rule the benchmark
//! is held to:
//!
//! * `improved`: the head run beats its paired base run in at least nine
//!   pairs out of ten (ties count for neither side) and the medians
//!   differ by more than the base runs' interquartile range;
//! * `regressed`: the head median is worse than the base median by more
//!   than the metric's bound from `BENCHMARK.json`;
//! * `unresolved`: the base runs spread wider than the bound, and not
//!   every head run beats every base run;
//! * `unchanged`: otherwise.
//!
//! With traced records on both sides it also names, per workload, the
//! layer whose self time per operation moved the most.

use crate::stats::{self, Metric};
use chls::jsonin::{self, Value};
use std::collections::BTreeMap;

/// The metrics of one result object (`{"metrics": {name: {value, unit}}}`).
pub fn metrics_of(result: &Value) -> Vec<Metric> {
    let Some(Value::Obj(m)) = result.get("metrics") else {
        return Vec::new();
    };
    m.iter()
        .filter_map(|(name, v)| {
            let value = v.get("value").and_then(Value::as_f64)?;
            let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
            Some(Metric::new(name.clone(), value, unit))
        })
        .collect()
}

/// One run record: its workload, metrics and per-layer ms/op.
struct Run {
    workload: String,
    metrics: Vec<Metric>,
    layers: BTreeMap<String, f64>,
}

fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = jsonin::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let records: Vec<&Value> = match v.get("runs").and_then(Value::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![&v],
    };
    records
        .into_iter()
        .map(|r| {
            let workload = r
                .str_of("workload")
                .ok_or_else(|| format!("{path}: a record names no workload"))?;
            let result = r
                .get("result")
                .ok_or_else(|| format!("{path}: a record has no result"))?;
            let layers = match r.get("layer_ms_per_op") {
                Some(Value::Obj(m)) => m
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect(),
                _ => BTreeMap::new(),
            };
            Ok(Run {
                workload: workload.to_string(),
                metrics: metrics_of(result),
                layers,
            })
        })
        .collect()
}

/// (better, bound) per metric from `BENCHMARK.json`; per-layer metrics
/// have no bound.
fn contract() -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let v = jsonin::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in v.get(key).and_then(Value::as_arr).unwrap_or(&[]) {
            let name = m
                .str_of("name")
                .ok_or("BENCHMARK.json: metric without a name")?;
            let higher = m.str_of("better") == Some("higher");
            out.insert(
                name.to_string(),
                (higher, m.get("bound").and_then(Value::as_f64)),
            );
        }
    }
    Ok(out)
}

fn verdict(base: &[f64], head: &[f64], higher: bool, bound: Option<f64>) -> &'static str {
    let better = |h: f64, b: f64| if higher { h > b } else { h < b };
    let pairs = base.len().min(head.len());
    let wins = (0..pairs).filter(|&i| better(head[i], base[i])).count();
    let (bs, hs) = (stats::sorted(base), stats::sorted(head));
    let (bm, hm) = (stats::quantile(&bs, 0.5), stats::quantile(&hs, 0.5));
    let iqr = stats::quantile(&bs, 0.75) - stats::quantile(&bs, 0.25);
    let all_better = hs.iter().all(|h| bs.iter().all(|b| better(*h, *b)));
    let worse_by = if higher {
        (bm - hm) / bm.abs().max(1e-12)
    } else {
        (hm - bm) / bm.abs().max(1e-12)
    };
    if pairs > 0 && wins * 10 >= pairs * 9 && (hm - bm).abs() > iqr && better(hm, bm) {
        "improved"
    } else if bound.is_some_and(|b| worse_by > b) {
        "regressed"
    } else if bound.is_some_and(|b| iqr / bm.abs().max(1e-12) > b) && !all_better {
        "unresolved"
    } else {
        "unchanged"
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: bench compare BASE.json... -- HEAD.json...")?;
    let load = |paths: &[String]| -> Result<Vec<Run>, String> {
        let mut runs = Vec::new();
        for p in paths {
            runs.extend(read_runs(p)?);
        }
        Ok(runs)
    };
    let (base, head) = (load(&args[..split])?, load(&args[split + 1..])?);
    if base.is_empty() || head.is_empty() {
        return Err("each side needs at least one run record".to_string());
    }
    let contract = contract()?;
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<10} {:<28} {:>12} {:>25} {:>12} {:>25}  verdict",
        "workload", "metric", "base p50", "base [q1, q3]", "head p50", "head [q1, q3]"
    );
    for w in workloads {
        let b: Vec<&Run> = base.iter().filter(|r| r.workload == w).collect();
        let h: Vec<&Run> = head.iter().filter(|r| r.workload == w).collect();
        let names: Vec<String> = b
            .iter()
            .flat_map(|r| r.metrics.iter().map(|m| m.name.clone()))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for name in names {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.iter().find(|m| m.name == name).map(|m| m.value))
                    .collect()
            };
            let (bv, hv) = (values(&b), values(&h));
            if hv.is_empty() {
                continue;
            }
            let (higher, bound) = contract.get(&name).copied().unwrap_or((false, None));
            let q = |v: &[f64]| {
                let s = stats::sorted(v);
                (
                    stats::quantile(&s, 0.5),
                    stats::quantile(&s, 0.25),
                    stats::quantile(&s, 0.75),
                )
            };
            let ((bm, b1, b3), (hm, h1, h3)) = (q(&bv), q(&hv));
            println!(
                "{w:<10} {name:<28} {bm:>12.5} {:>25} {hm:>12.5} {:>25}  {}",
                format!("[{b1:.5}, {b3:.5}]"),
                format!("[{h1:.5}, {h3:.5}]"),
                verdict(&bv, &hv, higher, bound)
            );
        }
        let layer_median = |runs: &[&Run], layer: &str| {
            stats::median(
                &runs
                    .iter()
                    .filter_map(|r| r.layers.get(layer).copied())
                    .collect::<Vec<_>>(),
            )
        };
        let moved = b
            .iter()
            .flat_map(|r| r.layers.keys())
            .map(|l| (l, layer_median(&h, l) - layer_median(&b, l)))
            .filter(|(_, d)| d.is_finite())
            .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()));
        if let Some((layer, delta)) = moved.filter(|_| h.iter().any(|r| !r.layers.is_empty())) {
            println!("{w:<10} layer moved most: {layer} ({delta:+.4} ms of self time per op)");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_rule() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 10.2, 9.9];
        let faster = base.map(|v| v * 0.8);
        let slower = base.map(|v| v * 1.2);
        assert_eq!(verdict(&base, &faster, false, Some(0.1)), "improved");
        assert_eq!(verdict(&base, &slower, false, Some(0.1)), "regressed");
        assert_eq!(verdict(&base, &base, false, Some(0.1)), "unchanged");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&noisy, &noisy, false, Some(0.1)), "unresolved");
        assert_eq!(verdict(&base, &faster, true, Some(0.1)), "regressed");
    }
}
