//! Sample statistics and the metric record every workload reports.

/// One reported metric: a value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The faster quartile of per-pass times. Other tenants of a shared
/// host only ever slow a pass down, by up to 40% for seconds at a time
/// on the 2-core reference host; the faster quartile of a run's passes
/// is what the code costs there when the host is quiet, and it repeats
/// from run to run where the median does not.
pub fn faster_time(per_pass: &[f64]) -> f64 {
    quantile(&sorted(per_pass), 0.25)
}

/// [`faster_time`] for rates: the upper quartile.
pub fn faster_rate(per_pass: &[f64]) -> f64 {
    quantile(&sorted(per_pass), 0.75)
}

/// Geometric mean of the positive values; 0 when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .filter(|v| *v > 0.0)
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Does a sample of `n` hold at least ten values beyond quantile `q`?
fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) + 1e-9 >= 10.0
}

/// The tail percentile a sample of `n` supports: the highest of p99.9,
/// p99, p95 and p90 with at least ten samples beyond it (p50 below that).
pub fn tail_percentile(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|q| supports(n, *q))
        .unwrap_or(0.5)
}

/// Peak resident set size of this process (VmHWM) in MiB, or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Renders an `f64` as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_skips_nonpositive() {
        assert!((geomean([2.0, 8.0, 0.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_percentile(50), 0.5);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
    }
}
