//! Exact order statistics over raw samples, process memory readings and
//! the result line the benchmark prints last.

use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of raw samples, linearly interpolated
/// between the two closest order statistics. `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

/// The median of raw samples, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Milliseconds in `duration`, with all the digits the clock gives.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM`) of a process in MiB, read from
/// `/proc/<pid>/status` (`pid` = `"self"` for this process).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// The job-time tail every workload reports: a fixed percentile per
/// workload, chosen so that the workload's minimum job count leaves at
/// least ten samples beyond it.
pub struct Tail {
    /// The percentile as a fraction, e.g. 0.75.
    pub q: f64,
    /// Jobs a run measures at least, so that `(1 - q) · jobs ≥ 10`.
    pub min_jobs: usize,
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What a run measured and whether every output it checked was right.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every check failure, in the order found (empty when correct).
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Counts a failed job.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// Marks the run invalid without counting a failed job.
    pub fn invalid(&mut self, error: String) {
        self.errors.push(error);
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (index, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if index == 0 { "" } else { ", " };
            // A non-finite value is not JSON; it only arises from a broken
            // run, which is already marked incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(4.0));
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
