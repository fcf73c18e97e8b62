//! Metric bookkeeping: checked operations, named metrics with units, and
//! the order statistics the metrics are reported as.

use std::collections::BTreeMap;

/// What one workload run produced: metrics by name, plus the count of
/// output checks attempted and failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Counts one checked operation; a failure is logged to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Records a metric; a value that is not a finite number is a failed
    /// check (and is printed as JSON `null`).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || {
            format!("metric {name} = {value} {unit} is not a finite number")
        });
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Takes the checks of `other`, not its metrics.
    pub fn absorb_checks(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Takes the checks of `other`, and those of its metrics this outcome
    /// does not have yet.
    pub fn absorb_missing(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.metrics {
            self.metrics.entry(k).or_insert(v);
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB; NaN if it
/// cannot be read.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// A JSON number with all its digits, or `null` for a value that is not
/// finite (which [`Outcome::set`] has already counted as a failed check).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_json() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("a_ms", 1.25, "ms");
        let line = result_json(&o);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(v.as_object().is_some());
        assert!(line.contains("\"correct\": true"));
    }

    #[test]
    fn non_finite_metric_fails_and_prints_null() {
        let mut o = Outcome::default();
        o.set("a_ms", f64::NAN, "ms");
        o.set("b_ms", f64::INFINITY, "ms");
        assert_eq!((o.attempted, o.failed), (2, 2));
        let line = result_json(&o);
        assert!(line.contains("\"correct\": false"), "{line}");
        assert!(line.contains("\"a_ms\": {\"value\": null"), "{line}");
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(v.as_object().is_some());
    }
}
