//! What one repetition reports: correctness, failure accounting, the wall
//! time of its measured work, and every metric it measured, each with its
//! unit. Printed as one `RESULT {json}` line for the orchestrator.

use std::fmt::Write as _;

use crate::stats::{Pct, Ratio};

/// Unit of a ratio in `0..=1`.
pub const RATIO: &str = "ratio";
pub const COUNT: &str = "count";

#[derive(Debug, Default)]
pub struct Rep {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the measured work, timed the same way whether spans
    /// are on or off: the basis of `trace.overhead_pct`.
    pub work_s: f64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why the correctness check failed, when it did.
    pub problems: Vec<String>,
}

impl Rep {
    pub fn new() -> Rep {
        Rep {
            correct: true,
            ..Rep::default()
        }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, n: u64) {
        self.put(name, n as f64, COUNT);
    }

    /// A ratio and, under `<name>.base`, the count it was taken over.
    pub fn ratio(&mut self, name: &str, r: Ratio) {
        self.put(name, r.value(), RATIO);
        self.count(format!("{name}.base"), r.base);
    }

    /// A percentile family named `<stem>p50<suffix>` and `<stem>p99<suffix>`
    /// (the highest percentile with ten samples beyond it, see
    /// [`crate::stats::tail`]), with its sample count under `<stem>n`.
    /// `scale` converts the samples' unit into `unit`.
    pub fn percentiles(
        &mut self,
        (stem, suffix): (&str, &str),
        samples: Vec<f64>,
        scale: f64,
        unit: &'static str,
    ) {
        let sorted = crate::stats::sorted(samples);
        let value = |p: Option<Pct>| p.map_or(0.0, |p| p.value * scale);
        self.put(
            format!("{stem}p50{suffix}"),
            value(crate::stats::median(&sorted)),
            unit,
        );
        self.put(
            format!("{stem}p99{suffix}"),
            value(crate::stats::tail(&sorted, 99)),
            unit,
        );
        self.count(format!("{stem}n"), sorted.len() as u64);
    }

    /// Fail the correctness check, saying why.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.problems.push(why.into());
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail_check(why());
        }
    }

    /// The `RESULT` line: one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"work_s\":{},\"metrics\":{{",
            self.correct,
            self.attempted,
            self.failed,
            num(self.work_s)
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":[{},\"{unit}\"]", num(*value));
        }
        out.push_str("},\"problems\":[");
        for (i, p) in self.problems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            dbpc_obs::json::write_str(&mut out, p);
        }
        out.push_str("]}");
        out
    }
}

/// A JSON number with all its digits (non-finite values read as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(write_bytes, syscw)` from `/proc/self/io`: bytes this process sent
/// to the storage layer and write syscalls it made.
pub fn os_io() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("write_bytes:"), field("syscw:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ratio_carries_its_base() {
        let mut rep = Rep::new();
        rep.ratio("analyzer.cache_hit_ratio", Ratio::new(3, 4));
        assert_eq!(
            rep.metrics[0],
            ("analyzer.cache_hit_ratio".into(), 0.75, RATIO)
        );
        assert_eq!(
            rep.metrics[1],
            ("analyzer.cache_hit_ratio.base".into(), 4.0, COUNT)
        );
    }

    #[test]
    fn percentile_family_reports_its_sample_count() {
        let mut rep = Rep::new();
        rep.percentiles(
            ("x_", "_ms"),
            (1..=2000).map(f64::from).collect(),
            0.5,
            "ms",
        );
        let get = |n: &str| rep.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("x_p50_ms"), 500.0);
        assert_eq!(get("x_p99_ms"), 990.0);
        assert_eq!(get("x_n"), 2000.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let mut rep = Rep::new();
        rep.attempted = 3;
        rep.work_s = 1.0 / 3.0;
        rep.put("a", 0.1234567891, "s");
        rep.fail_check("bad \"thing\"");
        let line = rep.to_json();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"work_s\":0.3333333333333333"));
        assert!(line.contains("\"a\":[0.1234567891,\"s\"]"));
        assert!(line.contains("bad \\\"thing\\\""));
    }
}
