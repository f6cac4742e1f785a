//! What one workload run produced, and how it is printed.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single reading).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The outcome of one measured phase of a workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests attempted (the `error_rate` denominator).
    pub attempted: u64,
    /// Err responses plus requests lost to transport errors.
    pub failed: u64,
    /// Failed correctness, leak and accounting checks, one line each.
    pub failures: Vec<String>,
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced phase only), in `BENCHMARK.json` order.
    pub per_layer: Vec<Metric>,
    /// Wall seconds per unit of work (a lock-step round or a settled
    /// tick): the base `trace.overhead` compares.
    pub seconds_per_unit: f64,
    /// Process CPU time over the measured phase, divided by wall time
    /// times the core count.
    pub cpu_util: f64,
    /// Shares of a root span the traced run attributes to each layer,
    /// printed beside the per-layer metrics.
    pub shares: Vec<(String, f64)>,
    /// Server worker threads the evented runtime auto-sized to (0 where
    /// no server runs).
    pub server_workers: usize,
}

impl Outcome {
    /// Records a check: a false `ok` adds `what` to the failures.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            10,
            0,
            &[
                Metric::new("setup_s", 0.25, "s", 5),
                Metric::new("req_per_s", 2.0, "1/s", 1),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"req_per_s\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
