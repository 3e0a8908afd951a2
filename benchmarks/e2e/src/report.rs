//! What one workload run produces: metric values, raw per-pass samples, and the
//! tally of operations and output checks that decides `correct`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec;
use crate::stats::{best, median};

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Per-pass (or per-sample) values behind a reported median.
    raw: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::better(name).is_some(),
            "{name} is not in the metric tables"
        );
        if value.is_finite() {
            self.metrics.insert(name, value);
        } else {
            self.check(false, || format!("{name} is {value}, not a finite number"));
        }
    }

    /// Report `value` and keep the samples it was worked out from for the result file.
    pub fn set_from(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        self.set(name, value);
        self.raw.insert(name, samples);
    }

    /// Report the median of `samples`: for set-up time and for ratios, which
    /// noise moves both ways.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.set_from(name, median(&samples), samples);
    }

    /// Report the best of `samples`, one per pass over the same deterministic
    /// work. Interference from the host only ever slows a pass down, so the best
    /// pass is the steadiest estimate of what the code costs; the other passes
    /// stay in the result file.
    pub fn set_best(&mut self, name: &'static str, samples: Vec<f64>) {
        let better = spec::better(name).expect("metric is in the tables");
        self.set_from(name, best(better, &samples), samples);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Count one operation or output check; `what` is only built on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            eprintln!("FAILED: {what}");
            self.failures.push(what);
        }
        ok
    }

    /// Check that a value the program computes is the same on every pass.
    pub fn check_repeats<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, values: &[T]) {
        let same = values.windows(2).all(|w| w[0] == w[1]);
        self.check(same, || {
            format!("{what} differs between passes: {values:?}")
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let fields: Vec<String> = spec::names_and_units(trace)
            .iter()
            .map(|(name, unit)| {
                // A layer the workload never enters did no work there.
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }

    /// `metric <name> <value> <unit>` lines for people and for `--repeat`.
    pub fn metric_lines(&self, trace: bool) -> String {
        let mut out = String::new();
        for (name, unit) in spec::names_and_units(trace) {
            if let Some(v) = self.get(name) {
                let n = self
                    .raw
                    .get(name)
                    .map_or(String::new(), |s| format!("  (n={})", s.len()));
                let _ = writeln!(out, "metric {name} {v} {unit}{n}");
            }
        }
        out
    }

    /// `"raw": {...}` body for the result file: every sample behind a median.
    pub fn raw_json(&self) -> String {
        let fields: Vec<String> = self
            .raw
            .iter()
            .map(|(name, samples)| {
                let values: Vec<String> = samples.iter().map(|v| v.to_string()).collect();
                format!("\"{name}\": [{}]", values.join(", "))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_of_its_mode_and_counts_failures() {
        let mut r = Report::default();
        for m in spec::END_TO_END {
            r.set(m.name, 1.5);
        }
        r.check(true, || unreachable!());
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        for m in spec::END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)),
                "{}",
                m.name
            );
        }
        r.check(false, || "boom".into());
        assert!(r
            .result_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
        let traced = r.result_line(true);
        assert!(traced.contains("\"trace.overhead_frac\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn a_non_finite_value_is_a_failure_not_a_metric() {
        let mut r = Report::default();
        r.set("setup_s", f64::NAN);
        assert_eq!(r.get("setup_s"), None);
        assert!(!r.correct());
    }

    #[test]
    fn repeats_check_flags_a_difference() {
        let mut r = Report::default();
        r.check_repeats("digest", &[7u64, 7, 7]);
        assert!(r.correct());
        r.check_repeats("digest", &[7u64, 8]);
        assert_eq!(r.failed, 1);
    }
}
