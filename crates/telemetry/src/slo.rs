//! Declarative service-level objectives with Google-SRE-style multi-window
//! error-budget burn-rate alerting.
//!
//! An [`Slo`] states "fraction `target` of samples of `signal` must be good",
//! where a sample is *good* iff its value is `<= threshold` — e.g.
//! "95 % of accession turnarounds ≤ 2 h", "99 % of queue waits ≤ 10 min",
//! "99 % of accessions cost ≤ $0.05". The error budget is the allowed bad
//! fraction `1 - target`; the **burn rate** over a window is
//! `(bad fraction in window) / (1 - target)` — burn 1.0 exhausts the budget
//! exactly at the objective horizon, burn 14.4 exhausts a 30-day budget in
//! 2 days (the classic SRE fast-burn page).
//!
//! Each [`BurnRateRule`] pairs a *long* window (evidence the burn is real) with a
//! *short* window (evidence it is still happening): the alert fires only when
//! both windows burn at `>= factor`, and clears when the short window drops back
//! below — firing/clearing hysteresis, so a sustained violation produces one
//! `slo_burn` alert plus one `slo_clear` event, not a flood. Evaluation happens
//! live inside the monitor a [`crate::Recorder::monitored`] owns: every sample
//! [`crate::Recorder::sketch_observe`] puts into a signal's sketch is then offered
//! to that signal's objectives, so burn alerts land in the NDJSON event log in
//! stream order with a detection-latency field, and integer-percent
//! changes of the remaining budget are emitted as `slo_budget` events (rendered
//! as Perfetto counter tracks).
//!
//! Everything here is a pure function of the (deterministic) sample stream: no
//! wall clock, no randomness — same seed, same alerts, same bytes.

use crate::events::EventRecord;
use crate::json::JsonValue;
use crate::monitor::AlertEvent;
use std::collections::VecDeque;

/// Rule id stamped into burn-rate [`AlertEvent`]s.
pub const BURN_ALERT_RULE: &str = "slo_burn";

/// Which campaign signal an objective constrains.
///
/// All three are per-accession scalars the campaign samples exactly once per
/// accession, in deterministic stream order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloSignal {
    /// Seconds from campaign start (batch submission) to the accession's first
    /// successful completion.
    AccessionTurnaround,
    /// Seconds the accession's message waited in SQS before first delivery.
    QueueWait,
    /// Dollar cost of the accession's completing attempt
    /// (`duration × hourly rate / 3600`).
    AccessionCost,
}

impl SloSignal {
    /// The registry sketch this signal's samples go into
    /// ([`crate::Recorder::sketch_observe`]); a monitored recorder feeds an
    /// objective exactly the samples that sketch takes.
    pub fn sketch_name(self) -> &'static str {
        match self {
            SloSignal::AccessionTurnaround => "slo_turnaround_secs",
            SloSignal::QueueWait => "slo_queue_wait_secs",
            SloSignal::AccessionCost => "slo_cost_per_accession_usd",
        }
    }
}

/// One multi-window burn-rate alerting rule (long window confirms, short window
/// says "still happening").
#[derive(Clone, Debug)]
pub struct BurnRateRule {
    /// Long-window length, simulated seconds.
    pub long_secs: f64,
    /// Short-window length, simulated seconds (must be < `long_secs`).
    pub short_secs: f64,
    /// Fires when both windows burn at `>= factor` budgets-per-horizon.
    pub factor: f64,
    /// Minimum samples inside the long window before the rule arms.
    pub min_count: usize,
}

impl BurnRateRule {
    /// Fast burn: 1 h / 5 m windows at 14.4× — the "page now" rule.
    pub fn fast() -> BurnRateRule {
        BurnRateRule { long_secs: 3600.0, short_secs: 300.0, factor: 14.4, min_count: 10 }
    }

    /// Slow burn: 6 h / 30 m windows at 6× — the "budget is leaking" rule.
    pub fn slow() -> BurnRateRule {
        BurnRateRule { long_secs: 21_600.0, short_secs: 1_800.0, factor: 6.0, min_count: 20 }
    }
}

/// One declarative objective: `target` fraction of `signal` samples must be
/// `<= threshold`.
#[derive(Clone, Debug)]
pub struct Slo {
    /// Objective id, stamped into alerts, budget events, gauges, and the report.
    pub id: String,
    /// The constrained signal.
    pub signal: SloSignal,
    /// Good-sample bound: a sample is good iff `value <= threshold`.
    pub threshold: f64,
    /// Required good fraction, in `(0, 1)` (0.95 + a turnaround threshold
    /// encodes "turnaround p95 ≤ T").
    pub target: f64,
    /// Burn-rate alerting rules, evaluated independently per sample.
    pub windows: Vec<BurnRateRule>,
}

/// The set of objectives a campaign is evaluated against.
#[derive(Clone, Debug, Default)]
pub struct SloRegistry {
    /// Objectives, evaluated in order against every sample.
    pub slos: Vec<Slo>,
}

impl SloRegistry {
    /// The stock objective set: turnaround p95, queue-wait p99, and a
    /// cost-per-accession cap, each with the fast+slow SRE burn rules.
    pub fn standard(
        turnaround_p95_secs: f64,
        queue_wait_p99_secs: f64,
        cost_cap_usd: f64,
    ) -> SloRegistry {
        SloRegistry {
            slos: vec![
                Slo {
                    id: "accession_turnaround_p95".into(),
                    signal: SloSignal::AccessionTurnaround,
                    threshold: turnaround_p95_secs,
                    target: 0.95,
                    windows: vec![BurnRateRule::fast(), BurnRateRule::slow()],
                },
                Slo {
                    id: "queue_wait_p99".into(),
                    signal: SloSignal::QueueWait,
                    threshold: queue_wait_p99_secs,
                    target: 0.99,
                    windows: vec![BurnRateRule::fast(), BurnRateRule::slow()],
                },
                Slo {
                    id: "cost_per_accession".into(),
                    signal: SloSignal::AccessionCost,
                    threshold: cost_cap_usd,
                    target: 0.99,
                    windows: vec![BurnRateRule::fast(), BurnRateRule::slow()],
                },
            ],
        }
    }

    /// Structural validation (unique non-empty ids, targets in `(0, 1)`, finite
    /// non-negative thresholds, short < long per window).
    pub fn validate(&self) -> Result<(), String> {
        let mut ids = std::collections::BTreeSet::new();
        for slo in &self.slos {
            if slo.id.is_empty() {
                return Err("slo id must be non-empty".into());
            }
            if !ids.insert(slo.id.as_str()) {
                return Err(format!("duplicate slo id {:?}", slo.id));
            }
            if !(slo.target > 0.0 && slo.target < 1.0) {
                return Err(format!("slo {:?}: target must be in (0, 1), got {}", slo.id, slo.target));
            }
            if !(slo.threshold.is_finite() && slo.threshold >= 0.0) {
                return Err(format!(
                    "slo {:?}: threshold must be finite and >= 0, got {}",
                    slo.id, slo.threshold
                ));
            }
            for w in &slo.windows {
                if !(w.short_secs > 0.0 && w.short_secs < w.long_secs) {
                    return Err(format!(
                        "slo {:?}: window must have 0 < short ({}) < long ({})",
                        slo.id, w.short_secs, w.long_secs
                    ));
                }
                if !(w.factor > 0.0 && w.factor.is_finite()) {
                    return Err(format!("slo {:?}: burn factor must be finite and > 0", slo.id));
                }
            }
        }
        Ok(())
    }
}

/// Relative error bound of the per-signal quantile sketches the SLO engine
/// streams its samples into (the same bound as [`crate::query::QUERY_SKETCH_ALPHA`]).
pub const SLO_SKETCH_ALPHA: f64 = 0.01;

/// Opt-in SLO engine configuration carried by the campaign config.
#[derive(Clone, Debug, Default)]
pub struct SloConfig {
    /// The objectives to evaluate.
    pub registry: SloRegistry,
}

/// End-of-campaign summary of one objective.
#[derive(Clone, Debug, PartialEq)]
pub struct SloStatus {
    /// Objective id.
    pub id: String,
    /// Required good fraction.
    pub target: f64,
    /// Good-sample bound.
    pub threshold: f64,
    /// Samples observed.
    pub total: u64,
    /// Samples over threshold.
    pub bad: u64,
    /// Achieved good fraction (1.0 when no samples arrived).
    pub attained: f64,
    /// Remaining error budget: `1 - (bad/total)/(1-target)`. 1.0 when untouched,
    /// 0.0 when exactly spent, negative when overspent.
    pub budget_remaining: f64,
    /// Burn-rate alerts fired across all windows.
    pub burn_alerts: u64,
}

/// Streaming evaluator state for one [`Slo`].
#[derive(Clone, Debug)]
pub struct SloState {
    /// Samples inside the longest configured window: `(t, bad samples before
    /// this one)`, so a window's bad count is one subtraction from `bad`.
    samples: VecDeque<(f64, u64)>,
    /// Cumulative sample count.
    total: u64,
    /// Cumulative bad count.
    bad: u64,
    /// Per-window hysteresis: currently firing?
    firing: Vec<bool>,
    /// Burn alerts fired so far.
    fired: u64,
    /// Last emitted integer percent of remaining budget.
    last_budget_pct: Option<i64>,
}

impl SloState {
    /// Fresh state for an objective with `slo.windows.len()` rules.
    pub fn new(slo: &Slo) -> SloState {
        SloState {
            samples: VecDeque::new(),
            total: 0,
            bad: 0,
            firing: vec![false; slo.windows.len()],
            fired: 0,
            last_budget_pct: None,
        }
    }

    /// Feed one sample at simulated time `t`. Returns burn alerts that fired
    /// plus `slo_clear`/`slo_budget` events to append to the log, in emission
    /// order (alerts, clears, budget). `t` must never decrease from one call to
    /// the next (the kernel clock does not): eviction and the window counts
    /// both take the kept samples to be in time order.
    pub fn sample(&mut self, slo: &Slo, t: f64, value: f64) -> (Vec<AlertEvent>, Vec<EventRecord>) {
        let is_bad = value > slo.threshold;
        self.samples.push_back((t, self.bad));
        self.total += 1;
        self.bad += u64::from(is_bad);
        let horizon = slo.windows.iter().map(|w| w.long_secs).fold(0.0, f64::max);
        while self.samples.front().is_some_and(|&(t0, _)| t0 < t - horizon) {
            self.samples.pop_front();
        }

        let budget_per_sample = 1.0 - slo.target;
        let mut alerts = Vec::new();
        let mut extra = Vec::new();
        for (i, w) in slo.windows.iter().enumerate() {
            let long = self.window(t - w.long_secs);
            let short = self.window(t - w.short_secs);
            let burn = |(n, b): (u64, u64)| {
                if n == 0 {
                    0.0
                } else {
                    (b as f64 / n as f64) / budget_per_sample
                }
            };
            let (burn_long, burn_short) = (burn(long), burn(short));
            if !self.firing[i] {
                if long.0 >= w.min_count as u64 && burn_long >= w.factor && burn_short >= w.factor {
                    self.firing[i] = true;
                    self.fired += 1;
                    let onset = self.first_bad_since(t - w.short_secs);
                    alerts.push(AlertEvent {
                        rule: BURN_ALERT_RULE.into(),
                        subject: format!("{}:{}s", slo.id, w.long_secs),
                        at_secs: t,
                        value: burn_short,
                        threshold: w.factor,
                        latency_secs: onset.map_or(0.0, |t0| t - t0),
                    });
                }
            } else if burn_short < w.factor {
                self.firing[i] = false;
                extra.push(EventRecord {
                    at_secs: t,
                    kind: "slo_clear",
                    fields: vec![
                        ("slo", JsonValue::from(slo.id.as_str())),
                        ("window_secs", JsonValue::from(w.long_secs)),
                        ("burn", JsonValue::from(burn_short)),
                    ],
                });
            }
        }

        let remaining = self.budget_remaining(slo);
        let pct = (remaining * 100.0).floor() as i64;
        if self.last_budget_pct != Some(pct) {
            self.last_budget_pct = Some(pct);
            extra.push(EventRecord {
                at_secs: t,
                kind: "slo_budget",
                fields: vec![
                    ("slo", JsonValue::from(slo.id.as_str())),
                    ("remaining", JsonValue::from(remaining)),
                ],
            });
        }
        (alerts, extra)
    }

    /// `(samples, bad samples)` among the kept samples at or after `from`.
    fn window(&self, from: f64) -> (u64, u64) {
        let first = self.samples.partition_point(|&(ts, _)| ts < from);
        let bad = self.samples.get(first).map_or(0, |&(_, before)| self.bad - before);
        ((self.samples.len() - first) as u64, bad)
    }

    /// When the first bad kept sample at or after `from` was taken.
    fn first_bad_since(&self, from: f64) -> Option<f64> {
        let first = self.samples.partition_point(|&(ts, _)| ts < from);
        let before = self.samples.get(first)?.1;
        // The bad counts never decrease, so the sample after which they first
        // exceed `before` is the one that was bad.
        let next = self.samples.partition_point(|&(_, b)| b <= before);
        (self.bad > before).then(|| self.samples[next - 1].0)
    }

    /// Remaining error budget (see [`SloStatus::budget_remaining`]).
    pub fn budget_remaining(&self, slo: &Slo) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        1.0 - (self.bad as f64 / self.total as f64) / (1.0 - slo.target)
    }

    /// End-of-stream summary.
    pub fn status(&self, slo: &Slo) -> SloStatus {
        SloStatus {
            id: slo.id.clone(),
            target: slo.target,
            threshold: slo.threshold,
            total: self.total,
            bad: self.bad,
            attained: if self.total == 0 {
                1.0
            } else {
                (self.total - self.bad) as f64 / self.total as f64
            },
            budget_remaining: self.budget_remaining(slo),
            burn_alerts: self.fired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo(threshold: f64, target: f64, w: BurnRateRule) -> Slo {
        Slo {
            id: "turnaround".into(),
            signal: SloSignal::AccessionTurnaround,
            threshold,
            target,
            windows: vec![w],
        }
    }

    #[test]
    fn burn_fires_when_both_windows_exceed_factor_and_clears() {
        // target 0.9 → budget 0.1; all-bad traffic burns at 10×.
        let s = slo(1.0, 0.9, BurnRateRule {
            long_secs: 100.0,
            short_secs: 10.0,
            factor: 5.0,
            min_count: 3,
        });
        let mut st = SloState::new(&s);
        let mut alerts = Vec::new();
        let mut clears = 0;
        for i in 0..6 {
            let (a, e) = st.sample(&s, i as f64, 2.0); // every sample bad
            alerts.extend(a);
            clears += e.iter().filter(|r| r.kind == "slo_clear").count();
        }
        assert_eq!(alerts.len(), 1, "hysteresis: one alert for a sustained burn");
        assert_eq!(alerts[0].rule, BURN_ALERT_RULE);
        assert_eq!(alerts[0].subject, "turnaround:100s");
        assert_eq!(alerts[0].at_secs, 2.0, "arms at min_count=3");
        assert!((alerts[0].value - 10.0).abs() < 1e-9, "{}", alerts[0].value);
        assert_eq!(alerts[0].latency_secs, 2.0, "bad since t=0");
        assert_eq!(clears, 0);
        // Recovery: good samples push the short window below the factor.
        let mut cleared = 0;
        for i in 6..30 {
            let (a, e) = st.sample(&s, i as f64, 0.5);
            assert!(a.is_empty());
            cleared += e.iter().filter(|r| r.kind == "slo_clear").count();
        }
        assert_eq!(cleared, 1, "one clear once the short window recovers");
    }

    #[test]
    fn healthy_traffic_never_alerts_and_keeps_full_budget() {
        let s = slo(10.0, 0.95, BurnRateRule {
            long_secs: 50.0,
            short_secs: 5.0,
            factor: 2.0,
            min_count: 1,
        });
        let mut st = SloState::new(&s);
        for i in 0..50 {
            let (a, _) = st.sample(&s, i as f64, 1.0);
            assert!(a.is_empty());
        }
        let status = st.status(&s);
        assert_eq!(status.bad, 0);
        assert_eq!(status.attained, 1.0);
        assert_eq!(status.budget_remaining, 1.0);
        assert_eq!(status.burn_alerts, 0);
    }

    #[test]
    fn budget_events_fire_on_integer_percent_changes_only() {
        let s = slo(1.0, 0.5, BurnRateRule {
            long_secs: 1e9,
            short_secs: 1.0,
            factor: 1e9, // never fires
            min_count: 1,
        });
        let mut st = SloState::new(&s);
        let mut budgets = Vec::new();
        // Alternate good/bad: budget stays at 1 - (bad/total)/0.5.
        for i in 0..8 {
            let v = if i % 2 == 0 { 2.0 } else { 0.5 };
            let (_, e) = st.sample(&s, i as f64, v);
            budgets.extend(e.into_iter().filter(|r| r.kind == "slo_budget"));
        }
        // t=0: 1-(1/1)/0.5 = -1.0 → -100 %; t=1: 1-(1/2)/0.5 = 0.0 → 0 %;
        // t=2: 1-(2/3)/0.5 ≈ -0.333 → -34 %; ... every step changes the percent.
        assert!(!budgets.is_empty());
        let status = st.status(&s);
        assert_eq!(status.total, 8);
        assert_eq!(status.bad, 4);
        assert_eq!(status.budget_remaining, 0.0, "budget exactly spent at target 0.5");
    }

    #[test]
    fn empty_state_reports_full_budget() {
        let s = slo(1.0, 0.99, BurnRateRule::fast());
        let st = SloState::new(&s);
        let status = st.status(&s);
        assert_eq!(status.total, 0);
        assert_eq!(status.attained, 1.0);
        assert_eq!(status.budget_remaining, 1.0);
    }

    #[test]
    fn registry_validation_catches_bad_shapes() {
        let mut r = SloRegistry::standard(7200.0, 600.0, 0.05);
        assert!(r.validate().is_ok());
        r.slos[0].target = 1.0;
        assert!(r.validate().unwrap_err().contains("target"));
        let mut r = SloRegistry::standard(7200.0, 600.0, 0.05);
        r.slos[1].windows[0].short_secs = r.slos[1].windows[0].long_secs;
        assert!(r.validate().unwrap_err().contains("short"));
        let mut r = SloRegistry::standard(7200.0, 600.0, 0.05);
        r.slos[2].id = r.slos[0].id.clone();
        assert!(r.validate().unwrap_err().contains("duplicate"));
    }
}
