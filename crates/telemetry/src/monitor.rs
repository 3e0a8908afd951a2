//! Live campaign monitor: declarative alert rules evaluated over the streaming
//! telemetry feed *while the simulated campaign runs*.
//!
//! The paper's Fig. 4 saving exists because STAR's `Log.progress.out` is watched
//! mid-job rather than post-mortem; this module generalizes that idea to the whole
//! campaign. A [`Monitor`] subscribes to a [`Recorder`](crate::Recorder) through
//! the [`StreamObserver`] hook and evaluates [`AlertRule`]s against events, gauge
//! samples, and closing spans as the simulator emits them, and its [`Slo`]s
//! against the samples the recorder's sketches take. Fired [`AlertEvent`]s
//! are appended to the same NDJSON event log (kind `alert`) with a
//! `latency_secs` field — how long the anomalous condition existed before the
//! rule flagged it — so alert timeliness is itself measurable.
//!
//! Three rule families cover the stock alerts:
//!
//! * **threshold** — a scalar signal crossed a fixed bound (an accession's
//!   mapping rate fell below the early-stop floor; a windowed event count
//!   reached burst size);
//! * **rate-of-change** — a gauge's growth rate over a sliding window crossed a
//!   bound (SQS backlog growing instead of draining);
//! * **quantile-vs-fleet** — one subject's quantile diverged from the fleet's
//!   (an instance whose job p99 exceeds a multiple of the fleet median —
//!   a straggler).
//!
//! The monitor is a pure function of the (deterministic) stream: same seed, same
//! alerts, same bytes. Alerts dedup per `(rule, subject)` under a cooldown so a
//! sustained condition cannot flood the log.

use crate::events::EventRecord;
use crate::json::JsonValue;
use crate::recorder::StreamObserver;
use crate::slo::{Slo, SloState, SloStatus};
use crate::span::SpanRecord;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Comparison direction for thresholds and rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// Fires when the signal is strictly greater than the bound.
    Gt,
    /// Fires when the signal is greater than or equal to the bound.
    Ge,
    /// Fires when the signal is strictly less than the bound.
    Lt,
}

impl Cmp {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Gt => value > bound,
            Cmp::Ge => value >= bound,
            Cmp::Lt => value < bound,
        }
    }
}

/// What a rule listens to on the stream.
#[derive(Clone, Debug)]
pub enum Signal {
    /// Samples of a named gauge (via `Recorder::gauge_set_at`).
    Gauge(String),
    /// A numeric field of events of one kind.
    EventField {
        /// Event kind to match.
        kind: String,
        /// Field carrying the signal value.
        field: String,
    },
    /// The number of events of one kind inside a sliding window ending now.
    EventCount {
        /// Event kind to match.
        kind: String,
        /// Sliding-window length, simulated seconds.
        window_secs: f64,
    },
    /// Durations of closing spans with this name (e.g. `job`).
    SpanDuration {
        /// Span name to match.
        name: String,
    },
}

/// When a rule fires, given its signal's current value.
#[derive(Clone, Debug)]
pub enum Condition {
    /// The value crossed a fixed bound.
    Threshold {
        /// Comparison direction.
        cmp: Cmp,
        /// The bound.
        value: f64,
    },
    /// The signal's rate of change over a sliding window crossed a bound.
    RateOfChange {
        /// Sliding-window length, simulated seconds (needs ≥ 2 samples inside).
        window_secs: f64,
        /// Comparison direction for the rate.
        cmp: Cmp,
        /// Rate bound, signal units per simulated second.
        per_sec: f64,
    },
    /// The subject's quantile diverged from the fleet's: fires when
    /// `quantile(subject, subject_q) > factor * quantile(fleet, fleet_q)`.
    QuantileVsFleet {
        /// Quantile taken over the subject's own samples.
        subject_q: f64,
        /// Quantile taken over all samples (the fleet).
        fleet_q: f64,
        /// Divergence factor.
        factor: f64,
        /// Minimum fleet samples before the rule arms.
        min_samples: usize,
    },
}

/// Numeric pre-condition on another field/attr of the same record: the rule only
/// evaluates when `field cmp value` holds (e.g. "enough of the input processed").
#[derive(Clone, Debug)]
pub struct Guard {
    /// Field (event) or attribute (span) name holding the guard value.
    pub field: String,
    /// Comparison direction.
    pub cmp: Cmp,
    /// Guard bound.
    pub value: f64,
}

/// One declarative alert rule.
#[derive(Clone, Debug)]
pub struct AlertRule {
    /// Rule id, stamped into fired alerts.
    pub id: String,
    /// What the rule listens to.
    pub signal: Signal,
    /// When it fires.
    pub condition: Condition,
    /// Field/attr naming the alert subject; alerts dedup per `(rule, subject)`.
    /// `None` keys everything under the signal's own name.
    pub subject_field: Option<String>,
    /// Optional numeric pre-condition on the same record.
    pub guard: Option<Guard>,
    /// Minimum simulated seconds between repeat alerts for one subject
    /// (`f64::INFINITY` = at most once per subject).
    pub cooldown_secs: f64,
}

impl AlertRule {
    /// Straggler instances: a single instance's job-duration p99 exceeds
    /// `factor` × the fleet median, once the fleet has `min_samples` finished
    /// jobs. Fires per instance, at most once.
    pub fn straggler_instances(factor: f64, min_samples: usize) -> AlertRule {
        AlertRule {
            id: "straggler_instance".into(),
            signal: Signal::SpanDuration { name: "job".into() },
            condition: Condition::QuantileVsFleet {
                subject_q: 0.99,
                fleet_q: 0.5,
                factor,
                min_samples,
            },
            subject_field: Some("instance".into()),
            guard: None,
            cooldown_secs: f64::INFINITY,
        }
    }

    /// SQS backlog growth: the `queue_pending` gauge grows at ≥ `per_sec`
    /// messages/second over a `window_secs` window (a healthy campaign drains).
    pub fn queue_backlog_growth(window_secs: f64, per_sec: f64) -> AlertRule {
        AlertRule {
            id: "queue_backlog_growth".into(),
            signal: Signal::Gauge("queue_pending".into()),
            condition: Condition::RateOfChange { window_secs, cmp: Cmp::Ge, per_sec },
            subject_field: None,
            guard: None,
            cooldown_secs: window_secs,
        }
    }

    /// Fault burst: ≥ `min_count` `fault_injected` events (any op) inside a
    /// `window_secs` window — the fault layer has gone from background noise to a
    /// storm.
    pub fn fault_burst(window_secs: f64, min_count: usize) -> AlertRule {
        AlertRule {
            id: "fault_burst".into(),
            signal: Signal::EventCount { kind: "fault_injected".into(), window_secs },
            condition: Condition::Threshold { cmp: Cmp::Ge, value: min_count as f64 },
            subject_field: None,
            guard: None,
            cooldown_secs: window_secs,
        }
    }

    /// Interruption storm: ≥ `min_count` `spot_interruption` events inside a
    /// `window_secs` window — reclaims have shifted from background churn to a
    /// market event, and a recovery-enabled campaign should expect heavy
    /// drain/checkpoint traffic. Not part of [`MonitorConfig::standard`]:
    /// recovery campaigns opt in alongside [`crate::SloRegistry`] budgets.
    pub fn interruption_storm(window_secs: f64, min_count: usize) -> AlertRule {
        AlertRule {
            id: "interruption_storm".into(),
            signal: Signal::EventCount { kind: "spot_interruption".into(), window_secs },
            condition: Condition::Threshold { cmp: Cmp::Ge, value: min_count as f64 },
            subject_field: None,
            guard: None,
            cooldown_secs: window_secs,
        }
    }

    /// Early-stop-eligible accession: the streamed mapping rate sits below
    /// `min_rate` once at least `check_fraction` of reads are processed — the
    /// same signal `early_stop.rs` acts on, flagged from the live stream before
    /// the policy's decision lands in the log.
    pub fn early_stop_eligible(min_rate: f64, check_fraction: f64) -> AlertRule {
        AlertRule {
            id: "early_stop_eligible".into(),
            signal: Signal::EventField { kind: "progress".into(), field: "mapping_rate".into() },
            condition: Condition::Threshold { cmp: Cmp::Lt, value: min_rate },
            subject_field: Some("accession".into()),
            guard: Some(Guard {
                field: "processed_fraction".into(),
                cmp: Cmp::Ge,
                value: check_fraction,
            }),
            cooldown_secs: f64::INFINITY,
        }
    }
}

/// Monitor configuration: the rule set to evaluate.
#[derive(Clone, Debug, Default)]
pub struct MonitorConfig {
    /// Rules, evaluated in order against every stream record.
    pub rules: Vec<AlertRule>,
}

impl MonitorConfig {
    /// The stock rule set: stragglers (3× fleet median after 8 jobs), backlog
    /// growth (≥ 0.02 msg/s over 10 min), fault bursts (≥ 5 in 5 min), and
    /// early-stop-eligible accessions (mapping rate < 0.30 at ≥ 10 % processed —
    /// [`crate::monitor::AlertRule::early_stop_eligible`] mirrors the
    /// `EarlyStopPolicy` defaults).
    pub fn standard() -> MonitorConfig {
        MonitorConfig {
            rules: vec![
                AlertRule::straggler_instances(3.0, 8),
                AlertRule::queue_backlog_growth(600.0, 0.02),
                AlertRule::fault_burst(300.0, 5),
                AlertRule::early_stop_eligible(0.30, 0.10),
            ],
        }
    }
}

/// One fired alert.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertEvent {
    /// Rule id.
    pub rule: String,
    /// Alert subject (instance id, accession, gauge/kind name).
    pub subject: String,
    /// Simulated time the rule fired.
    pub at_secs: f64,
    /// Signal value at firing.
    pub value: f64,
    /// The bound it was compared against.
    pub threshold: f64,
    /// How long the condition existed before detection, simulated seconds.
    pub latency_secs: f64,
}

impl AlertEvent {
    /// Serialize as a stream event (kind `alert`, fixed field order).
    pub fn to_event_record(&self) -> EventRecord {
        EventRecord {
            at_secs: self.at_secs,
            kind: "alert",
            fields: vec![
                ("rule", JsonValue::from(self.rule.as_str())),
                ("subject", JsonValue::from(self.subject.as_str())),
                ("value", JsonValue::from(self.value)),
                ("threshold", JsonValue::from(self.threshold)),
                ("latency_secs", JsonValue::from(self.latency_secs)),
            ],
        }
    }
}

/// Per-rule streaming state.
#[derive(Debug, Default)]
struct RuleState {
    /// Sliding windows of `(t, value)` samples, per subject (rate-of-change and
    /// event-count signals).
    windows: BTreeMap<String, VecDeque<(f64, f64)>>,
    /// All observed samples, sorted (quantile-vs-fleet).
    fleet: Vec<f64>,
    /// Per-subject observed samples, sorted (quantile-vs-fleet).
    per_subject: BTreeMap<String, Vec<f64>>,
    /// Last firing time per subject (cooldown bookkeeping).
    last_fired: BTreeMap<String, f64>,
}

#[derive(Debug, Default)]
struct MonitorState {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    alerts: Vec<AlertEvent>,
    /// Objectives under evaluation (empty = SLO engine off).
    slos: Vec<Slo>,
    /// Streaming evaluator state, parallel to `slos`.
    slo_states: Vec<SloState>,
}

/// The live monitor. Create it, attach [`Monitor::observer`] to a recorder, run
/// the campaign, then read [`Monitor::alerts`].
#[derive(Clone, Debug)]
pub struct Monitor {
    state: Arc<Mutex<MonitorState>>,
}

impl Monitor {
    /// A monitor evaluating `rules` against the stream and each of `slos`
    /// against the samples of its signal's sketch
    /// ([`crate::SloSignal::sketch_name`]) with multi-window burn-rate alerting.
    pub fn new(rules: Vec<AlertRule>, slos: Vec<Slo>) -> Monitor {
        let states = rules.iter().map(|_| RuleState::default()).collect();
        let slo_states = slos.iter().map(SloState::new).collect();
        Monitor {
            state: Arc::new(Mutex::new(MonitorState {
                rules,
                states,
                alerts: Vec::new(),
                slos,
                slo_states,
            })),
        }
    }

    /// A [`StreamObserver`] feeding this monitor; attach it to the recorder.
    /// The handle and the observer share state, so alerts fired during the run
    /// stay readable here afterwards.
    pub fn observer(&self) -> Box<dyn StreamObserver> {
        Box::new(MonitorObserver { state: Arc::clone(&self.state) })
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> Vec<AlertEvent> {
        self.state.lock().expect("monitor poisoned").alerts.clone()
    }

    /// End-of-stream status of every configured objective, in registry order.
    pub fn slo_status(&self) -> Vec<SloStatus> {
        let st = self.state.lock().expect("monitor poisoned");
        st.slos.iter().zip(&st.slo_states).map(|(slo, state)| state.status(slo)).collect()
    }
}

struct MonitorObserver {
    state: Arc<Mutex<MonitorState>>,
}

impl StreamObserver for MonitorObserver {
    fn on_event(&mut self, event: &EventRecord) -> Vec<EventRecord> {
        let mut st = self.state.lock().expect("monitor poisoned");
        let mut fired = Vec::new();
        // Split-borrow rules alongside their states: this loop runs for every
        // record the campaign emits, so it must not clone rule configs.
        let MonitorState { rules, states, .. } = &mut *st;
        for (rule, state) in rules.iter().zip(states.iter_mut()) {
            match &rule.signal {
                Signal::EventField { kind, field } if *kind == event.kind => {
                    if !guard_holds(&rule.guard, |f| event_num(event, f)) {
                        continue;
                    }
                    let Some(value) = event_num(event, field) else { continue };
                    // Threshold rules only need a subject when they fire; skip
                    // the subject-string allocation on the quiet path (progress
                    // floods hit this for every snapshot).
                    if let Condition::Threshold { cmp, value: bound } = rule.condition {
                        if !cmp.holds(value, bound) {
                            continue;
                        }
                    }
                    let subject = subject_of(rule, |f| event_str(event, f), kind);
                    if let Some(alert) =
                        eval_scalar(rule, state, &subject, event.at_secs, value, 0.0)
                    {
                        fired.push(alert);
                    }
                }
                Signal::EventCount { kind, window_secs } if *kind == event.kind => {
                    if !guard_holds(&rule.guard, |f| event_num(event, f)) {
                        continue;
                    }
                    let subject = subject_of(rule, |f| event_str(event, f), kind);
                    let t = event.at_secs;
                    let window_secs = *window_secs;
                    let window = state.windows.entry(subject.clone()).or_default();
                    window.push_back((t, 1.0));
                    while window.front().is_some_and(|&(t0, _)| t0 < t - window_secs) {
                        window.pop_front();
                    }
                    let count = window.len() as f64;
                    let onset = window.front().map_or(t, |&(t0, _)| t0);
                    if let Condition::Threshold { cmp, value } = rule.condition {
                        if cmp.holds(count, value) {
                            if let Some(alert) =
                                fire(rule, state, &subject, t, count, value, t - onset)
                            {
                                fired.push(alert);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        finish(&mut st, fired)
    }

    fn on_span_close(&mut self, span: &SpanRecord) -> Vec<EventRecord> {
        let mut st = self.state.lock().expect("monitor poisoned");
        let mut fired = Vec::new();
        let Some(end) = span.end_secs else { return Vec::new() };
        let MonitorState { rules, states, .. } = &mut *st;
        for (rule, state) in rules.iter().zip(states.iter_mut()) {
            let Signal::SpanDuration { name } = &rule.signal else { continue };
            if *name != span.name {
                continue;
            }
            if !guard_holds(&rule.guard, |f| span.attr(f).and_then(|v| v.parse().ok())) {
                continue;
            }
            let subject =
                subject_of(rule, |f| span.attr(f).map(str::to_string), name);
            let duration = span.duration_secs();
            let alert = match rule.condition {
                Condition::QuantileVsFleet { subject_q, fleet_q, factor, min_samples } => {
                    insert_sorted(&mut state.fleet, duration);
                    insert_sorted(
                        state.per_subject.entry(subject.clone()).or_default(),
                        duration,
                    );
                    if state.fleet.len() < min_samples {
                        None
                    } else {
                        let bound = factor * quantile_sorted(&state.fleet, fleet_q);
                        let subject_quantile =
                            quantile_sorted(&state.per_subject[&subject], subject_q);
                        if subject_quantile > bound {
                            fire(
                                rule,
                                state,
                                &subject,
                                end,
                                subject_quantile,
                                bound,
                                end - span.start_secs,
                            )
                        } else {
                            None
                        }
                    }
                }
                // Threshold/rate conditions see the duration as a plain scalar
                // sample whose condition existed since the span started.
                _ => eval_scalar(rule, state, &subject, end, duration, duration),
            };
            fired.extend(alert);
        }
        finish(&mut st, fired)
    }

    fn on_gauge(&mut self, at_secs: f64, name: &str, value: f64) -> Vec<EventRecord> {
        let mut st = self.state.lock().expect("monitor poisoned");
        let mut fired = Vec::new();
        let MonitorState { rules, states, .. } = &mut *st;
        for (rule, state) in rules.iter().zip(states.iter_mut()) {
            let Signal::Gauge(gauge) = &rule.signal else { continue };
            if gauge != name {
                continue;
            }
            let subject = subject_of(rule, |_| None, name);
            if let Some(alert) = eval_scalar(rule, state, &subject, at_secs, value, 0.0) {
                fired.push(alert);
            }
        }
        finish(&mut st, fired)
    }

    fn on_sample(&mut self, at_secs: f64, name: &str, value: f64) -> Vec<EventRecord> {
        let mut st = self.state.lock().expect("monitor poisoned");
        let (mut fired, mut extra) = (Vec::new(), Vec::new());
        let MonitorState { slos, slo_states, .. } = &mut *st;
        for (slo, state) in slos.iter().zip(slo_states.iter_mut()) {
            if slo.signal.sketch_name() == name {
                let (alerts, events) = state.sample(slo, at_secs, value);
                fired.extend(alerts);
                extra.extend(events);
            }
        }
        let mut records = finish(&mut st, fired);
        records.extend(extra);
        records
    }
}

/// Record fired alerts into monitor state and convert them for the event log.
fn finish(st: &mut MonitorState, fired: Vec<AlertEvent>) -> Vec<EventRecord> {
    let records = fired.iter().map(AlertEvent::to_event_record).collect();
    st.alerts.extend(fired);
    records
}

/// Evaluate a threshold or rate-of-change condition on one scalar sample.
/// `onset_latency` is how long the condition already existed for threshold
/// firings (0 for point samples, the span duration for span closings).
fn eval_scalar(
    rule: &AlertRule,
    state: &mut RuleState,
    subject: &str,
    t: f64,
    value: f64,
    onset_latency: f64,
) -> Option<AlertEvent> {
    match rule.condition {
        Condition::Threshold { cmp, value: bound } => {
            if cmp.holds(value, bound) {
                fire(rule, state, subject, t, value, bound, onset_latency)
            } else {
                None
            }
        }
        Condition::RateOfChange { window_secs, cmp, per_sec } => {
            let window = state.windows.entry(subject.to_string()).or_default();
            window.push_back((t, value));
            while window.front().is_some_and(|&(t0, _)| t0 < t - window_secs) {
                window.pop_front();
            }
            let &(t0, v0) = window.front().expect("just pushed");
            if window.len() >= 2 && t > t0 {
                let rate = (value - v0) / (t - t0);
                if cmp.holds(rate, per_sec) {
                    return fire(rule, state, subject, t, rate, per_sec, t - t0);
                }
            }
            None
        }
        Condition::QuantileVsFleet { .. } => None, // only meaningful on spans
    }
}

/// Apply the cooldown and emit the alert.
fn fire(
    rule: &AlertRule,
    state: &mut RuleState,
    subject: &str,
    t: f64,
    value: f64,
    threshold: f64,
    latency_secs: f64,
) -> Option<AlertEvent> {
    if let Some(&last) = state.last_fired.get(subject) {
        if t - last < rule.cooldown_secs {
            return None;
        }
    }
    state.last_fired.insert(subject.to_string(), t);
    Some(AlertEvent {
        rule: rule.id.clone(),
        subject: subject.to_string(),
        at_secs: t,
        value,
        threshold,
        latency_secs,
    })
}

fn guard_holds(guard: &Option<Guard>, lookup: impl Fn(&str) -> Option<f64>) -> bool {
    match guard {
        None => true,
        Some(g) => lookup(&g.field).is_some_and(|v| g.cmp.holds(v, g.value)),
    }
}

fn subject_of(
    rule: &AlertRule,
    lookup: impl Fn(&str) -> Option<String>,
    fallback: &str,
) -> String {
    rule.subject_field
        .as_deref()
        .and_then(lookup)
        .unwrap_or_else(|| fallback.to_string())
}

fn event_num(event: &EventRecord, field: &str) -> Option<f64> {
    event.fields.iter().find(|(k, _)| *k == field).and_then(|(_, v)| match v {
        JsonValue::Num(n) => Some(*n),
        JsonValue::Int(n) => Some(*n as f64),
        JsonValue::UInt(n) => Some(*n as f64),
        JsonValue::Str(s) => s.parse().ok(),
        _ => None,
    })
}

fn event_str(event: &EventRecord, field: &str) -> Option<String> {
    event.fields.iter().find(|(k, _)| *k == field).map(|(_, v)| match v {
        JsonValue::Str(s) => s.clone(),
        other => other.render(),
    })
}

fn insert_sorted(v: &mut Vec<f64>, x: f64) {
    let at = v.partition_point(|&y| y <= x);
    v.insert(at, x);
}

/// Nearest-rank quantile over a sorted, non-empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::slo::{BurnRateRule, SloSignal, BURN_ALERT_RULE};
    use crate::span::SpanId;

    fn progress(rec: &Recorder, t: f64, accession: &str, fraction: f64, rate: f64) {
        rec.event(
            t,
            "progress",
            vec![
                ("accession", JsonValue::from(accession)),
                ("processed_fraction", JsonValue::from(fraction)),
                ("mapping_rate", JsonValue::from(rate)),
            ],
        );
    }

    #[test]
    fn threshold_rule_respects_guard_and_dedups_per_subject() {
        let monitor = Monitor::new(vec![AlertRule::early_stop_eligible(0.30, 0.10)], Vec::new());
        let rec = Recorder::new();
        rec.attach_observer(monitor.observer());
        progress(&rec, 10.0, "SRR1", 0.05, 0.10); // guard: too early
        progress(&rec, 20.0, "SRR1", 0.12, 0.10); // fires
        progress(&rec, 30.0, "SRR1", 0.20, 0.08); // deduped (infinite cooldown)
        progress(&rec, 40.0, "SRR2", 0.15, 0.90); // healthy: no fire
        progress(&rec, 50.0, "SRR3", 0.15, 0.05); // distinct subject fires
        let alerts = monitor.alerts();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].rule, "early_stop_eligible");
        assert_eq!(alerts[0].subject, "SRR1");
        assert_eq!(alerts[0].at_secs, 20.0);
        assert_eq!(alerts[0].value, 0.10);
        assert_eq!(alerts[1].subject, "SRR3");
        // The alerts are in the shared event log, after the events that fired them.
        let log = rec.events_ndjson();
        assert!(log.contains("\"kind\":\"alert\",\"rule\":\"early_stop_eligible\",\"subject\":\"SRR1\""), "{log}");
        assert_eq!(rec.read(|_, _, metrics| metrics.counter("alerts_fired")), 2);
    }

    #[test]
    fn fault_burst_counts_in_a_sliding_window() {
        let monitor = Monitor::new(vec![AlertRule::fault_burst(100.0, 3)], Vec::new());
        let rec = Recorder::new();
        rec.attach_observer(monitor.observer());
        for t in [0.0, 10.0, 200.0, 210.0] {
            rec.event(t, "fault_injected", vec![("op", JsonValue::from("s3_get"))]);
        }
        assert!(monitor.alerts().is_empty(), "sparse faults must not alert");
        rec.event(220.0, "fault_injected", vec![("op", JsonValue::from("s3_get"))]);
        let alerts = monitor.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "fault_burst");
        assert_eq!(alerts[0].at_secs, 220.0);
        assert_eq!(alerts[0].value, 3.0); // 200, 210, 220 in window
        assert_eq!(alerts[0].latency_secs, 20.0); // storm onset at 200
        // Cooldown suppresses immediate re-fire.
        rec.event(221.0, "fault_injected", vec![]);
        assert_eq!(monitor.alerts().len(), 1);
    }

    #[test]
    fn backlog_growth_is_a_rate_over_a_window() {
        let monitor = Monitor::new(vec![AlertRule::queue_backlog_growth(100.0, 0.5)], Vec::new());
        let rec = Recorder::new();
        rec.attach_observer(monitor.observer());
        rec.gauge_set_at(0.0, "queue_pending", 50.0);
        rec.gauge_set_at(50.0, "queue_pending", 40.0); // draining: fine
        rec.gauge_set_at(100.0, "queue_pending", 80.0); // +30 over (0,100): 0.3/s — window front is t=0
        assert!(monitor.alerts().is_empty());
        rec.gauge_set_at(150.0, "queue_pending", 140.0); // window [50,150]: +100/100s = 1.0/s
        let alerts = monitor.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "queue_backlog_growth");
        assert_eq!(alerts[0].subject, "queue_pending");
        assert_eq!(alerts[0].value, 1.0);
        assert_eq!(alerts[0].latency_secs, 100.0);
    }

    #[test]
    fn straggler_rule_compares_subject_p99_to_fleet_median() {
        let monitor = Monitor::new(vec![AlertRule::straggler_instances(3.0, 4)], Vec::new());
        let rec = Recorder::new();
        rec.attach_observer(monitor.observer());
        let mut t = 0.0;
        for (instance, dur) in
            [("1", 10.0), ("2", 11.0), ("1", 9.0), ("2", 10.0), ("3", 50.0)]
        {
            rec.span_closed(
                "job",
                SpanId::NONE,
                t,
                t + dur,
                &[("accession", format!("SRR{t}")), ("instance", instance.to_string())],
            );
            t += 100.0;
        }
        let alerts = monitor.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, "straggler_instance");
        assert_eq!(alerts[0].subject, "3");
        assert_eq!(alerts[0].value, 50.0);
        assert_eq!(alerts[0].threshold, 30.0); // 3 × fleet median 10
        assert_eq!(alerts[0].latency_secs, 50.0); // flagged the moment the job closed
        assert!(alerts[0].at_secs < t, "alert fired online, before the stream ended");
    }

    #[test]
    fn same_stream_fires_the_same_alerts() {
        let run = || {
            let monitor = Monitor::new(MonitorConfig::standard().rules, Vec::new());
            let rec = Recorder::new();
            rec.attach_observer(monitor.observer());
            for i in 0..20 {
                let t = i as f64 * 30.0;
                rec.event(t, "fault_injected", vec![("op", JsonValue::from("s3_get"))]);
                rec.gauge_set_at(t, "queue_pending", 10.0 + i as f64);
            }
            rec.events_ndjson()
        };
        assert_eq!(run(), run());
    }

    /// One objective over the queue-wait sketch: budget 0.1, waits over 1 s are
    /// bad, one 100 s / 10 s rule at 5x arming after three samples.
    fn queue_wait_slo() -> Slo {
        Slo {
            id: "queue_wait".into(),
            signal: SloSignal::QueueWait,
            threshold: 1.0,
            target: 0.9,
            windows: vec![BurnRateRule {
                long_secs: 100.0,
                short_secs: 10.0,
                factor: 5.0,
                min_count: 3,
            }],
        }
    }

    #[test]
    fn sketch_samples_alone_drive_the_burn_rate_engine() {
        let monitor = Monitor::new(Vec::new(), vec![queue_wait_slo()]);
        let rec = Recorder::new();
        rec.attach_observer(monitor.observer());
        let sketch = SloSignal::QueueWait.sketch_name();
        // No events, no spans: six bad samples burn at 10x in both windows.
        for t in 0..6 {
            rec.sketch_observe(f64::from(t), sketch, 0.01, 2.0);
        }
        let alerts = monitor.alerts();
        assert_eq!(alerts.len(), 1, "hysteresis: one alert for a sustained burn: {alerts:?}");
        assert_eq!(alerts[0].rule, BURN_ALERT_RULE);
        assert_eq!(alerts[0].subject, "queue_wait:100s");
        assert_eq!(alerts[0].at_secs, 2.0, "arms at min_count = 3");
        // Good samples pull the short window back under the factor: one clear.
        for t in 6..30 {
            rec.sketch_observe(f64::from(t), sketch, 0.01, 0.5);
        }
        assert_eq!(monitor.alerts().len(), 1);
        let log = rec.events_ndjson();
        assert_eq!(log.matches("\"kind\":\"slo_clear\"").count(), 1, "{log}");
        let burn = log.find("\"rule\":\"slo_burn\"").expect("the alert is in the log");
        assert!(burn < log.find("\"kind\":\"slo_clear\"").unwrap(), "{log}");
        let status = &monitor.slo_status()[0];
        assert_eq!((status.total, status.bad, status.burn_alerts), (30, 6, 1));
        rec.read(|_, _, metrics| {
            assert_eq!(metrics.counter("alerts_fired"), 1, "clears and budgets are not alerts");
            assert_eq!(metrics.sketch(sketch).unwrap().count(), status.total);
        });
    }

    #[test]
    fn a_sample_for_an_unconstrained_sketch_is_ignored() {
        let monitor = Monitor::new(Vec::new(), vec![queue_wait_slo()]);
        let rec = Recorder::new();
        rec.attach_observer(monitor.observer());
        for t in 0..10 {
            let name = SloSignal::AccessionCost.sketch_name();
            rec.sketch_observe(f64::from(t), name, 0.01, 1e9);
            rec.sketch_observe(f64::from(t), "job_secs", 0.01, 1e9);
        }
        assert_eq!(monitor.slo_status()[0].total, 0);
        assert!(monitor.alerts().is_empty());
        assert_eq!(rec.n_events(), 0);
    }
}
