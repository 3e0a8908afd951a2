//! Live campaign monitor: five alert rules evaluated over the streaming
//! telemetry feed *while the simulated campaign runs*.
//!
//! The paper's Fig. 4 saving exists because STAR's `Log.progress.out` is watched
//! mid-job rather than post-mortem; this module does the same for the campaign.
//! The monitor is owned by the recorder that feeds it
//! ([`Recorder::monitored`](crate::Recorder::monitored)): under the recorder's
//! one lock, every event, gauge sample and closing span is offered to its
//! [`AlertRule`]s as the simulator emits it, and every sketch sample to its
//! [`Slo`]s. Fired [`AlertEvent`]s are appended to the same NDJSON event log (kind
//! `alert`) with a `latency_secs` field — how long the condition existed before
//! the rule flagged it — so alert timeliness is itself measurable.
//!
//! There is no rule language: a rule is one of the five [`AlertRule`]
//! constructors, which say what each reads off the stream and when it fires. A
//! windowed rule (backlog growth, the two bursts) repeats at most once per window
//! length; a per-subject rule (stragglers, early stop) reports each instance or
//! accession at most once, so a sustained condition cannot flood the log.
//!
//! The monitor is a pure function of the (deterministic) stream: same seed, same
//! alerts, same bytes.

use crate::events::EventRecord;
use crate::json::JsonValue;
use crate::slo::{Slo, SloState, SloStatus};
use crate::span::SpanRecord;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One of the five alert rules. Made only by the constructors below; their two
/// numbers each are everything a rule lets a caller set.
#[derive(Clone, Debug)]
pub struct AlertRule(Rule);

/// A rule's parameters and exactly the state evaluating it needs (empty until
/// a [`Monitor`] runs the rule).
#[derive(Clone, Debug)]
enum Rule {
    Straggler {
        factor: f64,
        min_samples: usize,
        /// Job durations, sorted: all of them, and each instance's.
        fleet: Vec<f64>,
        per_instance: BTreeMap<String, Vec<f64>>,
        /// Instances already reported.
        flagged: BTreeSet<String>,
    },
    BacklogGrowth {
        per_sec: f64,
        window: Window,
    },
    FaultBurst(Burst),
    InterruptionStorm(Burst),
    EarlyStop {
        min_rate: f64,
        check_fraction: f64,
        /// Accessions already reported.
        flagged: BTreeSet<String>,
    },
}

impl AlertRule {
    /// Straggler instances: a single instance's job-duration p99 exceeds
    /// `factor` × the fleet median, once the fleet has `min_samples` finished
    /// jobs. Fires per instance, at most once.
    pub fn straggler_instances(factor: f64, min_samples: usize) -> AlertRule {
        AlertRule(Rule::Straggler {
            factor,
            min_samples,
            fleet: Vec::new(),
            per_instance: BTreeMap::new(),
            flagged: BTreeSet::new(),
        })
    }

    /// SQS backlog growth: the `queue_pending` gauge grows at ≥ `per_sec`
    /// messages/second over a `window_secs` window (a healthy campaign drains).
    pub fn queue_backlog_growth(window_secs: f64, per_sec: f64) -> AlertRule {
        AlertRule(Rule::BacklogGrowth { per_sec, window: Window::new(window_secs) })
    }

    /// Fault burst: ≥ `min_count` `fault_injected` events (any op) inside a
    /// `window_secs` window — the fault layer has gone from background noise to a
    /// storm.
    pub fn fault_burst(window_secs: f64, min_count: usize) -> AlertRule {
        AlertRule(Rule::FaultBurst(Burst { min_count, window: Window::new(window_secs) }))
    }

    /// Interruption storm: ≥ `min_count` `spot_interruption` events inside a
    /// `window_secs` window — reclaims have shifted from background churn to a
    /// market event, and a recovery-enabled campaign should expect heavy
    /// drain/checkpoint traffic. Not part of [`MonitorConfig::standard`]:
    /// recovery campaigns opt in alongside [`crate::SloRegistry`] budgets.
    pub fn interruption_storm(window_secs: f64, min_count: usize) -> AlertRule {
        AlertRule(Rule::InterruptionStorm(Burst { min_count, window: Window::new(window_secs) }))
    }

    /// Early-stop-eligible accession: the streamed mapping rate sits below
    /// `min_rate` once at least `check_fraction` of reads are processed — the
    /// same signal `early_stop.rs` acts on, flagged from the live stream before
    /// the policy's decision lands in the log. Fires per accession, at most once.
    pub fn early_stop_eligible(min_rate: f64, check_fraction: f64) -> AlertRule {
        AlertRule(Rule::EarlyStop { min_rate, check_fraction, flagged: BTreeSet::new() })
    }

    /// What [`MonitorConfig::validate`] checks of one rule.
    fn validate(&self) -> Result<(), String> {
        let window = |w: &Window| w.secs.is_finite() && w.secs > 0.0;
        let ok = match &self.0 {
            Rule::Straggler { factor, min_samples, .. } => factor.is_finite() && *min_samples >= 1,
            Rule::BacklogGrowth { per_sec, window: w } => window(w) && per_sec.is_finite(),
            Rule::FaultBurst(b) | Rule::InterruptionStorm(b) => {
                window(&b.window) && b.min_count >= 1
            }
            Rule::EarlyStop { min_rate, check_fraction, .. } => {
                min_rate.is_finite() && check_fraction.is_finite()
            }
        };
        let rule = &self.0;
        ok.then_some(()).ok_or_else(|| {
            format!("monitor rule {rule:?}: windows must be > 0, counts >= 1, every number finite")
        })
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

    /// Every window finite and > 0 (a negative one keeps one sample, a NaN one
    /// every sample), every minimum count ≥ 1, every other parameter finite.
    pub fn validate(&self) -> Result<(), String> {
        self.rules.iter().try_for_each(AlertRule::validate)
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
    pub fn into_event_record(self) -> EventRecord {
        EventRecord {
            at_secs: self.at_secs,
            kind: "alert",
            fields: vec![
                ("rule", JsonValue::from(self.rule)),
                ("subject", JsonValue::from(self.subject)),
                ("value", JsonValue::from(self.value)),
                ("threshold", JsonValue::from(self.threshold)),
                ("latency_secs", JsonValue::from(self.latency_secs)),
            ],
        }
    }

    /// The alert an `alert` record holds (`None` for any other record): the log
    /// is where fired alerts are kept.
    pub(crate) fn from_event_record(record: &EventRecord) -> Option<AlertEvent> {
        if record.kind != "alert" {
            return None;
        }
        let text = |key| Some(record.field(key)?.as_str()?.to_string());
        let num = |key| record.field(key)?.as_f64();
        Some(AlertEvent {
            rule: text("rule")?,
            subject: text("subject")?,
            at_secs: record.at_secs,
            value: num("value")?,
            threshold: num("threshold")?,
            latency_secs: num("latency_secs")?,
        })
    }
}

/// A sliding window of `(t, value)` samples that fires at most once per window
/// length.
#[derive(Clone, Debug)]
struct Window {
    secs: f64,
    samples: VecDeque<(f64, f64)>,
    last_fired: Option<f64>,
}

impl Window {
    fn new(secs: f64) -> Window {
        Window { secs, samples: VecDeque::new(), last_fired: None }
    }

    /// Take the sample `(t, value)`, drop what has aged out, and return the
    /// oldest sample still inside (the new one, if it is alone).
    fn push(&mut self, t: f64, value: f64) -> (f64, f64) {
        self.samples.push_back((t, value));
        while self.samples.len() > 1 && self.samples[0].0 < t - self.secs {
            self.samples.pop_front();
        }
        self.samples[0]
    }

    /// True, and the cooldown restarts, unless the window fired less than its
    /// own length ago.
    fn may_fire(&mut self, t: f64) -> bool {
        if self.last_fired.is_some_and(|last| t - last < self.secs) {
            return false;
        }
        self.last_fired = Some(t);
        true
    }
}

/// What the fault-burst and interruption-storm rules share: events of one kind
/// counted in a window.
#[derive(Clone, Debug)]
struct Burst {
    min_count: usize,
    window: Window,
}

impl Burst {
    /// Count `event` if it is a `kind`; the alert is reported under `id`.
    fn count(&mut self, id: &str, kind: &str, event: &EventRecord) -> Option<AlertEvent> {
        if event.kind != kind {
            return None;
        }
        let t = event.at_secs;
        let (onset, _) = self.window.push(t, 1.0);
        let count = self.window.samples.len();
        (count >= self.min_count && self.window.may_fire(t)).then(|| AlertEvent {
            rule: id.into(),
            subject: kind.into(),
            at_secs: t,
            value: count as f64,
            threshold: self.min_count as f64,
            latency_secs: t - onset,
        })
    }
}

impl Rule {
    fn on_event(&mut self, event: &EventRecord) -> Option<AlertEvent> {
        match self {
            Rule::FaultBurst(b) => b.count("fault_burst", "fault_injected", event),
            Rule::InterruptionStorm(b) => b.count("interruption_storm", "spot_interruption", event),
            Rule::EarlyStop { min_rate, check_fraction, flagged } if event.kind == "progress" => {
                let processed = event.field("processed_fraction")?.as_f64()?;
                let rate = event.field("mapping_rate")?.as_f64()?;
                let eligible = processed >= *check_fraction && rate < *min_rate;
                if !eligible {
                    return None;
                }
                // Every snapshot lands here: the accession is copied only when reported.
                let accession = event.field("accession")?.as_str()?;
                if flagged.contains(accession) {
                    return None;
                }
                flagged.insert(accession.to_string());
                Some(AlertEvent {
                    rule: "early_stop_eligible".into(),
                    subject: accession.into(),
                    at_secs: event.at_secs,
                    value: rate,
                    threshold: *min_rate,
                    latency_secs: 0.0,
                })
            }
            _ => None,
        }
    }

    fn on_span_close(&mut self, span: &SpanRecord) -> Option<AlertEvent> {
        let Rule::Straggler { factor, min_samples, fleet, per_instance, flagged } = self else {
            return None;
        };
        let end = span.end_secs?;
        if span.name != "job" {
            return None;
        }
        // Crashed and drained attempts close a `job` span that names no instance:
        // they pool under the span's name.
        let instance = span.attr("instance").unwrap_or("job");
        let duration = span.duration_secs();
        insert_sorted(fleet, duration);
        // The key is copied for an instance's first job only.
        if !per_instance.contains_key(instance) {
            per_instance.insert(instance.to_string(), Vec::new());
        }
        let durations = per_instance.get_mut(instance)?;
        insert_sorted(durations, duration);
        if fleet.len() < *min_samples || flagged.contains(instance) {
            return None;
        }
        let bound = *factor * quantile_sorted(fleet, 0.5);
        let p99 = quantile_sorted(durations, 0.99);
        (p99 > bound).then(|| {
            flagged.insert(instance.to_string());
            AlertEvent {
                rule: "straggler_instance".into(),
                subject: instance.into(),
                at_secs: end,
                value: p99,
                threshold: bound,
                latency_secs: end - span.start_secs,
            }
        })
    }

    fn on_gauge(&mut self, t: f64, name: &str, value: f64) -> Option<AlertEvent> {
        let Rule::BacklogGrowth { per_sec, window } = self else { return None };
        if name != "queue_pending" {
            return None;
        }
        let (t0, v0) = window.push(t, value);
        // `t > t0`: the oldest sample inside is not the one just taken.
        let rate = (value - v0) / (t - t0);
        (t > t0 && rate >= *per_sec && window.may_fire(t)).then(|| AlertEvent {
            rule: "queue_backlog_growth".into(),
            subject: name.into(),
            at_secs: t,
            value: rate,
            threshold: *per_sec,
            latency_secs: t - t0,
        })
    }
}

/// The live monitor: the rules and objectives under evaluation. Each hook
/// returns the records to append to the log after its trigger; the log is also
/// where fired alerts are kept.
#[derive(Debug)]
pub(crate) struct Monitor {
    /// Rules under evaluation, in configuration order.
    rules: Box<[Rule]>,
    /// Objectives under evaluation (empty = SLO engine off), each beside its
    /// streaming evaluator state.
    objectives: Box<[(Slo, SloState)]>,
}

impl Monitor {
    /// A monitor evaluating `rules` against the stream and each of `slos`
    /// against the samples of its signal's sketch.
    pub(crate) fn new(rules: Vec<AlertRule>, slos: Vec<Slo>) -> Monitor {
        let objective = |slo: Slo| {
            let state = SloState::new(&slo);
            (slo, state)
        };
        Monitor {
            rules: rules.into_iter().map(|rule| rule.0).collect(),
            objectives: slos.into_iter().map(objective).collect(),
        }
    }

    /// Status of every configured objective, in registry order.
    pub(crate) fn slo_status(&self) -> Vec<SloStatus> {
        self.objectives.iter().map(|(slo, state)| state.status(slo)).collect()
    }

    /// An event is about to be appended to the log.
    pub(crate) fn on_event(&mut self, event: &EventRecord) -> Vec<EventRecord> {
        let fired = self.rules.iter_mut().filter_map(|rule| rule.on_event(event));
        fired.map(AlertEvent::into_event_record).collect()
    }

    /// A span was closed (first close only).
    pub(crate) fn on_span_close(&mut self, span: &SpanRecord) -> Vec<EventRecord> {
        let fired = self.rules.iter_mut().filter_map(|rule| rule.on_span_close(span));
        fired.map(AlertEvent::into_event_record).collect()
    }

    /// Gauge `name` was set to `value`.
    pub(crate) fn on_gauge(&mut self, at_secs: f64, name: &str, value: f64) -> Vec<EventRecord> {
        let fired = self.rules.iter_mut().filter_map(|rule| rule.on_gauge(at_secs, name, value));
        fired.map(AlertEvent::into_event_record).collect()
    }

    /// Sketch `name` took the sample `value`. Whatever one sample causes is
    /// contiguous: its alerts, then its informational records (`slo_clear`,
    /// `slo_budget`).
    pub(crate) fn on_sample(&mut self, at_secs: f64, name: &str, value: f64) -> Vec<EventRecord> {
        let (mut records, mut extra) = (Vec::new(), Vec::new());
        for (slo, state) in self.objectives.iter_mut() {
            if slo.signal.sketch_name() == name {
                let (alerts, events) = state.sample(slo, at_secs, value);
                records.extend(alerts.into_iter().map(AlertEvent::into_event_record));
                extra.extend(events);
            }
        }
        records.extend(extra);
        records
    }
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
        let rec = Recorder::monitored(vec![AlertRule::early_stop_eligible(0.30, 0.10)], Vec::new());
        progress(&rec, 10.0, "SRR1", 0.05, 0.10); // guard: too early
        progress(&rec, 20.0, "SRR1", 0.12, 0.10); // fires
        progress(&rec, 30.0, "SRR1", 0.20, 0.08); // deduped (infinite cooldown)
        progress(&rec, 40.0, "SRR2", 0.15, 0.90); // healthy: no fire
        progress(&rec, 50.0, "SRR3", 0.15, 0.05); // distinct subject fires
        let alerts = rec.alerts();
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
        let rec = Recorder::monitored(vec![AlertRule::fault_burst(100.0, 3)], Vec::new());
        for t in [0.0, 10.0, 200.0, 210.0] {
            rec.event(t, "fault_injected", vec![("op", JsonValue::from("s3_get"))]);
        }
        assert!(rec.alerts().is_empty(), "sparse faults must not alert");
        rec.event(220.0, "fault_injected", vec![("op", JsonValue::from("s3_get"))]);
        let alerts = rec.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "fault_burst");
        assert_eq!(alerts[0].at_secs, 220.0);
        assert_eq!(alerts[0].value, 3.0); // 200, 210, 220 in window
        assert_eq!(alerts[0].latency_secs, 20.0); // storm onset at 200
        // Cooldown suppresses immediate re-fire.
        rec.event(221.0, "fault_injected", vec![]);
        assert_eq!(rec.alerts().len(), 1);
    }

    #[test]
    fn backlog_growth_is_a_rate_over_a_window() {
        let rules = vec![AlertRule::queue_backlog_growth(100.0, 0.5)];
        let rec = Recorder::monitored(rules, Vec::new());
        rec.gauge_set_at(0.0, "queue_pending", 50.0);
        rec.gauge_set_at(50.0, "queue_pending", 40.0); // draining: fine
        rec.gauge_set_at(100.0, "queue_pending", 80.0); // +30 over (0,100): 0.3/s — window front is t=0
        assert!(rec.alerts().is_empty());
        rec.gauge_set_at(150.0, "queue_pending", 140.0); // window [50,150]: +100/100s = 1.0/s
        let alerts = rec.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "queue_backlog_growth");
        assert_eq!(alerts[0].subject, "queue_pending");
        assert_eq!(alerts[0].value, 1.0);
        assert_eq!(alerts[0].latency_secs, 100.0);
    }

    #[test]
    fn straggler_rule_compares_subject_p99_to_fleet_median() {
        let rec = Recorder::monitored(vec![AlertRule::straggler_instances(3.0, 4)], Vec::new());
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
        let alerts = rec.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, "straggler_instance");
        assert_eq!(alerts[0].subject, "3");
        assert_eq!(alerts[0].value, 50.0);
        assert_eq!(alerts[0].threshold, 30.0); // 3 × fleet median 10
        assert_eq!(alerts[0].latency_secs, 50.0); // flagged the moment the job closed
        assert!(alerts[0].at_secs < t, "alert fired online, before the stream ended");
    }

    #[test]
    fn job_spans_that_name_no_instance_pool_under_the_span_name() {
        // What a crashed or drained attempt closes. No campaign pin reaches this.
        let rec = Recorder::monitored(vec![AlertRule::straggler_instances(3.0, 3)], Vec::new());
        for (t, dur, instance) in
            [(0.0, 10.0, Some("1")), (20.0, 10.0, Some("2")), (40.0, 90.0, None)]
        {
            let mut attrs = vec![("accession", format!("SRR{t}"))];
            attrs.extend(instance.map(|i| ("instance", i.to_string())));
            rec.span_closed("job", SpanId::NONE, t, t + dur, &attrs);
        }
        let alerts = rec.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(
            (alerts[0].subject.as_str(), alerts[0].value, alerts[0].threshold),
            ("job", 90.0, 30.0)
        );
    }

    #[test]
    fn same_stream_fires_the_same_alerts() {
        let run = || {
            let rec = Recorder::monitored(MonitorConfig::standard().rules, Vec::new());
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
        let rec = Recorder::monitored(Vec::new(), vec![queue_wait_slo()]);
        let sketch = SloSignal::QueueWait.sketch_name();
        // No events, no spans: six bad samples burn at 10x in both windows.
        for t in 0..6 {
            rec.sketch_observe(f64::from(t), sketch, 0.01, 2.0);
        }
        let alerts = rec.alerts();
        assert_eq!(alerts.len(), 1, "hysteresis: one alert for a sustained burn: {alerts:?}");
        assert_eq!(alerts[0].rule, BURN_ALERT_RULE);
        assert_eq!(alerts[0].subject, "queue_wait:100s");
        assert_eq!(alerts[0].at_secs, 2.0, "arms at min_count = 3");
        // Good samples pull the short window back under the factor: one clear.
        for t in 6..30 {
            rec.sketch_observe(f64::from(t), sketch, 0.01, 0.5);
        }
        assert_eq!(rec.alerts().len(), 1);
        let log = rec.events_ndjson();
        assert_eq!(log.matches("\"kind\":\"slo_clear\"").count(), 1, "{log}");
        let burn = log.find("\"rule\":\"slo_burn\"").expect("the alert is in the log");
        assert!(burn < log.find("\"kind\":\"slo_clear\"").unwrap(), "{log}");
        let status = &rec.slo_status()[0];
        assert_eq!((status.total, status.bad, status.burn_alerts), (30, 6, 1));
        rec.read(|_, _, metrics| {
            assert_eq!(metrics.counter("alerts_fired"), 1, "clears and budgets are not alerts");
            assert_eq!(metrics.sketch(sketch).unwrap().count(), status.total);
        });
    }

    #[test]
    fn a_sample_for_an_unconstrained_sketch_is_ignored() {
        let rec = Recorder::monitored(Vec::new(), vec![queue_wait_slo()]);
        for t in 0..10 {
            let name = SloSignal::AccessionCost.sketch_name();
            rec.sketch_observe(f64::from(t), name, 0.01, 1e9);
            rec.sketch_observe(f64::from(t), "job_secs", 0.01, 1e9);
        }
        assert_eq!(rec.slo_status()[0].total, 0);
        assert!(rec.alerts().is_empty());
        assert_eq!(rec.n_events(), 0);
    }
}
