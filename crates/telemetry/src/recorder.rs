//! The telemetry sink shared across the stack.
//!
//! A [`Recorder`] is handed around as `Arc<Recorder>` (orchestrator → fault
//! injector → auto-scaling group → ...). All state sits behind one mutex; every
//! public method first checks the `enabled` flag, so a disabled recorder costs a
//! single branch — no lock, no allocation — which is the "cheap no-op path" the
//! hot simulator loop relies on.
//!
//! A recorder made with [`Recorder::monitored`] owns the live
//! [monitor](crate::monitor): under the same lock, every event, closing span,
//! gauge sample and sketch sample is offered to it as the simulator emits it,
//! and what it fires is appended to the log right after its trigger.
//!
//! Each event is rendered into the NDJSON log as it is recorded, after the
//! monitor has seen it ([`EventLog`]): the log is the store, and the exports
//! copy from it.
//!
//! The span table and the log's store sit behind `Arc`s, so a summary can keep
//! them without a copy (see [`crate::PerfettoTrace`]). Recording while a summary
//! still holds them copies them first (`Arc::make_mut`); a campaign summarizes
//! once, at its end, and copies nothing.

use crate::events::{EventLog, EventRecord};
use crate::json::JsonValue;
use crate::metrics::MetricsRegistry;
use crate::monitor::{AlertEvent, AlertRule, Monitor};
use crate::slo::{Slo, SloStatus};
use crate::span::{SpanId, SpanRecord};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    /// None until the first span, so a disabled recorder allocates nothing.
    spans: Option<Arc<Vec<SpanRecord>>>,
    events: EventLog,
    metrics: MetricsRegistry,
    monitor: Option<Monitor>,
}

/// The span table to record into, made on first use and copied first if a
/// summary still shares it.
fn table(spans: &mut Option<Arc<Vec<SpanRecord>>>) -> &mut Vec<SpanRecord> {
    Arc::make_mut(spans.get_or_insert_with(Arc::default))
}

impl Inner {
    /// Append what the monitor fired, right after its trigger. Only `alert`
    /// records count in `alerts_fired`: `slo_budget` and `slo_clear` are
    /// informational. The monitor never sees these records, so it cannot
    /// trigger itself.
    fn append_fired(&mut self, fired: Vec<EventRecord>) {
        for record in fired {
            if record.kind == "alert" {
                self.metrics.counter_add("alerts_fired", 1);
            }
            self.events.push(record);
        }
    }
}

/// Deterministic sim-time telemetry recorder.
pub struct Recorder {
    enabled: bool,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.enabled).finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled recorder.
    pub fn new() -> Recorder {
        Recorder { enabled: true, inner: Mutex::new(Inner::default()) }
    }

    /// A disabled recorder: every operation is a branch-and-return no-op, spans
    /// come back as [`SpanId::NONE`].
    pub fn disabled() -> Recorder {
        Recorder { enabled: false, ..Recorder::new() }
    }

    /// An enabled recorder that runs the live monitor: `rules` (as given:
    /// [`MonitorConfig::validate`](crate::MonitorConfig::validate) is the check)
    /// against the stream, and each of `slos` against the samples of its signal's
    /// sketch ([`crate::SloSignal::sketch_name`]) with burn-rate alerting.
    pub fn monitored(rules: Vec<AlertRule>, slos: Vec<Slo>) -> Recorder {
        let inner = Inner { monitor: Some(Monitor::new(rules, slos)), ..Inner::default() };
        Recorder { enabled: true, inner: Mutex::new(inner) }
    }

    /// Every alert the monitor fired so far, in firing order: the log's `alert`
    /// records (none without a monitor).
    pub fn alerts(&self) -> Vec<AlertEvent> {
        self.lock().events.alerts().collect()
    }

    /// Status of every objective the monitor evaluates, in registry order.
    pub fn slo_status(&self) -> Vec<SloStatus> {
        self.lock().monitor.as_ref().map_or_else(Vec::new, Monitor::slo_status)
    }

    /// True when this recorder captures anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("telemetry recorder poisoned")
    }

    /// Open a span at `at_secs`. `parent` may be [`SpanId::NONE`] for a root.
    pub fn span_start(&self, name: &str, parent: SpanId, at_secs: f64) -> SpanId {
        self.span_start_attrs(name, parent, at_secs, &[])
    }

    /// Open a span with attributes.
    pub fn span_start_attrs(
        &self,
        name: &str,
        parent: SpanId,
        at_secs: f64,
        attrs: &[(&str, String)],
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let mut inner = self.lock();
        let spans = table(&mut inner.spans);
        let id = spans.len() as u64 + 1;
        spans.push(SpanRecord {
            id,
            parent: parent.0,
            name: name.to_string(),
            start_secs: at_secs,
            end_secs: None,
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        });
        SpanId(id)
    }

    /// Close span `id` at `at_secs`. No-op for [`SpanId::NONE`] or an already
    /// closed span; panics if `at_secs` precedes the span's start (a sim bug —
    /// spans must never have negative duration).
    pub fn span_end(&self, id: SpanId, at_secs: f64) {
        if !self.enabled || id.is_none() {
            return;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let span = &mut table(&mut inner.spans)[(id.0 - 1) as usize];
        assert!(
            at_secs >= span.start_secs,
            "span '{}' would end at {at_secs} before its start {}",
            span.name,
            span.start_secs
        );
        if span.end_secs.is_some() {
            return;
        }
        span.end_secs = Some(at_secs);
        if let Some(monitor) = &mut inner.monitor {
            let fired = monitor.on_span_close(span);
            inner.append_fired(fired);
        }
    }

    /// Record a span retroactively, already closed over `[start_secs, end_secs]`.
    /// This is how the orchestrator emits job/stage spans: a job's stage breakdown
    /// is only known when the job completes, so its spans are backdated then.
    pub fn span_closed(
        &self,
        name: &str,
        parent: SpanId,
        start_secs: f64,
        end_secs: f64,
        attrs: &[(&str, String)],
    ) -> SpanId {
        let id = self.span_start_attrs(name, parent, start_secs, attrs);
        self.span_end(id, end_secs);
        id
    }

    /// Append a structured event. Kind and field names are schema constants
    /// (literals at every call site), so the record is built without per-key
    /// allocations — progress streaming makes this the hottest telemetry path.
    /// The monitor sees the record first; then its line is rendered onto the log
    /// and, unless it is an `alert` or `slo_budget`, the record is dropped.
    pub fn event(&self, at_secs: f64, kind: &'static str, fields: Vec<(&'static str, JsonValue)>) {
        if !self.enabled {
            return;
        }
        let record = EventRecord { at_secs, kind, fields };
        let mut inner = self.lock();
        let fired = inner.monitor.as_mut().map(|m| m.on_event(&record)).unwrap_or_default();
        inner.events.push(record);
        inner.append_fired(fired);
    }

    /// Add `n` to counter `name`.
    pub fn counter_add(&self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        self.lock().metrics.counter_add(name, n);
    }

    /// Set gauge `name` at simulated time `at_secs`, then offer the monitor the
    /// sample (the registry itself keeps only the latest value — the timestamp
    /// exists for streaming rules like rate-of-change over a window).
    pub fn gauge_set_at(&self, at_secs: f64, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        inner.metrics.gauge_set(name, v);
        if let Some(monitor) = &mut inner.monitor {
            let fired = monitor.on_gauge(at_secs, name, v);
            inner.append_fired(fired);
        }
    }

    /// Record `v` into histogram `name` (created with `bounds` on first touch).
    pub fn observe(&self, name: &str, bounds: &[f64], v: f64) {
        if !self.enabled {
            return;
        }
        self.lock().metrics.observe(name, bounds, v);
    }

    /// Record `v`, sampled at simulated time `at_secs`, into quantile sketch
    /// `name` (created with relative error bound `alpha` on first touch), then
    /// offer the monitor the same sample: what a sketch counted is exactly what
    /// an objective saw.
    pub fn sketch_observe(&self, at_secs: f64, name: &str, alpha: f64, v: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        inner.metrics.sketch_observe(name, alpha, v);
        if let Some(monitor) = &mut inner.monitor {
            let fired = monitor.on_sample(at_secs, name, v);
            inner.append_fired(fired);
        }
    }

    /// Lend `f` everything recorded so far — spans in emission order, the event
    /// log, and the metrics registry — under the state lock, without copying.
    /// `f` must not call back into this recorder: the lock is not re-entrant.
    ///
    /// The log is lent as one buffer: lines recorded since the last read are
    /// first gathered after the earlier ones (see [`EventLog`]).
    pub fn read<R>(&self, f: impl FnOnce(&[SpanRecord], &EventLog, &MetricsRegistry) -> R) -> R {
        self.read_shared(|spans, events, metrics| f(spans.map_or(&[], |s| s), events, metrics))
    }

    /// [`Recorder::read`], lending the span table as the `Arc` it is kept in
    /// (none before the first span), for a summary that keeps it; [`EventLog`]
    /// clones share the same way.
    pub(crate) fn read_shared<R>(
        &self,
        f: impl FnOnce(Option<&Arc<Vec<SpanRecord>>>, &EventLog, &MetricsRegistry) -> R,
    ) -> R {
        let mut inner = self.lock();
        inner.events.gather();
        f(inner.spans.as_ref(), &inner.events, &inner.metrics)
    }

    /// Number of spans recorded.
    pub fn n_spans(&self) -> usize {
        self.lock().spans.as_ref().map_or(0, |s| s.len())
    }

    /// Number of events recorded.
    pub fn n_events(&self) -> usize {
        self.lock().events.len()
    }

    /// A copy of the whole event log as NDJSON (one line per event, trailing
    /// newline when non-empty). Byte-identical across same-seed runs.
    pub fn events_ndjson(&self) -> String {
        self.read(|_, events, _| events.ndjson().to_string())
    }

    /// The metrics registry serialized to its stable JSON shape.
    pub fn metrics_json(&self) -> String {
        self.lock().metrics.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{BurnRateRule, SloSignal};

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        let id = r.span_start("job", SpanId::NONE, 1.0);
        assert!(id.is_none());
        r.span_end(id, 2.0);
        r.event(1.0, "retry", vec![("op", JsonValue::from("s3_get"))]);
        r.counter_add("c", 1);
        r.observe("h", &[1.0], 0.5);
        assert_eq!(r.n_spans(), 0);
        assert_eq!(r.n_events(), 0);
        assert_eq!(r.events_ndjson(), "");
        assert!(!r.is_enabled());
    }

    #[test]
    fn spans_nest_and_close() {
        let r = Recorder::new();
        let root = r.span_start("campaign", SpanId::NONE, 0.0);
        let job = r.span_start_attrs("job", root, 1.0, &[("accession", "SRR1".to_string())]);
        r.span_end(job, 3.0);
        r.span_end(root, 4.0);
        r.read(|spans, _, _| {
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[1].parent, root.0);
            assert_eq!(spans[1].end_secs, Some(3.0));
            assert_eq!(spans[1].attr("accession"), Some("SRR1"));
        });
    }

    #[test]
    fn double_close_keeps_first_end() {
        let r = Recorder::new();
        let s = r.span_start("instance", SpanId::NONE, 0.0);
        r.span_end(s, 5.0);
        r.span_end(s, 9.0);
        assert_eq!(r.read(|spans, _, _| spans[0].end_secs), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "before its start")]
    fn negative_duration_panics() {
        let r = Recorder::new();
        let s = r.span_start("job", SpanId::NONE, 10.0);
        r.span_end(s, 9.0);
    }

    /// Fires on every fault, on a job span once two have closed, on any
    /// non-shrinking backlog, and on every bad queue-wait sample.
    fn hair_trigger() -> Recorder {
        let wait = Slo {
            id: "wait".into(),
            signal: SloSignal::QueueWait,
            threshold: 1.0,
            target: 0.9,
            windows: vec![BurnRateRule {
                long_secs: 100.0,
                short_secs: 10.0,
                factor: 1.0,
                min_count: 1,
            }],
        };
        Recorder::monitored(
            vec![
                AlertRule::fault_burst(0.5, 1),
                AlertRule::straggler_instances(0.0, 2),
                AlertRule::queue_backlog_growth(100.0, 0.0),
            ],
            vec![wait],
        )
    }

    /// `kind` (and `rule`, for alerts) of every logged record, in log order.
    fn kinds(r: &Recorder) -> Vec<String> {
        r.events_ndjson()
            .lines()
            .map(|line| {
                let e = crate::json::parse(line).unwrap();
                let kind = e.get("kind").and_then(JsonValue::as_str).unwrap();
                match e.get("rule").and_then(JsonValue::as_str) {
                    Some(rule) => format!("{kind}:{rule}"),
                    None => kind.to_string(),
                }
            })
            .collect()
    }

    #[test]
    fn the_monitors_records_follow_their_trigger_and_only_alerts_count() {
        let r = hair_trigger();
        r.event(1.0, "fault_injected", vec![]);
        let a = r.span_start_attrs("job", SpanId::NONE, 2.0, &[("instance", "7".to_string())]);
        r.span_end(a, 3.0);
        // A second close offers nothing: were it offered, the fleet would hold two
        // jobs and instance 7 would be flagged.
        r.span_end(a, 4.0);
        assert_eq!(r.alerts().len(), 1, "only the fault burst: {:?}", r.alerts());
        r.span_closed("job", SpanId::NONE, 5.0, 6.0, &[("instance", "8".to_string())]);
        r.gauge_set_at(7.0, "queue_pending", 1.0);
        r.gauge_set_at(8.0, "queue_pending", 1.0);
        r.sketch_observe(9.0, SloSignal::QueueWait.sketch_name(), 0.01, 2.0);
        r.event(10.0, "fault_injected", vec![]);
        assert_eq!(
            kinds(&r),
            [
                "fault_injected",
                "alert:fault_burst",
                "alert:straggler_instance",
                "alert:queue_backlog_growth",
                "alert:slo_burn",
                "slo_budget",
                "fault_injected",
                "alert:fault_burst",
            ]
        );
        let fired: Vec<_> = r.alerts().into_iter().map(|a| (a.rule, a.at_secs)).collect();
        assert_eq!(fired[1], ("straggler_instance".to_string(), 6.0));
        r.read(|_, _, metrics| {
            assert_eq!(metrics.counter("alerts_fired"), 5, "slo_budget is not an alert");
            assert_eq!(metrics.gauge("queue_pending"), Some(1.0));
        });
    }

    #[test]
    fn an_objective_sees_a_sample_only_after_its_sketch_counted_it() {
        let r = hair_trigger();
        let name = SloSignal::QueueWait.sketch_name();
        for (t, wait) in [(1.0, 0.5), (2.0, 3.0), (3.0, 0.0)] {
            r.sketch_observe(t, name, 0.01, wait);
            let counted = r.read(|_, _, m| m.sketch(name).map_or(0, |s| s.count()));
            assert_eq!(r.slo_status()[0].total, counted);
        }
        // The sketch rejects a negative sample by panicking, before the objective
        // is offered it.
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.sketch_observe(4.0, name, 0.01, -1.0);
        }));
        assert!(rejected.is_err());
        r.inner.clear_poison();
        assert_eq!(r.slo_status()[0].total, 3);
        assert_eq!(r.read(|_, _, m| m.sketch(name).map_or(0, |s| s.count())), 3);
    }

    #[test]
    fn event_log_is_ndjson_in_emission_order() {
        let r = Recorder::new();
        r.event(1.0, "a", vec![]);
        r.event(2.0, "b", vec![("k", JsonValue::from(3u64))]);
        assert_eq!(r.events_ndjson(), "{\"t\":1,\"kind\":\"a\"}\n{\"t\":2,\"kind\":\"b\",\"k\":3}\n");
    }
}
