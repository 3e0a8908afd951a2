//! The telemetry sink shared across the stack.
//!
//! A [`Recorder`] is handed around as `Arc<Recorder>` (orchestrator → fault
//! injector → auto-scaling group → ...). All state sits behind one mutex; every
//! public method first checks the `enabled` flag, so a disabled recorder costs a
//! single branch — no lock, no allocation — which is the "cheap no-op path" the
//! hot simulator loop relies on.

use crate::events::EventRecord;
use crate::json::JsonValue;
use crate::metrics::MetricsRegistry;
use crate::span::{SpanId, SpanRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A streaming subscriber to the telemetry feed (the live-monitor hook).
///
/// Observers are notified outside the recorder's state lock; records they fire
/// on are appended to the log after their trigger (observers read the stream,
/// never the log). Whatever events an observer returns — alert records, in
/// practice — are appended to the same event log (and counted in the
/// `alerts_fired` counter) but do **not** re-notify observers, so an observer
/// cannot trigger itself. Observers see the stream in the simulator's
/// deterministic emission order; a pure-function observer therefore produces the
/// same alerts on every same-seed run.
pub trait StreamObserver: Send {
    /// An event was appended to the log.
    fn on_event(&mut self, event: &EventRecord) -> Vec<EventRecord> {
        let _ = event;
        Vec::new()
    }

    /// A span was closed (first close only; retroactive `span_closed` included).
    fn on_span_close(&mut self, span: &SpanRecord) -> Vec<EventRecord> {
        let _ = span;
        Vec::new()
    }

    /// A gauge was set through [`Recorder::gauge_set_at`].
    fn on_gauge(&mut self, at_secs: f64, name: &str, value: f64) -> Vec<EventRecord> {
        let _ = (at_secs, name, value);
        Vec::new()
    }

    /// Sketch `name` took the sample `value` through [`Recorder::sketch_observe`].
    /// Whatever one sample causes is contiguous in the log: its alerts, then its
    /// informational records (`slo_clear`, `slo_budget`), ahead of anything the
    /// next sample causes — two samples made back to back never interleave.
    fn on_sample(&mut self, at_secs: f64, name: &str, value: f64) -> Vec<EventRecord> {
        let _ = (at_secs, name, value);
        Vec::new()
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    metrics: MetricsRegistry,
}

/// Deterministic sim-time telemetry recorder.
pub struct Recorder {
    enabled: bool,
    inner: Mutex<Inner>,
    /// Separate lock so observer callbacks run outside the state lock (they may
    /// re-enter the recorder only through the returned alert records, which the
    /// notifier appends itself).
    observers: Mutex<Vec<Box<dyn StreamObserver>>>,
    /// Fast path: skip the observer lock entirely while nothing is attached.
    observed: AtomicBool,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("observed", &self.observed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
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
        Recorder {
            enabled: true,
            inner: Mutex::new(Inner::default()),
            observers: Mutex::new(Vec::new()),
            observed: AtomicBool::new(false),
        }
    }

    /// A disabled recorder: every operation is a branch-and-return no-op, spans
    /// come back as [`SpanId::NONE`].
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            inner: Mutex::new(Inner::default()),
            observers: Mutex::new(Vec::new()),
            observed: AtomicBool::new(false),
        }
    }

    /// Subscribe a streaming observer. No-op on a disabled recorder.
    pub fn attach_observer(&self, observer: Box<dyn StreamObserver>) {
        if !self.enabled {
            return;
        }
        self.observers.lock().expect("telemetry observers poisoned").push(observer);
        self.observed.store(true, Ordering::Release);
    }

    /// Run `notify` over every observer and append whatever events they return.
    /// Returned records bypass observer notification (no self-triggering). Only
    /// records of kind `alert` bump the `alerts_fired` counter — observers also
    /// emit informational records (`slo_budget`, `slo_clear`) that are not
    /// alerts.
    fn notify_observers(
        &self,
        notify: impl FnMut(&mut dyn StreamObserver) -> Vec<EventRecord>,
    ) {
        let alerts = self.collect_observer_records(notify);
        if alerts.is_empty() {
            return;
        }
        let mut inner = self.lock();
        Self::append_observer_records(&mut inner, alerts);
    }

    /// Run `notify` over every observer and collect whatever records they
    /// return, without touching the log. Empty (no allocation) when nothing is
    /// observing or nothing fired.
    fn collect_observer_records(
        &self,
        mut notify: impl FnMut(&mut dyn StreamObserver) -> Vec<EventRecord>,
    ) -> Vec<EventRecord> {
        if !self.observed.load(Ordering::Acquire) {
            return Vec::new();
        }
        let mut observers = self.observers.lock().expect("telemetry observers poisoned");
        let mut alerts: Vec<EventRecord> = Vec::new();
        for obs in observers.iter_mut() {
            alerts.extend(notify(obs.as_mut()));
        }
        alerts
    }

    /// Append observer-returned records to the log under an already-held inner
    /// lock. Bypasses observer notification (no self-triggering).
    fn append_observer_records(inner: &mut Inner, alerts: Vec<EventRecord>) {
        for alert in alerts {
            if alert.kind == "alert" {
                inner.metrics.counter_add("alerts_fired", 1);
            }
            inner.events.push(alert);
        }
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
        let id = inner.spans.len() as u64 + 1;
        inner.spans.push(SpanRecord {
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
        let observed = self.observed.load(Ordering::Acquire);
        let closed = {
            let mut inner = self.lock();
            let span = &mut inner.spans[(id.0 - 1) as usize];
            assert!(
                at_secs >= span.start_secs,
                "span '{}' would end at {at_secs} before its start {}",
                span.name,
                span.start_secs
            );
            if span.end_secs.is_none() {
                span.end_secs = Some(at_secs);
                // The clone exists only to hand observers a view outside the
                // recorder lock; skip it entirely on unobserved runs.
                observed.then(|| span.clone())
            } else {
                None
            }
        };
        if let Some(span) = closed {
            self.notify_observers(|obs| obs.on_span_close(&span));
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
    pub fn event(&self, at_secs: f64, kind: &'static str, fields: Vec<(&'static str, JsonValue)>) {
        if !self.enabled {
            return;
        }
        let record = EventRecord { at_secs, kind, fields };
        // Observers see the record before it lands in the log (they read the
        // stream, not the log), and their alerts are appended after it — same
        // cause-before-effect log order as before, without deep-cloning every
        // record on the hot path.
        let fired = self.collect_observer_records(|obs| obs.on_event(&record));
        let mut inner = self.lock();
        inner.events.push(record);
        Self::append_observer_records(&mut inner, fired);
    }

    /// Add `n` to counter `name`.
    pub fn counter_add(&self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        self.lock().metrics.counter_add(name, n);
    }

    /// Set gauge `name` at simulated time `at_secs`, feeding observers the sample
    /// (the registry itself keeps only the latest value — the timestamp exists
    /// for streaming rules like rate-of-change over a window).
    pub fn gauge_set_at(&self, at_secs: f64, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        self.lock().metrics.gauge_set(name, v);
        self.notify_observers(|obs| obs.on_gauge(at_secs, name, v));
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
    /// feed observers the same sample: what a sketch counted is exactly what a
    /// streaming evaluator saw.
    pub fn sketch_observe(&self, at_secs: f64, name: &str, alpha: f64, v: f64) {
        if !self.enabled {
            return;
        }
        self.lock().metrics.sketch_observe(name, alpha, v);
        self.notify_observers(|obs| obs.on_sample(at_secs, name, v));
    }

    /// Lend `f` everything recorded so far — spans and events in emission
    /// order, and the metrics registry — under the state lock, without copying.
    /// `f` must not call back into this recorder: the lock is not re-entrant.
    pub fn read<R>(
        &self,
        f: impl FnOnce(&[SpanRecord], &[EventRecord], &MetricsRegistry) -> R,
    ) -> R {
        let inner = self.lock();
        f(&inner.spans, &inner.events, &inner.metrics)
    }

    /// Number of spans recorded.
    pub fn n_spans(&self) -> usize {
        self.lock().spans.len()
    }

    /// Number of events recorded.
    pub fn n_events(&self) -> usize {
        self.lock().events.len()
    }

    /// The whole event log as NDJSON (one line per event, trailing newline when
    /// non-empty). Byte-identical across same-seed runs.
    pub fn events_ndjson(&self) -> String {
        ndjson(&self.lock().events)
    }

    /// The metrics registry serialized to its stable JSON shape.
    pub fn metrics_json(&self) -> String {
        self.lock().metrics.to_json().render()
    }
}

/// `events` as NDJSON, one line each.
pub(crate) fn ndjson(events: &[EventRecord]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        e.write_ndjson_into(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Echoes every notification as an `alert` event naming what it saw; a
    /// sample is echoed as an `alert` followed by an informational `slo_budget`.
    struct Echo;
    impl StreamObserver for Echo {
        fn on_event(&mut self, event: &EventRecord) -> Vec<EventRecord> {
            vec![EventRecord {
                at_secs: event.at_secs,
                kind: "alert".into(),
                fields: vec![("saw", JsonValue::from(event.kind))],
            }]
        }
        fn on_span_close(&mut self, span: &SpanRecord) -> Vec<EventRecord> {
            vec![EventRecord {
                at_secs: span.end_secs.unwrap_or(span.start_secs),
                kind: "alert".into(),
                fields: vec![("saw".into(), JsonValue::from(span.name.as_str()))],
            }]
        }
        fn on_gauge(&mut self, at_secs: f64, name: &str, value: f64) -> Vec<EventRecord> {
            vec![EventRecord {
                at_secs,
                kind: "alert".into(),
                fields: vec![
                    ("saw".into(), JsonValue::from(name)),
                    ("value".into(), JsonValue::from(value)),
                ],
            }]
        }
        fn on_sample(&mut self, at_secs: f64, name: &str, value: f64) -> Vec<EventRecord> {
            let echo = |kind| EventRecord {
                at_secs,
                kind,
                fields: vec![("saw", JsonValue::from(name)), ("value", JsonValue::from(value))],
            };
            vec![echo("alert"), echo("slo_budget")]
        }
    }

    #[test]
    fn observers_see_the_stream_and_their_alerts_join_the_log() {
        let r = Recorder::new();
        r.attach_observer(Box::new(Echo));
        r.event(1.0, "retry", vec![]);
        let s = r.span_start("job", SpanId::NONE, 2.0);
        r.span_end(s, 3.0);
        r.span_end(s, 4.0); // double close: no second notification
        r.gauge_set_at(5.0, "queue_pending", 7.0);
        r.sketch_observe(6.0, "wait_secs", 0.01, 2.5);
        let log = r.events_ndjson();
        // Returned records join the log without re-notifying: nothing echoes an echo.
        assert_eq!(
            log,
            "{\"t\":1,\"kind\":\"retry\"}\n\
             {\"t\":1,\"kind\":\"alert\",\"saw\":\"retry\"}\n\
             {\"t\":3,\"kind\":\"alert\",\"saw\":\"job\"}\n\
             {\"t\":5,\"kind\":\"alert\",\"saw\":\"queue_pending\",\"value\":7}\n\
             {\"t\":6,\"kind\":\"alert\",\"saw\":\"wait_secs\",\"value\":2.5}\n\
             {\"t\":6,\"kind\":\"slo_budget\",\"saw\":\"wait_secs\",\"value\":2.5}\n"
        );
        r.read(|_, _, metrics| {
            assert_eq!(metrics.counter("alerts_fired"), 4, "slo_budget is not an alert");
            assert_eq!(metrics.gauge("queue_pending"), Some(7.0));
        });
    }

    /// Reports, instead of the sample, how many the sketch held when notified.
    struct SketchCount(std::sync::Arc<Recorder>);
    impl StreamObserver for SketchCount {
        fn on_sample(&mut self, at_secs: f64, name: &str, _: f64) -> Vec<EventRecord> {
            let held = self.0.read(|_, _, m| m.sketch(name).map_or(0, |s| s.count()));
            vec![EventRecord { at_secs, kind: "held", fields: vec![("n", JsonValue::from(held))] }]
        }
    }

    #[test]
    fn on_sample_runs_after_the_sketch_took_the_sample() {
        let r = std::sync::Arc::new(Recorder::new());
        r.attach_observer(Box::new(SketchCount(std::sync::Arc::clone(&r))));
        r.sketch_observe(1.0, "s", 0.01, 10.0);
        r.sketch_observe(2.0, "s", 0.01, 20.0);
        assert_eq!(
            r.events_ndjson(),
            "{\"t\":1,\"kind\":\"held\",\"n\":1}\n{\"t\":2,\"kind\":\"held\",\"n\":2}\n"
        );
        assert_eq!(r.read(|_, _, m| m.counter("alerts_fired")), 0);
    }

    #[test]
    fn observers_on_disabled_recorder_never_fire() {
        let r = Recorder::disabled();
        r.attach_observer(Box::new(Echo));
        r.event(1.0, "retry", vec![]);
        r.gauge_set_at(2.0, "g", 1.0);
        r.sketch_observe(3.0, "s", 0.01, 1.0);
        assert_eq!(r.n_events(), 0);
        assert!(r.read(|_, _, metrics| metrics.sketch("s").is_none()));
    }

    #[test]
    fn event_log_is_ndjson_in_emission_order() {
        let r = Recorder::new();
        r.event(1.0, "a", vec![]);
        r.event(2.0, "b", vec![("k", JsonValue::from(3u64))]);
        assert_eq!(r.events_ndjson(), "{\"t\":1,\"kind\":\"a\"}\n{\"t\":2,\"kind\":\"b\",\"k\":3}\n");
    }
}
