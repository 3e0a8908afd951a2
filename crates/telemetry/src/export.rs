//! Standard-format exporters over recorded telemetry: Chrome/Perfetto trace-event
//! JSON for the span tree and OpenMetrics text exposition for the metrics
//! registry, plus a collapsed-stack (flamegraph) fold of the span tree.
//!
//! Everything here is a pure function of already-recorded data — exporting cannot
//! perturb a campaign — and every byte is deterministic: timestamps are simulated
//! seconds converted to integer microseconds, floats go through
//! [`crate::json::write_f64`], and iteration orders are either emission order
//! (spans, events) or sorted-name order (metrics). A fixed-seed campaign therefore
//! exports byte-identical documents on every run, which is what lets CI pin them
//! as goldens.

use crate::events::{EventLog, EventRecord, Indexed};
use crate::json::{
    escape_into, escape_unquoted_into, escaped_len, fmt_f64, push_i64, push_u64, JsonValue,
};
use crate::metrics::MetricsRegistry;
use crate::recorder::Recorder;
use crate::span::SpanRecord;
use std::fmt::{self, Write};
use std::io;
use std::sync::Arc;

/// Simulated seconds → integer trace microseconds.
fn micros(secs: f64) -> i64 {
    (secs * 1e6).round() as i64
}

/// The process id span `i` renders under: the `instance` attribute of the nearest
/// enclosing `instance` span (the instances of the simulated fleet map to Perfetto
/// processes), or 0 for campaign-level spans.
///
/// A recorder assigns a span's id as its index + 1 when it opens, so a parent
/// precedes its children and the walk up the parents ends. An `instance` span
/// takes its parsed attribute (0 when it does not parse), any other span its
/// parent's pid, and a parent that does not precede the span gives 0.
fn span_pid(spans: &[SpanRecord], mut i: usize) -> u64 {
    loop {
        let s = &spans[i];
        if s.name == "instance" {
            return s.attr("instance").and_then(|v| v.parse().ok()).unwrap_or(0);
        }
        match usize::try_from(s.parent).ok().and_then(|id| id.checked_sub(1)) {
            Some(parent) if parent < i => i = parent,
            _ => return 0,
        }
    }
}

/// Decimal digits of `n`.
fn digits(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Decimal length of `n`, sign included.
fn signed_digits(n: i64) -> usize {
    usize::from(n < 0) + digits(n.unsigned_abs())
}

// The fixed text of the trace's objects, shared by what sizes them and what
// writes them.
const HEAD: &str = "{\"traceEvents\":[";
const TAIL: &str = "],\"displayTimeUnit\":\"ms\"}\n";
const META_PID: &str = "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
const META_ARGS: &str = ",\"tid\":0,\"args\":{\"name\":";
const META_CAMPAIGN: &str = "\"campaign\"}}";
const META_INSTANCE: &str = "\"instance ";
const META_INSTANCE_END: &str = "\"}}";
const NAME: &str = "{\"name\":";
const SPAN_TS: &str = ",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":";
const SPAN_DUR: &str = ",\"dur\":";
const SPAN_PID: &str = ",\"pid\":";
const INSTANT_TS: &str = ",\"cat\":\"event\",\"ph\":\"i\",\"ts\":";
const INSTANT_SCOPE: &str = ",\"s\":\"";
const INSTANT_PID: &str = "\",\"pid\":";
const ARGS: &str = ",\"tid\":0,\"args\":{";
const CLOSE: &str = "}}";

// The writers below write into a `String` (which never fails) or a `Stream`
// (whose first failure sticks): each returns its last write's result, which
// reports a failure anywhere in the object.

/// Process metadata for `pid`: pid 0 is the campaign, an instance labels itself.
fn meta_len(pid: u64) -> usize {
    let label = if pid == 0 {
        META_CAMPAIGN.len()
    } else {
        META_INSTANCE.len() + digits(pid) + META_INSTANCE_END.len()
    };
    META_PID.len() + digits(pid) + META_ARGS.len() + label
}

fn write_meta(pid: u64, out: &mut impl Write) -> fmt::Result {
    out.write_str(META_PID)?;
    push_u64(pid, out);
    out.write_str(META_ARGS)?;
    if pid == 0 {
        out.write_str(META_CAMPAIGN)
    } else {
        out.write_str(META_INSTANCE)?;
        push_u64(pid, out);
        out.write_str(META_INSTANCE_END)
    }
}

/// A span as a complete (`"ph":"X"`) event, its attributes in `args`.
fn span_len(s: &SpanRecord, pid: u64) -> usize {
    let attrs: usize = s.attrs.iter().map(|(k, v)| escaped_len(k) + 1 + escaped_len(v)).sum();
    NAME.len()
        + escaped_len(&s.name)
        + SPAN_TS.len()
        + signed_digits(micros(s.start_secs))
        + SPAN_DUR.len()
        + signed_digits(micros(s.duration_secs()))
        + SPAN_PID.len()
        + digits(pid)
        + ARGS.len()
        + attrs
        + s.attrs.len().saturating_sub(1)
        + CLOSE.len()
}

fn write_span(s: &SpanRecord, pid: u64, out: &mut impl Write) -> fmt::Result {
    out.write_str(NAME)?;
    escape_into(&s.name, out);
    out.write_str(SPAN_TS)?;
    push_i64(micros(s.start_secs), out);
    out.write_str(SPAN_DUR)?;
    push_i64(micros(s.duration_secs()), out);
    out.write_str(SPAN_PID)?;
    push_u64(pid, out);
    out.write_str(ARGS)?;
    for (j, (k, v)) in s.attrs.iter().enumerate() {
        if j > 0 {
            out.write_char(',')?;
        }
        escape_into(k, out);
        out.write_char(':')?;
        escape_into(v, out);
    }
    out.write_str(CLOSE)
}

/// An event-log record as an instant (`"ph":"i"`), its `args` copied from the
/// log's bytes.
fn instant_len(e: &Indexed) -> usize {
    NAME.len()
        + escaped_len(e.kind)
        + INSTANT_TS.len()
        + signed_digits(micros(e.at_secs))
        + INSTANT_SCOPE.len()
        + 1
        + INSTANT_PID.len()
        + digits(e.pid.unwrap_or(0))
        + ARGS.len()
        + e.fields.len()
        + CLOSE.len()
}

fn write_instant(e: &Indexed, fields: &str, out: &mut impl Write) -> fmt::Result {
    out.write_str(NAME)?;
    escape_into(e.kind, out);
    out.write_str(INSTANT_TS)?;
    push_i64(micros(e.at_secs), out);
    out.write_str(INSTANT_SCOPE)?;
    out.write_char(if e.pid.is_some() { 'p' } else { 'g' })?;
    out.write_str(INSTANT_PID)?;
    push_u64(e.pid.unwrap_or(0), out);
    out.write_str(ARGS)?;
    out.write_str(fields)?;
    out.write_str(CLOSE)
}

/// An SLO budget sample as a counter (`"ph":"C"`) event: one counter track per
/// objective showing the remaining error budget over time. These are rare (one
/// per whole percent of budget spent), so they are sized by writing them, and
/// written into `out` (cleared first) to be copied on.
fn write_counter(e: &EventRecord, out: &mut String) {
    out.clear();
    out.push_str(NAME);
    out.push_str("\"slo_budget:");
    match e.field("slo") {
        Some(JsonValue::Str(slo)) => escape_unquoted_into(slo, out),
        Some(other) => escape_unquoted_into(&other.render(), out),
        None => {}
    }
    let _ = write!(
        out,
        "\",\"cat\":\"slo\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"remaining\":",
        micros(e.at_secs)
    );
    match e.field("remaining") {
        Some(v) => v.write_into(out),
        None => out.push('0'),
    }
    out.push_str(CLOSE);
}

/// The most a [`PerfettoTrace::write_to`] holds: its one buffer's bytes.
pub const STREAM_BUFFER: usize = 64 << 10;

/// Spans and an event log as a Chrome/Perfetto trace-event JSON document
/// (`chrome://tracing`, <https://ui.perfetto.dev>, `speedscope` all load it),
/// rendered only on request.
///
/// * Every closed span becomes a complete (`"ph":"X"`) event; `ts`/`dur` are
///   integer microseconds of simulated time. Spans still open at export render
///   with `dur` 0.
/// * `pid` is the simulated instance (campaign-level spans use pid 0), `tid` is
///   the instance's worker (one per instance today, so always 0); process-name
///   metadata events label each pid.
/// * Span attributes ride along in `args`.
/// * Every event-log record becomes an instant (`"ph":"i"`) event, scoped to its
///   instance's process when it names one, global otherwise; its `args` are its
///   fields, copied from the log. `slo_budget` records become counter events.
///
/// The handle keeps the recorder's span table and event log (index, kept records
/// and gathered bytes) by reference count, not by copy, so a clone is cheap. It is
/// sized when it is made ([`PerfettoTrace::len`]); [`PerfettoTrace::write_to`]
/// streams the document through one buffer of [`STREAM_BUFFER`] bytes, and
/// [`PerfettoTrace::render`] allocates it once, at its exact size. Both write it
/// with the same code, so the bytes are the same.
#[derive(Clone)]
pub struct PerfettoTrace {
    spans: Arc<Vec<SpanRecord>>,
    events: EventLog,
    /// The instance pids that get process metadata after the campaign's pid 0:
    /// each distinct non-zero pid of an `instance` span, in first-seen order.
    instances: Arc<[u64]>,
    len: usize,
}

impl fmt::Debug for PerfettoTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerfettoTrace")
            .field("spans", &self.spans.len())
            .field("events", &self.events.len())
            .field("len", &self.len)
            .finish()
    }
}

impl PerfettoTrace {
    /// The trace of `spans` and `events` as a recorder lends them (a span's id is
    /// its index + 1; the log is gathered), sharing both, sized but not rendered.
    pub(crate) fn new(spans: Option<&Arc<Vec<SpanRecord>>>, events: &EventLog) -> PerfettoTrace {
        let (spans, events) = (spans.cloned().unwrap_or_default(), events.clone());
        // Deduplicated by sorting, not by a scan of the pids seen so far per
        // instance span, which is quadratic in the fleet.
        let instance = |(i, s): (usize, &SpanRecord)| {
            let pid = if s.name == "instance" { span_pid(&spans, i) } else { 0 };
            (pid != 0).then_some((pid, i))
        };
        let all = || spans.iter().enumerate().filter_map(instance);
        let mut firsts: Vec<(u64, usize)> = Vec::with_capacity(all().count());
        firsts.extend(all());
        firsts.sort_unstable();
        firsts.dedup_by_key(|first| first.0);
        firsts.sort_unstable_by_key(|first| first.1);
        let instances: Arc<[u64]> = firsts.iter().map(|first| first.0).collect();
        let mut trace = PerfettoTrace { spans, events, instances, len: 0 };
        trace.len = trace.size();
        trace
    }

    /// What [`PerfettoTrace::write`] writes, counted without writing it.
    fn size(&self) -> usize {
        let (spans, events) = (&self.spans, &self.events);
        let mut len = HEAD.len() + TAIL.len() + self.instances.len() + spans.len() + events.len();
        len += std::iter::once(0).chain(self.instances.iter().copied()).map(meta_len).sum::<usize>();
        len += spans.iter().enumerate().map(|(i, s)| span_len(s, span_pid(spans, i))).sum::<usize>();
        let mut counter = String::new();
        let mut budgets = events.budgets();
        for e in events.entries() {
            match (e.kind == "slo_budget").then(|| budgets.next()).flatten() {
                Some(budget) => {
                    write_counter(budget, &mut counter);
                    len += counter.len();
                }
                None => len += instant_len(e),
            }
        }
        len
    }

    /// The document's length in bytes: what [`PerfettoTrace::render`] returns and
    /// [`PerfettoTrace::write_to`] writes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Never true: a document holds its head and tail even with nothing recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stream the document into `out` through one buffer of [`STREAM_BUFFER`]
    /// bytes, the only memory it takes. The first error `out` returns ends the
    /// stream and is returned, with whatever came before it written. `out` is not
    /// flushed.
    pub fn write_to(&self, out: &mut impl io::Write) -> io::Result<()> {
        let mut stream = Stream { out, buf: Vec::with_capacity(STREAM_BUFFER), error: None };
        // A stream's only failure is its writer's, which it keeps.
        let _ = self.write(&mut stream);
        match stream.error {
            Some(error) => Err(error),
            None => stream.out.write_all(&stream.buf),
        }
    }

    /// The whole document, allocated once at its exact size.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.len);
        // Writing into a `String` cannot fail.
        let _ = self.write(&mut out);
        debug_assert_eq!(out.len(), self.len, "the Perfetto document and its sizing disagree");
        out
    }

    /// The document's one writer, into either sink. The campaign's process
    /// metadata always comes first, so every later object follows a comma.
    fn write(&self, out: &mut impl Write) -> fmt::Result {
        let (spans, events) = (&self.spans, &self.events);
        out.write_str(HEAD)?;
        write_meta(0, out)?;
        for &pid in self.instances.iter() {
            out.write_char(',')?;
            write_meta(pid, out)?;
        }
        for (i, s) in spans.iter().enumerate() {
            out.write_char(',')?;
            write_span(s, span_pid(spans, i), out)?;
        }
        let mut counter = String::new();
        let mut budgets = events.budgets();
        for e in events.entries() {
            out.write_char(',')?;
            match (e.kind == "slo_budget").then(|| budgets.next()).flatten() {
                Some(budget) => {
                    write_counter(budget, &mut counter);
                    out.write_str(&counter)?;
                }
                None => write_instant(e, events.fields(e), out)?,
            }
        }
        out.write_str(TAIL)
    }
}

/// A writer behind a fixed buffer of [`STREAM_BUFFER`] bytes, for
/// [`PerfettoTrace::write_to`]: a piece that does not fit in what is left of the
/// buffer flushes it first, and one as long as the buffer goes straight through.
/// The first error is kept and every later write fails at once, without touching
/// the writer.
struct Stream<'w, W: io::Write> {
    out: &'w mut W,
    buf: Vec<u8>,
    error: Option<io::Error>,
}

impl<W: io::Write> Write for Stream<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.error.is_some() {
            return Err(fmt::Error);
        }
        if self.buf.len() + s.len() > STREAM_BUFFER {
            let through = s.len() >= STREAM_BUFFER;
            let written = self.out.write_all(&self.buf).and_then(|()| {
                if through {
                    self.out.write_all(s.as_bytes())
                } else {
                    Ok(())
                }
            });
            self.buf.clear();
            if let Err(error) = written {
                self.error = Some(error);
                return Err(fmt::Error);
            }
            if through {
                return Ok(());
            }
        }
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// The Perfetto document of everything a recorder captured, rendered.
pub fn perfetto_trace_from(rec: &Recorder) -> String {
    rec.read_shared(|spans, events, _| PerfettoTrace::new(spans, events)).render()
}

/// Export the metrics registry as OpenMetrics text exposition
/// (<https://prometheus.io/docs/specs/om/open_metrics_spec/>): counters with the
/// `_total` suffix, gauges verbatim, histograms as cumulative `le` buckets plus
/// `_sum`/`_count`, and the mandatory `# EOF` terminator. Families appear in
/// sorted-name order within each class (counters, gauges, histograms) — the
/// registry's `BTreeMap` order, so the text is byte-deterministic.
pub fn openmetrics(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, v) in metrics.counters() {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}_total {v}");
    }
    for (name, v) in metrics.gauges() {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_f64(v));
    }
    for (name, h) in metrics.histograms() {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, &bound) in h.bounds().iter().enumerate() {
            cum += h.bucket_counts()[i];
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", fmt_f64(bound));
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum()));
        let _ = writeln!(out, "{name}_count {}", h.count());
    }
    for (name, s) in metrics.sketches() {
        let _ = writeln!(out, "# TYPE {name} summary");
        for q in [0.5, 0.9, 0.95, 0.99] {
            let _ = writeln!(out, "{name}{{quantile=\"{}\"}} {}", fmt_f64(q), fmt_f64(s.quantile(q)));
        }
        // No `_sum`: the sketch deliberately tracks none (see `sketch` docs) —
        // float addition would break its byte-associative merge.
        let _ = writeln!(out, "{name}_count {}", s.count());
    }
    out.push_str("# EOF\n");
    out
}

/// [`openmetrics`] over a recorder's registry.
pub fn openmetrics_from(rec: &Recorder) -> String {
    rec.read(|_, _, metrics| openmetrics(metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::AlertEvent;
    use crate::span::SpanId;

    fn sample_recorder() -> Recorder {
        let r = Recorder::new();
        let root = r.span_start("campaign", SpanId::NONE, 0.0);
        let inst = r.span_start_attrs(
            "instance",
            root,
            1.0,
            &[("instance", "7".to_string()), ("itype", "r6a.xlarge".to_string())],
        );
        let job = r.span_closed(
            "job",
            inst,
            2.0,
            10.0,
            &[("accession", "SRR1".to_string()), ("outcome", "ok".to_string())],
        );
        r.span_closed("align", job, 2.0, 9.0, &[]);
        r.event(2.5, "queue_wait", vec![("accession", JsonValue::from("SRR1")), ("instance", JsonValue::from(7u64))]);
        r.event(3.0, "scale_out", vec![("launch", JsonValue::from(2u64))]);
        r.counter_add("jobs_completed", 1);
        r.gauge_set_at(3.0, "fleet_active", 2.0);
        r.observe("queue_wait_secs", &[1.0, 10.0], 0.5);
        r.observe("queue_wait_secs", &[1.0, 10.0], 3.5);
        r.span_end(inst, 12.0);
        r.span_end(root, 12.0);
        r
    }

    #[test]
    fn perfetto_maps_instances_to_pids() {
        let r = sample_recorder();
        let trace = perfetto_trace_from(&r);
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.ends_with("\"displayTimeUnit\":\"ms\"}\n"), "{trace}");
        // Process metadata for campaign (pid 0) and instance 7.
        assert!(trace.contains("\"args\":{\"name\":\"campaign\"}"), "{trace}");
        assert!(trace.contains("\"args\":{\"name\":\"instance 7\"}"), "{trace}");
        // The job span inherits pid 7 from its instance and carries its attrs.
        assert!(
            trace.contains(
                "{\"name\":\"job\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":2000000,\"dur\":8000000,\
                 \"pid\":7,\"tid\":0,\"args\":{\"accession\":\"SRR1\",\"outcome\":\"ok\"}}"
            ),
            "{trace}"
        );
        // Events become instants; instance-scoped ones land on their pid.
        assert!(trace.contains("{\"name\":\"queue_wait\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":2500000,\"s\":\"p\",\"pid\":7"), "{trace}");
        assert!(trace.contains("{\"name\":\"scale_out\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":3000000,\"s\":\"g\",\"pid\":0"), "{trace}");
    }

    #[test]
    fn perfetto_is_byte_deterministic() {
        let a = perfetto_trace_from(&sample_recorder());
        let b = perfetto_trace_from(&sample_recorder());
        assert_eq!(a, b);
    }

    /// The trace of what `rec` recorded, as a summary keeps it.
    fn handle(rec: &Recorder) -> PerfettoTrace {
        rec.read_shared(|spans, events, _| PerfettoTrace::new(spans, events))
    }

    #[test]
    fn an_empty_recorder_exports_the_campaign_process_alone() {
        let expected = "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                        \"args\":{\"name\":\"campaign\"}}],\"displayTimeUnit\":\"ms\"}\n";
        let trace = crate::summarize(&Recorder::new()).perfetto_json;
        let mut streamed = Vec::new();
        trace.write_to(&mut streamed).unwrap();
        assert_eq!(trace.len(), expected.len());
        assert_eq!(trace.render(), expected);
        assert_eq!(String::from_utf8(streamed).unwrap(), expected);
    }

    /// Takes `limit` bytes, then fails every call, counting the calls that come
    /// after its first failure.
    struct FailsAfter {
        limit: usize,
        taken: Vec<u8>,
        failed: bool,
        calls_after_failure: usize,
    }

    impl io::Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.failed {
                self.calls_after_failure += 1;
            }
            let n = buf.len().min(self.limit - self.taken.len());
            if n == 0 && !buf.is_empty() {
                self.failed = true;
                return Err(io::Error::other("no space left"));
            }
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A writer that fails after `k` bytes, for every `k` across a small trace
    /// and at and around each buffer boundary of one over three buffers long
    /// (with an attribute longer than a buffer, which goes straight through):
    /// `write_to` returns the error, the writer holds exactly the document's first
    /// `k` bytes, and nothing is written after the failure.
    #[test]
    fn a_writer_that_fails_gets_its_error_back_and_no_retry() {
        let big = Recorder::new();
        let root = big.span_start("campaign", SpanId::NONE, 0.0);
        for i in 0..1_500u32 {
            let attrs = [("accession", format!("SRR{i:07}")), ("note", "q\"uote\n".repeat(i as usize % 9))];
            big.span_closed("job", root, f64::from(i), f64::from(i) + 1.5, &attrs);
        }
        big.span_closed("job", root, 0.0, 1.0, &[("huge", "\\x".repeat(STREAM_BUFFER))]);
        big.event(3.0, "queue_wait", vec![("instance", JsonValue::from(7u64))]);
        for rec in [Recorder::new(), sample_recorder(), big] {
            let whole = perfetto_trace_from(&rec);
            let trace = handle(&rec);
            let len = whole.len();
            let near = |b: usize| [b.saturating_sub(1), b, b + 1];
            let mut ks: Vec<usize> = (0..len.min(400)).chain((400..len).step_by(4_999)).collect();
            ks.extend((1..=len / STREAM_BUFFER + 1).flat_map(|m| near(m * STREAM_BUFFER)));
            ks.extend(near(len));
            for k in ks {
                let mut out = FailsAfter { limit: k, taken: Vec::new(), failed: false, calls_after_failure: 0 };
                let result = trace.write_to(&mut out);
                assert_eq!(result.is_ok(), k >= len, "k={k} of {len}: {result:?}");
                assert!(out.taken == whole.as_bytes()[..k.min(len)], "k={k} of {len}: the bytes written");
                assert_eq!(out.calls_after_failure, 0, "k={k} of {len}: written to after failing");
            }
        }
    }

    #[test]
    fn open_span_renders_with_zero_duration() {
        let r = Recorder::new();
        r.span_start("campaign", SpanId::NONE, 5.0);
        let trace = perfetto_trace_from(&r);
        assert!(trace.contains("\"ts\":5000000,\"dur\":0,"), "{trace}");
    }

    #[test]
    fn openmetrics_renders_all_three_classes() {
        let r = sample_recorder();
        let text = openmetrics_from(&r);
        let expected = "# TYPE jobs_completed counter\n\
                        jobs_completed_total 1\n\
                        # TYPE fleet_active gauge\n\
                        fleet_active 2\n\
                        # TYPE queue_wait_secs histogram\n\
                        queue_wait_secs_bucket{le=\"1\"} 1\n\
                        queue_wait_secs_bucket{le=\"10\"} 2\n\
                        queue_wait_secs_bucket{le=\"+Inf\"} 2\n\
                        queue_wait_secs_sum 4\n\
                        queue_wait_secs_count 2\n\
                        # EOF\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn openmetrics_on_empty_registry_is_just_eof() {
        assert_eq!(openmetrics(&MetricsRegistry::new()), "# EOF\n");
    }

    #[test]
    fn openmetrics_renders_sketches_as_summaries() {
        let mut m = MetricsRegistry::new();
        for _ in 0..10 {
            m.sketch_observe("slo_turnaround_secs", 0.01, 100.0);
        }
        let text = openmetrics(&m);
        let expected = "# TYPE slo_turnaround_secs summary\n\
                        slo_turnaround_secs{quantile=\"0.5\"} 100\n\
                        slo_turnaround_secs{quantile=\"0.9\"} 100\n\
                        slo_turnaround_secs{quantile=\"0.95\"} 100\n\
                        slo_turnaround_secs{quantile=\"0.99\"} 100\n\
                        slo_turnaround_secs_count 10\n\
                        # EOF\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn slo_budget_events_become_counter_tracks() {
        let r = Recorder::new();
        r.event(
            10.0,
            "slo_budget",
            vec![("slo", JsonValue::from("queue_wait_p99")), ("remaining", JsonValue::from(0.75))],
        );
        let trace = perfetto_trace_from(&r);
        assert!(
            trace.contains(
                "{\"name\":\"slo_budget:queue_wait_p99\",\"cat\":\"slo\",\"ph\":\"C\",\
                 \"ts\":10000000,\"pid\":0,\"tid\":0,\"args\":{\"remaining\":0.75}}"
            ),
            "{trace}"
        );
    }

    #[test]
    fn a_bogus_parent_and_an_unparsable_instance_give_pid_0() {
        let r = Recorder::new();
        let good = r.span_start_attrs("instance", SpanId::NONE, 0.0, &[("instance", "7".into())]);
        let bad = r.span_start_attrs("instance", SpanId::NONE, 0.0, &[("instance", "x7".into())]);
        let unnamed = r.span_start("instance", SpanId::NONE, 0.0);
        r.span_start("job", good, 1.0);
        r.span_start("job", bad, 1.0);
        r.span_start("job", unnamed, 1.0);
        r.span_start("job", SpanId(999), 1.0);
        r.span_start("job", SpanId::NONE, 1.0);
        let job = r.span_start("job", good, 1.0);
        r.span_start("align", job, 1.0);
        let pids: Vec<u64> = r.read(|spans, _, _| (0..spans.len()).map(|i| span_pid(spans, i)).collect());
        assert_eq!(pids, [7, 0, 0, 7, 0, 0, 0, 0, 7, 7]);
    }

    /// The renderer this module had before the event log became the store:
    /// the log rendered from kept records at export, the Perfetto `args`
    /// rendered a second time from the same records, and span pids found by
    /// walking each span's ancestors through an id map. Kept as the oracle
    /// for the single render.
    mod oracle {
        use crate::events::EventRecord;
        use crate::json::{escape_into, JsonValue};
        use crate::span::SpanRecord;
        use std::collections::BTreeMap;
        use std::fmt::Write;

        fn micros(secs: f64) -> i64 {
            (secs * 1e6).round() as i64
        }

        pub(super) fn ndjson(events: &[EventRecord]) -> String {
            let mut out = String::new();
            for e in events {
                e.write_ndjson_into(&mut out);
                out.push('\n');
            }
            out
        }

        fn span_pids(spans: &[SpanRecord]) -> Vec<u64> {
            let index: BTreeMap<u64, usize> =
                spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
            let mut pids = vec![0u64; spans.len()];
            for (i, span) in spans.iter().enumerate() {
                let mut cur = Some(span);
                while let Some(s) = cur {
                    if s.name == "instance" {
                        if let Some(pid) = s.attr("instance").and_then(|v| v.parse::<u64>().ok()) {
                            pids[i] = pid;
                        }
                        break;
                    }
                    cur = index.get(&s.parent).map(|&j| &spans[j]);
                }
            }
            pids
        }

        pub(super) fn perfetto_trace(spans: &[SpanRecord], events: &[EventRecord]) -> String {
            let pids = span_pids(spans);
            let mut out = String::from("{\"traceEvents\":[");
            let mut first = true;
            let mut sep = |out: &mut String| {
                if !std::mem::take(&mut first) {
                    out.push(',');
                }
            };
            let mut seen: Vec<u64> = vec![0];
            for (i, s) in spans.iter().enumerate() {
                if s.name == "instance" && !seen.contains(&pids[i]) {
                    seen.push(pids[i]);
                }
            }
            for &pid in &seen {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
                );
                if pid == 0 {
                    out.push_str("\"campaign\"");
                } else {
                    let _ = write!(out, "\"instance {pid}\"");
                }
                out.push_str("}}");
            }
            for (i, s) in spans.iter().enumerate() {
                sep(&mut out);
                out.push_str("{\"name\":");
                escape_into(&s.name, &mut out);
                let _ = write!(
                    out,
                    ",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0,\"args\":{{",
                    micros(s.start_secs),
                    micros(s.duration_secs()),
                    pids[i]
                );
                for (j, (k, v)) in s.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    escape_into(k, &mut out);
                    out.push(':');
                    escape_into(v, &mut out);
                }
                out.push_str("}}");
            }
            for e in events {
                sep(&mut out);
                if e.kind == "slo_budget" {
                    let slo = e
                        .field("slo")
                        .map(|v| match v {
                            JsonValue::Str(s) => s.clone(),
                            other => other.render(),
                        })
                        .unwrap_or_default();
                    out.push_str("{\"name\":");
                    escape_into(&format!("slo_budget:{slo}"), &mut out);
                    let _ = write!(
                        out,
                        ",\"cat\":\"slo\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":0,\"args\":{{\"remaining\":",
                        micros(e.at_secs)
                    );
                    match e.field("remaining") {
                        Some(v) => v.write_into(&mut out),
                        None => out.push('0'),
                    }
                    out.push_str("}}");
                    continue;
                }
                let pid = e.fields.iter().find(|(k, _)| *k == "instance").and_then(|(_, v)| match v {
                    JsonValue::UInt(n) => Some(*n),
                    JsonValue::Int(n) if *n >= 0 => Some(*n as u64),
                    _ => None,
                });
                out.push_str("{\"name\":");
                escape_into(e.kind, &mut out);
                let _ = write!(
                    out,
                    ",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"s\":\"{}\",\"pid\":{},\"tid\":0,\"args\":{{",
                    micros(e.at_secs),
                    if pid.is_some() { "p" } else { "g" },
                    pid.unwrap_or(0)
                );
                for (j, (k, v)) in e.fields.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    escape_into(k, &mut out);
                    out.push(':');
                    v.write_into(&mut out);
                }
                out.push_str("}}");
            }
            out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
            out
        }
    }

    /// SplitMix64: the differential test's whole source of randomness.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }

        /// Text with quotes, backslashes, control characters and non-ASCII.
        fn text(&mut self) -> String {
            const PIECES: [&str; 12] =
                ["SRR1", "plain", "q\"uote", "back\\slash", "new\nline", "\t", "\r", "\u{1}", "\u{1f}", "é", "→", "𝄞"];
            (0..self.below(4)).map(|_| self.pick(&PIECES)).collect()
        }

        fn number(&mut self) -> f64 {
            const SPECIAL: [f64; 9] =
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 1e300, 5e-324, -2.5, 0.75];
            if self.below(2) == 0 {
                self.pick(&SPECIAL)
            } else {
                (self.next() as f64 / u64::MAX as f64 - 0.5) * 1e4
            }
        }

        fn value(&mut self, depth: usize) -> JsonValue {
            match self.below(if depth < 2 { 9 } else { 7 }) {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(self.below(2) == 0),
                2 => JsonValue::Int(-(self.below(1_000_000) as i64)),
                3 => JsonValue::Int(self.next() as i64),
                4 => JsonValue::UInt(self.next() >> self.below(64)),
                5 => JsonValue::Num(self.number()),
                6 => JsonValue::Str(self.text()),
                7 => JsonValue::Arr((0..self.below(4)).map(|_| self.value(depth + 1)).collect()),
                _ => JsonValue::Obj(
                    (0..self.below(4)).map(|_| (self.text(), self.value(depth + 1))).collect(),
                ),
            }
        }

        fn record(&mut self) -> EventRecord {
            const KINDS: [&str; 7] =
                ["alert", "slo_budget", "retry", "progress", "queue_wait", "slo_clear", "odd\"kind"];
            const KEYS: [&str; 9] =
                ["instance", "slo", "remaining", "accession", "rule", "op", "ключ", "k\\ey", "wait_secs"];
            let at_secs = self.number().abs();
            let kind = self.pick(&KINDS);
            if kind == "alert" && self.below(2) == 0 {
                let alert = AlertEvent {
                    rule: self.text(),
                    subject: self.text(),
                    at_secs,
                    value: self.number(),
                    threshold: self.number(),
                    latency_secs: self.number(),
                };
                return alert.into_event_record();
            }
            let mut fields = Vec::new();
            if kind == "slo_budget" && self.below(2) == 0 {
                fields.push(("slo", JsonValue::Str(self.text())));
                fields.push(("remaining", JsonValue::Num(self.number())));
            }
            for _ in 0..self.below(5) {
                let key = self.pick(&KEYS);
                let value = match (key, self.below(3)) {
                    ("instance", 0) => JsonValue::UInt(self.below(40) as u64),
                    ("instance", 1) => JsonValue::Int(self.below(40) as i64 - 20),
                    _ => self.value(0),
                };
                fields.push((key, value));
            }
            EventRecord { at_secs, kind, fields }
        }
    }

    /// Record the same random spans and events into a recorder and into the
    /// oracle's record list: the log, the Perfetto document and the alerts must
    /// come out byte for byte the same.
    #[test]
    fn the_single_render_matches_the_two_pass_oracle() {
        const NAMES: [&str; 5] = ["campaign", "instance", "job", "align", "od\"d"];
        const INSTANCES: [&str; 6] = ["7", "12", "x", "-1", "", "18446744073709551615"];
        for seed in 0..600 {
            let mut g = Gen(seed);
            let rec = Recorder::new();
            let mut records = Vec::new();
            let mut opened = 0u64;
            for _ in 0..g.below(40) {
                if g.below(2) == 0 {
                    let name = g.pick(&NAMES);
                    // A parent that precedes the span, none, or one never recorded.
                    let parent = match g.below(4) {
                        0 => SpanId::NONE,
                        1 => SpanId(10_000),
                        _ => SpanId(if opened == 0 { 0 } else { 1 + g.next() % opened }),
                    };
                    let mut attrs = Vec::new();
                    if name == "instance" && g.below(4) != 0 {
                        attrs.push(("instance", g.pick(&INSTANCES).to_string()));
                    }
                    for _ in 0..g.below(3) {
                        attrs.push(("accession", g.text()));
                    }
                    if g.below(3) == 0 {
                        // An open span may start anywhere, NaN included.
                        rec.span_start_attrs(name, parent, g.number(), &attrs);
                    } else {
                        let start = (g.next() % 1_000_000_000) as f64 / 7.0;
                        let end = start + (g.next() % 1_000_000) as f64 / 3.0;
                        rec.span_closed(name, parent, start, end, &attrs);
                    }
                    opened += 1;
                } else {
                    let record = g.record();
                    rec.event(record.at_secs, record.kind, record.fields.clone());
                    records.push(record);
                }
            }
            let spans = rec.read(|spans, _, _| spans.to_vec());
            assert_eq!(rec.events_ndjson(), oracle::ndjson(&records), "seed {seed}: event log");
            let trace = perfetto_trace_from(&rec);
            assert_eq!(trace, oracle::perfetto_trace(&spans, &records), "seed {seed}: Perfetto");
            assert_eq!(trace.capacity(), trace.len(), "seed {seed}: the trace is sized exactly");
            let mut streamed = Vec::new();
            handle(&rec).write_to(&mut streamed).unwrap();
            assert!(streamed == trace.as_bytes(), "seed {seed}: the streamed trace");
            let alerts: Vec<AlertEvent> =
                records.iter().filter_map(AlertEvent::from_event_record).collect();
            // Compared as text: a NaN value is not equal to itself.
            assert_eq!(format!("{:?}", rec.alerts()), format!("{alerts:?}"), "seed {seed}: alerts");
        }
    }
}
