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

use crate::events::EventRecord;
use crate::json::{escape_into, fmt_f64, JsonValue};
use crate::metrics::MetricsRegistry;
use crate::recorder::Recorder;
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Simulated seconds → integer trace microseconds.
fn micros(secs: f64) -> i64 {
    (secs * 1e6).round() as i64
}

/// The process id a span renders under: the `instance` attribute of the nearest
/// enclosing `instance` span (the instances of the simulated fleet map to Perfetto
/// processes), or 0 for campaign-level spans.
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

/// Export spans and events as a Chrome/Perfetto trace-event JSON document
/// (`chrome://tracing`, <https://ui.perfetto.dev>, `speedscope` all load it).
///
/// * Every closed span becomes a complete (`"ph":"X"`) event; `ts`/`dur` are
///   integer microseconds of simulated time. Spans still open at export render
///   with `dur` 0.
/// * `pid` is the simulated instance (campaign-level spans use pid 0), `tid` is
///   the instance's worker (one per instance today, so always 0); process-name
///   metadata events label each pid.
/// * Span attributes ride along in `args`.
/// * Every event-log record becomes an instant (`"ph":"i"`) event, scoped to its
///   instance's process when it names one, global otherwise.
pub fn perfetto_trace(spans: &[SpanRecord], events: &[EventRecord]) -> String {
    let pids = span_pids(spans);
    // Streamed straight into the output buffer: a campaign renders hundreds of
    // KB of trace JSON inside `summarize`, and materializing the equivalent
    // `JsonValue` tree first costs an allocation per key, which the allocator-call
    // ceilings in `tests/tests/observer_cost.rs` would see.
    // Bytes are identical to what the tree render produced: strings go through
    // `escape_into`, field values through `JsonValue::write_into`.
    let mut out = String::with_capacity(176 * (spans.len() + events.len()) + 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    macro_rules! sep {
        () => {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
    }

    // Process metadata: pid 0 is the campaign; instance pids label themselves,
    // in first-seen (emission) order.
    let mut seen: Vec<u64> = vec![0];
    for (i, s) in spans.iter().enumerate() {
        if s.name == "instance" && !seen.contains(&pids[i]) {
            seen.push(pids[i]);
        }
    }
    for &pid in &seen {
        sep!();
        let _ = write!(out, "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":");
        if pid == 0 {
            out.push_str("\"campaign\"");
        } else {
            let _ = write!(out, "\"instance {pid}\"");
        }
        out.push_str("}}");
    }

    for (i, s) in spans.iter().enumerate() {
        sep!();
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
        sep!();
        // SLO budget samples render as counter (`"ph":"C"`) events — one counter
        // track per objective showing the remaining error budget over time.
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
        let pid = e
            .fields
            .iter()
            .find(|(k, _)| *k == "instance")
            .and_then(|(_, v)| match v {
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

/// [`perfetto_trace`] over everything a recorder captured.
pub fn perfetto_trace_from(rec: &Recorder) -> String {
    rec.read(|spans, events, _| perfetto_trace(spans, events))
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

/// Fold the span tree into collapsed-stack (flamegraph) lines: one
/// `root;child;leaf weight` line per distinct stack, weighted by *self* time in
/// integer microseconds (a span's duration minus its children's), aggregated and
/// sorted lexicographically. Pipe the output straight into `flamegraph.pl` or
/// load it in speedscope.
pub fn collapsed_stacks(spans: &[SpanRecord]) -> String {
    let index: BTreeMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_micros = vec![0i64; spans.len()];
    for s in spans {
        if let Some(&pi) = index.get(&s.parent) {
            child_micros[pi] += micros(s.duration_secs());
        }
    }
    let mut folded: BTreeMap<String, i64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let self_micros = (micros(s.duration_secs()) - child_micros[i]).max(0);
        if self_micros == 0 {
            continue;
        }
        // Walk to the root; orphaned parents terminate the stack where they are.
        let mut names = vec![s.name.as_str()];
        let mut cur = s;
        while let Some(&pi) = index.get(&cur.parent) {
            cur = &spans[pi];
            names.push(cur.name.as_str());
        }
        names.reverse();
        *folded.entry(names.join(";")).or_insert(0) += self_micros;
    }
    let mut out = String::new();
    for (stack, weight) in folded {
        let _ = writeln!(out, "{stack} {weight}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn collapsed_stacks_weight_self_time() {
        let r = sample_recorder();
        let folded = r.read(|spans, _, _| collapsed_stacks(spans));
        // instance self time: 11s − 8s job = 3s; job self: 8s − 7s align = 1s.
        assert_eq!(
            folded,
            "campaign 1000000\n\
             campaign;instance 3000000\n\
             campaign;instance;job 1000000\n\
             campaign;instance;job;align 7000000\n"
        );
    }

    #[test]
    fn collapsed_stacks_tolerate_orphans() {
        let spans = vec![SpanRecord {
            id: 9,
            parent: 42, // never recorded
            name: "stage".into(),
            start_secs: 0.0,
            end_secs: Some(1.0),
            attrs: vec![],
        }];
        assert_eq!(collapsed_stacks(&spans), "stage 1000000\n");
    }
}
