//! Campaign-level analysis over the span tree: per-stage latency distributions and
//! the critical path.
//!
//! The extractor answers the question behind the paper's Fig. 4 accounting: *which
//! stage dominates each accession's makespan, and where does fleet time go?* It
//! walks completed `job` spans (outcome `ok`), buckets their direct children (the
//! pipeline stages) into fixed-bucket histograms, and reports the dominant stage
//! per accession plus the fleet-level share of every stage.

use crate::events::EventRecord;
use crate::json::JsonValue;
use crate::metrics::{Histogram, MetricsRegistry, SECS_BUCKETS};
use crate::recorder::Recorder;
use crate::span::SpanRecord;
use crate::SCHEMA_VERSION;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// Latency distribution of one pipeline stage across completed jobs.
#[derive(Clone, Debug, PartialEq)]
pub struct StageStats {
    /// Stage name (a `job` child span name: `prefetch`, `align`, ...).
    pub stage: String,
    /// Completed jobs contributing a sample.
    pub count: u64,
    /// Total seconds across those jobs.
    pub total_secs: f64,
    /// Median estimate, seconds.
    pub p50: f64,
    /// 95th percentile estimate, seconds.
    pub p95: f64,
    /// 99th percentile estimate, seconds.
    pub p99: f64,
}

/// Critical-path entry for one accession.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessionPath {
    /// Accession id.
    pub accession: String,
    /// Total pipeline seconds for this accession (sum of its stage spans).
    pub total_secs: f64,
    /// The stage that took the longest.
    pub dominant_stage: String,
    /// Seconds spent in that stage.
    pub dominant_secs: f64,
}

/// Fleet-level critical-path breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// One entry per completed accession, sorted by accession id.
    pub per_accession: Vec<AccessionPath>,
    /// `(stage, fraction of total stage time)`, sorted by stage name.
    pub stage_share: Vec<(String, f64)>,
    /// The stage with the largest total time across the campaign.
    pub dominant_stage: String,
    /// How many accessions that stage dominates.
    pub dominant_accessions: usize,
    /// Sum of all `job` span durations (worker-busy seconds), every outcome.
    pub fleet_busy_secs: f64,
    /// Sum of all `instance` span durations (fleet uptime seconds).
    pub fleet_uptime_secs: f64,
}

/// The telemetry section of a campaign report.
#[derive(Clone, Debug)]
pub struct CampaignTelemetry {
    /// Spans recorded.
    pub n_spans: usize,
    /// Events recorded.
    pub n_events: usize,
    /// Per-stage latency distributions, sorted by stage name.
    pub stage_stats: Vec<StageStats>,
    /// Critical-path breakdown.
    pub critical_path: CriticalPath,
    /// The full structured event log, NDJSON. Byte-identical across same-seed runs.
    pub event_log: String,
    /// The metrics registry serialized to its stable JSON shape.
    pub metrics_json: String,
    /// `(name, count, p50, p95, p99)` for every registry histogram, sorted by name.
    pub histogram_summaries: Vec<(String, u64, f64, f64, f64)>,
    /// `(name, count, p50, p95, p99)` for every registry quantile sketch, sorted
    /// by name (the SLO engine's streaming percentiles).
    pub sketch_summaries: Vec<(String, u64, f64, f64, f64)>,
    /// Chrome/Perfetto trace-event JSON of the span tree + event log — load it
    /// at `ui.perfetto.dev` or `chrome://tracing`. Byte-identical across
    /// same-seed runs.
    pub perfetto_json: String,
    /// OpenMetrics text exposition of the metrics registry. Byte-identical
    /// across same-seed runs.
    pub openmetrics_text: String,
}

/// Summarize everything a [`Recorder`] captured into a [`CampaignTelemetry`].
pub fn summarize(rec: &Recorder) -> CampaignTelemetry {
    rec.read(summarize_recorded)
}

fn summarize_recorded(
    spans: &[SpanRecord],
    events: &[EventRecord],
    metrics: &MetricsRegistry,
) -> CampaignTelemetry {
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }

    let mut stage_hists: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut stage_totals: BTreeMap<String, f64> = BTreeMap::new();
    let mut per_accession: Vec<AccessionPath> = Vec::new();
    let mut dominated: BTreeMap<String, usize> = BTreeMap::new();
    let mut seen_accessions: BTreeSet<String> = BTreeSet::new();
    let mut fleet_busy_secs = 0.0;
    let mut fleet_uptime_secs = 0.0;

    for s in spans {
        match s.name.as_str() {
            "job" => fleet_busy_secs += s.duration_secs(),
            "instance" => fleet_uptime_secs += s.duration_secs(),
            _ => {}
        }
    }

    for job in spans.iter().filter(|s| s.name == "job" && s.attr("outcome") == Some("ok")) {
        let Some(accession) = job.attr("accession") else { continue };
        // Duplicate completions re-run the same work; only the first counts.
        if !seen_accessions.insert(accession.to_string()) {
            continue;
        }
        let mut stages: Vec<&SpanRecord> = children.get(&job.id).cloned().unwrap_or_default();
        stages.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs).then(a.id.cmp(&b.id)));
        if stages.is_empty() {
            continue;
        }
        let mut total = 0.0;
        let mut dominant: (&str, f64) = ("", f64::NEG_INFINITY);
        for st in &stages {
            let d = st.duration_secs();
            total += d;
            stage_hists
                .entry(st.name.clone())
                .or_insert_with(|| Histogram::new(SECS_BUCKETS))
                .observe(d);
            *stage_totals.entry(st.name.clone()).or_insert(0.0) += d;
            if d > dominant.1 {
                dominant = (st.name.as_str(), d);
            }
        }
        *dominated.entry(dominant.0.to_string()).or_insert(0) += 1;
        per_accession.push(AccessionPath {
            accession: accession.to_string(),
            total_secs: total,
            dominant_stage: dominant.0.to_string(),
            dominant_secs: dominant.1,
        });
    }
    per_accession.sort_by(|a, b| a.accession.cmp(&b.accession));

    let grand_total: f64 = stage_totals.values().sum();
    let stage_share: Vec<(String, f64)> = stage_totals
        .iter()
        .map(|(k, &v)| (k.clone(), if grand_total > 0.0 { v / grand_total } else { 0.0 }))
        .collect();
    let dominant_stage = stage_totals
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(k, _)| k.clone())
        .unwrap_or_default();
    let dominant_accessions = dominated.get(&dominant_stage).copied().unwrap_or(0);

    let stage_stats: Vec<StageStats> = stage_hists
        .iter()
        .map(|(name, h)| StageStats {
            stage: name.clone(),
            count: h.count(),
            total_secs: stage_totals[name],
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
        })
        .collect();

    let histogram_summaries = metrics
        .histograms()
        .map(|(name, h)| (name.to_string(), h.count(), h.p50(), h.p95(), h.p99()))
        .collect();
    let sketch_summaries = metrics
        .sketches()
        .map(|(name, s)| (name.to_string(), s.count(), s.p50(), s.p95(), s.p99()))
        .collect();

    CampaignTelemetry {
        n_spans: spans.len(),
        n_events: events.len(),
        stage_stats,
        critical_path: CriticalPath {
            per_accession,
            stage_share,
            dominant_stage,
            dominant_accessions,
            fleet_busy_secs,
            fleet_uptime_secs,
        },
        event_log: crate::recorder::ndjson(events),
        metrics_json: metrics.to_json().render(),
        histogram_summaries,
        sketch_summaries,
        perfetto_json: crate::export::perfetto_trace(spans, events),
        openmetrics_text: crate::export::openmetrics(metrics),
    }
}

impl CampaignTelemetry {
    /// Render the human-readable telemetry section of a campaign report: the
    /// per-stage latency table and the critical-path breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "telemetry: {} spans, {} events", self.n_spans, self.n_events);
        let _ = writeln!(
            w,
            "  {:<14} {:>5} {:>10} {:>9} {:>9} {:>9}",
            "stage", "jobs", "total[s]", "p50[s]", "p95[s]", "p99[s]"
        );
        for s in &self.stage_stats {
            let _ = writeln!(
                w,
                "  {:<14} {:>5} {:>10.1} {:>9.2} {:>9.2} {:>9.2}",
                s.stage, s.count, s.total_secs, s.p50, s.p95, s.p99
            );
        }
        let cp = &self.critical_path;
        let _ = writeln!(
            w,
            "critical path: '{}' dominates {}/{} accessions",
            cp.dominant_stage,
            cp.dominant_accessions,
            cp.per_accession.len()
        );
        let share = cp
            .stage_share
            .iter()
            .map(|(k, v)| format!("{k} {:.1}%", v * 100.0))
            .collect::<Vec<_>>()
            .join(" | ");
        let _ = writeln!(w, "stage share of pipeline time: {share}");
        if cp.fleet_uptime_secs > 0.0 {
            let _ = writeln!(
                w,
                "fleet: busy {:.1}s of {:.1}s up ({:.1}% utilized)",
                cp.fleet_busy_secs,
                cp.fleet_uptime_secs,
                100.0 * cp.fleet_busy_secs / cp.fleet_uptime_secs
            );
        }
        for (name, count, p50, p95, p99) in &self.histogram_summaries {
            let _ = writeln!(
                w,
                "  hist {:<26} n={:<5} p50={:<10.4} p95={:<10.4} p99={:.4}",
                name, count, p50, p95, p99
            );
        }
        for (name, count, p50, p95, p99) in &self.sketch_summaries {
            let _ = writeln!(
                w,
                "  sketch {:<24} n={:<5} p50={:<10.4} p95={:<10.4} p99={:.4}",
                name, count, p50, p95, p99
            );
        }
        out
    }

    /// Serialize the summary (not the raw event log) to the stable JSON document
    /// byte-pinned by `tests/golden/campaign_telemetry.json`.
    pub fn to_json(&self) -> String {
        let stages = JsonValue::Arr(
            self.stage_stats
                .iter()
                .map(|s| {
                    JsonValue::obj(vec![
                        ("stage", JsonValue::from(s.stage.as_str())),
                        ("count", JsonValue::from(s.count)),
                        ("total_secs", JsonValue::from(s.total_secs)),
                        ("p50", JsonValue::from(s.p50)),
                        ("p95", JsonValue::from(s.p95)),
                        ("p99", JsonValue::from(s.p99)),
                    ])
                })
                .collect(),
        );
        let cp = &self.critical_path;
        let critical_path = JsonValue::obj(vec![
            ("dominant_stage", JsonValue::from(cp.dominant_stage.as_str())),
            ("dominant_accessions", JsonValue::from(cp.dominant_accessions)),
            ("fleet_busy_secs", JsonValue::from(cp.fleet_busy_secs)),
            ("fleet_uptime_secs", JsonValue::from(cp.fleet_uptime_secs)),
            (
                "stage_share",
                JsonValue::Obj(
                    cp.stage_share
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::from(*v)))
                        .collect(),
                ),
            ),
            (
                "per_accession",
                JsonValue::Arr(
                    cp.per_accession
                        .iter()
                        .map(|a| {
                            JsonValue::obj(vec![
                                ("accession", JsonValue::from(a.accession.as_str())),
                                ("total_secs", JsonValue::from(a.total_secs)),
                                ("dominant_stage", JsonValue::from(a.dominant_stage.as_str())),
                                ("dominant_secs", JsonValue::from(a.dominant_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        // `metrics_json` is already rendered; rebuild the document around it so the
        // registry embeds as an object rather than a double-encoded string.
        let mut out = String::new();
        let head = JsonValue::obj(vec![
            ("schema_version", JsonValue::from(u64::from(SCHEMA_VERSION))),
            ("n_spans", JsonValue::from(self.n_spans)),
            ("n_events", JsonValue::from(self.n_events)),
            ("stages", stages),
            ("critical_path", critical_path),
        ])
        .render();
        out.push_str(&head[..head.len() - 1]);
        out.push_str(",\"metrics\":");
        out.push_str(&self.metrics_json);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanId;

    fn sample_recorder() -> Recorder {
        let r = Recorder::new();
        let root = r.span_start("campaign", SpanId::NONE, 0.0);
        let inst = r.span_start("instance", root, 0.0);
        for (i, accession) in ["SRR1", "SRR2"].iter().enumerate() {
            let t0 = 10.0 * i as f64;
            let job = r.span_closed(
                "job",
                inst,
                t0,
                t0 + 8.0,
                &[("accession", accession.to_string()), ("outcome", "ok".to_string())],
            );
            r.span_closed("prefetch", job, t0, t0 + 1.0, &[]);
            r.span_closed("align", job, t0 + 1.0, t0 + 7.5, &[]);
            r.span_closed("collect", job, t0 + 7.5, t0 + 8.0, &[]);
        }
        r.event(1.0, "retry", vec![("op", JsonValue::from("s3_get"))]);
        r.span_end(inst, 20.0);
        r.span_end(root, 20.0);
        r
    }

    #[test]
    fn critical_path_finds_the_dominant_stage() {
        let t = summarize(&sample_recorder());
        assert_eq!(t.critical_path.dominant_stage, "align");
        assert_eq!(t.critical_path.dominant_accessions, 2);
        assert_eq!(t.critical_path.per_accession.len(), 2);
        assert_eq!(t.critical_path.per_accession[0].accession, "SRR1");
        assert_eq!(t.critical_path.per_accession[0].dominant_stage, "align");
        let align = t.stage_stats.iter().find(|s| s.stage == "align").unwrap();
        assert_eq!(align.count, 2);
        assert!((align.total_secs - 13.0).abs() < 1e-12);
        assert!((t.critical_path.fleet_busy_secs - 16.0).abs() < 1e-12);
        assert!((t.critical_path.fleet_uptime_secs - 20.0).abs() < 1e-12);
        let share: f64 = t.critical_path.stage_share.iter().map(|(_, v)| v).sum();
        assert!((share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_and_failed_jobs_do_not_skew_stage_stats() {
        let r = sample_recorder();
        // A duplicate completion and a crashed job: both counted as busy time,
        // neither contributes stage samples.
        let dup = r.span_closed(
            "job",
            SpanId::NONE,
            30.0,
            38.0,
            &[("accession", "SRR1".to_string()), ("outcome", "duplicate".to_string())],
        );
        r.span_closed("align", dup, 30.0, 38.0, &[]);
        r.span_closed(
            "job",
            SpanId::NONE,
            40.0,
            41.0,
            &[("accession", "SRR2".to_string()), ("outcome", "crashed".to_string())],
        );
        let t = summarize(&r);
        assert_eq!(t.stage_stats.iter().find(|s| s.stage == "align").unwrap().count, 2);
        assert!((t.critical_path.fleet_busy_secs - (16.0 + 8.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_campaign_summarizes_to_zeros() {
        let t = summarize(&Recorder::new());
        assert_eq!(t.n_spans, 0);
        assert_eq!(t.n_events, 0);
        assert!(t.stage_stats.is_empty());
        assert_eq!(t.critical_path.dominant_stage, "");
        assert_eq!(t.critical_path.dominant_accessions, 0);
        assert!(t.critical_path.per_accession.is_empty());
        assert!(t.critical_path.stage_share.is_empty());
        assert_eq!(t.critical_path.fleet_busy_secs, 0.0);
        assert_eq!(t.critical_path.fleet_uptime_secs, 0.0);
        // Rendering and serialization must not choke on the empty tree.
        assert!(t.render().contains("telemetry: 0 spans, 0 events"));
        assert!(t.to_json().contains("\"per_accession\":[]"));
    }

    #[test]
    fn single_span_tree_summarizes_without_stages() {
        let r = Recorder::new();
        r.span_closed(
            "job",
            SpanId::NONE,
            0.0,
            5.0,
            &[("accession", "SRR1".to_string()), ("outcome", "ok".to_string())],
        );
        let t = summarize(&r);
        // A stage-less job contributes busy time but no critical-path entry.
        assert_eq!(t.n_spans, 1);
        assert!((t.critical_path.fleet_busy_secs - 5.0).abs() < 1e-12);
        assert!(t.critical_path.per_accession.is_empty());
        assert!(t.stage_stats.is_empty());
        assert_eq!(t.critical_path.dominant_stage, "");
    }

    #[test]
    fn orphaned_children_do_not_corrupt_the_path() {
        let r = Recorder::new();
        let job = r.span_closed(
            "job",
            SpanId::NONE,
            0.0,
            10.0,
            &[("accession", "SRR1".to_string()), ("outcome", "ok".to_string())],
        );
        r.span_closed("align", job, 0.0, 9.0, &[]);
        // Stage spans whose parent id was never recorded (e.g. emitted by a
        // worker whose job span was dropped): they must not be attributed to
        // any accession, and must not panic the walk.
        let orphan_parent = SpanId(999);
        r.span_closed("prefetch", orphan_parent, 20.0, 30.0, &[]);
        r.span_closed("align", orphan_parent, 30.0, 90.0, &[]);
        // A job with no accession attr is skipped entirely.
        r.span_closed("job", SpanId::NONE, 100.0, 104.0, &[("outcome", "ok".to_string())]);
        let t = summarize(&r);
        assert_eq!(t.critical_path.per_accession.len(), 1);
        assert_eq!(t.critical_path.per_accession[0].accession, "SRR1");
        let align = t.stage_stats.iter().find(|s| s.stage == "align").unwrap();
        assert_eq!(align.count, 1, "orphaned align span must not contribute");
        assert!((align.total_secs - 9.0).abs() < 1e-12);
        // Both jobs still count as fleet busy time.
        assert!((t.critical_path.fleet_busy_secs - 14.0).abs() < 1e-12);
    }

    #[test]
    fn a_stage_opened_at_nan_does_not_panic_the_walk() {
        let r = Recorder::new();
        let job = r.span_closed(
            "job",
            SpanId::NONE,
            0.0,
            10.0,
            &[("accession", "SRR1".to_string()), ("outcome", "ok".to_string())],
        );
        // `span_start` takes any start; only `span_end` checks the interval, so a
        // NaN-started stage can sit, open, beside a well-formed sibling.
        r.span_start("align", job, f64::NAN);
        r.span_closed("prefetch", job, 0.0, 1.0, &[]);
        let t = summarize(&r);
        assert_eq!(t.critical_path.per_accession.len(), 1);
        assert_eq!(t.critical_path.per_accession[0].dominant_stage, "prefetch");
        assert_eq!(t.critical_path.dominant_stage, "prefetch");
        assert_eq!(t.stage_stats.len(), 2, "the open stage counts with zero duration");
    }

    #[test]
    fn render_and_json_quote_the_breakdown() {
        let t = summarize(&sample_recorder());
        let text = t.render();
        assert!(text.contains("critical path: 'align' dominates 2/2 accessions"), "{text}");
        assert!(text.contains("stage share of pipeline time:"), "{text}");
        let json = t.to_json();
        assert!(json.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")), "{json}");
        assert!(json.contains("\"dominant_stage\":\"align\""), "{json}");
        assert!(json.contains("\"metrics\":{\"counters\""), "{json}");
    }
}
