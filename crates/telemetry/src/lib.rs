//! Deterministic sim-time telemetry for the atlas simulator.
//!
//! The paper's headline numbers (the >12× release speedup of Fig. 3, the 19.5 %
//! compute saved by early stopping in Fig. 4) are *measurement* results: they exist
//! because per-stage wall clock and STAR's `Log.progress.out` were observable. This
//! crate is the reproduction's measurement layer:
//!
//! * [`Recorder`] — the shared sink. Hierarchical [`span::SpanRecord`] spans
//!   (campaign → instance → job → stage → align sub-stage), a
//!   [`metrics::MetricsRegistry`] of counters/gauges/fixed-bucket histograms, and a
//!   structured NDJSON event log. A disabled recorder is a cheap no-op (one branch,
//!   no lock).
//! * [`report::CampaignTelemetry`] — the analysis pass: per-stage p50/p95/p99,
//!   a critical-path extractor over the span tree (which stage dominates each
//!   accession, fleet-level utilization breakdown), rendered into campaign reports.
//! * [`export`] — standard-format exporters: Chrome/Perfetto trace-event JSON
//!   for the span tree, OpenMetrics text for the registry, collapsed-stack
//!   (flamegraph) folds of the span tree.
//! * [`monitor::Monitor`] — the live campaign monitor: declarative alert rules
//!   (threshold, rate-of-change, quantile-vs-fleet) evaluated against the stream
//!   *during* the simulated campaign via [`recorder::StreamObserver`], emitting
//!   `alert` events into the same log.
//! * [`series::TimeSeries`] — timestamped gauge series (the one metrics surface;
//!   `cloudsim` uses it directly).
//!
//! **Determinism contract.** All timestamps are *simulated* seconds — nothing in
//! this crate reads a wall clock or links a serializer: all JSON is hand-rolled via
//! [`json::JsonValue`] with a stable field order. Given a
//! fixed campaign seed, the serialized event log and every histogram quantile are
//! byte-identical across runs (`tests/tests/telemetry.rs` proves it).

pub mod diff;
pub mod events;
pub mod export;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod query;
pub mod recorder;
pub mod report;
pub mod series;
pub mod sketch;
pub mod slo;
pub mod span;

pub use diff::{diff, DiffEntry, DiffReport, DiffSection, RunProfile};
pub use events::EventRecord;
pub use export::{collapsed_stacks, openmetrics, openmetrics_from, perfetto_trace, perfetto_trace_from};
pub use json::JsonValue;
pub use metrics::{Histogram, MetricsRegistry, RATE_BUCKETS, SECS_BUCKETS};
pub use monitor::{AlertEvent, AlertRule, Cmp, Condition, Guard, Monitor, MonitorConfig, Signal};
pub use query::{Agg, Query, QueryResult};
pub use recorder::{Recorder, StreamObserver};
pub use report::{summarize, AccessionPath, CampaignTelemetry, CriticalPath, StageStats};
pub use series::TimeSeries;
pub use sketch::QuantileSketch;
pub use slo::{BurnRateRule, Slo, SloConfig, SloRegistry, SloSignal, SloStatus};
pub use span::{SpanId, SpanRecord};

/// Version stamped into every serialized telemetry document. Bump it (and the
/// golden under `golden/telemetry_schema.json`) when the schema changes shape.
/// v2: `alert` events, Perfetto/OpenMetrics export shapes.
/// v3: quantile sketches in the metrics registry, `slo_burn` alerts,
/// `slo_budget`/`slo_clear` events, OpenMetrics summary lines, Perfetto counter
/// tracks for budget gauges.
/// v4: graceful-spot-degradation events (`spot_notice`, `drain`, `checkpoint`,
/// `checkpoint_failed`, `resume`), the `interruption_storm` alert rule, and the
/// recovery-only `slo_ledger_salvaged_secs`/`slo_ledger_lost_secs` gauges.
pub const SCHEMA_VERSION: u32 = 4;

/// The stable JSON schema of everything this crate serializes, as a JSON document.
///
/// CI pins this against `golden/telemetry_schema.json`: drifting the shape of the
/// event log, span dump, metrics registry, or campaign summary without consciously
/// updating the golden fails the build.
pub fn schema_json() -> String {
    use json::JsonValue as J;
    let field = |name: &str, ty: &str| (name.to_string(), J::from(ty));
    let obj = |fields: Vec<(String, J)>| J::Obj(fields);
    let schema = obj(vec![
        ("schema_version".into(), J::from(u64::from(SCHEMA_VERSION))),
        (
            "event".into(),
            obj(vec![
                field("t", "f64 — simulated seconds since campaign start"),
                field("kind", "string — event kind, snake_case"),
                field("...", "kind-specific fields, stable order per kind"),
            ]),
        ),
        (
            "alert_event".into(),
            obj(vec![
                field("t", "f64 — simulated seconds the rule fired"),
                field("kind", "\"alert\""),
                field("rule", "string — AlertRule id, snake_case"),
                field("subject", "string — instance id, accession, or signal name"),
                field("value", "f64 — signal value at firing"),
                field("threshold", "f64 — the bound it crossed"),
                field("latency_secs", "f64 — condition onset -> detection"),
            ]),
        ),
        (
            "span".into(),
            obj(vec![
                field("id", "u64 — 1-based, in emission order"),
                field("parent", "u64 — parent span id, 0 for roots"),
                field("name", "string — campaign|instance|job|<stage>|align/<phase>"),
                field("start", "f64 — simulated seconds"),
                field("end", "f64|null — simulated seconds, >= start"),
                field("attrs", "object — string-valued attributes, stable order"),
            ]),
        ),
        (
            "metrics".into(),
            obj(vec![
                field("counters", "object — name -> u64, names sorted"),
                field("gauges", "object — name -> f64, names sorted"),
                (
                    "histograms".into(),
                    obj(vec![
                        field("bounds", "array of f64 — inclusive upper bounds"),
                        field("counts", "array of u64 — len(bounds)+1, last is overflow"),
                        field("count", "u64"),
                        field("sum", "f64"),
                        field("min", "f64"),
                        field("max", "f64"),
                    ]),
                ),
                (
                    "sketches".into(),
                    obj(vec![
                        field("alpha", "f64 — relative error bound, fixed at creation"),
                        field("count", "u64"),
                        field("zero_count", "u64 — observations below 1e-9"),
                        field(
                            "buckets",
                            "object — log-bucket key (ceil(ln v / ln γ)) -> u64 count, \
                             keys sorted numerically; pure function of the observation \
                             multiset (merge = pointwise add)",
                        ),
                        field("min", "f64"),
                        field("max", "f64"),
                    ]),
                ),
            ]),
        ),
        (
            "slo_events".into(),
            obj(vec![
                field(
                    "slo_burn",
                    "alert_event with rule \"slo_burn\", subject \"<slo id>:<long window>s\", \
                     value = short-window burn rate, threshold = burn factor",
                ),
                (
                    "slo_budget".into(),
                    obj(vec![
                        field("t", "f64"),
                        field("kind", "\"slo_budget\""),
                        field("slo", "string — objective id"),
                        field(
                            "remaining",
                            "f64 — error budget left: 1 - (bad/total)/(1-target); emitted \
                             on integer-percent changes, rendered as a Perfetto counter track",
                        ),
                    ]),
                ),
                (
                    "slo_clear".into(),
                    obj(vec![
                        field("t", "f64"),
                        field("kind", "\"slo_clear\""),
                        field("slo", "string — objective id"),
                        field("window_secs", "f64 — long window of the clearing rule"),
                        field("burn", "f64 — short-window burn at clearing"),
                    ]),
                ),
            ]),
        ),
        (
            "recovery_events".into(),
            obj(vec![
                (
                    "spot_notice".into(),
                    obj(vec![
                        field("t", "f64"),
                        field("kind", "\"spot_notice\""),
                        field("instance", "u64"),
                        field("source", "\"market\"|\"burst\" — which reclaim pipeline"),
                        field("lead_secs", "f64 — notice -> reclaim lead time"),
                    ]),
                ),
                (
                    "drain".into(),
                    obj(vec![
                        field("t", "f64"),
                        field("kind", "\"drain\""),
                        field("instance", "u64"),
                        field("accession", "string — only when a job was in flight"),
                        field("handed_back", "bool — message visibility reset to 0"),
                        field(
                            "checkpointed_secs",
                            "f64 — align progress persisted, only when a checkpoint \
                             was written",
                        ),
                    ]),
                ),
                (
                    "checkpoint".into(),
                    obj(vec![
                        field("t", "f64"),
                        field("kind", "\"checkpoint\""),
                        field("accession", "string"),
                        field("instance", "u64"),
                        field("offset_secs", "f64 — cumulative align seconds stored"),
                    ]),
                ),
                (
                    "checkpoint_failed".into(),
                    obj(vec![
                        field("t", "f64"),
                        field("kind", "\"checkpoint_failed\""),
                        field("accession", "string"),
                        field("instance", "u64"),
                    ]),
                ),
                (
                    "resume".into(),
                    obj(vec![
                        field("t", "f64"),
                        field("kind", "\"resume\""),
                        field("accession", "string"),
                        field("instance", "u64"),
                        field("skipped_secs", "f64 — align seconds not redone"),
                    ]),
                ),
            ]),
        ),
        (
            "perfetto_trace".into(),
            obj(vec![
                field(
                    "traceEvents",
                    "array — process_name metadata (ph M), complete spans (ph X, \
                     ts/dur integer micros, pid = instance, tid = worker, attrs in \
                     args), event-log instants (ph i)",
                ),
                field("displayTimeUnit", "\"ms\""),
            ]),
        ),
        (
            "openmetrics".into(),
            obj(vec![
                field("counters", "`# TYPE <name> counter` + `<name>_total <v>`"),
                field("gauges", "`# TYPE <name> gauge` + `<name> <v>`"),
                field(
                    "histograms",
                    "cumulative `<name>_bucket{le=\"...\"}` lines, `+Inf`, `_sum`, \
                     `_count`",
                ),
                field(
                    "summaries",
                    "per sketch: `# TYPE <name> summary` + `<name>{quantile=\"0.5|0.9|\
                     0.95|0.99\"}` lines + `<name>_count` (sketches carry no sum); \
                     terminated by `# EOF`",
                ),
            ]),
        ),
        (
            "campaign_telemetry".into(),
            obj(vec![
                field("schema_version", "u32"),
                field("n_spans", "u64"),
                field("n_events", "u64"),
                (
                    "stages".into(),
                    obj(vec![
                        field("stage", "string"),
                        field("count", "u64 — completed jobs contributing"),
                        field("total_secs", "f64"),
                        field("p50", "f64"),
                        field("p95", "f64"),
                        field("p99", "f64"),
                    ]),
                ),
                (
                    "critical_path".into(),
                    obj(vec![
                        field("dominant_stage", "string — stage with largest total"),
                        field("dominant_accessions", "u64 — accessions it dominates"),
                        field("fleet_busy_secs", "f64 — sum of job span durations"),
                        field("fleet_uptime_secs", "f64 — sum of instance span durations"),
                        field("stage_share", "object — stage -> fraction of stage time"),
                        (
                            "per_accession".into(),
                            obj(vec![
                                field("accession", "string"),
                                field("total_secs", "f64"),
                                field("dominant_stage", "string"),
                                field("dominant_secs", "f64"),
                            ]),
                        ),
                    ]),
                ),
                field("metrics", "object — see `metrics`"),
            ]),
        ),
    ]);
    let mut out = schema.render();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CI gate: the serialized schema must match the committed golden byte for
    /// byte. To change the schema deliberately, rerun with `UPDATE_GOLDEN=1` to
    /// rewrite the golden, then commit the diff.
    #[test]
    fn schema_matches_golden() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/telemetry_schema.json");
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, schema_json()).expect("rewrite golden");
        }
        let golden = std::fs::read_to_string(path).expect("read golden");
        assert_eq!(
            schema_json(),
            golden,
            "telemetry JSON schema drifted from golden/telemetry_schema.json; \
             rerun with UPDATE_GOLDEN=1 if the change is intended"
        );
    }
}
