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
//!   no lock). [`Recorder::monitored`] makes one that owns the live monitor.
//! * [`report::CampaignTelemetry`] — the analysis pass: per-stage p50/p95/p99,
//!   a critical-path extractor over the span tree (which stage dominates each
//!   accession, fleet-level utilization breakdown), rendered into campaign reports.
//! * [`export`] — standard-format exporters: Chrome/Perfetto trace-event JSON
//!   for the span tree, OpenMetrics text for the registry.
//! * [`monitor`] — the live campaign monitor: five [`AlertRule`]s (stragglers,
//!   backlog growth, fault bursts, interruption storms, early-stop eligibility)
//!   and the [`slo`] burn-rate objectives, evaluated by the recorder that owns
//!   them against the stream *during* the simulated campaign, emitting `alert`
//!   events into the same log.
//! * [`series::TimeSeries`] — a timestamped gauge series with a step integral; no
//!   campaign keeps one (they fold their samples as they arrive), so it serves as
//!   the reference the campaign's integrals are tested against.
//!
//! **Determinism contract.** All timestamps are *simulated* seconds — nothing in
//! this crate reads a wall clock or links a serializer: all JSON is hand-rolled via
//! [`json::JsonValue`] with a stable field order. Given a
//! fixed campaign seed, the serialized event log and every histogram quantile are
//! byte-identical across runs (`tests/tests/telemetry.rs` proves it).

#![forbid(unsafe_code)]

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
pub use events::{EventLog, EventRecord};
pub use export::{openmetrics, openmetrics_from, perfetto_trace_from, PerfettoTrace};
pub use json::JsonValue;
pub use metrics::{Histogram, MetricsRegistry, RATE_BUCKETS, SECS_BUCKETS};
pub use monitor::{AlertEvent, AlertRule, MonitorConfig};
pub use query::{Agg, Query, QueryResult};
pub use recorder::Recorder;
pub use report::{summarize, AccessionPath, CampaignTelemetry, CriticalPath, StageStats};
pub use series::TimeSeries;
pub use sketch::QuantileSketch;
pub use slo::{BurnRateRule, Slo, SloConfig, SloRegistry, SloSignal, SloStatus};
pub use span::{SpanId, SpanRecord};

/// Version stamped into every serialized telemetry document. Bump it (and
/// DESIGN.md's "Serialized shapes") when a shape changes; the shapes themselves are
/// pinned by the `tests/golden/` exports of fixed-seed campaigns.
/// v2: `alert` events, Perfetto/OpenMetrics export shapes.
/// v3: quantile sketches in the metrics registry, `slo_burn` alerts,
/// `slo_budget`/`slo_clear` events, OpenMetrics summary lines, Perfetto counter
/// tracks for budget gauges.
/// v4: graceful-spot-degradation events (`spot_notice`, `drain`, `checkpoint`,
/// `checkpoint_failed`, `resume`), the `interruption_storm` alert rule, and the
/// recovery-only `slo_ledger_salvaged_secs`/`slo_ledger_lost_secs` gauges.
pub const SCHEMA_VERSION: u32 = 4;
