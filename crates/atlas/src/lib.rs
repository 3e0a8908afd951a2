//! The Transcriptomics Atlas pipeline — the paper's contribution.
//!
//! Pulls everything together: the four-stage pipeline (Fig. 1), the AWS architecture
//! (Fig. 2), and the two application-specific optimizations (§III):
//!
//! * [`pipeline`] — per-accession execution: `prefetch` → `fasterq-dump` → STAR
//!   (with GeneCounts) → count collection, with per-stage time accounting.
//! * [`early_stop`] — §III-B: the `Log.progress.out` monitor that aborts alignments
//!   whose mapping rate sits below 30 % once ≥10 % of reads are processed, plus the
//!   savings accounting behind Fig. 4.
//! * [`right_size`] — §III-A's corollary: pick the cheapest instance type whose RAM
//!   fits the index (85 GiB for release 108 vs 29.5 GiB for release 111).
//! * [`orchestrator`] — the discrete-event campaign: SQS-fed autoscaled fleet,
//!   index preload at instance init, spot interruptions with at-least-once
//!   redelivery, results to S3, cost accounting (config, report and facade; the
//!   state machine itself is the private `campaign` module).
//! * [`analysis`] — the paper's progress-log analysis methodology: replay candidate
//!   checkpoint policies over recorded `Log.progress.out` histories to find the
//!   smallest safe checkpoint fraction (the data behind the 10 % rule).
//! * [`recovery`] — graceful spot degradation: the recovery policy (and, privately,
//!   the checkpoint store) that lets drained workers hand work back and successors
//!   resume it.
//! * [`report`] — human-readable experiment tables.
//! * [`experiments`] — the code that regenerates every figure/table of the paper
//!   (Fig. 3, the §III-A configuration table, Fig. 4, the architecture campaign);
//!   see DESIGN.md's experiment index.

#![forbid(unsafe_code)]

pub mod analysis;
mod campaign;
pub mod early_stop;
pub mod error;
pub mod experiments;
pub mod ledger;
pub mod orchestrator;
pub mod pipeline;
pub mod recovery;
pub mod report;
pub mod right_size;
pub mod workload;

pub use early_stop::{EarlyStopAccounting, EarlyStopPolicy};
pub use error::AtlasError;
pub use ledger::{AccessionLedgerEntry, LedgerTotals, SloReport};
pub use orchestrator::{CampaignConfig, CampaignReport, Completion, Orchestrator};
pub use pipeline::{AtlasPipeline, PipelineConfig, PipelineResult, StageTimes};
pub use recovery::RecoveryConfig;
pub use right_size::RightSizer;
pub use workload::{AccessionRun, CampaignWorkload, ModeledWorkload, RunProducts};
