//! A kallisto/Salmon-style transcriptome **pseudoaligner** — the paper's future work.
//!
//! The paper closes §III-B with: *"Early stopping optimization we proposed notably
//! increases the pipeline throughput, which suggests that other (pseudo)aligners
//! should also provide the current mapping rate value (e.g. Salmon does not).
//! Further research will measure applicability of those findings for other
//! aligners."* This crate carries out that study:
//!
//! * [`index`] — a transcriptome k-mer index: every k-mer of every annotated
//!   transcript maps to an *equivalence class* (the set of transcripts containing
//!   it), kallisto's core data structure.
//! * [`pseudoalign`] — per-read pseudoalignment: intersect the equivalence classes of
//!   the read's k-mers; a read is "pseudoaligned" when enough k-mers agree on a
//!   non-empty transcript set.
//! * [`quant`] — equivalence-class counting plus EM abundance estimation (the
//!   kallisto/Salmon quantification step).
//! * [`runner`] — a batched run driver with an **optional** progress stream. With
//!   `report_progress: false` the tool behaves like stock Salmon — no interim
//!   mapping rate, so the paper's early stopping has nothing to hook into. With
//!   `report_progress: true` it emits the same [`star_aligner::ProgressSnapshot`]s
//!   as the STAR runner and the unchanged
//!   [`atlas_pipeline`-style monitors](star_aligner::runner::RunMonitor) work as-is.
//!
//! The `pseudo-early-stop` experiment in `atlas-bench` quantifies the difference.

#![forbid(unsafe_code)]

pub mod index;
pub mod pseudoalign;
pub mod quant;
pub mod runner;

pub use index::{PseudoIndex, PseudoIndexParams};
pub use pseudoalign::{PseudoAligner, PseudoOutcome};
pub use quant::{em_abundances, EqClassCounts};
pub use runner::{PseudoRunConfig, PseudoRunOutput, PseudoRunner};
