//! Simulated NCBI Sequence Read Archive.
//!
//! The paper's pipeline starts by pulling accessions from the SRA (>30 PB of
//! sequencing data) with `prefetch` and converting them to FASTQ with
//! `fasterq-dump`. This crate provides the closest synthetic equivalent:
//!
//! * [`accession`] — accession metadata (`SRR…` ids, library strategy, spot counts,
//!   file sizes) and the workload catalog generator with the paper's mix (a few
//!   percent single-cell accessions carrying ~10× the reads of a bulk library —
//!   which is why the 38 early-stopped runs account for 19.5 % of total time).
//! * [`archive`] — the SRA-lite binary container (2-bit packed reads + quality
//!   summary), with encode/decode and corruption detection.
//! * [`repository`] — a deterministic repository: the same accession id always
//!   yields the same reads, generated from the bound assembly/annotation with the
//!   library type's simulator.
//! * [`prefetch`] — the `prefetch` time model: transfer seconds for a byte count
//!   against a network model (no wall-clock sleeping; the cloud layer charges time).
//! * [`fasterq_dump`] — the `fasterq-dump` tool model: parallel decode to FASTQ with
//!   a throughput model.

#![forbid(unsafe_code)]

pub mod accession;
pub mod archive;
pub mod error;
pub mod fasterq_dump;
pub mod prefetch;
pub mod repository;

pub use accession::{AccessionMeta, CatalogParams, LibraryStrategy};
pub use archive::SraArchive;
pub use error::SraError;
pub use fasterq_dump::{FasterqDump, FasterqOutput};
pub use prefetch::NetworkModel;
pub use repository::SraRepository;
