//! Sequence primitives and synthetic-data substrates for the Transcriptomics Atlas
//! reproduction.
//!
//! This crate provides everything below the aligner:
//!
//! * [`seq`] — DNA alphabet and working sequences.
//! * [`fasta`] / [`fastq`] — plain-text sequence formats used between pipeline stages.
//! * [`genome`] — assembly model: chromosomes plus unlocalized/unplaced scaffolds, and
//!   the Ensembl *toplevel* vs *primary_assembly* distinction the paper relies on.
//! * [`ensembl`] — deterministic generator of synthetic "release 108" and "release 111"
//!   assemblies whose structural difference (placed vs duplicated scaffolds) reproduces
//!   the paper's index-size and alignment-speed gap.
//! * [`annotation`] — GTF-lite gene/exon model used by GeneCounts quantification.
//! * [`gtf`] — GTF text parser (inverse of [`Annotation::to_gtf`]).
//! * [`simulate`] — RNA-seq read simulators for bulk poly-A and single-cell 3' libraries,
//!   including the low-mappability read classes that trigger early stopping.
//!
//! Everything is seeded and deterministic: the same seed always produces the same
//! genome, annotation and reads, which the test-suite and the experiment harness rely on.

pub mod annotation;
pub mod ensembl;
pub mod error;
pub mod fasta;
pub mod fastq;
pub mod genome;
pub mod gtf;
pub mod seq;
pub mod simulate;

pub use annotation::{Annotation, Exon, Gene, Strand};
pub use ensembl::{EnsemblGenerator, EnsemblParams, Release};
pub use error::GenomicsError;
pub use fasta::FastaRecord;
pub use fastq::FastqRecord;
pub use genome::{Assembly, AssemblyKind, Contig, ContigKind};
pub use seq::{Base, DnaSeq};
pub use simulate::{LibraryType, PairedRead, ReadSimulator, SimulatedRead, SimulatorParams};
