//! A from-scratch, STAR-style spliced RNA-seq aligner.
//!
//! This crate reimplements the algorithmic core of STAR (Dobin et al., 2013) that the
//! paper's optimizations act through:
//!
//! * [`genome`] — the concatenated, contig-boundary-aware reference ("Genome" file).
//! * [`sa`] — an uncompressed suffix array over the concatenated genome, STAR's
//!   central index structure, built in linear time with SA-IS from the 2-bit packed
//!   genome, in little more memory than the array itself.
//! * [`prefix`] — the k-mer prefix lookup tables (`genomeSAindexNbases` analog), one
//!   per prefix length like STAR's `SAindex`, that every suffix-array search starts
//!   from.
//! * [`sjdb`] — the annotated splice-junction database used for spliced stitching.
//! * [`index`] — [`index::StarIndex`]: everything above bundled, with byte-accurate
//!   size accounting (the 85 GiB vs 29.5 GiB comparison of the paper's §III-A) and
//!   (de)serialization.
//! * [`mmp`] — Maximal Mappable Prefix search, STAR's seed-discovery primitive,
//!   started from the index's ladder of prefix tables, one per depth
//!   ([`index::StarIndex::prefix_ladder`]).
//! * [`seed`] / [`stitch`] / [`extend`] — seed collection, windowing/stitching into
//!   collinear chains (introns allowed), and mismatch-scored extension to a full-read
//!   alignment with soft clips.
//! * [`align`] — the per-read alignment driver ([`align::Aligner`]).
//! * [`quant`] — `--quantMode GeneCounts` equivalent (ReadsPerGene.out.tab).
//! * [`progress`] — the `Log.progress.out` statistic stream (% mapped so far) that the
//!   paper's early-stopping optimization consumes.
//! * [`logs`] — `Log.final.out`-style run summary.
//! * [`runner`] — the multi-threaded run driver (`runThreadN` analog) with a
//!   cooperative cancellation hook for early stopping.
//! * [`checkpoint`] — resumable alignment checkpoints: a cancelled run's offset
//!   and partial tallies, serialized deterministically so a spot-interrupted
//!   worker's successor can resume and still produce bit-identical output.
//!
//! # Simplifications relative to real STAR
//!
//! Substitution-only alignment (no indels — the simulators in `genomics` emit none),
//! paired-end reads aligned in FR orientation within one insert window ([`pair`]),
//! a basic 2-pass mode ([`runner::Runner::run_two_pass`]), and SAM-lite output
//! records instead of BAM. None of these affect the evaluated claims; see DESIGN.md.
//!
//! # Quick example
//!
//! ```
//! use genomics::{EnsemblGenerator, EnsemblParams, Release, Annotation};
//! use star_aligner::index::{IndexParams, StarIndex};
//! use star_aligner::align::Aligner;
//! use star_aligner::params::AlignParams;
//!
//! let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
//! let assembly = generator.generate(Release::R111);
//! let annotation = Annotation::simulate(&assembly, &generator).unwrap();
//! let index = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
//! let aligner = Aligner::new(&index, AlignParams::default());
//! // Align a read taken straight from chromosome 1.
//! let chrom = assembly.contig("1").unwrap();
//! let read = chrom.seq.subseq(1000, 1100);
//! let result = aligner.align_seq(&read);
//! assert!(result.is_mapped());
//! ```

#![forbid(unsafe_code)]

pub mod align;
pub mod checkpoint;
pub mod error;
pub mod extend;
pub mod genome;
pub mod index;
pub mod junctions;
pub mod logs;
pub mod mmp;
pub mod pair;
pub mod params;
pub mod prefix;
pub mod progress;
pub mod quant;
pub mod runner;
pub mod sa;
pub mod scratch;
pub mod sam;
pub mod seed;
pub mod sjdb;
pub mod stitch;

pub use align::{AlignOutcome, Aligner, AlignmentRecord, CigarOp, Emit, MapClass, PhaseWork};
pub use checkpoint::AlignCheckpoint;
pub use error::StarError;
pub use genome::Packed2;
pub use index::{IndexParams, IndexStats, StarIndex};
pub use pair::{PairOutcome, PairParams};
pub use params::AlignParams;
pub use junctions::{JunctionCollector, JunctionRow};
pub use progress::ProgressSnapshot;
pub use runner::{CancelToken, RunConfig, RunOutput, RunStatus, Runner};
pub use scratch::AlignScratch;
