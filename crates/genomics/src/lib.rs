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
//! * [`fnv`] — FNV-1a, the hash behind every stable seed, digest and checksum.
//! * [`pool`] — the persistent thread pool behind `--runThreadN`, shared by the aligner,
//!   the pseudoaligner and `fasterq-dump`. It holds every `unsafe` line of the
//!   workspace's libraries: the other crates forbid `unsafe`, this one denies it
//!   outside `pool`, and each block there carries a `// SAFETY:` argument.
//!
//! Everything is seeded and deterministic: the same seed always produces the same
//! genome, annotation and reads, which the test-suite and the experiment harness rely on.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod annotation;
pub mod ensembl;
pub mod error;
pub mod fasta;
pub mod fastq;
pub mod fnv;
pub mod genome;
pub mod gtf;
#[allow(unsafe_code)]
pub mod pool;
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

#[cfg(test)]
mod tests {
    //! [`Pool::fill`](pool::Pool::fill) as a data-parallel map, checked against the
    //! sequential loop; its scheduling protocol is tested in `pool`. The first three
    //! carry the names of the parallel-iterator calls the fills replaced.

    use crate::pool::Pool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_iter_matches_sequential() {
        let v: Vec<i32> = (1..=4).collect();
        let mut doubled = vec![0; v.len()];
        Pool::shared(4).unwrap().fill(&mut doubled, |i| v[i] * 2);
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    /// The fill writes into the caller's buffer, and only into the slice it is given.
    #[test]
    fn par_iter_mut_updates_in_place() {
        let mut v = vec![3u32, 1, 2];
        let (buffer, old) = (v.as_ptr(), v.clone());
        Pool::shared(4).unwrap().fill(&mut v[1..], |i| old[i + 1] * 10);
        assert_eq!(v, vec![3, 10, 20]);
        assert_eq!(v.as_ptr(), buffer);
    }

    #[test]
    fn par_iter_mut_enumerate_touches_every_index_once() {
        let calls: Vec<AtomicUsize> = (0..10_007).map(|_| AtomicUsize::new(0)).collect();
        let mut v = vec![0u32; 10_007];
        Pool::shared(4).unwrap().fill(&mut v, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            i as u32 + 1
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// Each index is filled once (the slots count their writes) with its own value.
    #[test]
    fn every_length_and_thread_count_matches_sequential() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::shared(threads).unwrap();
            for len in [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1_000, 8_193, 20_001] {
                let writes: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let mut got = vec![usize::MAX; len];
                pool.fill(&mut got, |i| {
                    writes[i].fetch_add(1, Ordering::Relaxed);
                    i * 3 + 1
                });
                let want: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
                assert_eq!(got, want, "threads {threads} len {len}");
                assert!(writes.iter().all(|w| w.load(Ordering::Relaxed) == 1), "threads {threads} len {len}");
            }
        }
    }
}
