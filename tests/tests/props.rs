//! Property-based tests over the core data structures and invariants.

use genomics::{DnaSeq, FastqRecord};
use proptest::prelude::*;
use star_aligner::sa::SuffixArray;
use star_aligner::Packed2;

/// Strategy: a DNA sequence of length in `range` as raw 2-bit codes.
fn dna(range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, range)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packed_dna_round_trips(codes in dna(0..600)) {
        // Lengths include 0 and non-multiples of the 32-base word.
        let packed = Packed2::from_codes(&codes);
        prop_assert_eq!(packed.len(), codes.len());
        prop_assert_eq!(packed.byte_size(), codes.len().div_ceil(32) * 8);
        for (i, &c) in codes.iter().enumerate() {
            prop_assert_eq!(packed.get(i), c);
        }
        prop_assert_eq!(packed.to_codes(), codes);
    }

    #[test]
    fn reverse_complement_involution(codes in dna(0..300)) {
        let seq = DnaSeq::from_codes(codes);
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn suffix_array_is_sorted_permutation(codes in dna(1..400)) {
        let sa = SuffixArray::build(&Packed2::from_codes(&codes));
        // Permutation.
        let mut sorted: Vec<u32> = sa.positions().to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..codes.len() as u32).collect::<Vec<_>>());
        // Lexicographic order.
        for w in sa.positions().windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            prop_assert!(codes[a..] < codes[b..], "suffixes {a} and {b} out of order");
        }
    }

    #[test]
    fn sa_find_locates_every_occurrence(codes in dna(20..300), start in 0usize..250, len in 1usize..20) {
        prop_assume!(start + len <= codes.len());
        let pattern = codes[start..start + len].to_vec();
        let sa = SuffixArray::build(&Packed2::from_codes(&codes));
        let iv = sa.find(&star_aligner::Packed2::from_codes(&codes), &pattern);
        let hits: std::collections::HashSet<u32> =
            (iv.lo..iv.hi).map(|slot| sa.suffix(slot)).collect();
        // Compare against naive scan.
        let naive: std::collections::HashSet<u32> = (0..=codes.len() - len)
            .filter(|&i| codes[i..i + len] == pattern[..])
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(hits, naive);
    }

    #[test]
    fn fastq_round_trips(
        seqs in prop::collection::vec((dna(1..150), 0u8..41), 1..20)
    ) {
        let records: Vec<FastqRecord> = seqs
            .into_iter()
            .enumerate()
            .map(|(i, (codes, q))| {
                FastqRecord::with_uniform_quality(format!("r{i}"), DnaSeq::from_codes(codes), q)
            })
            .collect();
        let mut buf = Vec::new();
        genomics::fastq::write_fastq(&mut buf, &records).unwrap();
        let back = genomics::fastq::read_fastq(std::io::Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back, records);
    }

    #[test]
    fn fasta_round_trips(
        seqs in prop::collection::vec(dna(0..200), 1..10),
        width in 1usize..100
    ) {
        let records: Vec<genomics::FastaRecord> = seqs
            .into_iter()
            .enumerate()
            .map(|(i, codes)| genomics::FastaRecord {
                header: format!("contig_{i} synthetic"),
                seq: DnaSeq::from_codes(codes),
            })
            .collect();
        let mut buf = Vec::new();
        genomics::fasta::write_fasta(&mut buf, &records, width).unwrap();
        let (back, stats) = genomics::fasta::read_fasta(std::io::Cursor::new(&buf)).unwrap();
        prop_assert_eq!(stats.substituted_ambiguous, 0);
        prop_assert_eq!(back, records);
    }

    #[test]
    fn sra_archive_round_trips(
        seqs in prop::collection::vec(dna(50..51), 0..30),
        qual in 0u8..41
    ) {
        let reads: Vec<FastqRecord> = seqs
            .into_iter()
            .enumerate()
            .map(|(i, codes)| {
                FastqRecord::with_uniform_quality(
                    format!("SRRP.{}", i + 1),
                    DnaSeq::from_codes(codes),
                    qual,
                )
            })
            .collect();
        let archive = sra_sim::SraArchive::encode(
            "SRRP",
            sra_sim::accession::LibraryStrategy::RnaSeqBulk,
            &reads,
        )
        .unwrap();
        let again = sra_sim::SraArchive::from_bytes(archive.bytes().to_vec()).unwrap();
        let decoded = again.decode_all().unwrap();
        prop_assert_eq!(decoded.len(), reads.len());
        for (d, r) in decoded.iter().zip(&reads) {
            prop_assert_eq!(&d.seq, &r.seq);
        }
    }

    #[test]
    fn deseq_normalization_is_scale_invariant(
        base in prop::collection::vec(1u64..500, 4..20),
        scale in 2u64..10
    ) {
        // Two samples where one is an exact `scale` multiple of the other: the
        // normalized matrices must agree column-to-column.
        let rows: Vec<Vec<u64>> = base.iter().map(|&k| vec![k, k * scale]).collect();
        let matrix = deseq_norm::CountsMatrix::from_rows(
            (0..base.len()).map(|i| format!("g{i}")).collect(),
            vec!["a".into(), "b".into()],
            rows,
        );
        let normalized = deseq_norm::normalize(&matrix).unwrap();
        for g in 0..base.len() {
            let x = normalized.get(g, 0);
            let y = normalized.get(g, 1);
            prop_assert!((x - y).abs() < 1e-6 * x.max(1.0), "gene {g}: {x} vs {y}");
        }
    }

    #[test]
    fn sqs_never_loses_or_duplicates_completed_work(
        ops in prop::collection::vec(0u8..3, 1..300)
    ) {
        use cloudsim::{SimDuration, SimTime, SqsQueue};
        let mut queue: SqsQueue<u32> = SqsQueue::new(SimDuration::from_secs(5.0));
        for i in 0..40u32 {
            queue.send(i);
        }
        let mut now = 0.0f64;
        let mut receipts = Vec::new();
        let mut deleted = 0usize;
        for op in ops {
            now += 1.0;
            match op {
                0 => {
                    if let Some((_, r, _)) = queue.receive(SimTime::from_secs(now)) {
                        receipts.push(r);
                    }
                }
                1 => {
                    if let Some(r) = receipts.pop() {
                        if queue.delete(r).is_ok() {
                            deleted += 1;
                        }
                    }
                }
                _ => now += 7.0, // let visibility timeouts expire
            }
        }
        prop_assert_eq!(queue.pending_count(), 40 - deleted);
    }
}

// Alignment properties need a shared index (expensive); build once.
mod align_props {
    use super::*;
    use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
    use star_aligner::align::{Aligner, CigarOp};
    use star_aligner::index::{IndexParams, StarIndex};
    use star_aligner::AlignParams;
    use std::sync::OnceLock;

    struct Fixture {
        assembly: genomics::Assembly,
        index: StarIndex,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
            let assembly = generator.generate(Release::R111);
            let annotation =
                Annotation::simulate(&assembly, &generator).unwrap();
            let index = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
            Fixture { assembly, index }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cigar_always_covers_the_whole_read(start in 0usize..19_000, rc in any::<bool>()) {
            let f = fixture();
            let chrom = f.assembly.contig("1").unwrap();
            prop_assume!(start + 100 <= chrom.len());
            let mut read = chrom.seq.subseq(start, start + 100);
            if rc {
                read = read.reverse_complement();
            }
            let aligner = Aligner::new(&f.index, AlignParams::default());
            let out = aligner.align_seq(&read);
            if let Some(rec) = out.primary {
                let covered: u32 = rec
                    .cigar
                    .iter()
                    .map(|op| match op {
                        CigarOp::M(n) | CigarOp::S(n) => *n,
                        CigarOp::N(_) => 0,
                    })
                    .sum();
                prop_assert_eq!(covered, 100, "cigar {:?}", rec.cigar);
                prop_assert_eq!(rec.reverse, rc);
            }
        }

        #[test]
        fn perfect_genomic_reads_always_map(start in 0usize..19_000) {
            let f = fixture();
            let chrom = f.assembly.contig("1").unwrap();
            prop_assume!(start + 100 <= chrom.len());
            let read = chrom.seq.subseq(start, start + 100);
            let aligner = Aligner::new(&f.index, AlignParams::default());
            let out = aligner.align_seq(&read);
            prop_assert!(out.is_mapped(), "perfect read at {start} unmapped");
            let rec = out.primary.unwrap();
            prop_assert!(rec.score >= 95, "score {}", rec.score);
        }

        #[test]
        fn alignment_is_deterministic(start in 0usize..10_000) {
            let f = fixture();
            let chrom = f.assembly.contig("1").unwrap();
            prop_assume!(start + 100 <= chrom.len());
            let read = chrom.seq.subseq(start, start + 100);
            let aligner = Aligner::new(&f.index, AlignParams::default());
            let a = aligner.align_seq(&read);
            let b = aligner.align_seq(&read);
            prop_assert_eq!(a.class, b.class);
            prop_assert_eq!(a.primary, b.primary);
        }
    }
}
