//! Property-based tests for the later-added modules: paired-end alignment, SAM
//! rendering, GTF round-tripping, paired archives, and pseudoalignment.
use genomics::{Annotation, DnaSeq, EnsemblGenerator, EnsemblParams, FastqRecord, Release};
use proptest::prelude::*;
use star_aligner::align::Aligner;
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::sam::{sam_pair_records, sam_record};
use star_aligner::AlignParams;
use std::sync::OnceLock;

struct Fixture {
    assembly: genomics::Assembly,
    annotation: Annotation,
    index: StarIndex,
    pseudo: pseudo_aligner::PseudoIndex,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let assembly = generator.generate(Release::R111);
        let annotation =
            Annotation::simulate(&assembly, &generator).unwrap();
        let index = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
        let pseudo = pseudo_aligner::PseudoIndex::build(
            &assembly,
            &annotation,
            &pseudo_aligner::PseudoIndexParams { k: 21 },
        )
        .unwrap();
        Fixture { assembly, annotation, index, pseudo }
    })
}

/// Validate the fixed columns of a SAM record line.
fn check_sam_line(line: &str, read_len: usize) {
    let cols: Vec<&str> = line.split('\t').collect();
    assert!(cols.len() >= 11, "SAM needs 11 mandatory columns: {line}");
    let flag: u16 = cols[1].parse().expect("numeric flag");
    let pos: u64 = cols[3].parse().expect("numeric pos");
    if flag & 0x4 != 0 {
        assert_eq!(cols[2], "*");
        assert_eq!(pos, 0);
        assert_eq!(cols[5], "*");
    } else {
        assert_ne!(cols[2], "*");
        assert!(pos >= 1, "mapped records are 1-based");
        assert_ne!(cols[5], "*");
    }
    assert_eq!(cols[9].len(), read_len, "SEQ column covers the read");
    assert_eq!(cols[10].len(), read_len, "QUAL column covers the read");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sam_records_are_structurally_valid_for_any_window(start in 0usize..19_000, junk in any::<bool>()) {
        let f = fixture();
        let chrom = f.assembly.contig("1").unwrap();
        prop_assume!(start + 100 <= chrom.len());
        let seq = if junk {
            DnaSeq::from_codes(vec![(start % 4) as u8; 100])
        } else {
            chrom.seq.subseq(start, start + 100)
        };
        let read = FastqRecord::with_uniform_quality(format!("r{start}"), seq, 35);
        let aligner = Aligner::new(&f.index, AlignParams::default());
        let out = aligner.align_read(&read);
        check_sam_line(&sam_record(&read, &out), 100);
    }

    #[test]
    fn paired_sam_lines_are_consistent(start in 0usize..18_000, insert in 210usize..800) {
        let f = fixture();
        let chrom = f.assembly.contig("1").unwrap();
        prop_assume!(start + insert <= chrom.len());
        prop_assume!(insert >= 200);
        let r1 = FastqRecord::with_uniform_quality(
            "p/1".into(),
            chrom.seq.subseq(start, start + 100),
            35,
        );
        let r2 = FastqRecord::with_uniform_quality(
            "p/2".into(),
            chrom.seq.subseq(start + insert - 100, start + insert).reverse_complement(),
            35,
        );
        let aligner = Aligner::new(&f.index, AlignParams::default());
        let out = aligner.align_pair(&r1, &r2);
        let (l1, l2) = sam_pair_records(&r1, &r2, &out);
        check_sam_line(&l1, 100);
        check_sam_line(&l2, 100);
        if out.is_mapped() {
            let f1: u16 = l1.split('\t').nth(1).unwrap().parse().unwrap();
            let f2: u16 = l2.split('\t').nth(1).unwrap().parse().unwrap();
            // Exactly one mate on each strand; first/last bits set correctly.
            prop_assert_eq!((f1 & 0x10 != 0), (f2 & 0x10 == 0));
            prop_assert!(f1 & 0x40 != 0 && f2 & 0x80 != 0);
            // TLEN symmetry.
            let t1: i64 = l1.split('\t').nth(8).unwrap().parse().unwrap();
            let t2: i64 = l2.split('\t').nth(8).unwrap().parse().unwrap();
            prop_assert_eq!(t1, -t2);
            prop_assert_eq!(t1.unsigned_abs(), insert as u64);
        }
    }

    #[test]
    fn paired_alignment_recovers_fragment_position(start in 0usize..18_000, insert in 210usize..900) {
        let f = fixture();
        let chrom = f.assembly.contig("1").unwrap();
        prop_assume!(start + insert <= chrom.len());
        let r1 = FastqRecord::with_uniform_quality(
            "q/1".into(),
            chrom.seq.subseq(start, start + 100),
            35,
        );
        let r2 = FastqRecord::with_uniform_quality(
            "q/2".into(),
            chrom.seq.subseq(start + insert - 100, start + insert).reverse_complement(),
            35,
        );
        let aligner = Aligner::new(&f.index, AlignParams::default());
        let out = aligner.align_pair(&r1, &r2);
        if out.is_mapped() {
            let rec1 = out.rec1.as_ref().unwrap();
            prop_assert!((rec1.pos as i64 - start as i64).unsigned_abs() <= 5);
            prop_assert_eq!(out.insert_size.unwrap(), insert as u64);
        }
    }

    #[test]
    fn gtf_round_trips_arbitrary_gene_structures(
        genes in prop::collection::vec(
            (0usize..3, prop::collection::vec((0usize..500, 1usize..120), 1..5), any::<bool>()),
            1..8,
        )
    ) {
        // Build syntactically valid genes: sort and de-overlap exons by offsetting.
        let mut ann = Annotation::default();
        for (i, (contig, raw_exons, reverse)) in genes.into_iter().enumerate() {
            let mut pos = 0usize;
            let mut exons = Vec::new();
            for (gap, len) in raw_exons {
                let start = pos + gap;
                exons.push(genomics::Exon { start, end: start + len });
                pos = start + len + 1;
            }
            ann.genes.push(genomics::Gene {
                id: format!("G{i}"),
                contig: format!("{}", contig + 1),
                strand: if reverse { genomics::Strand::Reverse } else { genomics::Strand::Forward },
                exons,
            });
        }
        let text = ann.to_gtf();
        let back = genomics::gtf::read_gtf(std::io::Cursor::new(text.as_bytes())).unwrap();
        prop_assert_eq!(back.genes, ann.genes);
    }

    #[test]
    fn paired_archives_round_trip(n_pairs in 0usize..25, seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs: Vec<(FastqRecord, FastqRecord)> = (0..n_pairs)
            .map(|i| {
                (
                    FastqRecord::with_uniform_quality(format!("P.{i}/1"), DnaSeq::random(&mut rng, 80), 30),
                    FastqRecord::with_uniform_quality(format!("P.{i}/2"), DnaSeq::random(&mut rng, 80), 30),
                )
            })
            .collect();
        let arc = sra_sim::SraArchive::encode_paired(
            "P",
            sra_sim::accession::LibraryStrategy::RnaSeqBulk,
            &pairs,
        )
        .unwrap();
        prop_assert_eq!(arc.spots(), n_pairs as u64);
        let round = sra_sim::SraArchive::from_bytes(arc.bytes().to_vec()).unwrap();
        let back = round.decode_all_pairs().unwrap();
        for ((o1, o2), (d1, d2)) in pairs.iter().zip(&back) {
            prop_assert_eq!(&o1.seq, &d1.seq);
            prop_assert_eq!(&o2.seq, &d2.seq);
        }
    }

    #[test]
    fn pseudoalignment_is_strand_symmetric(start in 0usize..15_000) {
        let f = fixture();
        // Any transcript window: fwd and rc reads must agree on mapping status.
        let gene = f.annotation.genes.iter().find(|g| g.transcript_len() >= 150).unwrap();
        let t = gene.transcript(&f.assembly).unwrap();
        let s = start % (t.len() - 100);
        let read = t.subseq(s, s + 100);
        let aligner = pseudo_aligner::PseudoAligner::new(&f.pseudo);
        let fwd = aligner.pseudoalign(&read);
        let rev = aligner.pseudoalign(&read.reverse_complement());
        prop_assert_eq!(fwd.is_mapped(), rev.is_mapped());
        prop_assert_eq!(fwd.compatible, rev.compatible);
    }
}
