//! Paired-end alignment.
//!
//! STAR aligns read pairs as one fragment: candidate alignments of both mates are
//! enumerated independently, then *paired* — same contig, opposite orientations (FR),
//! mates facing each other within the insert-size window — and the pair score is the
//! sum of the mate scores. Classification (unique/multi/too-many/unmapped) applies to
//! the *pair*; reads whose mates cannot be properly paired count as unmapped
//! (`--outFilterMultimapNmax`-style accounting on fragments, the unit the paper's
//! mapping-rate statistic uses for paired libraries).

use crate::align::{
    genome_span, Aligner, AlignmentRecord, Emit, MapClass, PhaseWork, MULTIMAP_SCORE_RANGE,
};
use crate::quant::Assignment;
use crate::scratch::{with_thread_scratch, AlignScratch};
use genomics::FastqRecord;

/// Insert-size acceptance window for proper pairs.
#[derive(Clone, Copy, Debug)]
pub struct PairParams {
    /// Minimum outer distance (fragment length) of a proper pair.
    pub min_insert: u64,
    /// Maximum outer distance of a proper pair.
    pub max_insert: u64,
}

impl Default for PairParams {
    fn default() -> Self {
        PairParams { min_insert: 50, max_insert: 1_200 }
    }
}

/// Outcome of aligning one read pair.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// Fragment-level classification.
    pub class: MapClass,
    /// Primary alignment of mate 1 (when the pair mapped).
    pub rec1: Option<AlignmentRecord>,
    /// Primary alignment of mate 2.
    pub rec2: Option<AlignmentRecord>,
    /// Outer fragment length of the primary pair.
    pub insert_size: Option<u64>,
    /// Candidate pairings examined (work measure).
    pub pairs_examined: u32,
    /// Per-phase alignment work for both mates combined.
    pub work: PhaseWork,
    /// Where gene counting puts the fragment, when [`Emit::genes`] asked for it.
    pub genes: Option<Assignment>,
}

impl PairOutcome {
    /// Does the fragment count as mapped?
    pub fn is_mapped(&self) -> bool {
        self.class.is_mapped()
    }

    fn unmapped(pairs_examined: u32, work: PhaseWork, emit: Emit<'_>) -> PairOutcome {
        PairOutcome {
            class: MapClass::Unmapped,
            rec1: None,
            rec2: None,
            insert_size: None,
            pairs_examined,
            work,
            genes: emit.unmapped(),
        }
    }
}

/// One scored candidate pairing (pooled in [`AlignScratch`]).
#[derive(Debug)]
pub(crate) struct CandidatePair {
    pub(crate) i1: usize,
    pub(crate) i2: usize,
    pub(crate) score: i32,
    pub(crate) insert: u64,
}

impl<'i> Aligner<'i> {
    /// Align a read pair (FR orientation, default insert window) on this thread's
    /// scratch, read ids propagated into the records.
    pub fn align_pair(&self, r1: &FastqRecord, r2: &FastqRecord) -> PairOutcome {
        let mut out = with_thread_scratch(|scratch| {
            let emit = Emit { records: true, genes: None };
            self.align_pair_scratch(r1, r2, &PairParams::default(), scratch, emit)
        });
        if let Some(rec) = &mut out.rec1 {
            rec.read_id = r1.id.clone();
        }
        if let Some(rec) = &mut out.rec2 {
            rec.read_id = r2.id.clone();
        }
        out
    }

    /// The hot path: align a pair with explicit insert-size bounds through
    /// caller-provided scratch buffers, without cloning ids into the records (the
    /// run driver attaches ids only to records it keeps). `emit` says what to build,
    /// as for [`Aligner::align_seq_with`]: both mates' records, the fragment's gene
    /// assignment, both or neither.
    pub fn align_pair_scratch<'g>(
        &self,
        r1: &FastqRecord,
        r2: &FastqRecord,
        pp: &PairParams,
        scratch: &mut AlignScratch,
        emit: Emit<'g>,
    ) -> PairOutcome {
        let genome = self.index().genome();
        let AlignScratch { core, cands, cands2, pairs } = scratch;
        let mut work = self.candidates_into(&r1.seq, core, cands);
        let w2 = self.candidates_into(&r2.seq, core, cands2);
        work.add(&w2);
        if cands.is_empty() || cands2.is_empty() {
            return PairOutcome::unmapped(0, work, emit);
        }

        // Enumerate proper pairings: opposite orientation, same contig, facing
        // inward, insert within bounds.
        pairs.clear();
        for (i1, (rc1, wa1)) in cands.iter().enumerate() {
            for (i2, (rc2, wa2)) in cands2.iter().enumerate() {
                if rc1 == rc2 {
                    continue; // FR libraries: mates land on opposite strands
                }
                let contig1 = genome.contig_index_of(wa1.gstart);
                let contig2 = genome.contig_index_of(wa2.gstart);
                if contig1 != contig2 {
                    continue;
                }
                // The forward-strand mate must start before (or at) the reverse one;
                // the outer distance is the fragment length.
                let (fwd, rev) = if *rc1 { (wa2, wa1) } else { (wa1, wa2) };
                let fwd_start = fwd.gstart;
                let rev_end = rev.gstart + genome_span(&rev.cigar);
                if rev_end <= fwd_start {
                    continue; // facing outward
                }
                let insert = rev_end - fwd_start;
                if insert < pp.min_insert || insert > pp.max_insert {
                    continue;
                }
                pairs.push(CandidatePair { i1, i2, score: wa1.score + wa2.score, insert });
            }
        }
        let pairs_examined = pairs.len() as u32;
        if pairs.is_empty() {
            return PairOutcome::unmapped(0, work, emit);
        }

        let best_score = pairs.iter().map(|p| p.score).max().expect("non-empty");
        let n_hits = pairs
            .iter()
            .filter(|p| p.score + MULTIMAP_SCORE_RANGE >= best_score)
            .count() as u32;
        let best = pairs
            .iter()
            .max_by_key(|p| (p.score, std::cmp::Reverse(p.insert)))
            .expect("non-empty");

        let (rc1, wa1) = cands.get(best.i1);
        let (_, wa2) = cands2.get(best.i2);
        // Both mates must pass the per-read filters.
        if !self.passes_filters(wa1, r1.seq.len()) || !self.passes_filters(wa2, r2.seq.len()) {
            return PairOutcome::unmapped(pairs_examined, work, emit);
        }
        let class = self.class_for(n_hits);
        let (rec1, rec2) = if emit.records {
            (
                Some(self.record_for(*rc1, wa1, n_hits)),
                Some(self.record_for(!*rc1, wa2, n_hits)),
            )
        } else {
            (None, None)
        };
        let genes = emit.genes.map(|model| {
            Assignment::of(class, || {
                model.columns(self.placement(*rc1, wa1), Some(self.placement(!*rc1, wa2)))
            })
        });
        PairOutcome {
            class,
            rec1,
            rec2,
            insert_size: Some(best.insert),
            pairs_examined,
            work,
            genes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexParams, StarIndex};
    use crate::AlignParams;
    use genomics::simulate::ReadOrigin;
    use genomics::{
        Annotation, Assembly, EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator,
        Release, SimulatorParams,
    };

    /// Is the pair mapped under an explicit insert window?
    fn maps_within(aligner: &Aligner, r1: &FastqRecord, r2: &FastqRecord, pp: &PairParams) -> bool {
        let emit = Emit { records: false, genes: None };
        aligner.align_pair_scratch(r1, r2, pp, &mut AlignScratch::new(), emit).is_mapped()
    }

    fn setup() -> (Assembly, Annotation, StarIndex) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g).unwrap();
        let idx = StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap();
        (asm, ann, idx)
    }

    #[test]
    fn genomic_pairs_align_properly_with_correct_insert() {
        let (asm, ann, idx) = setup();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let mut params = SimulatorParams::for_library(LibraryType::BulkPolyA);
        params.exonic_fraction = 0.0;
        params.genomic_fraction = 1.0;
        params.error_rate = 0.0;
        let mut sim = ReadSimulator::new(&asm, &ann, params, 77).unwrap();
        let pairs = sim.simulate_pairs(150, "GP");
        let mut mapped = 0;
        let mut insert_ok = 0;
        for pair in &pairs {
            let out = aligner.align_pair(&pair.r1, &pair.r2);
            if out.is_mapped() {
                mapped += 1;
                let ReadOrigin::Genomic { contig, pos } = &pair.origin else { unreachable!() };
                let rec1 = out.rec1.as_ref().unwrap();
                let rec2 = out.rec2.as_ref().unwrap();
                assert_eq!(&*rec1.contig, contig.as_str());
                assert_eq!(&*rec2.contig, contig.as_str());
                assert!(rec1.reverse != rec2.reverse, "FR orientation");
                // Fragment start recovered (the forward mate's position).
                let fwd_pos = if rec1.reverse { rec2.pos } else { rec1.pos };
                assert!((fwd_pos as i64 - *pos as i64).unsigned_abs() <= 5);
                if out.insert_size.unwrap().abs_diff(pair.fragment_len as u64) <= 10 {
                    insert_ok += 1;
                }
            }
        }
        assert!(mapped as f64 / pairs.len() as f64 > 0.9, "mapped {mapped}/{}", pairs.len());
        assert!(insert_ok as f64 / mapped as f64 > 0.9, "insert accuracy {insert_ok}/{mapped}");
    }

    #[test]
    fn transcript_pairs_align_with_splices_allowed() {
        let (asm, ann, idx) = setup();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let mut params = SimulatorParams::for_library(LibraryType::BulkPolyA);
        params.exonic_fraction = 1.0;
        params.genomic_fraction = 0.0;
        // Wide insert window: spliced fragments span introns on the genome.
        let pp = PairParams { min_insert: 50, max_insert: 6_000 };
        let mut sim = ReadSimulator::new(&asm, &ann, params, 78).unwrap();
        let pairs = sim.simulate_pairs(200, "TP");
        let mapped = pairs
            .iter()
            .filter(|p| maps_within(&aligner, &p.r1, &p.r2, &pp))
            .count();
        assert!(mapped as f64 / pairs.len() as f64 > 0.8, "mapped {mapped}/{}", pairs.len());
    }

    #[test]
    fn junk_pairs_are_unmapped() {
        let (asm, ann, idx) = setup();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let mut params = SimulatorParams::for_library(LibraryType::SingleCell3Prime);
        params.exonic_fraction = 0.0;
        params.genomic_fraction = 0.0;
        let mut sim = ReadSimulator::new(&asm, &ann, params, 79).unwrap();
        for pair in sim.simulate_pairs(60, "JP") {
            assert!(!aligner.align_pair(&pair.r1, &pair.r2).is_mapped());
        }
    }

    #[test]
    fn mates_on_different_contigs_do_not_pair() {
        let (asm, _, idx) = setup();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let c1 = asm.contig("1").unwrap();
        let c2 = asm.contig("2").unwrap();
        let r1 = FastqRecord::with_uniform_quality("x/1".into(), c1.seq.subseq(500, 600), 35);
        let r2 = FastqRecord::with_uniform_quality(
            "x/2".into(),
            c2.seq.subseq(500, 600).reverse_complement(),
            35,
        );
        let out = aligner.align_pair(&r1, &r2);
        assert!(!out.is_mapped(), "cross-contig mates are not a proper pair");
    }

    #[test]
    fn same_strand_mates_do_not_pair() {
        let (asm, _, idx) = setup();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let c1 = asm.contig("1").unwrap();
        // Both mates forward: violates FR.
        let r1 = FastqRecord::with_uniform_quality("x/1".into(), c1.seq.subseq(500, 600), 35);
        let r2 = FastqRecord::with_uniform_quality("x/2".into(), c1.seq.subseq(700, 800), 35);
        assert!(!aligner.align_pair(&r1, &r2).is_mapped());
    }

    #[test]
    fn out_of_range_insert_is_rejected() {
        let (asm, _, idx) = setup();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let c1 = asm.contig("1").unwrap();
        // 5 kb apart: beyond the default 1.2 kb insert cap.
        let r1 = FastqRecord::with_uniform_quality("x/1".into(), c1.seq.subseq(500, 600), 35);
        let r2 = FastqRecord::with_uniform_quality(
            "x/2".into(),
            c1.seq.subseq(5_500, 5_600).reverse_complement(),
            35,
        );
        assert!(!aligner.align_pair(&r1, &r2).is_mapped());
        // But an explicit wider window accepts it.
        let wide = PairParams { min_insert: 50, max_insert: 10_000 };
        assert!(maps_within(&aligner, &r1, &r2, &wide));
    }

    #[test]
    fn pair_resolves_multimapping_that_single_ends_cannot() {
        // Mate 1 lands in a duplicated region (multi as a single read); mate 2 is
        // unique. The pair constraint disambiguates the fragment.
        let (asm, _, _) = setup();
        let mut contigs = asm.contigs.clone();
        // Duplicate a 600bp window of chromosome 1 onto a new scaffold.
        let chr1 = asm.contig("1").unwrap();
        contigs.push(genomics::Contig {
            name: "DUP1".into(),
            kind: genomics::ContigKind::UnplacedScaffold,
            seq: chr1.seq.subseq(1_000, 1_600),
        });
        let asm2 = Assembly { contigs, ..asm.clone() };
        let idx2 = StarIndex::build(&asm2, &Annotation::default(), &IndexParams::default()).unwrap();
        let aligner = Aligner::new(&idx2, AlignParams::default());

        // Mate 1 inside the duplicated window; mate 2 outside it (unique), 250bp
        // fragment starting at 900: r1 = [900,1000) fwd unique-ish... choose r1 in
        // dup region [1100,1200), r2 rc at [1250,1350) which is also in dup... use
        // fragment [1100, 1750): r2 at [1650,1750) OUTSIDE the duplicated window.
        let r1 = FastqRecord::with_uniform_quality("x/1".into(), chr1.seq.subseq(1_100, 1_200), 35);
        let single = aligner.align_read(&r1);
        assert!(
            matches!(single.class, MapClass::Multi(_)),
            "premise: mate 1 alone is multimapping, got {:?}",
            single.class
        );
        let r2 = FastqRecord::with_uniform_quality(
            "x/2".into(),
            chr1.seq.subseq(1_650, 1_750).reverse_complement(),
            35,
        );
        let out = aligner.align_pair(&r1, &r2);
        assert_eq!(out.class, MapClass::Unique, "pairing must disambiguate");
        assert_eq!(&*out.rec1.unwrap().contig, "1");
    }

    #[test]
    fn empty_reads_are_unmapped() {
        let (_, _, idx) = setup();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let empty = FastqRecord::with_uniform_quality("e/1".into(), genomics::DnaSeq::new(), 35);
        let out = aligner.align_pair(&empty, &empty);
        assert!(!out.is_mapped());
        assert_eq!(out.pairs_examined, 0);
    }
}
