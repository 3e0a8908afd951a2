//! Per-read alignment driver.
//!
//! [`Aligner::align_seq`] runs the full STAR-style pipeline for one read: seed both
//! orientations, window/stitch, extend every candidate chain, then apply STAR's
//! output filters (`--outFilterMatchNminOverLread`, `--outFilterMismatchNoverLmax`,
//! `--outFilterMultimapNmax`) and classify the read as uniquely mapped, multimapped,
//! mapped-to-too-many-loci, or unmapped.

use crate::extend::{extend_chain_into, WindowAlignment};
use crate::index::StarIndex;
use crate::mmp::SeedLayers;
use crate::params::AlignParams;
use crate::quant::{Assignment, GeneModel, Placement};
use crate::scratch::{with_thread_scratch, AlignScratch, CandSet, ScratchCore};
use crate::seed::collect_seeds_packed;
use crate::sjdb::SpliceClass;
use crate::stitch::best_chains_into;
use genomics::{DnaSeq, FastqRecord};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Candidate alignments within this score of the best count as multimapping hits
/// (`--outFilterMultimapScoreRange`).
pub const MULTIMAP_SCORE_RANGE: i32 = 1;
/// Minimum fraction of read bases matched for a mapped call
/// (`--outFilterMatchNminOverLread`, STAR default 0.66).
pub const MIN_MATCHED_OVER_READ_LEN: f64 = 0.66;
/// Maximum mismatches as a fraction of read length (`--outFilterMismatchNoverLmax`).
pub const MAX_MISMATCH_OVER_READ_LEN: f64 = 0.10;

/// CIGAR-lite operation (substitution-only model: no I/D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CigarOp {
    /// Aligned bases (matches + substitutions).
    M(u32),
    /// Intron skip.
    N(u32),
    /// Soft clip.
    S(u32),
}

impl fmt::Display for CigarOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CigarOp::M(n) => write!(f, "{n}M"),
            CigarOp::N(n) => write!(f, "{n}N"),
            CigarOp::S(n) => write!(f, "{n}S"),
        }
    }
}

/// Render a CIGAR vector as the usual compact string, e.g. `"5S45M400N50M"`.
pub fn cigar_string(ops: &[CigarOp]) -> String {
    ops.iter().map(|op| op.to_string()).collect()
}

/// Contig bases a CIGAR spans from its position: aligned (`M`) plus skipped (`N`).
pub fn genome_span(ops: &[CigarOp]) -> u64 {
    ops.iter()
        .map(|op| match op {
            CigarOp::M(n) | CigarOp::N(n) => *n as u64,
            CigarOp::S(_) => 0,
        })
        .sum()
}

/// Mapping classification, STAR `Log.final.out` vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapClass {
    /// Exactly one best locus.
    Unique,
    /// 2..=`outFilterMultimapNmax` loci (payload: locus count).
    Multi(u32),
    /// More loci than `outFilterMultimapNmax` (payload: locus count).
    TooMany(u32),
    /// No alignment passed the filters.
    Unmapped,
}

impl MapClass {
    /// Does this read count as "mapped" in the `Log.progress.out` mapped-% statistic
    /// (the quantity early stopping thresholds on)? Unique + multi do; too-many and
    /// unmapped do not, matching STAR's progress accounting.
    pub fn is_mapped(&self) -> bool {
        matches!(self, MapClass::Unique | MapClass::Multi(_))
    }
}

/// The primary alignment of a mapped read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AlignmentRecord {
    /// Read identifier (empty when aligning a bare sequence).
    pub read_id: String,
    /// Contig name (interned: cloning is an atomic refcount bump, not a heap copy).
    pub contig: Arc<str>,
    /// 0-based position on the contig of the first aligned base.
    pub pos: u64,
    /// True when the read aligned as its reverse complement.
    pub reverse: bool,
    /// CIGAR-lite operations.
    pub cigar: Vec<CigarOp>,
    /// Alignment score.
    pub score: i32,
    /// Mismatches in the aligned region.
    pub mismatches: u32,
    /// Number of loci the read mapped to (1 = unique).
    pub n_hits: u32,
    /// SAM-style mapping quality: 255 unique, 3 for 2 loci, 1 for 3–4, 0 beyond.
    pub mapq: u8,
    /// Splice junctions used, in contig-local coordinates with classification.
    pub junctions: Vec<(u64, u64, SpliceClass)>,
}

/// Work done per alignment phase, in abstract units (seeds collected, chains
/// stitched, extensions run). Purely a *measurement* — it never affects alignment
/// results — and it is thread-count invariant, so telemetry built from it replays
/// identically across runs. The atlas pipeline uses the unit ratios to split the
/// modeled `align` span into `align/seed`, `align/stitch`, and `align/extend`
/// sub-spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseWork {
    /// Seeds collected across both orientations.
    pub seed_units: u64,
    /// Candidate chains produced by stitching.
    pub stitch_units: u64,
    /// Chain extensions attempted.
    pub extend_units: u64,
    /// Dependent index loads the seed phase made ([`crate::mmp::SearchCost::probes`]):
    /// a cost counter, exact for a read like the units, but not one of them — it is
    /// left out of [`PhaseWork::total`] and [`PhaseWork::fractions`], so no modeled
    /// span moves with it.
    pub seed_probes: u64,
    /// Measured wall-clock nanoseconds in the seed phase. Zero unless
    /// [`crate::AlignParams::measure_phase_nanos`] is on; machine-dependent and
    /// NOT deterministic, so nothing modeled may read it.
    pub seed_nanos: u64,
    /// Measured wall-clock nanoseconds in the stitch phase (see `seed_nanos`).
    pub stitch_nanos: u64,
    /// Measured wall-clock nanoseconds in the extend phase (see `seed_nanos`).
    pub extend_nanos: u64,
}

impl PhaseWork {
    /// Accumulate another read's work.
    pub fn add(&mut self, other: &PhaseWork) {
        self.seed_units += other.seed_units;
        self.stitch_units += other.stitch_units;
        self.extend_units += other.extend_units;
        self.seed_probes += other.seed_probes;
        self.seed_nanos += other.seed_nanos;
        self.stitch_nanos += other.stitch_nanos;
        self.extend_nanos += other.extend_nanos;
    }

    /// Total units across all phases.
    pub fn total(&self) -> u64 {
        self.seed_units + self.stitch_units + self.extend_units
    }

    /// `(seed, stitch, extend)` as fractions of the total (zeros when no work).
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = self.total();
        if total == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.seed_units as f64 / t,
            self.stitch_units as f64 / t,
            self.extend_units as f64 / t,
        )
    }

    /// Total measured nanoseconds (zero when measurement was off).
    pub fn nanos_total(&self) -> u64 {
        self.seed_nanos + self.stitch_nanos + self.extend_nanos
    }
}

/// Zero-cost-when-off wall-clock timer for phase attribution. Disabled, both
/// methods are a branch on a bool — the hot path never touches the clock.
#[derive(Clone, Copy)]
struct PhaseTimer {
    enabled: bool,
}

impl PhaseTimer {
    fn new(enabled: bool) -> PhaseTimer {
        PhaseTimer { enabled }
    }

    fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    fn stop(&self, started: Option<Instant>, acc: &mut u64) {
        if let Some(t) = started {
            *acc += t.elapsed().as_nanos() as u64;
        }
    }
}

/// Outcome of aligning one read.
#[derive(Clone, Debug)]
pub struct AlignOutcome {
    /// Classification after filters.
    pub class: MapClass,
    /// The primary (best-scoring) alignment when mapped (also populated for
    /// `TooMany`, mirroring STAR's optional reporting; `None` when unmapped).
    pub primary: Option<AlignmentRecord>,
    /// Candidate loci inspected before filtering — a *work* measure: this is the
    /// quantity the release-108 index inflates (extension runs once per candidate).
    pub candidates_examined: u32,
    /// Per-phase work units spent on this read.
    pub work: PhaseWork,
    /// Where gene counting puts the read, when [`Emit::genes`] asked for it.
    pub genes: Option<Assignment>,
}

impl AlignOutcome {
    /// True when the read counts as mapped for progress statistics.
    pub fn is_mapped(&self) -> bool {
        self.class.is_mapped()
    }

    fn unmapped(candidates_examined: u32, work: PhaseWork, emit: Emit<'_>) -> AlignOutcome {
        AlignOutcome {
            class: MapClass::Unmapped,
            primary: None,
            candidates_examined,
            work,
            genes: emit.unmapped(),
        }
    }
}

/// What an alignment call builds besides the class, candidate count and phase work
/// it always reports.
#[derive(Clone, Copy, Debug)]
pub struct Emit<'g> {
    /// Build the primary [`AlignmentRecord`] (both mates' for a pair): for junction
    /// tallies, kept records, SAM.
    pub records: bool,
    /// Assign the read (or pair) to a gene against this model, from the best
    /// alignment's parts, without building a record.
    pub genes: Option<&'g GeneModel>,
}

impl Emit<'_> {
    /// The gene assignment of a read or pair that did not map.
    pub(crate) fn unmapped(&self) -> Option<Assignment> {
        self.genes.map(|_| Assignment::Unmapped)
    }
}

/// STAR-style mapping quality from the locus count.
fn mapq_for(n_hits: u32) -> u8 {
    match n_hits {
        1 => 255,
        2 => 3,
        3 | 4 => 1,
        _ => 0,
    }
}

/// The per-read aligner, borrowing an index.
pub struct Aligner<'i> {
    /// The index and the ladder of prefix tables every seed search starts from.
    layers: SeedLayers<'i>,
    params: AlignParams,
    /// Interned contig names, indexed like `genome().spans()`.
    contig_names: Vec<Arc<str>>,
}

impl<'i> Aligner<'i> {
    /// Create an aligner. Panics if `params` are invalid (validate first if unsure).
    pub fn new(index: &'i StarIndex, params: AlignParams) -> Aligner<'i> {
        params.validate().expect("invalid alignment parameters");
        let contig_names =
            index.genome().spans().iter().map(|s| Arc::from(s.name.as_str())).collect();
        Aligner { layers: SeedLayers::full(index), params, contig_names }
    }

    /// The index in use.
    pub fn index(&self) -> &'i StarIndex {
        self.layers.index()
    }

    /// Align a FASTQ record (read id propagated into the record).
    pub fn align_read(&self, read: &FastqRecord) -> AlignOutcome {
        let mut out = self.align_seq(&read.seq);
        if let Some(rec) = &mut out.primary {
            rec.read_id = read.id.clone();
        }
        out
    }

    /// Enumerate deduplicated candidate window alignments for a read, both
    /// orientations, into pooled buffers. Shared by single-end and paired-end
    /// alignment. After return, `out` holds candidates ordered by
    /// `(strand, gstart)` with exactly one (best-scoring, earliest-found) entry per
    /// locus — identical contents and order to the historical sort+dedup on a fresh
    /// `Vec`.
    pub(crate) fn candidates_into(
        &self,
        seq: &DnaSeq,
        core: &mut ScratchCore,
        out: &mut CandSet,
    ) -> PhaseWork {
        out.clear();
        let read_len = seq.len();
        let mut work = PhaseWork::default();
        if read_len == 0 {
            return work;
        }
        let index = self.layers.index();
        let genome = index.genome();
        let ScratchCore { rc, fwd, rcp, seeds, probe, stitch, chains } = core;
        rc.clear();
        rc.extend(seq.codes().iter().rev().map(|&c| 3 - c));
        fwd.pack_codes(seq.codes());
        rcp.pack_codes(rc);
        let timer = PhaseTimer::new(self.params.measure_phase_nanos);
        for (is_rc, read) in [(false, &*fwd), (true, &*rcp)] {
            let t = timer.start();
            collect_seeds_packed(&self.layers, read, &self.params, seeds, probe);
            timer.stop(t, &mut work.seed_nanos);
            work.seed_units += seeds.len() as u64;
            work.seed_probes += probe.cost().probes;
            let t = timer.start();
            best_chains_into(seeds, read_len, stitch, chains);
            timer.stop(t, &mut work.stitch_nanos);
            work.stitch_units += chains.len as u64;
            let t = timer.start();
            for chain in chains.live() {
                // Chains must stay within one contig (stitching across the
                // concatenation boundary is meaningless).
                let span_len = chain.gend() - chain.gstart();
                if !genome.fits_in_contig(chain.gstart(), span_len) {
                    continue;
                }
                work.extend_units += 1;
                let wa = out.slot(is_rc);
                if extend_chain_into(chain, read, genome, index.sjdb(), wa) {
                    out.commit();
                }
            }
            timer.stop(t, &mut work.extend_nanos);
        }
        out.finalize();
        work
    }

    /// Interned contig names, in the index's order: the order a [`GeneModel`] for
    /// this aligner is built with.
    pub fn contig_names(&self) -> &[Arc<str>] {
        &self.contig_names
    }

    /// A candidate as the gene model reads it (contig index, local start).
    pub(crate) fn placement<'w>(&self, is_rc: bool, wa: &'w WindowAlignment) -> Placement<'w> {
        let (contig, pos) = self.layers.index().genome().to_local(wa.gstart);
        Placement { contig, pos, reverse: is_rc, cigar: &wa.cigar }
    }

    /// Build the public record for a candidate (contig-local coordinates).
    pub(crate) fn record_for(&self, is_rc: bool, wa: &WindowAlignment, n_hits: u32) -> AlignmentRecord {
        let genome = self.layers.index().genome();
        let (contig_idx, local) = genome.to_local(wa.gstart);
        let span = &genome.spans()[contig_idx];
        AlignmentRecord {
            read_id: String::new(),
            contig: self.contig_names[contig_idx].clone(),
            pos: local,
            reverse: is_rc,
            junctions: wa
                .junctions
                .iter()
                .map(|&(s, e, c)| (s - span.start, e - span.start, c))
                .collect(),
            cigar: wa.cigar.clone(),
            score: wa.score,
            mismatches: wa.mismatches,
            n_hits,
            mapq: mapq_for(n_hits),
        }
    }

    /// Classify a read (or pair) whose best alignment passed the filters by its
    /// locus count, against `--outFilterMultimapNmax`.
    pub(crate) fn class_for(&self, n_hits: u32) -> MapClass {
        match n_hits {
            1 => MapClass::Unique,
            n if n as usize <= self.params.out_filter_multimap_nmax => MapClass::Multi(n),
            n => MapClass::TooMany(n),
        }
    }

    /// Does a candidate's best alignment pass the output filters?
    pub(crate) fn passes_filters(&self, wa: &WindowAlignment, read_len: usize) -> bool {
        let matched_frac = wa.matched() as f64 / read_len.max(1) as f64;
        let mm_frac = wa.mismatches as f64 / read_len.max(1) as f64;
        matched_frac >= MIN_MATCHED_OVER_READ_LEN && mm_frac <= MAX_MISMATCH_OVER_READ_LEN
    }

    /// Align a bare sequence (uses this thread's scratch buffers).
    pub fn align_seq(&self, seq: &DnaSeq) -> AlignOutcome {
        let emit = Emit { records: true, genes: None };
        with_thread_scratch(|scratch| self.align_seq_with(seq, scratch, emit))
    }

    /// The hot path: align a bare sequence through caller-provided scratch buffers.
    /// `emit` says what to build beyond classification, candidate counts and phase
    /// work, which are always exact: the [`AlignmentRecord`], the gene
    /// [`Assignment`], both or neither. The run driver calls this on each
    /// worker's thread scratch, assigns genes there, and attaches read ids
    /// afterwards, only to records it keeps; [`Aligner::align_seq`] and
    /// [`Aligner::align_read`] are the two convenience forms.
    pub fn align_seq_with<'g>(
        &self,
        seq: &DnaSeq,
        scratch: &mut AlignScratch,
        emit: Emit<'g>,
    ) -> AlignOutcome {
        let read_len = seq.len();
        if read_len == 0 {
            return AlignOutcome::unmapped(0, PhaseWork::default(), emit);
        }
        let AlignScratch { core, cands, .. } = scratch;
        let work = self.candidates_into(seq, core, cands);
        let candidates_examined = cands.len() as u32;
        if cands.is_empty() {
            return AlignOutcome::unmapped(candidates_examined, work, emit);
        }

        let best_score = cands.iter().map(|(_, wa)| wa.score).max().expect("non-empty");
        let (best_rc, best_wa) = cands
            .iter()
            .find(|(_, wa)| wa.score == best_score)
            .expect("best exists");

        // Output filters (on the best alignment, like STAR).
        if !self.passes_filters(best_wa, read_len) {
            return AlignOutcome::unmapped(candidates_examined, work, emit);
        }

        let n_hits = cands
            .iter()
            .filter(|(_, wa)| wa.score + MULTIMAP_SCORE_RANGE >= best_score)
            .count() as u32;
        let class = self.class_for(n_hits);
        let primary = emit.records.then(|| self.record_for(*best_rc, best_wa, n_hits));
        let genes = emit.genes.map(|model| {
            Assignment::of(class, || model.columns(self.placement(*best_rc, best_wa), None))
        });
        AlignOutcome { class, primary, candidates_examined, work, genes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexParams;
    use genomics::annotation::{Annotation, Exon, Gene, Strand};
    use genomics::{Assembly, AssemblyKind, Contig, ContigKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_seq(seed: u64, len: usize) -> DnaSeq {
        DnaSeq::random(&mut StdRng::seed_from_u64(seed), len)
    }

    fn build_index<S: Into<String>>(contigs: Vec<(S, DnaSeq)>, ann: Annotation) -> StarIndex {
        let asm = Assembly {
            name: "T".into(),
            release: 1,
            kind: AssemblyKind::Toplevel,
            contigs: contigs
                .into_iter()
                .map(|(n, seq)| Contig { name: n.into(), kind: ContigKind::Chromosome, seq })
                .collect(),
        };
        StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap()
    }

    #[test]
    fn unique_forward_read_maps_uniquely() {
        let chr = random_seq(1, 3000);
        let idx = build_index(vec![("1", chr.clone())], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        let out = aligner.align_seq(&chr.subseq(1200, 1300));
        assert_eq!(out.class, MapClass::Unique);
        let rec = out.primary.unwrap();
        assert_eq!(&*rec.contig, "1");
        assert_eq!(rec.pos, 1200);
        assert!(!rec.reverse);
        assert_eq!(rec.mapq, 255);
        assert_eq!(cigar_string(&rec.cigar), "100M");
    }

    #[test]
    fn reverse_complement_read_maps_with_reverse_flag() {
        let chr = random_seq(2, 3000);
        let idx = build_index(vec![("1", chr.clone())], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        let out = aligner.align_seq(&chr.subseq(500, 600).reverse_complement());
        assert_eq!(out.class, MapClass::Unique);
        let rec = out.primary.unwrap();
        assert_eq!(rec.pos, 500);
        assert!(rec.reverse);
    }

    #[test]
    fn duplicated_locus_classifies_as_multi() {
        let chr = random_seq(3, 2000);
        // Second contig duplicates a window of chromosome 1 (a "scaffold").
        let dup = chr.subseq(800, 1400);
        let idx = build_index(vec![("1", chr.clone()), ("KI1", dup)], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        let out = aligner.align_seq(&chr.subseq(1000, 1100));
        match out.class {
            MapClass::Multi(n) => assert_eq!(n, 2),
            other => panic!("expected Multi(2), got {other:?}"),
        }
        assert!(out.is_mapped());
        let rec = out.primary.unwrap();
        assert_eq!(rec.mapq, 3);
    }

    #[test]
    fn too_many_loci_is_not_counted_mapped() {
        let unit = random_seq(4, 300);
        // 12 copies > default multimap cap of 10.
        let mut contigs = Vec::new();
        for i in 0..12 {
            contigs.push((format!("c{i}"), unit.clone()));
        }
        let idx = build_index(contigs, Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        let out = aligner.align_seq(&unit.subseq(100, 200));
        match out.class {
            MapClass::TooMany(n) => assert_eq!(n, 12),
            other => panic!("expected TooMany, got {other:?}"),
        }
        assert!(!out.is_mapped());
        assert_eq!(out.primary.as_ref().unwrap().mapq, 0);
    }

    #[test]
    fn junk_read_is_unmapped() {
        let chr = random_seq(5, 3000);
        let idx = build_index(vec![("1", chr)], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        for junk in [
            DnaSeq::from_codes(vec![0; 100]),          // poly-A
            random_seq(999, 100),                      // random 100-mer, absent
        ] {
            let out = aligner.align_seq(&junk);
            assert_eq!(out.class, MapClass::Unmapped, "junk {junk:?}");
            assert!(out.primary.is_none());
        }
    }

    #[test]
    fn low_identity_read_fails_match_fraction_filter() {
        let chr = random_seq(6, 3000);
        let idx = build_index(vec![("1", chr.clone())], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        // 40 genomic bases + 60 random: matched fraction ~0.4 < 0.66.
        let mut read = chr.subseq(100, 140);
        read.extend_from(&random_seq(1234, 60));
        let out = aligner.align_seq(&read);
        assert_eq!(out.class, MapClass::Unmapped);
    }

    #[test]
    fn spliced_read_reports_local_junction_coordinates() {
        let chr = random_seq(7, 5000);
        let gene = Gene {
            id: "G".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 2000, end: 2100 }, Exon { start: 2600, end: 2700 }],
        };
        let idx = build_index(vec![("1", chr.clone())], Annotation { genes: vec![gene] });
        let aligner = Aligner::new(&idx, AlignParams::default());
        let mut read = chr.subseq(2050, 2100);
        read.extend_from(&chr.subseq(2600, 2650));
        let out = aligner.align_seq(&read);
        assert_eq!(out.class, MapClass::Unique);
        let rec = out.primary.unwrap();
        assert_eq!(rec.pos, 2050);
        assert_eq!(rec.junctions, vec![(2100, 2600, SpliceClass::Annotated)]);
        assert_eq!(cigar_string(&rec.cigar), "50M500N50M");
    }

    #[test]
    fn align_read_propagates_id() {
        let chr = random_seq(8, 2000);
        let idx = build_index(vec![("1", chr.clone())], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        let fq = FastqRecord::with_uniform_quality("SRR1.7".into(), chr.subseq(0, 100), 35);
        let out = aligner.align_read(&fq);
        assert_eq!(out.primary.unwrap().read_id, "SRR1.7");
    }

    #[test]
    fn empty_read_is_unmapped() {
        let chr = random_seq(9, 1000);
        let idx = build_index(vec![("1", chr)], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        let out = aligner.align_seq(&DnaSeq::new());
        assert_eq!(out.class, MapClass::Unmapped);
        assert_eq!(out.candidates_examined, 0);
    }

    #[test]
    fn candidates_examined_grows_with_duplication() {
        let chr = random_seq(10, 2000);
        let dup1 = chr.subseq(500, 1500);
        let dup2 = chr.subseq(500, 1500);
        let idx_plain = build_index(vec![("1", chr.clone())], Annotation::default());
        let idx_dup = build_index(
            vec![("1", chr.clone()), ("KI1", dup1), ("KI2", dup2)],
            Annotation::default(),
        );
        let read = chr.subseq(900, 1000);
        let a1 = Aligner::new(&idx_plain, AlignParams::default());
        let a2 = Aligner::new(&idx_dup, AlignParams::default());
        let c1 = a1.align_seq(&read).candidates_examined;
        let c2 = a2.align_seq(&read).candidates_examined;
        assert!(c2 > c1, "duplication must inflate candidate work: {c1} vs {c2}");
    }

    #[test]
    fn phase_work_is_counted_and_deterministic() {
        let chr = random_seq(11, 2000);
        let idx = build_index(vec![("1", chr.clone())], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        let out = aligner.align_seq(&chr.subseq(100, 200));
        assert!(out.work.seed_units > 0, "a mapping read collects seeds");
        assert!(out.work.extend_units > 0, "a mapping read extends at least one chain");
        assert_eq!(out.work, aligner.align_seq(&chr.subseq(100, 200)).work);
        let (fs, ft, fe) = out.work.fractions();
        assert!((fs + ft + fe - 1.0).abs() < 1e-12);
        assert_eq!(aligner.align_seq(&DnaSeq::new()).work, PhaseWork::default());
        assert_eq!(PhaseWork::default().fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn phase_nanos_measured_only_behind_the_gate() {
        let chr = random_seq(11, 2000);
        let idx = build_index(vec![("1", chr.clone())], Annotation::default());
        let aligner = Aligner::new(&idx, AlignParams::default());
        let off = aligner.align_seq(&chr.subseq(100, 200)).work;
        assert_eq!(off.nanos_total(), 0, "gate off: the clock is never read");
        let params = AlignParams { measure_phase_nanos: true, ..AlignParams::default() };
        let timed = Aligner::new(&idx, params);
        let on = timed.align_seq(&chr.subseq(100, 200)).work;
        assert_eq!(
            (on.seed_units, on.stitch_units, on.extend_units),
            (off.seed_units, off.stitch_units, off.extend_units),
            "measurement never changes the work counts"
        );
        assert!(on.nanos_total() > 0, "gate on: phases were timed");
    }

    #[test]
    fn mapq_ladder() {
        assert_eq!(mapq_for(1), 255);
        assert_eq!(mapq_for(2), 3);
        assert_eq!(mapq_for(3), 1);
        assert_eq!(mapq_for(4), 1);
        assert_eq!(mapq_for(5), 0);
    }

    #[test]
    fn cigar_string_renders_compactly() {
        assert_eq!(cigar_string(&[CigarOp::S(5), CigarOp::M(45), CigarOp::N(400), CigarOp::M(50)]), "5S45M400N50M");
    }
}
