//! Deterministic generator of synthetic Ensembl-style assemblies.
//!
//! The paper's Fig. 3 optimization is structural: the release-108 *toplevel* genome
//! carries a large mass of unlocalized/unplaced scaffolds whose sequence duplicates
//! (gene-dense) chromosomal regions; by release 111 most of those scaffolds have been
//! assigned to chromosome sites, so the toplevel FASTA — and hence the STAR index —
//! shrinks by ~2.9× and loses most of its duplicated repetitive content.
//!
//! [`EnsemblGenerator`] reproduces exactly that structure at laptop scale:
//!
//! * chromosomes are **identical across releases** (same seed path), so mapping rates
//!   stay nearly identical — the paper reports <1 % mean difference;
//! * release 108 adds *duplicating scaffolds*: mutated copies of segments drawn from
//!   gene-dense "hotspot" intervals, totalling `SCAFFOLD_EXTRA_RATIO ×` the chromosome
//!   length. Because they concentrate on hotspots, every genic read gains several extra
//!   candidate loci, which is what makes alignment an order of magnitude slower;
//! * a small mass of *novel scaffolds* (sequence absent from chromosomes) is present in
//!   **every** release: these are why the Atlas must use *toplevel* rather than
//!   *primary_assembly* — dropping them loses real genes;
//! * later releases retain a shrinking deterministic prefix of the duplicating
//!   scaffolds (release 111 keeps almost none).

use crate::genome::{Assembly, AssemblyKind, Contig, ContigKind};
use crate::seq::{Base, DnaSeq};
use crate::GenomicsError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Ensembl releases the paper discusses (§III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Release {
    R108,
    R109,
    R110,
    R111,
}

impl Release {
    /// The numeric release identifier.
    pub fn number(self) -> u32 {
        match self {
            Release::R108 => 108,
            Release::R109 => 109,
            Release::R110 => 110,
            Release::R111 => 111,
        }
    }

    /// Fraction of the duplicating scaffolds still present (unplaced) at this release.
    /// The big drop happens between 109 and 110, matching the paper's narrative.
    pub fn scaffold_retention(self) -> f64 {
        match self {
            Release::R108 => 1.0,
            Release::R109 => 0.92,
            Release::R110 => 0.05,
            Release::R111 => 0.02,
        }
    }

    /// All modeled releases, oldest first.
    pub const ALL: [Release; 4] = [Release::R108, Release::R109, Release::R110, Release::R111];
}

/// Master seed; every derived RNG is a pure function of this.
const SEED: u64 = 42;
/// Fraction of each chromosome covered by gene-dense hotspot intervals.
const HOTSPOT_FRACTION: f64 = 0.10;
/// Number of hotspot intervals per chromosome.
const HOTSPOTS_PER_CHROMOSOME: usize = 2;
/// Total duplicating-scaffold sequence as a multiple of total chromosome length
/// (release 108 value; later releases retain a prefix of it).
const SCAFFOLD_EXTRA_RATIO: f64 = 1.88;
/// Per-base substitution probability applied to scaffold copies (alt-haplotype
/// style divergence; must stay well below the aligner's mismatch tolerance so the
/// copies genuinely attract seeds).
const SCAFFOLD_DIVERGENCE: f64 = 0.009;
/// Total novel-scaffold sequence as a multiple of total chromosome length.
/// Present in all releases; carries real genes.
const NOVEL_SCAFFOLD_RATIO: f64 = 0.02;
/// Number of interspersed-repeat families seeded into chromosomes.
const REPEAT_FAMILIES: usize = 4;
/// Length of each repeat element.
const REPEAT_LEN: usize = 300;
/// Fraction of chromosome sequence occupied by repeat elements.
const REPEAT_FRACTION: f64 = 0.08;

/// Parameters controlling the synthetic assembly: its size. The rest of its shape
/// (seed, hotspots, scaffold ratios, repeats) is fixed by this module's constants.
///
/// Defaults are calibrated so that the release-108 : release-111 toplevel size ratio is
/// ≈2.9 (paper: 85 GiB vs 29.5 GiB index) and genic reads gain roughly an order of
/// magnitude more candidate alignment loci on release 108.
#[derive(Clone, Debug)]
pub struct EnsemblParams {
    /// Number of chromosomes.
    pub n_chromosomes: usize,
    /// Length of each chromosome in bases.
    pub chromosome_len: usize,
    /// Mean duplicating-scaffold length (actual lengths vary ±50 %).
    pub scaffold_mean_len: usize,
}

impl Default for EnsemblParams {
    fn default() -> Self {
        EnsemblParams { n_chromosomes: 4, chromosome_len: 400_000, scaffold_mean_len: 6_000 }
    }
}

impl EnsemblParams {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        EnsemblParams { n_chromosomes: 2, chromosome_len: 20_000, scaffold_mean_len: 1_500 }
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), GenomicsError> {
        if self.n_chromosomes == 0 || self.chromosome_len == 0 {
            return Err(GenomicsError::InvalidParams("need at least one non-empty chromosome".into()));
        }
        if self.scaffold_mean_len == 0 {
            return Err(GenomicsError::InvalidParams("scaffold_mean_len must be positive".into()));
        }
        Ok(())
    }
}

/// A half-open interval `[start, end)` on a chromosome.
pub type Interval = (usize, usize);

/// Deterministic assembly generator; see module docs for the model.
#[derive(Clone, Debug)]
pub struct EnsemblGenerator {
    params: EnsemblParams,
}

impl EnsemblGenerator {
    /// Create a generator. Fails if `params` are inconsistent.
    pub fn new(params: EnsemblParams) -> Result<EnsemblGenerator, GenomicsError> {
        params.validate()?;
        Ok(EnsemblGenerator { params })
    }

    /// The parameters in use.
    pub fn params(&self) -> &EnsemblParams {
        &self.params
    }

    fn rng_for(&self, stage: u64) -> StdRng {
        // Derive per-stage RNGs so chromosomes are identical no matter which release
        // or how many scaffolds are requested.
        StdRng::seed_from_u64(SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(stage))
    }

    /// Gene-dense hotspot intervals for chromosome `chrom` (deterministic).
    pub fn hotspots(&self, chrom: usize) -> Vec<Interval> {
        let p = &self.params;
        let mut rng = self.rng_for(1000 + chrom as u64);
        let per_len = ((p.chromosome_len as f64 * HOTSPOT_FRACTION)
            / HOTSPOTS_PER_CHROMOSOME as f64) as usize;
        let per_len = per_len.max(1).min(p.chromosome_len);
        // Place hotspots in disjoint equal slots so they never overlap.
        let slot = p.chromosome_len / HOTSPOTS_PER_CHROMOSOME;
        (0..HOTSPOTS_PER_CHROMOSOME)
            .map(|i| {
                let lo = i * slot;
                let max_start = lo + slot.saturating_sub(per_len);
                let start = if max_start > lo { rng.gen_range(lo..=max_start) } else { lo };
                (start, (start + per_len).min(p.chromosome_len))
            })
            .collect()
    }

    /// Generate the chromosome set (identical for every release).
    fn chromosomes(&self) -> Vec<Contig> {
        let p = &self.params;
        // Repeat family library shared across chromosomes.
        let mut fam_rng = self.rng_for(1);
        let families: Vec<DnaSeq> =
            (0..REPEAT_FAMILIES).map(|_| DnaSeq::random(&mut fam_rng, REPEAT_LEN)).collect();

        (0..p.n_chromosomes)
            .map(|i| {
                let mut rng = self.rng_for(2000 + i as u64);
                let mut seq = DnaSeq::random(&mut rng, p.chromosome_len);
                // Overwrite a fraction of the chromosome with slightly mutated repeat
                // elements — interspersed repeats are what make even a deduplicated
                // genome produce some multimapping seeds.
                if REPEAT_LEN < p.chromosome_len {
                    let n_elements =
                        ((p.chromosome_len as f64 * REPEAT_FRACTION) / REPEAT_LEN as f64) as usize;
                    for _ in 0..n_elements {
                        let fam = &families[rng.gen_range(0..families.len())];
                        let pos = rng.gen_range(0..p.chromosome_len - REPEAT_LEN);
                        let mutated = mutate(fam, 0.03, &mut rng);
                        overwrite(&mut seq, pos, &mutated);
                    }
                }
                Contig { name: format!("{}", i + 1), kind: ContigKind::Chromosome, seq }
            })
            .collect()
    }

    /// Number of complete duplication rounds implied by the ratio parameters: the
    /// hotspot copy number of the release-108 assembly.
    pub fn duplication_rounds(&self) -> usize {
        (SCAFFOLD_EXTRA_RATIO / HOTSPOT_FRACTION).round().max(1.0) as usize
    }

    /// Generate the full (release-108) list of duplicating scaffolds.
    ///
    /// Hotspots are tiled *uniformly*: every hotspot is copied in
    /// [`EnsemblGenerator::duplication_rounds`] complete rounds, each round cut into
    /// random-length chunks at fresh offsets. Uniform copy number matters: a genic
    /// read on release 108 then sees `rounds (+1)` candidate loci — enough to inflate
    /// alignment work by roughly that factor, but bounded so reads never trip STAR's
    /// `--outFilterMultimapNmax` and mapping rates stay within the paper's <1 % of
    /// the release-111 run.
    fn duplicating_scaffolds(&self, chromosomes: &[Contig]) -> Vec<Contig> {
        let p = &self.params;
        let rounds = self.duplication_rounds();
        let mut rng = self.rng_for(3);
        let mut scaffolds = Vec::new();
        let mut serial = 0u32;
        for _round in 0..rounds {
            for (ci, chrom) in chromosomes.iter().enumerate() {
                for (lo, hi) in self.hotspots(ci) {
                    // Cut this hotspot copy into random-length chunks.
                    let mut pos = lo;
                    while pos < hi {
                        let len = sample_len(p.scaffold_mean_len, &mut rng).min(hi - pos);
                        let segment = chrom.seq.subseq(pos, pos + len);
                        let seq = mutate(&segment, SCAFFOLD_DIVERGENCE, &mut rng);
                        serial += 1;
                        let kind = if rng.gen_bool(0.5) {
                            ContigKind::UnlocalizedScaffold
                        } else {
                            ContigKind::UnplacedScaffold
                        };
                        let prefix = if kind == ContigKind::UnlocalizedScaffold { "GL" } else { "KI" };
                        scaffolds.push(Contig { name: format!("{prefix}27{serial:04}.1"), kind, seq });
                        pos += len;
                    }
                }
            }
        }
        scaffolds
    }

    /// Generate the novel scaffolds (present in every release, carry real genes).
    fn novel_scaffolds(&self, total_chrom: usize) -> Vec<Contig> {
        let p = &self.params;
        let target = (total_chrom as f64 * NOVEL_SCAFFOLD_RATIO) as usize;
        if target == 0 {
            return Vec::new();
        }
        let mut rng = self.rng_for(4);
        let mut out = Vec::new();
        let mut emitted = 0usize;
        let mut serial = 0u32;
        while emitted < target {
            let len = sample_len(p.scaffold_mean_len, &mut rng);
            serial += 1;
            let seq = DnaSeq::random(&mut rng, len);
            emitted += len;
            out.push(Contig {
                name: format!("KN99{serial:04}.1"),
                kind: ContigKind::UnplacedScaffold,
                seq,
            });
        }
        out
    }

    /// Generate the *toplevel* assembly for `release`.
    pub fn generate(&self, release: Release) -> Assembly {
        let chromosomes = self.chromosomes();
        let total_chrom: usize = chromosomes.iter().map(Contig::len).sum();
        let dup = self.duplicating_scaffolds(&chromosomes);
        let retained = (dup.len() as f64 * release.scaffold_retention()).round() as usize;
        let novel = self.novel_scaffolds(total_chrom);

        let mut contigs = chromosomes;
        contigs.extend(dup.into_iter().take(retained));
        contigs.extend(novel);
        Assembly {
            name: "GRCh38-sim".into(),
            release: release.number(),
            kind: AssemblyKind::Toplevel,
            contigs,
        }
    }
}

/// Copy `src` over `dst` starting at `pos` (must fit).
fn overwrite(dst: &mut DnaSeq, pos: usize, src: &DnaSeq) {
    let mut codes = dst.codes().to_vec();
    codes[pos..pos + src.len()].copy_from_slice(src.codes());
    *dst = DnaSeq::from_codes(codes);
}

/// Apply i.i.d. substitutions with probability `rate` to a copy of `seq`.
fn mutate<R: Rng + ?Sized>(seq: &DnaSeq, rate: f64, rng: &mut R) -> DnaSeq {
    let mut out = DnaSeq::with_capacity(seq.len());
    for b in seq.iter() {
        if rate > 0.0 && rng.gen_bool(rate) {
            // Substitute with one of the three other bases.
            let mut nb = Base::random(rng);
            while nb == b {
                nb = Base::random(rng);
            }
            out.push(nb);
        } else {
            out.push(b);
        }
    }
    out
}

/// Sample a length uniformly in `[mean/2, 3*mean/2]`.
fn sample_len<R: Rng + ?Sized>(mean: usize, rng: &mut R) -> usize {
    let lo = (mean / 2).max(1);
    let hi = (mean * 3 / 2).max(lo + 1);
    rng.gen_range(lo..hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> EnsemblGenerator {
        EnsemblGenerator::new(EnsemblParams::tiny()).unwrap()
    }

    #[test]
    fn chromosomes_identical_across_releases() {
        let g = gen();
        let a108 = g.generate(Release::R108);
        let a111 = g.generate(Release::R111);
        let c108: Vec<_> = a108.chromosomes().collect();
        let c111: Vec<_> = a111.chromosomes().collect();
        assert_eq!(c108.len(), c111.len());
        for (a, b) in c108.iter().zip(&c111) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seq, b.seq);
        }
    }

    #[test]
    fn release_108_is_much_larger_than_111() {
        let g = gen();
        let a108 = g.generate(Release::R108);
        let a111 = g.generate(Release::R111);
        let ratio = a108.total_len() as f64 / a111.total_len() as f64;
        // Target is ~2.9 (paper: 85 GiB vs 29.5 GiB); allow generation slack.
        assert!(ratio > 2.3 && ratio < 3.3, "size ratio {ratio}");
        assert_eq!(a108.release, 108);
        assert_eq!(a111.release, 111);
    }

    #[test]
    fn retention_is_monotonically_decreasing() {
        let g = gen();
        let sizes: Vec<usize> = Release::ALL.iter().map(|&r| g.generate(r).total_len()).collect();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "sizes must not grow with release: {sizes:?}");
        }
    }

    #[test]
    fn novel_scaffolds_present_in_all_releases() {
        let g = gen();
        for r in Release::ALL {
            let a = g.generate(r);
            let novel = a.contigs.iter().filter(|c| c.name.starts_with("KN99")).count();
            assert!(novel > 0, "release {} lost novel scaffolds", r.number());
        }
        // And the same ones.
        let n108: Vec<_> =
            g.generate(Release::R108).contigs.iter().filter(|c| c.name.starts_with("KN99")).cloned().collect();
        let n111: Vec<_> =
            g.generate(Release::R111).contigs.iter().filter(|c| c.name.starts_with("KN99")).cloned().collect();
        assert_eq!(n108, n111);
    }

    #[test]
    fn duplicating_scaffolds_resemble_hotspot_sequence() {
        let g = gen();
        let a = g.generate(Release::R108);
        // Each duplicating scaffold (GL/KI prefix, not KN99) must be a near-copy of
        // SOME chromosome window: verify high identity at its source via scan of one.
        let scaffold = a
            .contigs
            .iter()
            .find(|c| c.kind != ContigKind::Chromosome && !c.name.starts_with("KN99"))
            .expect("tiny params still produce scaffolds");
        let probe_len = 60.min(scaffold.len());
        let probe = scaffold.seq.subseq(0, probe_len);
        let mut best = 0.0f64;
        for chrom in a.chromosomes() {
            for start in 0..chrom.len().saturating_sub(probe_len) {
                let id = probe.identity(&chrom.seq.subseq(start, start + probe_len));
                if id > best {
                    best = id;
                }
                if best > 0.95 {
                    break;
                }
            }
        }
        assert!(best > 0.9, "scaffold should match a chromosome window, best identity {best}");
    }

    #[test]
    fn hotspots_are_disjoint_in_bounds_and_deterministic() {
        let g = gen();
        let hs1 = g.hotspots(0);
        let hs2 = g.hotspots(0);
        assert_eq!(hs1, hs2);
        let len = g.params().chromosome_len;
        let mut prev_end = 0usize;
        for &(s, e) in &hs1 {
            assert!(s < e && e <= len);
            assert!(s >= prev_end, "hotspots must be disjoint and ordered");
            prev_end = e;
        }
        let covered: usize = hs1.iter().map(|&(s, e)| e - s).sum();
        let expect = (len as f64 * HOTSPOT_FRACTION) as usize;
        assert!((covered as i64 - expect as i64).unsigned_abs() as usize <= hs1.len() * 2);
    }

    #[test]
    fn generation_is_fully_deterministic() {
        let a = gen().generate(Release::R108);
        let b = gen().generate(Release::R108);
        assert_eq!(a.contigs.len(), b.contigs.len());
        for (x, y) in a.contigs.iter().zip(&b.contigs) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = EnsemblParams::tiny();
        p.n_chromosomes = 0;
        assert!(EnsemblGenerator::new(p).is_err());
    }
}
