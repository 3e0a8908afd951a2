//! GTF-lite gene annotation model.
//!
//! STAR's `--quantMode GeneCounts` needs a gene/exon model: reads are counted per gene
//! by overlap with exons (ReadsPerGene.out.tab). This module provides the minimal
//! structures — genes with ordered exons on stranded contigs — plus a deterministic
//! annotation simulator that places genes preferentially inside the generator's
//! gene-dense hotspots (which is what couples gene expression to the duplicated
//! scaffolds of release 108 and produces the Fig. 3 slowdown).

use crate::ensembl::{EnsemblGenerator, Interval};
use crate::genome::{Assembly, ContigKind};
use crate::seq::DnaSeq;
use crate::GenomicsError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;

/// Transcription strand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strand {
    Forward,
    Reverse,
}

impl Strand {
    /// GTF column-7 character.
    pub fn symbol(self) -> char {
        match self {
            Strand::Forward => '+',
            Strand::Reverse => '-',
        }
    }
}

/// One exon: a half-open genomic interval `[start, end)` on the gene's contig.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exon {
    pub start: usize,
    pub end: usize,
}

impl Exon {
    /// Exon length in bases.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for a degenerate zero-length exon (never produced by the simulator).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A gene: ordered, non-overlapping exons on one strand of one contig.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gene {
    /// Stable identifier, e.g. `"ENSGSIM0000012"`.
    pub id: String,
    /// Contig (chromosome or scaffold) name the gene lies on.
    pub contig: String,
    /// Transcription strand.
    pub strand: Strand,
    /// Exons in genomic order (ascending `start`), non-overlapping.
    pub exons: Vec<Exon>,
}

impl Gene {
    /// Genomic span `[start, end)` from first exon start to last exon end.
    pub fn span(&self) -> (usize, usize) {
        (self.exons.first().map_or(0, |e| e.start), self.exons.last().map_or(0, |e| e.end))
    }

    /// Sum of exon lengths = mature transcript length.
    pub fn transcript_len(&self) -> usize {
        self.exons.iter().map(Exon::len).sum()
    }

    /// Extract the mature (spliced) transcript sequence from the assembly.
    ///
    /// Exons are concatenated in genomic order; for a reverse-strand gene the result
    /// is reverse-complemented, matching how mRNA reads present in FASTQ.
    pub fn transcript(&self, assembly: &Assembly) -> Result<DnaSeq, GenomicsError> {
        let contig = assembly
            .contig(&self.contig)
            .ok_or_else(|| GenomicsError::NotFound(format!("contig {}", self.contig)))?;
        for e in &self.exons {
            if e.end > contig.len() {
                return Err(GenomicsError::InvalidParams(format!(
                    "exon {}..{} beyond contig {} (len {})",
                    e.start,
                    e.end,
                    self.contig,
                    contig.len()
                )));
            }
        }
        let mut t = DnaSeq::with_capacity(self.transcript_len());
        for e in &self.exons {
            t.extend_from(&contig.seq.subseq(e.start, e.end));
        }
        Ok(match self.strand {
            Strand::Forward => t,
            Strand::Reverse => t.reverse_complement(),
        })
    }

    /// Validate exon ordering/disjointness invariants.
    pub fn validate(&self) -> Result<(), GenomicsError> {
        if self.exons.is_empty() {
            return Err(GenomicsError::InvalidParams(format!("gene {} has no exons", self.id)));
        }
        let mut prev_end = 0usize;
        for (i, e) in self.exons.iter().enumerate() {
            if e.is_empty() {
                return Err(GenomicsError::InvalidParams(format!("gene {} exon {i} empty", self.id)));
            }
            if i > 0 && e.start < prev_end {
                return Err(GenomicsError::InvalidParams(format!(
                    "gene {} exon {i} overlaps/disorders previous",
                    self.id
                )));
            }
            prev_end = e.end;
        }
        Ok(())
    }
}

/// A full gene annotation for an assembly.
#[derive(Clone, Debug, Default)]
pub struct Annotation {
    /// All genes, in generation order (stable ids `ENSGSIM{serial:07}`).
    pub genes: Vec<Gene>,
}

/// Seed for the annotation RNG (independent of the assembly seed).
const SEED: u64 = 7;
/// Genes placed per hotspot interval.
const GENES_PER_HOTSPOT: usize = 8;
/// Genes placed outside hotspots, per chromosome.
const BACKGROUND_GENES_PER_CHROMOSOME: usize = 4;
/// Genes placed on each novel scaffold that is long enough.
const GENES_PER_NOVEL_SCAFFOLD: usize = 1;
/// Exon count range.
const EXONS_PER_GENE: RangeInclusive<usize> = 2..=6;
/// Exon length range.
const EXON_LEN: RangeInclusive<usize> = 120..=360;
/// Intron length range.
const INTRON_LEN: RangeInclusive<usize> = 150..=900;

impl Annotation {
    /// Number of genes.
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// True when no genes are annotated.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Look up a gene by id.
    pub fn gene(&self, id: &str) -> Option<&Gene> {
        self.genes.iter().find(|g| g.id == id)
    }

    /// Simulate an annotation for `assembly`, using the generator's hotspot layout so
    /// genes concentrate where release-108 scaffolds duplicate sequence.
    ///
    /// Genes on chromosomes are placed first (hotspot genes, then background genes),
    /// then one gene per sufficiently long novel scaffold. All placement is
    /// deterministic: the RNG has a fixed seed of its own.
    pub fn simulate(
        assembly: &Assembly,
        generator: &EnsemblGenerator,
    ) -> Result<Annotation, GenomicsError> {
        let mut rng = StdRng::seed_from_u64(SEED.wrapping_mul(0xD134_2543_DE82_EF95));
        let mut genes = Vec::new();
        let mut serial = 0u32;
        // Genes never overlap (real gene bodies rarely do, and overlap would turn
        // most unique exonic reads into `N_ambiguous` GeneCounts): track occupied
        // spans per contig and retry placements that collide.
        let mut occupied: std::collections::HashMap<&str, Vec<(usize, usize)>> =
            std::collections::HashMap::new();

        let chroms: Vec<_> = assembly.chromosomes().collect();
        for (ci, chrom) in chroms.iter().enumerate() {
            for hs in generator.hotspots(ci) {
                for _ in 0..GENES_PER_HOTSPOT {
                    if let Some(g) = place_gene_disjoint(
                        &mut rng,
                        &chrom.name,
                        hs,
                        &mut serial,
                        occupied.entry(chrom.name.as_str()).or_default(),
                    ) {
                        genes.push(g);
                    }
                }
            }
            for _ in 0..BACKGROUND_GENES_PER_CHROMOSOME {
                let span = (0, chrom.len());
                if let Some(g) = place_gene_disjoint(
                    &mut rng,
                    &chrom.name,
                    span,
                    &mut serial,
                    occupied.entry(chrom.name.as_str()).or_default(),
                ) {
                    genes.push(g);
                }
            }
        }

        for contig in &assembly.contigs {
            if contig.kind != ContigKind::Chromosome && contig.name.starts_with("KN99") {
                for _ in 0..GENES_PER_NOVEL_SCAFFOLD {
                    let span = (0, contig.len());
                    if let Some(g) = place_gene_disjoint(
                        &mut rng,
                        &contig.name,
                        span,
                        &mut serial,
                        occupied.entry(contig.name.as_str()).or_default(),
                    ) {
                        genes.push(g);
                    }
                }
            }
        }

        let ann = Annotation { genes };
        for g in &ann.genes {
            g.validate()?;
        }
        Ok(ann)
    }

    /// Render in a GTF-like tab-separated text form (exon rows only).
    pub fn to_gtf(&self) -> String {
        let mut out = String::new();
        for g in &self.genes {
            for (i, e) in g.exons.iter().enumerate() {
                // GTF is 1-based inclusive.
                out.push_str(&format!(
                    "{}\tsim\texon\t{}\t{}\t.\t{}\t.\tgene_id \"{}\"; exon_number {};\n",
                    g.contig,
                    e.start + 1,
                    e.end,
                    g.strand.symbol(),
                    g.id,
                    i + 1
                ));
            }
        }
        out
    }
}

/// Place one gene within `region` of `contig` without overlapping `occupied` spans;
/// retries a handful of layouts, then gives up (dense regions simply hold fewer
/// genes). Successful placements are recorded in `occupied`.
fn place_gene_disjoint(
    rng: &mut StdRng,
    contig: &str,
    region: Interval,
    serial: &mut u32,
    occupied: &mut Vec<(usize, usize)>,
) -> Option<Gene> {
    const ATTEMPTS: usize = 12;
    for _ in 0..ATTEMPTS {
        let mut trial_serial = *serial;
        if let Some(gene) = place_gene(rng, contig, region, &mut trial_serial) {
            let (start, end) = gene.span();
            if occupied.iter().all(|&(s, e)| end <= s || start >= e) {
                occupied.push((start, end));
                *serial = trial_serial;
                return Some(gene);
            }
        } else {
            return None; // the region cannot hold a gene at all
        }
    }
    None
}

/// Try to place one gene within `region` of `contig`; returns `None` when the region
/// is too small to hold even a single-exon gene.
fn place_gene(
    rng: &mut StdRng,
    contig: &str,
    region: Interval,
    serial: &mut u32,
) -> Option<Gene> {
    let (lo, hi) = region;
    if hi <= lo {
        return None;
    }
    let avail = hi - lo;
    let n_exons = rng.gen_range(EXONS_PER_GENE);
    // Draw a gene body layout, shrinking the exon count until it fits.
    for n in (1..=n_exons).rev() {
        let exon_lens: Vec<usize> =
            (0..n).map(|_| rng.gen_range(EXON_LEN)).collect();
        let intron_lens: Vec<usize> = (0..n.saturating_sub(1))
            .map(|_| rng.gen_range(INTRON_LEN))
            .collect();
        let body: usize = exon_lens.iter().sum::<usize>() + intron_lens.iter().sum::<usize>();
        if body >= avail {
            continue;
        }
        let start = lo + rng.gen_range(0..avail - body);
        let mut exons = Vec::with_capacity(n);
        let mut pos = start;
        for (i, &el) in exon_lens.iter().enumerate() {
            exons.push(Exon { start: pos, end: pos + el });
            pos += el;
            if i < intron_lens.len() {
                pos += intron_lens[i];
            }
        }
        *serial += 1;
        let strand = if rng.gen_bool(0.5) { Strand::Forward } else { Strand::Reverse };
        return Some(Gene { id: format!("ENSGSIM{serial:07}"), contig: contig.to_string(), strand, exons });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensembl::{EnsemblParams, Release};

    fn setup() -> (Assembly, EnsemblGenerator, Annotation) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let a = g.generate(Release::R111);
        let ann = Annotation::simulate(&a, &g).unwrap();
        (a, g, ann)
    }

    #[test]
    fn simulated_genes_validate_and_fit_contigs() {
        let (a, _, ann) = setup();
        assert!(!ann.is_empty());
        for g in &ann.genes {
            g.validate().unwrap();
            let contig = a.contig(&g.contig).unwrap();
            let (_, end) = g.span();
            assert!(end <= contig.len(), "gene {} exceeds contig", g.id);
        }
    }

    #[test]
    fn genes_concentrate_in_hotspots() {
        let (_, g, ann) = setup();
        let hotspots0 = g.hotspots(0);
        let on_chr1: Vec<_> = ann.genes.iter().filter(|g| g.contig == "1").collect();
        let in_hs = on_chr1
            .iter()
            .filter(|gene| {
                let (s, _) = gene.span();
                hotspots0.iter().any(|&(lo, hi)| s >= lo && s < hi)
            })
            .count();
        assert!(
            in_hs * 2 > on_chr1.len(),
            "majority of genes should be in hotspots: {in_hs}/{}",
            on_chr1.len()
        );
    }

    #[test]
    fn novel_scaffolds_carry_genes() {
        let (_, _, ann) = setup();
        assert!(
            ann.genes.iter().any(|g| g.contig.starts_with("KN99")),
            "novel scaffolds must carry genes (the reason toplevel matters)"
        );
    }

    #[test]
    fn transcript_concatenates_exons_and_respects_strand() {
        let (a, _, _) = setup();
        let chrom = a.contig("1").unwrap();
        let gene = Gene {
            id: "G".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 10, end: 20 }, Exon { start: 50, end: 55 }],
        };
        let t = gene.transcript(&a).unwrap();
        assert_eq!(t.len(), 15);
        let mut expect = chrom.seq.subseq(10, 20);
        expect.extend_from(&chrom.seq.subseq(50, 55));
        assert_eq!(t, expect);

        let rev = Gene { strand: Strand::Reverse, ..gene };
        assert_eq!(rev.transcript(&a).unwrap(), expect.reverse_complement());
    }

    #[test]
    fn transcript_errors_on_missing_contig_or_bad_exon() {
        let (a, _, _) = setup();
        let g = Gene {
            id: "G".into(),
            contig: "nope".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 0, end: 5 }],
        };
        assert!(g.transcript(&a).is_err());
        let g2 = Gene {
            id: "G2".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 0, end: usize::MAX / 2 }],
        };
        assert!(g2.transcript(&a).is_err());
    }

    #[test]
    fn validate_rejects_bad_exon_structures() {
        let bad_overlap = Gene {
            id: "B".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 0, end: 10 }, Exon { start: 5, end: 15 }],
        };
        assert!(bad_overlap.validate().is_err());
        let empty_exon = Gene {
            id: "E".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 3, end: 3 }],
        };
        assert!(empty_exon.validate().is_err());
        let no_exons =
            Gene { id: "N".into(), contig: "1".into(), strand: Strand::Forward, exons: vec![] };
        assert!(no_exons.validate().is_err());
    }

    #[test]
    fn gtf_rendering_is_one_based_inclusive() {
        let g = Gene {
            id: "X".into(),
            contig: "1".into(),
            strand: Strand::Reverse,
            exons: vec![Exon { start: 0, end: 10 }],
        };
        let gtf = Annotation { genes: vec![g] }.to_gtf();
        assert!(gtf.contains("\texon\t1\t10\t"), "{gtf}");
        assert!(gtf.contains("\t-\t"));
        assert!(gtf.contains("gene_id \"X\""));
    }

    #[test]
    fn annotation_is_deterministic() {
        let (_, _, a1) = setup();
        let (_, _, a2) = setup();
        assert_eq!(a1.genes, a2.genes);
    }
}
