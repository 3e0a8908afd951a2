//! `--quantMode GeneCounts` — per-gene read counting (ReadsPerGene.out.tab).
//!
//! STAR counts *uniquely mapped* reads per gene while mapping, producing a table with
//! four columns: gene id, unstranded count, and the two stranded counts. Reads
//! overlapping no gene's exons go to `N_noFeature`, reads overlapping several genes to
//! `N_ambiguous`, multimappers to `N_multimapping`, unmapped reads to `N_unmapped` —
//! the same header rows as the real output file.
//!
//! Counting is split in two, so that the per-read half runs beside the alignment:
//!
//! * [`GeneModel`] is immutable: every exon as an interval on its contig, contigs
//!   numbered in the index's order, so finding a contig's exons is a slice index.
//!   [`GeneModel::columns`] reads a unique fragment from its alignment's parts
//!   ([`Placement`]: contig index, local start, strand, CIGAR) and returns where each
//!   strandedness column puts it. It is pure and allocates nothing, so the runner's
//!   workers call it right after aligning, with no [`crate::align::AlignmentRecord`]
//!   built.
//! * [`GeneCounts`] is the table. [`GeneCounts::add`] takes the fragment's
//!   [`Assignment`], a `Copy` value, and increments one counter per column: that is
//!   all that remains of quant on the run's sequential half.
//!
//! That is the one counting path: a caller that wants gene counts either runs
//! [`crate::runner::Runner`] with `quant` on, or aligns with
//! [`crate::align::Emit::genes`] set and adds each outcome's [`Assignment`] to a
//! [`GeneCounts`].

use crate::align::{CigarOp, MapClass};
use crate::StarError;
use genomics::annotation::{Annotation, Strand};

/// Strandedness column selector, mirroring ReadsPerGene.out.tab columns 2–4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strandedness {
    /// Column 2: count regardless of strand.
    Unstranded,
    /// Column 3: read strand must equal gene strand.
    Forward,
    /// Column 4: read strand must be opposite to the gene strand.
    Reverse,
}

/// Where one strandedness column puts a unique fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// No eligible gene overlaps the fragment (`N_noFeature`).
    None,
    /// Exactly one eligible gene does: its index in annotation order.
    Gene(u32),
    /// Two or more distinct eligible genes do (`N_ambiguous`).
    Ambiguous,
}

impl Column {
    /// The column after one more overlapping gene: distinct genes are counted, a
    /// gene seen again changes nothing.
    fn with(self, gene: u32) -> Column {
        match self {
            Column::None => Column::Gene(gene),
            Column::Gene(g) if g == gene => self,
            _ => Column::Ambiguous,
        }
    }
}

/// Where a whole fragment is counted: the value a worker hands the sequential half.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// `N_unmapped`.
    Unmapped,
    /// `N_multimapping` (multimappers and reads mapped to too many loci).
    Multi,
    /// A uniquely mapped fragment, resolved per column `[unstranded, forward, reverse]`.
    Unique([Column; 3]),
}

impl Assignment {
    /// The assignment of a fragment of class `class`. Only a unique fragment is
    /// gene-counted, so `columns` — which needs its alignment — runs for that class
    /// alone: a `Unique` assignment cannot exist without the alignment it was read from.
    pub fn of(class: MapClass, columns: impl FnOnce() -> [Column; 3]) -> Assignment {
        match class {
            MapClass::Unmapped => Assignment::Unmapped,
            MapClass::Multi(_) | MapClass::TooMany(_) => Assignment::Multi,
            MapClass::Unique => Assignment::Unique(columns()),
        }
    }
}

/// One mate's alignment as the gene model reads it.
#[derive(Clone, Copy, Debug)]
pub struct Placement<'a> {
    /// Contig index in the order the [`GeneModel`] was built with.
    pub contig: usize,
    /// 0-based position on the contig of the first aligned base.
    pub pos: u64,
    /// True when the mate aligned as its reverse complement.
    pub reverse: bool,
    /// CIGAR-lite operations from `pos`.
    pub cigar: &'a [CigarOp],
}

/// One exon interval `[start, end)` on a contig, and its gene.
#[derive(Clone, Copy, Debug)]
struct ExonSpan {
    contig: u32,
    gene: u32,
    start: u64,
    end: u64,
}

/// A contig's exons, `exons[first..end]`, and the length of its longest exon.
#[derive(Clone, Copy, Debug, Default)]
struct ContigExons {
    first: u32,
    end: u32,
    longest: u64,
}

/// The immutable half of gene counting: exon intervals per contig and gene strands.
#[derive(Debug)]
pub struct GeneModel {
    /// Every exon, grouped by contig in contig order, each group sorted by start.
    exons: Vec<ExonSpan>,
    /// Indexed like the contig names the model was built with, up to the last
    /// contig that has an exon.
    contigs: Vec<ContigExons>,
    gene_strands: Vec<Strand>,
}

impl GeneModel {
    /// Build the exon table of `annotation` over the contigs `contigs` names, in that
    /// order ([`crate::align::Aligner`] numbers them like the index does). Genes on a
    /// contig not named there are never hit.
    pub fn new<S: AsRef<str>>(annotation: &Annotation, contigs: &[S]) -> GeneModel {
        let n_exons = annotation.genes.iter().map(|g| g.exons.len()).sum();
        let mut exons = Vec::with_capacity(n_exons);
        let mut gene_strands = Vec::with_capacity(annotation.genes.len());
        // Genes come grouped by contig, mostly in the index's order: look from the
        // last gene's contig onwards, so a gene usually costs one name comparison.
        let mut at = 0;
        for (gi, gene) in annotation.genes.iter().enumerate() {
            gene_strands.push(gene.strand);
            let n = contigs.len();
            let Some(ci) = (0..n).map(|k| (at + k) % n).find(|&c| contigs[c].as_ref() == gene.contig)
            else {
                continue;
            };
            at = ci;
            exons.extend(gene.exons.iter().map(|e| ExonSpan {
                contig: ci as u32,
                gene: gi as u32,
                start: e.start as u64,
                end: e.end as u64,
            }));
        }
        exons.sort_unstable_by_key(|e| (e.contig, e.start, e.end, e.gene));
        // Contigs past the last one with an exon are left out: `get` misses them.
        let mut table = vec![ContigExons::default(); exons.last().map_or(0, |e| e.contig as usize + 1)];
        for (i, e) in exons.iter().enumerate() {
            let c = &mut table[e.contig as usize];
            if c.first == c.end {
                c.first = i as u32;
            }
            c.end = i as u32 + 1;
            c.longest = c.longest.max(e.end.saturating_sub(e.start));
        }
        GeneModel { exons, contigs: table, gene_strands }
    }

    /// Where each column `[unstranded, forward, reverse]` puts a unique fragment whose
    /// mates align at `mate1` and `mate2`: the union of the genes whose exons overlap
    /// an aligned (M) block of either mate, kept per column when the gene's strand is
    /// eligible there, resolved by how many distinct genes remain (0 → `None`, 1 →
    /// `Gene`, more → `Ambiguous`). One fragment can be a feature hit in one column and
    /// noFeature in another, as in STAR. Strandedness follows mate 1 (Illumina dUTP
    /// convention as STAR counts it).
    pub fn columns(&self, mate1: Placement<'_>, mate2: Option<Placement<'_>>) -> [Column; 3] {
        let read = if mate1.reverse { Strand::Reverse } else { Strand::Forward };
        let mut cols = [Column::None; 3];
        for mate in std::iter::once(mate1).chain(mate2) {
            self.each_overlapping_gene(mate, |gene| {
                let same = self.gene_strands[gene as usize] == read;
                cols[0] = cols[0].with(gene);
                let stranded = if same { 1 } else { 2 };
                cols[stranded] = cols[stranded].with(gene);
            });
        }
        cols
    }

    /// Call `hit` with the gene of every exon that overlaps an aligned (M) block of
    /// `mate` (a gene once per overlapping exon and block).
    fn each_overlapping_gene(&self, mate: Placement<'_>, mut hit: impl FnMut(u32)) {
        let Some(c) = self.contigs.get(mate.contig) else {
            return;
        };
        let exons = &self.exons[c.first as usize..c.end as usize];
        let mut gpos = mate.pos;
        for op in mate.cigar {
            match *op {
                CigarOp::M(n) => {
                    let (start, end) = (gpos, gpos + n as u64);
                    // An exon that starts `longest` or more bases before the block's
                    // start also ends at or before it, so none before the first exon
                    // with `start + longest > block start` can overlap; the scan
                    // stops at the first exon starting at or past the block's end.
                    let from = exons.partition_point(|e| e.start.saturating_add(c.longest) <= start);
                    for e in exons[from..].iter().take_while(|e| e.start < end) {
                        if e.end > start {
                            hit(e.gene);
                        }
                    }
                    gpos = end;
                }
                CigarOp::N(n) => gpos += n as u64,
                CigarOp::S(_) => {}
            }
        }
    }
}

/// The ReadsPerGene.out.tab equivalent: the table a run fills, one
/// [`Assignment`] per fragment, and returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneCounts {
    /// Gene ids, annotation order.
    pub gene_ids: Vec<String>,
    /// Per-gene counts: `[unstranded, forward, reverse]`.
    pub counts: Vec<[u64; 3]>,
    /// Unique reads overlapping no gene, per column.
    pub n_no_feature: [u64; 3],
    /// Unique reads overlapping several genes, per column.
    pub n_ambiguous: [u64; 3],
    /// Multimapping reads (one total; STAR repeats it across columns).
    pub n_multimapping: u64,
    /// Unmapped reads.
    pub n_unmapped: u64,
}

impl GeneCounts {
    /// An empty table over the genes of `annotation`.
    pub fn new(annotation: &Annotation) -> GeneCounts {
        GeneCounts {
            gene_ids: annotation.genes.iter().map(|g| g.id.clone()).collect(),
            counts: vec![[0; 3]; annotation.genes.len()],
            n_no_feature: [0; 3],
            n_ambiguous: [0; 3],
            n_multimapping: 0,
            n_unmapped: 0,
        }
    }

    /// A checkpointed partial table to continue counting into, so a resumed run
    /// ends with the table an uninterrupted one would have. It must come from the
    /// same annotation: same gene ids in the same order, one count row each.
    pub fn resumed(annotation: &Annotation, saved: &GeneCounts) -> Result<GeneCounts, StarError> {
        let same_genes = saved.gene_ids.len() == annotation.genes.len()
            && saved.counts.len() == annotation.genes.len()
            && saved.gene_ids.iter().zip(&annotation.genes).all(|(id, g)| *id == g.id);
        if !same_genes {
            return Err(StarError::InvalidParams(
                "checkpoint gene table does not match the annotation".into(),
            ));
        }
        Ok(saved.clone())
    }

    /// Count one fragment. A gene in `assignment` indexes this table's genes, so the
    /// [`GeneModel`] that produced it must be built from the same annotation.
    pub fn add(&mut self, assignment: Assignment) {
        match assignment {
            Assignment::Unmapped => self.n_unmapped += 1,
            Assignment::Multi => self.n_multimapping += 1,
            Assignment::Unique(cols) => {
                for (col, resolved) in cols.into_iter().enumerate() {
                    match resolved {
                        Column::None => self.n_no_feature[col] += 1,
                        Column::Gene(g) => self.counts[g as usize][col] += 1,
                        Column::Ambiguous => self.n_ambiguous[col] += 1,
                    }
                }
            }
        }
    }

    /// Fragments counted so far, each once (column 0).
    pub fn total_recorded(&self) -> u64 {
        self.n_unmapped
            + self.n_multimapping
            + self.n_no_feature[0]
            + self.n_ambiguous[0]
            + self.counts.iter().map(|c| c[0]).sum::<u64>()
    }

    /// Count for a gene id in the given column.
    pub fn count(&self, gene_id: &str, s: Strandedness) -> Option<u64> {
        let col = column(s);
        self.gene_ids.iter().position(|g| g == gene_id).map(|i| self.counts[i][col])
    }

    /// Sum of gene counts in a column.
    pub fn total_counted(&self, s: Strandedness) -> u64 {
        let col = column(s);
        self.counts.iter().map(|c| c[col]).sum()
    }

    /// Render in ReadsPerGene.out.tab format (4 header rows then one row per gene).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "N_unmapped\t{}\t{}\t{}\n",
            self.n_unmapped, self.n_unmapped, self.n_unmapped
        ));
        out.push_str(&format!(
            "N_multimapping\t{}\t{}\t{}\n",
            self.n_multimapping, self.n_multimapping, self.n_multimapping
        ));
        out.push_str(&format!(
            "N_noFeature\t{}\t{}\t{}\n",
            self.n_no_feature[0], self.n_no_feature[1], self.n_no_feature[2]
        ));
        out.push_str(&format!(
            "N_ambiguous\t{}\t{}\t{}\n",
            self.n_ambiguous[0], self.n_ambiguous[1], self.n_ambiguous[2]
        ));
        for (id, c) in self.gene_ids.iter().zip(&self.counts) {
            out.push_str(&format!("{id}\t{}\t{}\t{}\n", c[0], c[1], c[2]));
        }
        out
    }
}

fn column(s: Strandedness) -> usize {
    match s {
        Strandedness::Unstranded => 0,
        Strandedness::Forward => 1,
        Strandedness::Reverse => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomics::annotation::{Exon, Gene};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn annotation() -> Annotation {
        Annotation {
            genes: vec![
                Gene {
                    id: "G1".into(),
                    contig: "1".into(),
                    strand: Strand::Forward,
                    exons: vec![Exon { start: 100, end: 200 }, Exon { start: 400, end: 500 }],
                },
                Gene {
                    id: "G2".into(),
                    contig: "1".into(),
                    strand: Strand::Reverse,
                    exons: vec![Exon { start: 1000, end: 1200 }],
                },
                Gene {
                    id: "G3".into(),
                    contig: "2".into(),
                    strand: Strand::Forward,
                    exons: vec![Exon { start: 0, end: 300 }],
                },
            ],
        }
    }

    /// The contigs the test annotation's genes sit on, in index order.
    const CONTIGS: [&str; 2] = ["1", "2"];

    /// One mate aligned on `contig` at `pos`.
    fn at<'c>(contig: &str, pos: u64, cigar: &'c [CigarOp], reverse: bool) -> Placement<'c> {
        let contig = CONTIGS.iter().position(|c| *c == contig).expect("a test contig");
        Placement { contig, pos, reverse, cigar }
    }

    /// A fragment: its class and, when it aligned, mate 1 and mate 2.
    type Fragment<'c> = (MapClass, Option<Placement<'c>>, Option<Placement<'c>>);

    /// Count fragments the way a run does: the worker's [`Assignment::of`] over the
    /// model's columns (what `Emit { genes: Some(model), .. }` computes), then
    /// [`GeneCounts::add`] on the calling thread.
    fn count(ann: &Annotation, fragments: &[Fragment<'_>]) -> GeneCounts {
        let model = GeneModel::new(ann, &CONTIGS);
        let mut counts = GeneCounts::new(ann);
        for &(class, mate1, mate2) in fragments {
            let columns = || model.columns(mate1.expect("unique fragments align"), mate2);
            counts.add(Assignment::of(class, columns));
        }
        counts
    }

    #[test]
    fn exonic_unique_read_counts_for_its_gene() {
        let cigar = [CigarOp::M(50)];
        let counts = count(&annotation(), &[(MapClass::Unique, Some(at("1", 120, &cigar, false)), None)]);
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(1));
        // Forward gene, forward read: column 3 counts, column 4 goes noFeature.
        assert_eq!(counts.count("G1", Strandedness::Forward), Some(1));
        assert_eq!(counts.count("G1", Strandedness::Reverse), Some(0));
        assert_eq!(counts.n_no_feature[2], 1);
    }

    #[test]
    fn spliced_read_counts_via_both_exons() {
        // 50M 200N 50M starting at 150: blocks [150,200) and [400,450) — both G1 exons.
        let cigar = [CigarOp::M(50), CigarOp::N(200), CigarOp::M(50)];
        let counts = count(&annotation(), &[(MapClass::Unique, Some(at("1", 150, &cigar, false)), None)]);
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(1));
    }

    #[test]
    fn intergenic_read_goes_no_feature() {
        let cigar = [CigarOp::M(100)];
        let counts = count(&annotation(), &[(MapClass::Unique, Some(at("1", 700, &cigar, false)), None)]);
        assert_eq!(counts.n_no_feature, [1, 1, 1]);
        assert_eq!(counts.total_counted(Strandedness::Unstranded), 0);
    }

    #[test]
    fn intronic_read_is_no_feature() {
        // Inside G1's intron [200,400).
        let cigar = [CigarOp::M(100)];
        let counts = count(&annotation(), &[(MapClass::Unique, Some(at("1", 250, &cigar, false)), None)]);
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(0));
        assert_eq!(counts.n_no_feature[0], 1);
    }

    #[test]
    fn reverse_strand_gene_uses_reverse_column() {
        // Forward read over reverse-strand gene G2.
        let cigar = [CigarOp::M(100)];
        let counts = count(&annotation(), &[(MapClass::Unique, Some(at("1", 1050, &cigar, false)), None)]);
        assert_eq!(counts.count("G2", Strandedness::Unstranded), Some(1));
        assert_eq!(counts.count("G2", Strandedness::Forward), Some(0));
        assert_eq!(counts.count("G2", Strandedness::Reverse), Some(1));
    }

    #[test]
    fn overlapping_genes_yield_ambiguous() {
        let mut ann = annotation();
        ann.genes.push(Gene {
            id: "G1b".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 150, end: 250 }],
        });
        let cigar = [CigarOp::M(30)];
        let counts = count(&ann, &[(MapClass::Unique, Some(at("1", 160, &cigar, false)), None)]);
        assert_eq!(counts.n_ambiguous[0], 1);
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(0));
    }

    #[test]
    fn multimappers_and_unmapped_go_to_header_rows() {
        let cigar = [CigarOp::M(50)];
        let counts = count(
            &annotation(),
            &[
                (MapClass::Multi(3), Some(at("1", 120, &cigar, false)), None),
                (MapClass::TooMany(50), None, None),
                (MapClass::Unmapped, None, None),
            ],
        );
        assert_eq!(counts.n_multimapping, 2);
        assert_eq!(counts.n_unmapped, 1);
        assert_eq!(counts.total_counted(Strandedness::Unstranded), 0);
    }

    #[test]
    fn soft_clips_do_not_cover_genome() {
        // Block [195, 205): 5 bases in exon1 [100,200) — overlap counts; but clips
        // before pos don't extend coverage backwards.
        let cigar = [CigarOp::S(20), CigarOp::M(10)];
        let counts = count(&annotation(), &[(MapClass::Unique, Some(at("1", 195, &cigar, false)), None)]);
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(1));
    }

    #[test]
    fn pair_counts_fragment_once_via_either_mate() {
        // Mate 1 in G1's first exon, mate 2 (reverse) in its second exon.
        let cigar = [CigarOp::M(50)];
        let (m1, m2) = (at("1", 120, &cigar, false), at("1", 420, &cigar, true));
        let counts = count(&annotation(), &[(MapClass::Unique, Some(m1), Some(m2))]);
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(1), "one fragment, one count");
        // Strandedness follows mate 1 (forward): column 3.
        assert_eq!(counts.count("G1", Strandedness::Forward), Some(1));
    }

    #[test]
    fn pair_with_mates_in_different_genes_is_ambiguous() {
        let cigar = [CigarOp::M(50)];
        let (m1, m2) = (at("1", 120, &cigar, false), at("1", 1_050, &cigar, true)); // G1, G2
        let counts = count(&annotation(), &[(MapClass::Unique, Some(m1), Some(m2))]);
        assert_eq!(counts.n_ambiguous[0], 1);
        assert_eq!(counts.total_counted(Strandedness::Unstranded), 0);
    }

    #[test]
    fn tsv_has_header_rows_then_genes() {
        let cigar = [CigarOp::M(50)];
        let counts = count(
            &annotation(),
            &[(MapClass::Unique, Some(at("1", 120, &cigar, false)), None), (MapClass::Unmapped, None, None)],
        );
        let tsv = counts.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].starts_with("N_unmapped\t1"));
        assert!(lines[1].starts_with("N_multimapping\t0"));
        assert!(lines[2].starts_with("N_noFeature"));
        assert!(lines[3].starts_with("N_ambiguous"));
        assert!(lines[4].starts_with("G1\t1\t1\t0"));
        assert_eq!(lines.len(), 4 + 3);
    }

    /// Where the naive rule puts a unique fragment: every exon of every gene against
    /// every M block of every mate, distinct genes per column.
    fn naive_columns(ann: &Annotation, contigs: &[&str], mates: &[Placement<'_>]) -> [Column; 3] {
        let mut genes: Vec<usize> = Vec::new();
        for m in mates {
            let mut gpos = m.pos;
            for op in m.cigar {
                let (start, end) = match *op {
                    CigarOp::M(n) => (gpos, gpos + n as u64),
                    CigarOp::N(n) => {
                        gpos += n as u64;
                        continue;
                    }
                    CigarOp::S(_) => continue,
                };
                gpos = end;
                for (gi, g) in ann.genes.iter().enumerate() {
                    let on_contig = contigs.get(m.contig) == Some(&g.contig.as_str());
                    if on_contig && g.exons.iter().any(|e| (e.start as u64) < end && (e.end as u64) > start) {
                        genes.push(gi);
                    }
                }
            }
        }
        genes.sort_unstable();
        genes.dedup();
        let read = if mates[0].reverse { Strand::Reverse } else { Strand::Forward };
        let eligible = [
            |_: Strand, _: Strand| true,
            |gene: Strand, read: Strand| gene == read,
            |gene: Strand, read: Strand| gene != read,
        ];
        eligible.map(|keep| {
            let hits: Vec<usize> =
                genes.iter().copied().filter(|&gi| keep(ann.genes[gi].strand, read)).collect();
            match hits[..] {
                [] => Column::None,
                [gi] => Column::Gene(gi as u32),
                _ => Column::Ambiguous,
            }
        })
    }

    fn random_annotation(rng: &mut StdRng, contigs: &[&str]) -> Annotation {
        let genes = (0..rng.gen_range(1..14))
            .map(|gi| {
                // The first four contigs carry genes, the rest none; a few genes sit on
                // a contig the model is not built over.
                let contig = if rng.gen_bool(0.1) { "elsewhere" } else { contigs[rng.gen_range(0..4usize)] };
                let exons = (0..rng.gen_range(1..5))
                    .map(|_| {
                        let start = rng.gen_range(0..2_000usize);
                        Exon { start, end: start + rng.gen_range(1..400usize) }
                    })
                    .collect();
                let strand = if rng.gen_bool(0.5) { Strand::Forward } else { Strand::Reverse };
                Gene { id: format!("G{gi}"), contig: contig.into(), strand, exons }
            })
            .collect();
        Annotation { genes }
    }

    fn random_cigar(rng: &mut StdRng) -> Vec<CigarOp> {
        let mut cigar = Vec::new();
        if rng.gen_bool(0.3) {
            cigar.push(CigarOp::S(rng.gen_range(1..30)));
        }
        for block in 0..rng.gen_range(1..4) {
            if block > 0 {
                cigar.push(CigarOp::N(rng.gen_range(1..700)));
            }
            cigar.push(CigarOp::M(rng.gen_range(1..120)));
        }
        if rng.gen_bool(0.3) {
            cigar.push(CigarOp::S(rng.gen_range(1..30)));
        }
        cigar
    }

    /// A mate anywhere on the six contigs or one index past them, either strand.
    fn random_placement<'c>(rng: &mut StdRng, cigar: &'c [CigarOp]) -> Placement<'c> {
        Placement {
            contig: rng.gen_range(0..7usize),
            pos: rng.gen_range(0..2_300),
            reverse: rng.gen_bool(0.5),
            cigar,
        }
    }

    /// The bounded scan and the streamed distinct-gene rule, against the naive rule,
    /// on random annotations: genes overlapping on both strands, exons up to 400 b,
    /// contigs without genes, single mates and pairs whose mates land anywhere. The
    /// table a run fills must count each fragment where the naive rule puts it.
    #[test]
    fn columns_match_the_naive_rule_on_random_annotations() {
        let mut rng = StdRng::seed_from_u64(0x9e11);
        let contigs = ["c0", "c1", "c2", "c3", "c4", "c5"];
        let (mut ambiguous, mut gene_hits, mut split) = (0, 0, 0);
        for _ in 0..300 {
            let ann = random_annotation(&mut rng, &contigs);
            let model = GeneModel::new(&ann, &contigs);
            let mut counted = GeneCounts::new(&ann);
            let mut expected = GeneCounts::new(&ann);
            for _ in 0..40 {
                let (cigar1, cigar2) = (random_cigar(&mut rng), random_cigar(&mut rng));
                let mate1 = random_placement(&mut rng, &cigar1);
                let mate2 = rng.gen_bool(0.5).then(|| random_placement(&mut rng, &cigar2));
                let mates: Vec<Placement> = std::iter::once(mate1).chain(mate2).collect();
                let want = naive_columns(&ann, &contigs, &mates);
                assert_eq!(model.columns(mate1, mate2), want, "{ann:?}\n{mates:?}");

                counted.add(Assignment::of(MapClass::Unique, || model.columns(mate1, mate2)));
                expected.add(Assignment::Unique(want));

                ambiguous += want.contains(&Column::Ambiguous) as u32;
                gene_hits += matches!(want[0], Column::Gene(_)) as u32;
                if let ([a, b], Column::Ambiguous) = (&mates[..], want[0]) {
                    let alone = |m| naive_columns(&ann, &contigs, &[m])[0];
                    split += (matches!(alone(*a), Column::Gene(_)) && alone(*a) != alone(*b)) as u32;
                }
            }
            assert_eq!(counted, expected);
        }
        // The draws reach every outcome the rule has.
        assert!(ambiguous > 200 && gene_hits > 200 && split > 20, "{ambiguous} {gene_hits} {split}");
    }

    /// A table from another annotation, or one whose count rows do not match its
    /// gene ids, is refused with a typed error rather than indexed out of range later.
    #[test]
    fn resumed_refuses_a_table_from_another_annotation() {
        let ann = annotation();
        let mut saved = GeneCounts::new(&ann);
        saved.add(Assignment::Unique([Column::Gene(2); 3]));
        assert_eq!(GeneCounts::resumed(&ann, &saved).unwrap(), saved);
        let mut renamed = saved.clone();
        renamed.gene_ids[1] = "G9".into();
        assert!(GeneCounts::resumed(&ann, &renamed).is_err());
        let mut short = saved.clone();
        short.counts.pop();
        assert!(GeneCounts::resumed(&ann, &short).is_err());
    }

    #[test]
    fn total_recorded_is_consistent() {
        let cigar = [CigarOp::M(50)];
        let counts = count(
            &annotation(),
            &[
                (MapClass::Unique, Some(at("1", 120, &cigar, false)), None),
                (MapClass::Unique, Some(at("1", 700, &cigar, false)), None),
                (MapClass::Multi(2), None, None),
                (MapClass::Unmapped, None, None),
            ],
        );
        assert_eq!(counts.total_recorded(), 4);
    }
}
