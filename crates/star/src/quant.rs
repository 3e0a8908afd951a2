//! `--quantMode GeneCounts` — per-gene read counting (ReadsPerGene.out.tab).
//!
//! STAR counts *uniquely mapped* reads per gene while mapping, producing a table with
//! four columns: gene id, unstranded count, and the two stranded counts. Reads
//! overlapping no gene's exons go to `N_noFeature`, reads overlapping several genes to
//! `N_ambiguous`, multimappers to `N_multimapping`, unmapped reads to `N_unmapped` —
//! the same header rows as the real output file.

use std::collections::HashMap;

use crate::align::{AlignmentRecord, CigarOp, MapClass};
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

/// The per-gene counting engine for one contig-indexed annotation.
pub struct GeneCounter {
    /// Exon intervals per contig, sorted by start: (start, end, gene_index).
    exons_by_contig: HashMap<String, Vec<(u64, u64, usize)>>,
    gene_ids: Vec<String>,
    gene_strands: Vec<Strand>,
    counts: Vec<[u64; 3]>,
    n_no_feature: [u64; 3],
    n_ambiguous: [u64; 3],
    n_multimapping: u64,
    n_unmapped: u64,
}

impl GeneCounter {
    /// Build the counter's interval tables from an annotation.
    pub fn new(annotation: &Annotation) -> GeneCounter {
        let mut exons_by_contig: HashMap<String, Vec<(u64, u64, usize)>> = HashMap::new();
        let mut gene_ids = Vec::with_capacity(annotation.genes.len());
        let mut gene_strands = Vec::with_capacity(annotation.genes.len());
        for (gi, gene) in annotation.genes.iter().enumerate() {
            gene_ids.push(gene.id.clone());
            gene_strands.push(gene.strand);
            let entry = exons_by_contig.entry(gene.contig.clone()).or_default();
            for e in &gene.exons {
                entry.push((e.start as u64, e.end as u64, gi));
            }
        }
        for v in exons_by_contig.values_mut() {
            v.sort_unstable();
        }
        let n = gene_ids.len();
        GeneCounter {
            exons_by_contig,
            gene_ids,
            gene_strands,
            counts: vec![[0; 3]; n],
            n_no_feature: [0; 3],
            n_ambiguous: [0; 3],
            n_multimapping: 0,
            n_unmapped: 0,
        }
    }

    /// Rebuild a counter from a checkpointed partial table, seeding every tally
    /// so counting continues exactly where the interrupted run left off. The
    /// saved table must come from the same annotation (checked via gene ids).
    pub fn restore(annotation: &Annotation, saved: &GeneCounts) -> Result<GeneCounter, crate::StarError> {
        let mut counter = GeneCounter::new(annotation);
        if counter.gene_ids != saved.gene_ids {
            return Err(crate::StarError::InvalidParams(
                "checkpoint gene table does not match the annotation".into(),
            ));
        }
        counter.counts = saved.counts.clone();
        counter.n_no_feature = saved.n_no_feature;
        counter.n_ambiguous = saved.n_ambiguous;
        counter.n_multimapping = saved.n_multimapping;
        counter.n_unmapped = saved.n_unmapped;
        Ok(counter)
    }

    /// Record one read's outcome: a fragment with a single mate.
    pub fn record(&mut self, class: MapClass, primary: Option<&AlignmentRecord>) {
        self.record_pair(class, primary, None);
    }

    /// Record one fragment. Only `Unique` fragments are gene-counted (STAR
    /// semantics); `Multi`/`TooMany` go to `N_multimapping`, `Unmapped` to
    /// `N_unmapped`. A unique fragment counts once for the union of genes either mate
    /// overlaps, resolved per strandedness column like STAR does (one fragment can
    /// be a feature hit in one column and noFeature in another); strandedness
    /// follows mate 1 (Illumina dUTP convention as STAR counts it).
    pub fn record_pair(
        &mut self,
        class: MapClass,
        rec1: Option<&AlignmentRecord>,
        rec2: Option<&AlignmentRecord>,
    ) {
        match class {
            MapClass::Unmapped => self.n_unmapped += 1,
            MapClass::Multi(_) | MapClass::TooMany(_) => self.n_multimapping += 1,
            MapClass::Unique => {
                let rec1 = rec1.expect("unique fragments carry a primary alignment");
                let mut genes = self.overlapping_genes(rec1);
                if let Some(r2) = rec2 {
                    genes.extend(self.overlapping_genes(r2));
                    genes.sort_unstable();
                    genes.dedup();
                }
                for (col, strandedness) in
                    [Strandedness::Unstranded, Strandedness::Forward, Strandedness::Reverse]
                        .into_iter()
                        .enumerate()
                {
                    let eligible: Vec<usize> = genes
                        .iter()
                        .copied()
                        .filter(|&gi| strand_matches(strandedness, self.gene_strands[gi], rec1.reverse))
                        .collect();
                    match eligible.len() {
                        0 => self.n_no_feature[col] += 1,
                        1 => self.counts[eligible[0]][col] += 1,
                        _ => self.n_ambiguous[col] += 1,
                    }
                }
            }
        }
    }

    /// Genes whose exons overlap any aligned (M) block of the record.
    fn overlapping_genes(&self, rec: &AlignmentRecord) -> Vec<usize> {
        let Some(exons) = self.exons_by_contig.get(&*rec.contig) else {
            return Vec::new();
        };
        let mut hits: Vec<usize> = Vec::new();
        for (start, end) in aligned_blocks(rec) {
            // Linear scan from the first exon ending after block start; exon lists
            // per contig are modest (annotation-sized, not read-sized).
            for &(es, ee, gi) in exons {
                if es >= end {
                    break;
                }
                if ee > start {
                    hits.push(gi);
                }
            }
        }
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    /// Total reads recorded so far.
    pub fn total_recorded(&self) -> u64 {
        self.n_unmapped
            + self.n_multimapping
            + self.n_no_feature[0]
            + self.n_ambiguous[0]
            + self.counts.iter().map(|c| c[0]).sum::<u64>()
    }

    /// Finish counting and produce the output table.
    pub fn finish(self) -> GeneCounts {
        GeneCounts {
            gene_ids: self.gene_ids,
            counts: self.counts,
            n_no_feature: self.n_no_feature,
            n_ambiguous: self.n_ambiguous,
            n_multimapping: self.n_multimapping,
            n_unmapped: self.n_unmapped,
        }
    }
}

fn strand_matches(s: Strandedness, gene: Strand, read_reverse: bool) -> bool {
    let read_strand = if read_reverse { Strand::Reverse } else { Strand::Forward };
    match s {
        Strandedness::Unstranded => true,
        Strandedness::Forward => read_strand == gene,
        Strandedness::Reverse => read_strand != gene,
    }
}

/// Genomic blocks covered by M operations, walking the CIGAR from `rec.pos`.
fn aligned_blocks(rec: &AlignmentRecord) -> Vec<(u64, u64)> {
    let mut blocks = Vec::new();
    let mut gpos = rec.pos;
    for op in &rec.cigar {
        match op {
            CigarOp::M(n) => {
                blocks.push((gpos, gpos + *n as u64));
                gpos += *n as u64;
            }
            CigarOp::N(n) => gpos += *n as u64,
            CigarOp::S(_) => {}
        }
    }
    blocks
}

/// The finished ReadsPerGene.out.tab equivalent.
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

    fn rec(contig: &str, pos: u64, cigar: Vec<CigarOp>, reverse: bool) -> AlignmentRecord {
        AlignmentRecord {
            read_id: "r".into(),
            contig: contig.into(),
            pos,
            reverse,
            cigar,
            score: 100,
            mismatches: 0,
            n_hits: 1,
            mapq: 255,
            junctions: vec![],
        }
    }

    #[test]
    fn exonic_unique_read_counts_for_its_gene() {
        let mut counter = GeneCounter::new(&annotation());
        let r = rec("1", 120, vec![CigarOp::M(50)], false);
        counter.record(MapClass::Unique, Some(&r));
        let counts = counter.finish();
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(1));
        // Forward gene, forward read: column 3 counts, column 4 goes noFeature.
        assert_eq!(counts.count("G1", Strandedness::Forward), Some(1));
        assert_eq!(counts.count("G1", Strandedness::Reverse), Some(0));
        assert_eq!(counts.n_no_feature[2], 1);
    }

    #[test]
    fn spliced_read_counts_via_both_exons() {
        let mut counter = GeneCounter::new(&annotation());
        // 50M 200N 50M starting at 150: blocks [150,200) and [400,450) — both G1 exons.
        let r = rec("1", 150, vec![CigarOp::M(50), CigarOp::N(200), CigarOp::M(50)], false);
        counter.record(MapClass::Unique, Some(&r));
        let counts = counter.finish();
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(1));
    }

    #[test]
    fn intergenic_read_goes_no_feature() {
        let mut counter = GeneCounter::new(&annotation());
        let r = rec("1", 700, vec![CigarOp::M(100)], false);
        counter.record(MapClass::Unique, Some(&r));
        let counts = counter.finish();
        assert_eq!(counts.n_no_feature, [1, 1, 1]);
        assert_eq!(counts.total_counted(Strandedness::Unstranded), 0);
    }

    #[test]
    fn intronic_read_is_no_feature() {
        let mut counter = GeneCounter::new(&annotation());
        // Inside G1's intron [200,400).
        let r = rec("1", 250, vec![CigarOp::M(100)], false);
        counter.record(MapClass::Unique, Some(&r));
        let counts = counter.finish();
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(0));
        assert_eq!(counts.n_no_feature[0], 1);
    }

    #[test]
    fn reverse_strand_gene_uses_reverse_column() {
        let mut counter = GeneCounter::new(&annotation());
        // Forward read over reverse-strand gene G2.
        let r = rec("1", 1050, vec![CigarOp::M(100)], false);
        counter.record(MapClass::Unique, Some(&r));
        let counts = counter.finish();
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
        let mut counter = GeneCounter::new(&ann);
        let r = rec("1", 160, vec![CigarOp::M(30)], false);
        counter.record(MapClass::Unique, Some(&r));
        let counts = counter.finish();
        assert_eq!(counts.n_ambiguous[0], 1);
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(0));
    }

    #[test]
    fn multimappers_and_unmapped_go_to_header_rows() {
        let mut counter = GeneCounter::new(&annotation());
        counter.record(MapClass::Multi(3), Some(&rec("1", 120, vec![CigarOp::M(50)], false)));
        counter.record(MapClass::TooMany(50), None);
        counter.record(MapClass::Unmapped, None);
        let counts = counter.finish();
        assert_eq!(counts.n_multimapping, 2);
        assert_eq!(counts.n_unmapped, 1);
        assert_eq!(counts.total_counted(Strandedness::Unstranded), 0);
    }

    #[test]
    fn soft_clips_do_not_cover_genome() {
        let mut counter = GeneCounter::new(&annotation());
        // Block [195, 205): 5 bases in exon1 [100,200) — overlap counts; but clips
        // before pos don't extend coverage backwards.
        let r = rec("1", 195, vec![CigarOp::S(20), CigarOp::M(10)], false);
        counter.record(MapClass::Unique, Some(&r));
        let counts = counter.finish();
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(1));
    }

    #[test]
    fn pair_counts_fragment_once_via_either_mate() {
        let mut counter = GeneCounter::new(&annotation());
        // Mate 1 in G1's first exon, mate 2 (reverse) in its second exon.
        let r1 = rec("1", 120, vec![CigarOp::M(50)], false);
        let r2 = rec("1", 420, vec![CigarOp::M(50)], true);
        counter.record_pair(MapClass::Unique, Some(&r1), Some(&r2));
        let counts = counter.finish();
        assert_eq!(counts.count("G1", Strandedness::Unstranded), Some(1), "one fragment, one count");
        // Strandedness follows mate 1 (forward): column 3.
        assert_eq!(counts.count("G1", Strandedness::Forward), Some(1));
    }

    #[test]
    fn pair_with_mates_in_different_genes_is_ambiguous() {
        let mut counter = GeneCounter::new(&annotation());
        let r1 = rec("1", 120, vec![CigarOp::M(50)], false); // G1
        let r2 = rec("1", 1_050, vec![CigarOp::M(50)], true); // G2
        counter.record_pair(MapClass::Unique, Some(&r1), Some(&r2));
        let counts = counter.finish();
        assert_eq!(counts.n_ambiguous[0], 1);
        assert_eq!(counts.total_counted(Strandedness::Unstranded), 0);
    }

    #[test]
    fn tsv_has_header_rows_then_genes() {
        let mut counter = GeneCounter::new(&annotation());
        counter.record(MapClass::Unique, Some(&rec("1", 120, vec![CigarOp::M(50)], false)));
        counter.record(MapClass::Unmapped, None);
        let tsv = counter.finish().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].starts_with("N_unmapped\t1"));
        assert!(lines[1].starts_with("N_multimapping\t0"));
        assert!(lines[2].starts_with("N_noFeature"));
        assert!(lines[3].starts_with("N_ambiguous"));
        assert!(lines[4].starts_with("G1\t1\t1\t0"));
        assert_eq!(lines.len(), 4 + 3);
    }

    #[test]
    fn total_recorded_is_consistent() {
        let mut counter = GeneCounter::new(&annotation());
        counter.record(MapClass::Unique, Some(&rec("1", 120, vec![CigarOp::M(50)], false)));
        counter.record(MapClass::Unique, Some(&rec("1", 700, vec![CigarOp::M(50)], false)));
        counter.record(MapClass::Multi(2), None);
        counter.record(MapClass::Unmapped, None);
        assert_eq!(counter.total_recorded(), 4);
    }
}
