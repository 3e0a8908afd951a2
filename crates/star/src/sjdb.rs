//! Splice-junction database (STAR's `sjdb` built from `--sjdbGTFfile`).
//!
//! Junctions come from the annotation: for every pair of adjacent exons the intron
//! `[donor, acceptor)` in contig-local coordinates is recorded. During stitching, a
//! gap that matches an annotated junction is spliced with zero penalty; novel gaps pay
//! the canonical/non-canonical penalty depending on their motif.

use std::collections::HashSet;

use crate::genome::PackedGenome;
use genomics::{Annotation, Base};

/// A splice junction: intron half-open range in *global* genome coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Junction {
    /// First intronic base (global coordinate).
    pub intron_start: u64,
    /// One past the last intronic base (global coordinate).
    pub intron_end: u64,
}

/// Classification of a candidate splice by motif / annotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpliceClass {
    /// Present in the annotated junction database.
    Annotated,
    /// GT..AG (or CT..AC on the opposite strand) motif.
    Canonical,
    /// Anything else (the conservative default for an unclassified candidate).
    #[default]
    NonCanonical,
}

/// The junction database.
#[derive(Clone, Debug, Default)]
pub struct SpliceJunctionDb {
    junctions: HashSet<Junction>,
}

impl SpliceJunctionDb {
    /// An empty database (alignment without annotation).
    pub fn empty() -> SpliceJunctionDb {
        SpliceJunctionDb::default()
    }

    /// Build from an annotation: one junction per adjacent exon pair of every gene
    /// whose contig is present in `genome`. Genes on absent contigs are skipped (the
    /// annotation may describe the toplevel assembly while the genome is primary).
    pub fn from_annotation(annotation: &Annotation, genome: &PackedGenome) -> SpliceJunctionDb {
        let mut junctions = HashSet::new();
        for gene in &annotation.genes {
            let Some(span) = genome.span_by_name(&gene.contig) else { continue };
            for pair in gene.exons.windows(2) {
                let intron_start = span.start + pair[0].end as u64;
                let intron_end = span.start + pair[1].start as u64;
                if intron_end > intron_start && intron_end <= span.end() {
                    junctions.insert(Junction { intron_start, intron_end });
                }
            }
        }
        SpliceJunctionDb { junctions }
    }

    /// Rebuild from serialized parts.
    pub(crate) fn from_raw(pairs: Vec<(u64, u64)>) -> SpliceJunctionDb {
        SpliceJunctionDb {
            junctions: pairs
                .into_iter()
                .map(|(s, e)| Junction { intron_start: s, intron_end: e })
                .collect(),
        }
    }

    /// All junctions in sorted order (for serialization / inspection).
    pub fn sorted(&self) -> Vec<Junction> {
        let mut v: Vec<Junction> = self.junctions.iter().copied().collect();
        v.sort_by_key(|j| (j.intron_start, j.intron_end));
        v
    }

    /// Every junction, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Junction> {
        self.junctions.iter()
    }

    /// Number of junctions.
    pub fn len(&self) -> usize {
        self.junctions.len()
    }

    /// True when no junctions are stored.
    pub fn is_empty(&self) -> bool {
        self.junctions.is_empty()
    }

    /// Insert a junction (used by two-pass mode to admit well-supported novel
    /// junctions discovered in the first pass).
    pub fn insert(&mut self, intron_start: u64, intron_end: u64) {
        assert!(intron_end > intron_start, "degenerate junction");
        self.junctions.insert(Junction { intron_start, intron_end });
    }

    /// Is this exact intron annotated?
    #[inline]
    pub fn contains(&self, intron_start: u64, intron_end: u64) -> bool {
        self.junctions.contains(&Junction { intron_start, intron_end })
    }

    /// Classify a candidate intron: annotated beats motif; motif is checked on both
    /// strands (GT..AG forward, CT..AC reverse-strand genes seen on the forward
    /// genome).
    pub fn classify(&self, genome: &PackedGenome, intron_start: u64, intron_end: u64) -> SpliceClass {
        if self.contains(intron_start, intron_end) {
            return SpliceClass::Annotated;
        }
        if intron_end - intron_start >= 4 {
            let s = intron_start as usize;
            let e = intron_end as usize;
            let d0 = genome.code(s);
            let d1 = genome.code(s + 1);
            let a0 = genome.code(e - 2);
            let a1 = genome.code(e - 1);
            let (g, t, a, c) = (Base::G.code(), Base::T.code(), Base::A.code(), Base::C.code());
            let gt_ag = d0 == g && d1 == t && a0 == a && a1 == g;
            let ct_ac = d0 == c && d1 == t && a0 == a && a1 == c;
            if gt_ag || ct_ac {
                return SpliceClass::Canonical;
            }
        }
        SpliceClass::NonCanonical
    }

    /// Bytes this database occupies (16 per junction), for index-size accounting.
    pub fn byte_size(&self) -> usize {
        self.junctions.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomics::annotation::{Exon, Gene, Strand};
    use genomics::{Assembly, Contig, ContigKind, DnaSeq};

    fn genome_with(seq: &str) -> PackedGenome {
        let asm = Assembly {
            name: "T".into(),
            release: 1,
            contigs: vec![Contig {
                name: "1".into(),
                kind: ContigKind::Chromosome,
                seq: seq.parse::<DnaSeq>().unwrap(),
            }],
        };
        PackedGenome::from_assembly(&asm).unwrap()
    }

    fn gene(exons: Vec<Exon>) -> Gene {
        Gene { id: "G1".into(), contig: "1".into(), strand: Strand::Forward, exons }
    }

    #[test]
    fn builds_junctions_from_adjacent_exons() {
        let g = genome_with(&"ACGT".repeat(30));
        let ann = Annotation {
            genes: vec![gene(vec![
                Exon { start: 0, end: 10 },
                Exon { start: 30, end: 40 },
                Exon { start: 60, end: 70 },
            ])],
        };
        let db = SpliceJunctionDb::from_annotation(&ann, &g);
        assert_eq!(db.len(), 2);
        assert!(db.contains(10, 30));
        assert!(db.contains(40, 60));
        assert!(!db.contains(10, 31));
    }

    #[test]
    fn genes_on_missing_contigs_are_skipped() {
        let g = genome_with(&"ACGT".repeat(10));
        let mut gene2 = gene(vec![Exon { start: 0, end: 5 }, Exon { start: 10, end: 15 }]);
        gene2.contig = "77".into();
        let ann = Annotation { genes: vec![gene2] };
        let db = SpliceJunctionDb::from_annotation(&ann, &g);
        assert!(db.is_empty());
    }

    #[test]
    fn classify_annotated_beats_motif() {
        let g = genome_with(&"A".repeat(100));
        let ann = Annotation {
            genes: vec![gene(vec![Exon { start: 0, end: 10 }, Exon { start: 50, end: 60 }])],
        };
        let db = SpliceJunctionDb::from_annotation(&ann, &g);
        assert_eq!(db.classify(&g, 10, 50), SpliceClass::Annotated);
        // Same genome, unannotated intron over A-runs: non-canonical.
        assert_eq!(db.classify(&g, 20, 40), SpliceClass::NonCanonical);
    }

    #[test]
    fn classify_detects_gt_ag_and_ct_ac() {
        // Intron [4, 12): donor GT at 4..6, acceptor AG at 10..12.
        let g = genome_with("AAAAGTAAAAAGAAAA");
        let db = SpliceJunctionDb::empty();
        assert_eq!(db.classify(&g, 4, 12), SpliceClass::Canonical);
        // CT..AC variant.
        let g2 = genome_with("AAAACTAAAAACAAAA");
        assert_eq!(db.classify(&g2, 4, 12), SpliceClass::Canonical);
        // Too-short intron is non-canonical by definition.
        assert_eq!(db.classify(&g, 4, 6), SpliceClass::NonCanonical);
    }

    #[test]
    fn sorted_and_byte_size() {
        let g = genome_with(&"ACGT".repeat(30));
        let ann = Annotation {
            genes: vec![gene(vec![
                Exon { start: 0, end: 10 },
                Exon { start: 30, end: 40 },
                Exon { start: 60, end: 70 },
            ])],
        };
        let db = SpliceJunctionDb::from_annotation(&ann, &g);
        let sorted = db.sorted();
        assert_eq!(sorted.len(), 2);
        assert!(sorted[0].intron_start < sorted[1].intron_start);
        assert_eq!(db.byte_size(), 32);
        let back = SpliceJunctionDb::from_raw(sorted.iter().map(|j| (j.intron_start, j.intron_end)).collect());
        assert_eq!(back.sorted(), sorted);
    }
}
