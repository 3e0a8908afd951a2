//! Per-read pseudoalignment: intersect equivalence classes along the read.
//!
//! kallisto's model: a read is compatible with the transcripts whose k-mer sets
//! cover it. We walk the read's canonical k-mers, look each up, and intersect the
//! classes (skipping absent k-mers up to an error budget). A read pseudoaligns when
//! the final intersection is non-empty and enough of its k-mers were found.

use crate::index::{canonical_kmers, PseudoIndex};
use genomics::DnaSeq;

/// Minimum fraction of the read's k-mers that must be present in the index.
pub const MIN_KMER_FRACTION: f64 = 0.5;

/// Result of pseudoaligning one read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PseudoOutcome {
    /// Transcript ids compatible with the read (empty = unmapped).
    pub compatible: Vec<u32>,
    /// k-mers of the read found in the index.
    pub kmers_hit: u32,
    /// Total k-mers in the read.
    pub kmers_total: u32,
}

impl PseudoOutcome {
    /// Did the read pseudoalign?
    pub fn is_mapped(&self) -> bool {
        !self.compatible.is_empty()
    }
}

/// The pseudoaligner, borrowing its index.
pub struct PseudoAligner<'i> {
    index: &'i PseudoIndex,
}

impl<'i> PseudoAligner<'i> {
    /// Create a pseudoaligner.
    pub fn new(index: &'i PseudoIndex) -> PseudoAligner<'i> {
        PseudoAligner { index }
    }

    /// The index in use.
    pub fn index(&self) -> &'i PseudoIndex {
        self.index
    }

    /// Pseudoalign one read.
    pub fn pseudoalign(&self, read: &DnaSeq) -> PseudoOutcome {
        let k = self.index.k();
        if read.len() < k {
            return PseudoOutcome { compatible: Vec::new(), kmers_hit: 0, kmers_total: 0 };
        }
        let mut total = 0u32;
        let mut hit = 0u32;
        let mut intersection: Option<Vec<u32>> = None;
        for kmer in canonical_kmers(read, k) {
            total += 1;
            let Some(class) = self.index.lookup(kmer) else { continue };
            hit += 1;
            let set = self.index.class(class);
            intersection = Some(match intersection {
                None => set.to_vec(),
                Some(cur) => intersect_sorted(&cur, set),
            });
            // An empty intersection can never recover (kallisto stops here too).
            if intersection.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        let enough = total > 0 && hit as f64 / total as f64 >= MIN_KMER_FRACTION;
        PseudoOutcome {
            compatible: if enough { intersection.unwrap_or_default() } else { Vec::new() },
            kmers_hit: hit,
            kmers_total: total,
        }
    }
}

/// Intersection of two sorted, deduplicated u32 slices.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::PseudoIndexParams;
    use genomics::{Annotation, Assembly, EnsemblGenerator, EnsemblParams, Release};

    fn setup() -> (Assembly, Annotation, PseudoIndex) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g).unwrap();
        let idx = PseudoIndex::build(&asm, &ann, &PseudoIndexParams { k: 21 }).unwrap();
        (asm, ann, idx)
    }

    #[test]
    fn transcript_reads_pseudoalign_to_their_transcript() {
        let (asm, ann, idx) = setup();
        let aligner = PseudoAligner::new(&idx);
        let mut checked = 0;
        for (tid, gene) in ann.genes.iter().enumerate() {
            let t = gene.transcript(&asm).unwrap();
            if t.len() < 120 {
                continue;
            }
            let read = t.subseq(10, 110);
            let out = aligner.pseudoalign(&read);
            assert!(out.is_mapped(), "read from {} must pseudoalign", gene.id);
            assert!(
                out.compatible.contains(&(tid as u32)),
                "compatible set must include the source transcript"
            );
            checked += 1;
        }
        assert!(checked >= 5, "need transcripts to test: {checked}");
    }

    #[test]
    fn reverse_strand_reads_pseudoalign_too() {
        let (asm, ann, idx) = setup();
        let aligner = PseudoAligner::new(&idx);
        let gene = ann.genes.iter().find(|g| g.transcript_len() >= 120).unwrap();
        let t = gene.transcript(&asm).unwrap();
        let read = t.subseq(0, 100).reverse_complement();
        assert!(aligner.pseudoalign(&read).is_mapped());
    }

    #[test]
    fn junk_reads_do_not_pseudoalign() {
        let (_, _, idx) = setup();
        let aligner = PseudoAligner::new(&idx);
        for junk in [
            DnaSeq::from_codes(vec![0; 100]),
            DnaSeq::random(&mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1), 100),
        ] {
            let out = aligner.pseudoalign(&junk);
            assert!(!out.is_mapped(), "junk pseudoaligned: {junk:?}");
        }
    }

    #[test]
    fn intergenic_genomic_reads_do_not_pseudoalign() {
        // The pseudoaligner only knows the transcriptome: intronic/intergenic
        // sequence is invisible (the key behavioural difference vs STAR).
        let (asm, ann, idx) = setup();
        let aligner = PseudoAligner::new(&idx);
        let chrom = asm.contig("1").unwrap();
        // Find a window no gene overlaps.
        let mut pos = None;
        'outer: for start in (0..chrom.len() - 100).step_by(500) {
            for gene in &ann.genes {
                if gene.contig != "1" {
                    continue;
                }
                let (gs, ge) = gene.span();
                if start + 100 > gs && start < ge {
                    continue 'outer;
                }
            }
            pos = Some(start);
            break;
        }
        let start = pos.expect("an intergenic window exists");
        let out = aligner.pseudoalign(&chrom.seq.subseq(start, start + 100));
        assert!(!out.is_mapped(), "intergenic read must not pseudoalign");
    }

    #[test]
    fn short_reads_are_unmapped() {
        let (_, _, idx) = setup();
        let aligner = PseudoAligner::new(&idx);
        let out = aligner.pseudoalign(&"ACGT".parse().unwrap());
        assert!(!out.is_mapped());
        assert_eq!(out.kmers_total, 0);
    }

    #[test]
    fn intersect_sorted_is_correct() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 7], &[3, 4, 5, 8]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[2, 4], &[1, 3]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[9], &[9]), vec![9]);
    }

    #[test]
    fn errors_reduce_hits_but_reads_still_map() {
        let (asm, ann, idx) = setup();
        let aligner = PseudoAligner::new(&idx);
        let gene = ann.genes.iter().find(|g| g.transcript_len() >= 120).unwrap();
        let t = gene.transcript(&asm).unwrap();
        let mut codes = t.subseq(0, 100).codes().to_vec();
        codes[50] = (codes[50] + 1) % 4; // one substitution kills k consecutive k-mers
        let out = aligner.pseudoalign(&DnaSeq::from_codes(codes));
        assert!(out.kmers_hit < out.kmers_total);
        assert!(out.is_mapped(), "one error must not unmap a read");
    }
}
