//! Transcriptome k-mer index with equivalence classes (kallisto's T-DBG, flattened).
//!
//! Every k-mer occurring in any annotated transcript maps to the *set* of transcripts
//! containing it; identical sets are deduplicated into numbered equivalence classes.
//! K-mers are stored canonically (the lexicographic minimum of a k-mer and its
//! reverse complement), so reads from either strand look up the same entries.

use genomics::{Annotation, Assembly, DnaSeq, GenomicsError};
use std::collections::HashMap;

/// Index construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct PseudoIndexParams {
    /// k-mer length (kallisto default 31; must be ≤ 31 to fit 2 bits/base in u64).
    pub k: usize,
}

impl Default for PseudoIndexParams {
    fn default() -> Self {
        PseudoIndexParams { k: 31 }
    }
}

/// Metadata for one indexed transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptMeta {
    /// The gene this transcript belongs to (one transcript per gene in our model).
    pub gene_id: String,
    /// Mature transcript length.
    pub len: usize,
}

/// The pseudoalignment index.
#[derive(Debug)]
pub struct PseudoIndex {
    k: usize,
    transcripts: Vec<TranscriptMeta>,
    /// canonical k-mer → equivalence-class id.
    kmers: HashMap<u64, u32>,
    /// Equivalence classes: sorted transcript-id lists, deduplicated.
    classes: Vec<Vec<u32>>,
}

impl PseudoIndex {
    /// Build from an assembly + annotation (transcripts = spliced gene sequences).
    pub fn build(
        assembly: &Assembly,
        annotation: &Annotation,
        params: &PseudoIndexParams,
    ) -> Result<PseudoIndex, GenomicsError> {
        let k = params.k;
        assert!((4..=31).contains(&k), "k must be in 4..=31");
        // First pass: k-mer → sorted set of transcript ids (as a Vec kept sorted).
        let mut raw: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut transcripts = Vec::new();
        for gene in &annotation.genes {
            let t = gene.transcript(assembly)?;
            if t.len() < k {
                continue;
            }
            let tid = transcripts.len() as u32;
            transcripts.push(TranscriptMeta { gene_id: gene.id.clone(), len: t.len() });
            for kmer in canonical_kmers(&t, k) {
                let entry = raw.entry(kmer).or_default();
                if entry.last() != Some(&tid) {
                    entry.push(tid);
                }
            }
        }
        // Second pass: dedupe transcript sets into classes.
        let mut class_ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut classes: Vec<Vec<u32>> = Vec::new();
        let mut kmers = HashMap::with_capacity(raw.len());
        for (kmer, set) in raw {
            let next = classes.len() as u32;
            let id = *class_ids.entry(set.clone()).or_insert_with(|| {
                classes.push(set);
                next
            });
            kmers.insert(kmer, id);
        }
        Ok(PseudoIndex { k, transcripts, kmers, classes })
    }

    /// The k-mer length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of indexed transcripts.
    pub fn n_transcripts(&self) -> usize {
        self.transcripts.len()
    }

    /// Transcript metadata by id.
    pub fn transcript(&self, tid: u32) -> &TranscriptMeta {
        &self.transcripts[tid as usize]
    }

    /// Number of distinct k-mers.
    pub fn n_kmers(&self) -> usize {
        self.kmers.len()
    }

    /// Number of equivalence classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The transcript set of an equivalence class.
    pub fn class(&self, id: u32) -> &[u32] {
        &self.classes[id as usize]
    }

    /// Look up a canonical k-mer's equivalence class.
    pub fn lookup(&self, canonical_kmer: u64) -> Option<u32> {
        self.kmers.get(&canonical_kmer).copied()
    }

    /// Approximate memory footprint in bytes (for comparisons against the
    /// suffix-array index: pseudoalignment's memory pitch).
    pub fn byte_size(&self) -> usize {
        self.kmers.len() * (8 + 4)
            + self.classes.iter().map(|c| c.len() * 4 + 24).sum::<usize>()
            + self.transcripts.len() * 32
    }
}

/// 2-bit encode `seq[i..i+k]` (A=0 C=1 G=2 T=3, high bits first).
fn encode_kmer(seq: &DnaSeq, i: usize, k: usize) -> u64 {
    let mut v = 0u64;
    for j in 0..k {
        v = (v << 2) | seq.codes()[i + j] as u64;
    }
    v
}

/// Reverse-complement of a 2-bit-encoded k-mer.
fn revcomp_kmer(kmer: u64, k: usize) -> u64 {
    let mut v = 0u64;
    let mut x = kmer;
    for _ in 0..k {
        v = (v << 2) | (3 - (x & 0b11));
        x >>= 2;
    }
    v
}

/// Canonical form: min(kmer, revcomp).
pub(crate) fn canonical(kmer: u64, k: usize) -> u64 {
    kmer.min(revcomp_kmer(kmer, k))
}

/// Iterator over the canonical k-mers of a sequence (rolling encoding).
pub(crate) fn canonical_kmers(seq: &DnaSeq, k: usize) -> impl Iterator<Item = u64> + '_ {
    let mask = if k == 32 { u64::MAX } else { (1u64 << (2 * k)) - 1 };
    let mut rolling = if seq.len() >= k { encode_kmer(seq, 0, k) } else { 0 };
    let mut first = true;
    (0..seq.len().saturating_sub(k - 1)).map(move |i| {
        if first {
            first = false;
        } else {
            rolling = ((rolling << 2) | seq.codes()[i + k - 1] as u64) & mask;
        }
        canonical(rolling, k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomics::{EnsemblGenerator, EnsemblParams, Release};

    fn setup() -> (Assembly, Annotation) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g).unwrap();
        (asm, ann)
    }

    #[test]
    fn kmer_encoding_round_trips_revcomp() {
        let seq: DnaSeq = "ACGTACGTACGTACGTACGTACGTACGTACG".parse().unwrap(); // 31 bases
        let fwd = encode_kmer(&seq, 0, 31);
        let rc_seq = seq.reverse_complement();
        let rc = encode_kmer(&rc_seq, 0, 31);
        assert_eq!(revcomp_kmer(fwd, 31), rc);
        assert_eq!(revcomp_kmer(revcomp_kmer(fwd, 31), 31), fwd);
        assert_eq!(canonical(fwd, 31), canonical(rc, 31), "strands share the canonical form");
    }

    #[test]
    fn rolling_kmers_match_direct_encoding() {
        let seq: DnaSeq = "ACGTTGCATGCATGCAATCGGCTA".parse().unwrap();
        let k = 7;
        let rolled: Vec<u64> = canonical_kmers(&seq, k).collect();
        let direct: Vec<u64> =
            (0..=seq.len() - k).map(|i| canonical(encode_kmer(&seq, i, k), k)).collect();
        assert_eq!(rolled, direct);
        assert_eq!(rolled.len(), seq.len() - k + 1);
    }

    #[test]
    fn index_contains_every_transcript_kmer() {
        let (asm, ann) = setup();
        let params = PseudoIndexParams { k: 21 };
        let idx = PseudoIndex::build(&asm, &ann, &params).unwrap();
        assert!(idx.n_transcripts() > 0);
        assert!(idx.n_kmers() > 0);
        // Every k-mer of every transcript resolves to a class containing it.
        for (tid, gene) in ann.genes.iter().enumerate().take(5) {
            let t = gene.transcript(&asm).unwrap();
            if t.len() < idx.k() {
                continue;
            }
            for kmer in canonical_kmers(&t, idx.k()) {
                let class = idx.lookup(kmer).expect("transcript k-mer indexed");
                assert!(
                    idx.class(class).contains(&(tid as u32)),
                    "class must contain its source transcript"
                );
            }
        }
    }

    #[test]
    fn classes_are_deduplicated() {
        let (asm, ann) = setup();
        let idx = PseudoIndex::build(&asm, &ann, &PseudoIndexParams { k: 21 }).unwrap();
        assert!(idx.n_classes() <= idx.n_kmers());
        // Most transcript sequence is unique → singleton classes dominate.
        let singletons = (0..idx.n_classes()).filter(|&c| idx.class(c as u32).len() == 1).count();
        assert!(singletons * 2 > idx.n_classes(), "{singletons}/{}", idx.n_classes());
    }

    #[test]
    fn short_transcripts_are_skipped() {
        let (asm, mut ann) = setup();
        // A gene with a tiny exon: transcript shorter than k.
        ann.genes.truncate(1);
        ann.genes[0].exons = vec![genomics::Exon { start: 0, end: 10 }];
        let idx = PseudoIndex::build(&asm, &ann, &PseudoIndexParams { k: 21 }).unwrap();
        assert_eq!(idx.n_transcripts(), 0);
        assert_eq!(idx.n_kmers(), 0);
    }

    #[test]
    fn byte_size_is_plausible() {
        let (asm, ann) = setup();
        let idx = PseudoIndex::build(&asm, &ann, &PseudoIndexParams { k: 21 }).unwrap();
        assert!(idx.byte_size() >= idx.n_kmers() * 12);
    }
}
