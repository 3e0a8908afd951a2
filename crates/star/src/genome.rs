//! The packed, concatenated reference genome (STAR's `Genome` file analog).
//!
//! All contigs of an assembly are concatenated into one coordinate space so the
//! suffix array indexes a single sequence. The bases live in a [`Packed2`]: four
//! bases per byte, 32 per `u64` word, LSB-first (base `i` occupies bits
//! `[2*(i%32), 2*(i%32)+2)` of word `i/32`). That cuts the resident genome 4×
//! versus the old byte-per-base layout and lets the hot path compare 32 bases per
//! instruction via [`mismatch_mask`]. Contig boundaries are kept in a span table;
//! alignment candidates that would cross a boundary are rejected by
//! [`PackedGenome::fits_in_contig`] (real STAR inserts padding spacers, same effect).

use crate::StarError;
use genomics::{Assembly, ContigKind};

/// Bases per 64-bit word in a [`Packed2`].
pub const BASES_PER_WORD: usize = 32;

/// Even-bit mask: one bit per 2-bit base lane.
const LANE_MASK: u64 = 0x5555_5555_5555_5555;

/// A 2-bit-packed DNA code sequence: 32 bases per `u64`, LSB-first.
///
/// Base `i` is stored at bit offset `2*(i % 32)` of word `i / 32`, so
/// [`Packed2::word_from`] yields 32 consecutive bases with base `i` in the two
/// lowest bits — a k-mer value (LSB-first) is just `word_from(i) & ((1<<2k)-1)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Packed2 {
    words: Vec<u64>,
    len: usize,
}

impl Packed2 {
    /// An empty sequence (useful as a reusable scratch buffer).
    pub fn new() -> Packed2 {
        Packed2::default()
    }

    /// Pack a byte-per-base code slice (codes must be `0..=3`).
    pub fn from_codes(codes: &[u8]) -> Packed2 {
        let mut p = Packed2::new();
        p.pack_codes(codes);
        p
    }

    /// Repack `codes` into this buffer, reusing its allocation (zero-alloc once warm).
    pub fn pack_codes(&mut self, codes: &[u8]) {
        self.len = codes.len();
        self.words.clear();
        self.words.resize(codes.len().div_ceil(BASES_PER_WORD), 0);
        for (w, chunk) in codes.chunks(BASES_PER_WORD).enumerate() {
            let mut word = 0u64;
            for (lane, &c) in chunk.iter().enumerate() {
                debug_assert!(c <= 3, "invalid base code {c}");
                word |= (c as u64) << (lane << 1);
            }
            self.words[w] = word;
        }
    }

    /// Reassemble from raw words (index deserialization). Tail bits past `len`
    /// bases must be zero — the canonical form every packer here produces.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<Packed2, StarError> {
        if words.len() != len.div_ceil(BASES_PER_WORD) {
            return Err(StarError::CorruptIndex(format!(
                "packed genome: {} words cannot hold {len} bases",
                words.len()
            )));
        }
        let tail = len % BASES_PER_WORD;
        if tail != 0 && words.last().copied().unwrap_or(0) >> (tail << 1) != 0 {
            return Err(StarError::CorruptIndex(
                "packed genome: nonzero bits past sequence end".into(),
            ));
        }
        Ok(Packed2 { words, len })
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence holds no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        debug_assert!(i < self.len, "base index {i} out of range {}", self.len);
        ((self.words[i >> 5] >> ((i & 31) << 1)) & 3) as u8
    }

    /// 32 bases starting at `i`, LSB-first (base `i` in bits 0..2). Positions past
    /// the end read as zero (base A) — callers must mask by the remaining length
    /// and never rely on the padding matching anything.
    #[inline]
    pub fn word_from(&self, i: usize) -> u64 {
        let w = i >> 5;
        let bit = (i & 31) << 1;
        let lo = self.words.get(w).copied().unwrap_or(0) >> bit;
        if bit == 0 {
            lo
        } else {
            lo | (self.words.get(w + 1).copied().unwrap_or(0) << (64 - bit))
        }
    }

    /// The raw word array (serialization).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Unpack to byte-per-base codes (for tests and tools: the index never unpacks).
    pub fn to_codes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.get(i));
        }
        out
    }

    /// Resident bytes of the packed words.
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

/// One mismatch-indicator bit per base lane: bit `2*lane` is set iff the two
/// 2-bit codes at that lane differ. `trailing_zeros()/2` of a nonzero mask is
/// the first mismatching lane; `count_ones()` is the mismatch count.
#[inline]
pub fn mismatch_mask(a: u64, b: u64) -> u64 {
    let x = a ^ b;
    (x | (x >> 1)) & LANE_MASK
}

/// Length of the common prefix of `a[ai..]` and `b[bi..]`, capped at `max`.
/// `max` must not run past either sequence end (zero padding is never compared).
#[inline]
pub fn common_prefix_len(a: &Packed2, ai: usize, b: &Packed2, bi: usize, max: usize) -> usize {
    debug_assert!(ai + max <= a.len() && bi + max <= b.len());
    let mut o = 0;
    while o < max {
        let block = (max - o).min(BASES_PER_WORD);
        let mut x = mismatch_mask(a.word_from(ai + o), b.word_from(bi + o));
        if block < BASES_PER_WORD {
            x &= (1u64 << (block << 1)) - 1;
        }
        if x != 0 {
            return o + (x.trailing_zeros() >> 1) as usize;
        }
        o += block;
    }
    max
}

/// Hamming distance between `a[ai..ai+len)` and `b[bi..bi+len)`.
/// `len` must not run past either sequence end.
#[inline]
pub fn count_mismatches(a: &Packed2, ai: usize, b: &Packed2, bi: usize, len: usize) -> u32 {
    debug_assert!(ai + len <= a.len() && bi + len <= b.len());
    let mut o = 0;
    let mut mm = 0;
    while o < len {
        let block = (len - o).min(BASES_PER_WORD);
        let mut x = mismatch_mask(a.word_from(ai + o), b.word_from(bi + o));
        if block < BASES_PER_WORD {
            x &= (1u64 << (block << 1)) - 1;
        }
        mm += x.count_ones();
        o += block;
    }
    mm
}

/// One contig's location within the concatenated genome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContigSpan {
    /// Contig name, e.g. `"1"` or `"KI270302.1"`.
    pub name: String,
    /// Role in the assembly (chromosome vs scaffold) — kept for diagnostics.
    pub kind: ContigKind,
    /// Global start offset in the concatenated genome.
    pub start: u64,
    /// Length in bases.
    pub len: u64,
}

impl ContigSpan {
    /// Global end offset (exclusive).
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// The concatenated genome: 2-bit-packed bases ([`Packed2`], four per byte)
/// plus the contig span table.
#[derive(Clone, Debug)]
pub struct PackedGenome {
    seq: Packed2,
    spans: Vec<ContigSpan>,
}

impl PackedGenome {
    /// Concatenate all contigs of `assembly`. Fails on an empty assembly.
    pub fn from_assembly(assembly: &Assembly) -> Result<PackedGenome, StarError> {
        if assembly.contigs.is_empty() || assembly.total_len() == 0 {
            return Err(StarError::InvalidInput("assembly has no sequence".into()));
        }
        let mut codes = Vec::with_capacity(assembly.total_len());
        let mut spans = Vec::with_capacity(assembly.contigs.len());
        for contig in &assembly.contigs {
            spans.push(ContigSpan {
                name: contig.name.clone(),
                kind: contig.kind,
                start: codes.len() as u64,
                len: contig.len() as u64,
            });
            codes.extend_from_slice(contig.seq.codes());
        }
        Ok(PackedGenome { seq: Packed2::from_codes(&codes), spans })
    }

    /// Reassemble from raw parts (used by index deserialization).
    pub(crate) fn from_parts(seq: Packed2, spans: Vec<ContigSpan>) -> Result<PackedGenome, StarError> {
        // Span lengths come from an untrusted blob: a sum that overflows is corrupt.
        let total = spans.iter().try_fold(0u64, |sum, s| sum.checked_add(s.len));
        if total != Some(seq.len() as u64) {
            return Err(StarError::CorruptIndex(format!(
                "span table covers {total:?} bases but genome has {}",
                seq.len()
            )));
        }
        let mut expect = 0u64;
        for s in &spans {
            if s.start != expect {
                return Err(StarError::CorruptIndex(format!("span {} starts at {} != {expect}", s.name, s.start)));
            }
            expect = s.end();
        }
        Ok(PackedGenome { seq, spans })
    }

    /// Total genome length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True when the genome holds no sequence (never constructed; kept for API hygiene).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// The 2-bit code at global position `pos`.
    #[inline]
    pub fn code(&self, pos: usize) -> u8 {
        self.seq.get(pos)
    }

    /// The packed base sequence.
    #[inline]
    pub fn seq(&self) -> &Packed2 {
        &self.seq
    }

    /// The contig span table, in genome order.
    pub fn spans(&self) -> &[ContigSpan] {
        &self.spans
    }

    /// Index of the contig containing global position `gpos`.
    ///
    /// Panics if `gpos` is out of range (positions always come from the suffix array).
    pub fn contig_index_of(&self, gpos: u64) -> usize {
        debug_assert!((gpos as usize) < self.seq.len(), "gpos out of range");
        // partition_point: first span with start > gpos, minus one.
        self.spans.partition_point(|s| s.start <= gpos) - 1
    }

    /// The contig span containing `gpos`.
    pub fn contig_of(&self, gpos: u64) -> &ContigSpan {
        &self.spans[self.contig_index_of(gpos)]
    }

    /// Convert a global position to `(contig_index, local_position)`.
    pub fn to_local(&self, gpos: u64) -> (usize, u64) {
        let idx = self.contig_index_of(gpos);
        (idx, gpos - self.spans[idx].start)
    }

    /// True when `[gpos, gpos + len)` lies entirely within one contig.
    #[inline]
    pub fn fits_in_contig(&self, gpos: u64, len: u64) -> bool {
        if (gpos + len) as usize > self.seq.len() {
            return false;
        }
        let span = self.contig_of(gpos);
        gpos + len <= span.end()
    }

    /// Look up a span by contig name.
    pub fn span_by_name(&self, name: &str) -> Option<&ContigSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Resident bytes of this genome: the packed words plus the span table.
    /// Since the bases are stored 2-bit packed, this is what the process pays —
    /// the honest input to `right_size`-style instance decisions.
    pub fn packed_byte_size(&self) -> usize {
        self.seq.byte_size() + self.spans.iter().map(|s| s.name.len() + 24).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomics::{Contig, DnaSeq};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_seq(len: usize, seed: u64) -> DnaSeq {
        DnaSeq::random(&mut StdRng::seed_from_u64(seed), len)
    }

    fn asm() -> Assembly {
        Assembly {
            name: "T".into(),
            release: 111,
            contigs: vec![
                Contig { name: "1".into(), kind: ContigKind::Chromosome, seq: "ACGTACGTAC".parse().unwrap() },
                Contig { name: "2".into(), kind: ContigKind::Chromosome, seq: "GGGG".parse().unwrap() },
                Contig {
                    name: "KI1".into(),
                    kind: ContigKind::UnplacedScaffold,
                    seq: "TTTTTT".parse().unwrap(),
                },
            ],
        }
    }

    #[test]
    fn concatenation_preserves_order_and_length() {
        let g = PackedGenome::from_assembly(&asm()).unwrap();
        assert_eq!(g.len(), 20);
        assert_eq!(g.spans().len(), 3);
        assert_eq!(g.spans()[1].start, 10);
        assert_eq!(g.spans()[2].start, 14);
        // Base 10 is the first G of contig 2.
        assert_eq!(g.code(10), genomics::Base::G.code());
    }

    #[test]
    fn packed_round_trips_arbitrary_lengths() {
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 100, 257] {
            let seq = rand_seq(len, 0x5eed ^ len as u64);
            let p = Packed2::from_codes(seq.codes());
            assert_eq!(p.len(), len);
            assert_eq!(p.to_codes(), seq.codes());
            for (i, &c) in seq.codes().iter().enumerate() {
                assert_eq!(p.get(i), c, "base {i} of len {len}");
            }
            // Round-trip through the raw-word form used by index serde.
            let back = Packed2::from_words(p.words().to_vec(), len).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn from_words_rejects_bad_shapes() {
        let p = Packed2::from_codes(&[1, 2, 3, 0, 1]);
        assert!(Packed2::from_words(vec![], 5).is_err(), "missing words");
        assert!(Packed2::from_words(vec![p.words()[0], 0], 5).is_err(), "extra word");
        let mut dirty = p.words().to_vec();
        dirty[0] |= 1 << 12; // bit past the 5-base payload
        assert!(Packed2::from_words(dirty, 5).is_err(), "nonzero tail bits");
        assert!(Packed2::from_words(p.words().to_vec(), 5).is_ok());
    }

    #[test]
    fn word_from_matches_scalar_extraction() {
        let seq = rand_seq(150, 0xabcd);
        let p = Packed2::from_codes(seq.codes());
        for i in 0..150 {
            let w = p.word_from(i);
            for lane in 0..BASES_PER_WORD.min(150 - i) {
                assert_eq!(((w >> (lane << 1)) & 3) as u8, p.get(i + lane), "pos {i} lane {lane}");
            }
        }
    }

    #[test]
    fn mismatch_helpers_agree_with_scalar() {
        let a = rand_seq(300, 1);
        let mut bc = a.codes().to_vec();
        for i in (7..300).step_by(13) {
            bc[i] = (bc[i] + 1) & 3;
        }
        let pa = Packed2::from_codes(a.codes());
        let pb = Packed2::from_codes(&bc);
        for (ai, bi, len) in [(0, 0, 300), (5, 5, 200), (33, 1, 90), (64, 64, 1), (10, 10, 0)] {
            let scalar_mm =
                (0..len).filter(|&j| a.codes()[ai + j] != bc[bi + j]).count() as u32;
            assert_eq!(count_mismatches(&pa, ai, &pb, bi, len), scalar_mm);
            let scalar_cp =
                (0..len).position(|j| a.codes()[ai + j] != bc[bi + j]).unwrap_or(len);
            assert_eq!(common_prefix_len(&pa, ai, &pb, bi, len), scalar_cp);
        }
    }

    #[test]
    fn locate_positions_across_boundaries() {
        let g = PackedGenome::from_assembly(&asm()).unwrap();
        assert_eq!(g.to_local(0), (0, 0));
        assert_eq!(g.to_local(9), (0, 9));
        assert_eq!(g.to_local(10), (1, 0));
        assert_eq!(g.to_local(13), (1, 3));
        assert_eq!(g.to_local(14), (2, 0));
        assert_eq!(g.to_local(19), (2, 5));
        assert_eq!(g.contig_of(12).name, "2");
    }

    #[test]
    fn fits_in_contig_rejects_boundary_crossings() {
        let g = PackedGenome::from_assembly(&asm()).unwrap();
        assert!(g.fits_in_contig(0, 10));
        assert!(!g.fits_in_contig(0, 11));
        assert!(g.fits_in_contig(10, 4));
        assert!(!g.fits_in_contig(12, 3));
        assert!(g.fits_in_contig(14, 6));
        assert!(!g.fits_in_contig(14, 7), "beyond genome end");
    }

    #[test]
    fn span_lookup_by_name() {
        let g = PackedGenome::from_assembly(&asm()).unwrap();
        assert_eq!(g.span_by_name("KI1").unwrap().len, 6);
        assert!(g.span_by_name("zzz").is_none());
    }

    #[test]
    fn rejects_empty_assembly() {
        let empty = Assembly { name: "E".into(), release: 1, contigs: vec![] };
        assert!(PackedGenome::from_assembly(&empty).is_err());
    }

    #[test]
    fn from_parts_validates_span_table() {
        let g = PackedGenome::from_assembly(&asm()).unwrap();
        let seq = g.seq().clone();
        let mut spans = g.spans().to_vec();
        assert!(PackedGenome::from_parts(seq.clone(), spans.clone()).is_ok());
        spans[1].start = 11;
        assert!(PackedGenome::from_parts(seq.clone(), spans).is_err());
        let mut spans = g.spans().to_vec();
        spans[2].len = 99;
        assert!(PackedGenome::from_parts(seq, spans).is_err());
    }

    #[test]
    fn packed_footprint_is_at_most_027_of_unpacked() {
        // The index-footprint contract behind right_size-style decisions: the
        // resident genome must cost ≤ ~0.27× the byte-per-base encoding.
        let contigs: Vec<Contig> = (0..4)
            .map(|i| Contig {
                name: format!("c{i}"),
                kind: ContigKind::Chromosome,
                seq: rand_seq(25_000, i as u64),
            })
            .collect();
        let a = Assembly { name: "F".into(), release: 1, contigs };
        let g = PackedGenome::from_assembly(&a).unwrap();
        let unpacked = g.len(); // one byte per base
        assert!(
            (g.packed_byte_size() as f64) <= 0.27 * unpacked as f64,
            "packed {} vs unpacked {unpacked}",
            g.packed_byte_size()
        );
    }
}
