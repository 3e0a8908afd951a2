//! DNA alphabet and sequence containers.
//!
//! Everything here is byte-per-base ([`DnaSeq`]): that is what the simulators and
//! the FASTA/FASTQ IO produce. The 2-bit packed form real STAR stores in its
//! `Genome` file is the aligner's concern and lives there (`star_aligner::Packed2`).

use rand::Rng;
use std::fmt;

/// A single DNA base, stored as its 2-bit code (`A=0, C=1, G=2, T=3`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Base(u8);

impl Base {
    pub const A: Base = Base(0);
    pub const C: Base = Base(1);
    pub const G: Base = Base(2);
    pub const T: Base = Base(3);

    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// The 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self.0
    }

    /// Parse an ASCII character (case-insensitive). Ambiguity codes (`N`, `R`, ...)
    /// are rejected; the FASTA reader substitutes them before calling this.
    #[inline]
    pub fn from_char(c: char) -> Option<Base> {
        match c {
            'A' | 'a' => Some(Base::A),
            'C' | 'c' => Some(Base::C),
            'G' | 'g' => Some(Base::G),
            'T' | 't' => Some(Base::T),
            _ => None,
        }
    }

    /// The ASCII character for this base.
    #[inline]
    pub fn to_char(self) -> char {
        match self.0 {
            0 => 'A',
            1 => 'C',
            2 => 'G',
            3 => 'T',
            _ => unreachable!(),
        }
    }

    /// Watson–Crick complement (`A<->T`, `C<->G`).
    #[inline]
    pub fn complement(self) -> Base {
        Base(3 - self.0)
    }

    /// A uniformly random base.
    #[inline]
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Base {
        Base(rng.gen_range(0..4u8))
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// A DNA sequence stored one byte per base (2-bit code in each byte).
///
/// This is the working representation used throughout alignment: random access is a
/// plain array index and comparisons compile to byte compares.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    codes: Vec<u8>,
}

impl DnaSeq {
    /// An empty sequence.
    pub fn new() -> DnaSeq {
        DnaSeq { codes: Vec::new() }
    }

    /// An empty sequence with reserved capacity.
    pub fn with_capacity(cap: usize) -> DnaSeq {
        DnaSeq { codes: Vec::with_capacity(cap) }
    }

    /// Build from raw 2-bit codes. Panics if any code is `> 3`.
    pub fn from_codes(codes: Vec<u8>) -> DnaSeq {
        assert!(codes.iter().all(|&c| c < 4), "invalid base code");
        DnaSeq { codes }
    }

    /// Parse from an ASCII string of `ACGT` (case-insensitive).
    pub fn from_str_strict(s: &str) -> Result<DnaSeq, crate::GenomicsError> {
        let mut codes = Vec::with_capacity(s.len());
        for c in s.chars() {
            match Base::from_char(c) {
                Some(b) => codes.push(b.code()),
                None => return Err(crate::GenomicsError::InvalidBase(c)),
            }
        }
        Ok(DnaSeq { codes })
    }

    /// Generate `len` uniformly random bases.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> DnaSeq {
        let codes = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
        DnaSeq { codes }
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the sequence contains no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The base at position `i`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        Base(self.codes[i])
    }

    /// Raw 2-bit codes, one per byte.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Append a base.
    #[inline]
    pub fn push(&mut self, b: Base) {
        self.codes.push(b.code());
    }

    /// Append all bases of `other`.
    pub fn extend_from(&mut self, other: &DnaSeq) {
        self.codes.extend_from_slice(&other.codes);
    }

    /// Copy of the half-open range `[start, end)`.
    pub fn subseq(&self, start: usize, end: usize) -> DnaSeq {
        DnaSeq { codes: self.codes[start..end].to_vec() }
    }

    /// Reverse complement of the whole sequence.
    pub fn reverse_complement(&self) -> DnaSeq {
        let codes = self.codes.iter().rev().map(|&c| 3 - c).collect();
        DnaSeq { codes }
    }

    /// Iterator over bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        self.codes.iter().map(|&c| Base(c))
    }

    /// Fraction of positions where `self` and `other` agree, over the shorter length.
    /// Returns 1.0 for two empty sequences.
    pub fn identity(&self, other: &DnaSeq) -> f64 {
        let n = self.len().min(other.len());
        if n == 0 {
            return 1.0;
        }
        let same = (0..n).filter(|&i| self.codes[i] == other.codes[i]).count();
        same as f64 / n as f64
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &c in &self.codes {
            write!(f, "{}", Base(c).to_char())?;
        }
        Ok(())
    }
}

impl fmt::Debug for DnaSeq {
    /// Prints a truncated preview so test failures stay readable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 40;
        if self.len() <= PREVIEW {
            write!(f, "DnaSeq(\"{self}\")")
        } else {
            let head: String = self.iter().take(PREVIEW).map(|b| b.to_char()).collect();
            write!(f, "DnaSeq(\"{head}…\", len={})", self.len())
        }
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = crate::GenomicsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnaSeq::from_str_strict(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn base_char_round_trip() {
        for b in Base::ALL {
            assert_eq!(Base::from_char(b.to_char()), Some(b));
            assert_eq!(Base::from_char(b.to_char().to_ascii_lowercase()), Some(b));
        }
        assert_eq!(Base::from_char('N'), None);
        assert_eq!(Base::from_char('x'), None);
    }

    #[test]
    fn complement_is_involutive_and_correct() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
    }

    #[test]
    fn dnaseq_parse_and_display() {
        let s: DnaSeq = "ACGTacgt".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s.len(), 8);
        assert!("ACGN".parse::<DnaSeq>().is_err());
    }

    #[test]
    fn reverse_complement_known_value() {
        let s: DnaSeq = "AACGT".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "ACGTT");
    }

    #[test]
    fn reverse_complement_is_involutive() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = DnaSeq::random(&mut rng, 257);
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn subseq_matches_slice_semantics() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(s.subseq(2, 6).to_string(), "GTAC");
        assert_eq!(s.subseq(0, 0).len(), 0);
    }

    #[test]
    fn identity_counts_matches() {
        let a: DnaSeq = "ACGT".parse().unwrap();
        let b: DnaSeq = "ACGA".parse().unwrap();
        assert!((a.identity(&b) - 0.75).abs() < 1e-12);
        assert_eq!(DnaSeq::new().identity(&DnaSeq::new()), 1.0);
    }

    #[test]
    fn random_seq_is_deterministic_per_seed() {
        let a = DnaSeq::random(&mut StdRng::seed_from_u64(5), 100);
        let b = DnaSeq::random(&mut StdRng::seed_from_u64(5), 100);
        assert_eq!(a, b);
    }
}
