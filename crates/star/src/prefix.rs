//! Prefix lookup tables (`--genomeSAindexNbases` analog).
//!
//! The model is STAR's `SAindex`, which stores the suffix-array interval of *every*
//! prefix length `1..=genomeSAindexNbases` and, when a prefix is flagged absent, steps
//! down one length: an MMP search never descends the suffix array from its root, and
//! the step from "absent at depth d+1" to "present at depth d" *is* the answer. Here
//! that is a contiguous ladder of dense 4^d-entry tables, one per depth
//! `top, top−1, …, 1` ([`crate::mmp::SeedLayers`]). Only depth `k` — the base table —
//! is part of the serialized index and its size; `k` defaults to a `log4`-of-genome
//! shape like STAR's `min(14, log2(GenomeLength)/2 - 1)`, with a smaller cap suited to
//! synthetic genomes. The depths below `k` are derived from the base table when an
//! index is built or loaded ([`PrefixTable::ladder`], O(4^k)); the depths above it are
//! built on first use by scanning the suffix array ([`PrefixTable::deepen`]).
//!
//! A depth-`d` bucket holds the suffixes of at least `d` bases that start with its
//! `d`-mer. Shorter suffixes (the last `d-1` genome positions) sort in between bucket
//! runs; each bucket therefore stores its exact `[start, end)` slot range rather than
//! deriving the end from the next bucket's start.

use crate::genome::Packed2;
use crate::sa::{SaInterval, SuffixArray};

/// Rungs [`PrefixTable::deepen`] builds above the base table. Measured, not assumed
/// (EXPERIMENTS.md, "Ladder depth: the verdict"): with no rung above `k` seeding is
/// 1.2–1.4× slower on both releases; a second one, `k+2`, quadruples the bytes of the
/// first (128 MiB of release 108's resident set) and did not win nine of ten
/// alternating pairs against `k+1` on either release.
const DEEP_RUNGS: usize = 1;

/// Dense k-mer → SA-interval table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixTable {
    k: usize,
    /// Per-bucket first SA slot; `u32::MAX` marks an empty bucket.
    starts: Vec<u32>,
    /// Per-bucket one-past-last SA slot (0 for empty buckets).
    ends: Vec<u32>,
}

impl PrefixTable {
    /// Choose a table depth for a genome of `n` bases: STAR's
    /// `min(cap, log2(n)/2 - 1)` (`--genomeSAindexNbases` default), floored at 4.
    pub fn auto_k(n: usize, cap: usize) -> usize {
        let k = ((n.max(4) as f64).log2() / 2.0 - 1.0).floor() as isize;
        (k.max(4) as usize).min(cap.max(4))
    }

    /// Build the table by a single scan over the suffix array.
    ///
    /// The k-mer at every genome position is precomputed with one rolling pass
    /// (`kmers[i] = codes[i] | kmers[i+1] · 4`, truncated to `2k` bits), so the SA
    /// scan does one table lookup per suffix instead of re-packing `k` bases —
    /// O(n) total rather than O(nk).
    pub fn build(sa: &SuffixArray, codes: &[u8], k: usize) -> PrefixTable {
        assert!((1..=13).contains(&k), "prefix depth {k} unsupported");
        let buckets = 1usize << (2 * k);
        let mask = (buckets - 1) as u32;
        let mut starts = vec![u32::MAX; buckets];
        let mut ends = vec![0u32; buckets];
        let n = codes.len();
        let mut kmers: Vec<u32> = Vec::new();
        if n >= k {
            kmers = vec![0u32; n - k + 1];
            let last = n - k;
            kmers[last] = kmer_value(&codes[last..last + k]) as u32;
            for i in (0..last).rev() {
                kmers[i] = ((kmers[i + 1] << 2) | codes[i] as u32) & mask;
            }
        }
        for (slot, &pos) in sa.positions().iter().enumerate() {
            let pos = pos as usize;
            if pos >= kmers.len() {
                continue; // suffix too short to be addressable through the table
            }
            let m = kmers[pos] as usize;
            let slot = slot as u32;
            if starts[m] == u32::MAX {
                starts[m] = slot;
            }
            debug_assert!(
                ends[m] == 0 || ends[m] == slot,
                "bucket {m} not contiguous in the suffix array"
            );
            ends[m] = slot + 1;
        }
        PrefixTable { k, starts, ends }
    }

    /// The table depth `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// SA interval of suffixes starting with the `k`-mer at the front of `pattern`.
    /// Returns `None` when `pattern` is shorter than `k` (a shallower rung of the
    /// ladder answers then).
    #[inline]
    pub fn lookup(&self, pattern: &[u8]) -> Option<SaInterval> {
        if pattern.len() < self.k {
            return None;
        }
        Some(self.lookup_value(kmer_value(&pattern[..self.k])))
    }

    /// SA interval for an LSB-first-packed `k`-mer value — the O(1) probe the
    /// packed hot path uses: `seq.word_from(p) & ((1 << 2k) - 1)` *is* the value.
    /// The caller guarantees at least `k` bases remain at the probe position.
    #[inline]
    pub fn lookup_value(&self, m: usize) -> SaInterval {
        let lo = self.starts[m];
        if lo == u32::MAX {
            return SaInterval { lo: 0, hi: 0 };
        }
        SaInterval { lo, hi: self.ends[m] }
    }

    /// The rungs of the ladder below this (base) table, derived from it: returns
    /// depths `k, k-1, …, 1`, this table first.
    ///
    /// A depth-`d` bucket is the union of the four depth-`d+1` buckets that share its
    /// `d`-mer (LSB-first packing: its low `2d` bits) — contiguous in the suffix array,
    /// so min start / max end — plus the one suffix with exactly `d` bases left, which
    /// no deeper table can address and which sorts first among the suffixes starting
    /// with its `d` bases. O(4^k) in all: no scan of the suffix array.
    pub fn ladder(self, sa: &SuffixArray, seq: &Packed2) -> Vec<PrefixTable> {
        let mut rungs = vec![self];
        for d in (1..rungs[0].k).rev() {
            let deeper = rungs.last().expect("starts non-empty");
            let buckets = 1usize << (2 * d);
            let mut starts = vec![u32::MAX; buckets];
            let mut ends = vec![0u32; buckets];
            for (m, (&s, &e)) in deeper.starts.iter().zip(&deeper.ends).enumerate() {
                if s != u32::MAX {
                    let parent = m & (buckets - 1);
                    starts[parent] = starts[parent].min(s);
                    ends[parent] = ends[parent].max(e);
                }
            }
            if let Some(at) = seq.len().checked_sub(d) {
                let tail: Vec<u8> = (at..seq.len()).map(|i| seq.get(i)).collect();
                let bucket = sa.find(seq, &tail);
                if !bucket.is_empty() {
                    let m = kmer_value(&tail);
                    debug_assert!(starts[m] == u32::MAX || (starts[m], ends[m]) == (bucket.lo + 1, bucket.hi));
                    (starts[m], ends[m]) = (bucket.lo, bucket.hi);
                }
            }
            rungs.push(PrefixTable { k: d, starts, ends });
        }
        rungs
    }

    /// The rungs of the ladder above the base table, deepest first: depths
    /// `top, …, base_k + 1`, contiguous, each built by one scan of the suffix array.
    ///
    /// A `d`-mer bucket is exactly the interval that refinement from the root reaches
    /// at depth `d`, so no rung changes a search result. What a deep rung buys is the
    /// answer to "is this `d`-mer in the genome at all" in one load: the strand of a
    /// read that does not map behaves like random sequence, and almost every search
    /// on it ends at the first rung whose bucket is not empty. A depth is built while
    /// it fits within 4× the genome length in buckets (≤ 13), up to
    /// `base_k + DEEP_RUNGS`, bounding the tables at 32 bytes per genome base.
    /// These tables are runtime-only: built on the first [`crate::align::Aligner::new`]
    /// over an index and never serialized, so index files and their digests are
    /// unaffected.
    pub fn deepen(sa: &SuffixArray, codes: &[u8], base_k: usize) -> Vec<PrefixTable> {
        let mut rungs: Vec<PrefixTable> = (base_k + 1..=(base_k + DEEP_RUNGS).min(13))
            .take_while(|&d| (1usize << (2 * d)) <= 4 * codes.len())
            .map(|d| PrefixTable::build(sa, codes, d))
            .collect();
        rungs.reverse();
        rungs
    }

    /// Bytes of memory/disk the table occupies.
    pub fn byte_size(&self) -> usize {
        (self.starts.len() + self.ends.len()) * std::mem::size_of::<u32>()
    }

    /// Raw parts for serialization.
    pub(crate) fn raw(&self) -> (&[u32], &[u32], usize) {
        (&self.starts, &self.ends, self.k)
    }

    /// Rebuild from serialized parts.
    pub(crate) fn from_raw(
        starts: Vec<u32>,
        ends: Vec<u32>,
        k: usize,
        sa_len: usize,
    ) -> Result<PrefixTable, crate::StarError> {
        if k == 0 || k > 13 || starts.len() != 1usize << (2 * k) || ends.len() != starts.len() {
            return Err(crate::StarError::CorruptIndex("prefix table shape mismatch".into()));
        }
        for (m, (&s, &e)) in starts.iter().zip(&ends).enumerate() {
            if s == u32::MAX {
                if e != 0 {
                    return Err(crate::StarError::CorruptIndex(format!("bucket {m}: empty start, end {e}")));
                }
            } else if s >= e || e as usize > sa_len {
                return Err(crate::StarError::CorruptIndex(format!("bucket {m}: bad range {s}..{e}")));
            }
        }
        Ok(PrefixTable { k, starts, ends })
    }
}

/// Pack 2-bit codes into an integer, LSB-first (base `i` at bits `2i`) — the same
/// layout [`crate::genome::Packed2::word_from`] produces, so a packed read yields
/// probe values in O(1). Bucket addressing only needs a bijection k-mer↔index: each bucket's SA
/// slots are contiguous because they share a k-base prefix, regardless of how the
/// buckets themselves are numbered.
#[inline]
pub(crate) fn kmer_value(codes: &[u8]) -> usize {
    let mut v = 0usize;
    for (i, &c) in codes.iter().enumerate() {
        v |= (c as usize) << (2 * i);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::Packed2;
    use genomics::DnaSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every rung of the whole ladder over `codes` around a depth-`k` base table:
    /// scanned above the base, derived below it, deepest first.
    fn whole_ladder(sa: &SuffixArray, codes: &[u8], k: usize) -> Vec<PrefixTable> {
        let mut rungs = PrefixTable::deepen(sa, codes, k);
        rungs.extend(PrefixTable::build(sa, codes, k).ladder(sa, &Packed2::from_codes(codes)));
        assert!(rungs.iter().map(|t| t.k()).eq((1..=rungs.len()).rev()), "contiguous down to depth 1");
        rungs
    }

    /// Every bucket of every rung is the interval a from-scratch search finds.
    fn assert_ladder_agrees_with_find(codes: &[u8], k: usize) {
        let packed = Packed2::from_codes(codes);
        let sa = SuffixArray::build(codes);
        for table in whole_ladder(&sa, codes, k) {
            let d = table.k();
            for m in 0..(1usize << (2 * d)) {
                // LSB-first decode, mirroring kmer_value's packing.
                let pattern: Vec<u8> = (0..d).map(|i| ((m >> (2 * i)) & 0b11) as u8).collect();
                let via_table = table.lookup(&pattern).unwrap();
                assert_eq!(via_table, table.lookup_value(m), "depth {d}, value probe {m:#b}");
                let via_find = sa.find(&packed, &pattern);
                if via_find.is_empty() {
                    assert!(via_table.is_empty(), "depth {d}, k-mer {m:#b}");
                } else {
                    assert_eq!(via_table, via_find, "depth {d}, k-mer {m:#b}");
                }
            }
        }
    }

    #[test]
    fn lookup_agrees_with_sa_find_on_random_text() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = DnaSeq::random(&mut rng, 2000);
        let sa = SuffixArray::build(s.codes());
        assert_eq!(whole_ladder(&sa, s.codes(), 4).len(), 5, "one scanned rung above the base");
        assert_ladder_agrees_with_find(s.codes(), 4);
    }

    #[test]
    fn short_suffixes_do_not_leak_into_buckets() {
        // Craft a text whose final short suffixes sort between bucket runs.
        let s: DnaSeq = "CACGTC".parse().unwrap(); // suffixes include "C", "TC" (short for k=3)
        let sa = SuffixArray::build(s.codes());
        let t = PrefixTable::build(&sa, s.codes(), 3);
        for pat_str in ["CAC", "ACG", "CGT", "GTC", "CCC", "TCA"] {
            let pat: DnaSeq = pat_str.parse().unwrap();
            let via_table = t.lookup(pat.codes()).unwrap();
            let via_find = sa.find(&Packed2::from_codes(s.codes()), pat.codes());
            if via_find.is_empty() {
                assert!(via_table.is_empty(), "{pat_str}");
            } else {
                assert_eq!(via_table, via_find, "{pat_str}");
            }
        }
        // The derived rungs must take those suffixes in: "TC" and "C" each sit alone
        // in front of, or instead of, the deeper buckets their rung was folded from.
        assert_ladder_agrees_with_find(s.codes(), 3);
    }

    #[test]
    fn derived_rungs_agree_with_sa_find_on_degenerate_texts() {
        // Homopolymer: every short suffix lands in the one non-empty bucket.
        assert_ladder_agrees_with_find(&[0u8; 64], 4);
        // Tandem repeat, and a base (T) the text never uses.
        let tandem: Vec<u8> = [0u8, 1, 2].iter().copied().cycle().take(200).collect();
        assert_ladder_agrees_with_find(&tandem, 5);
        // Texts shorter than the base depth: the base table is empty, and the rungs
        // at or below the text length hold only what `ladder` adds.
        for text in ["ACG", "A", "TTTT"] {
            assert_ladder_agrees_with_find(text.parse::<DnaSeq>().unwrap().codes(), 5);
        }
    }

    #[test]
    fn short_pattern_returns_none() {
        let s: DnaSeq = "ACGTACGTACGTACGT".parse().unwrap();
        let sa = SuffixArray::build(s.codes());
        let table = PrefixTable::build(&sa, s.codes(), 4);
        assert!(table.lookup(&[0, 1]).is_none());
        assert!(table.lookup(&[0, 1, 2, 3]).is_some());
    }

    #[test]
    fn auto_k_scales_with_genome_and_respects_cap() {
        assert_eq!(PrefixTable::auto_k(0, 12), 4);
        let k_small = PrefixTable::auto_k(10_000, 12);
        let k_big = PrefixTable::auto_k(100_000_000, 12);
        assert!(k_small < k_big);
        assert!(k_big <= 12);
        assert_eq!(PrefixTable::auto_k(usize::MAX / 2, 8), 8);
    }

    #[test]
    fn byte_size_counts_both_arrays() {
        let s: DnaSeq = "ACGTACGTACGT".parse().unwrap();
        let sa = SuffixArray::build(s.codes());
        let t = PrefixTable::build(&sa, s.codes(), 4);
        assert_eq!(t.byte_size(), 2 * 256 * 4);
    }

    #[test]
    fn from_raw_validates() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        let sa = SuffixArray::build(s.codes());
        let t = PrefixTable::build(&sa, s.codes(), 4);
        let (starts, ends, k) = t.raw();
        assert!(PrefixTable::from_raw(starts.to_vec(), ends.to_vec(), k, sa.len()).is_ok());
        assert!(PrefixTable::from_raw(starts.to_vec(), ends.to_vec(), 3, sa.len()).is_err());
        // Empty bucket with nonzero end.
        let mut bad_ends = ends.to_vec();
        let empty_m = starts.iter().position(|&s| s == u32::MAX).unwrap();
        bad_ends[empty_m] = 1;
        assert!(PrefixTable::from_raw(starts.to_vec(), bad_ends, k, sa.len()).is_err());
        // Range beyond SA.
        let full_m = starts.iter().position(|&s| s != u32::MAX).unwrap();
        let mut bad_ends = ends.to_vec();
        bad_ends[full_m] = sa.len() as u32 + 5;
        assert!(PrefixTable::from_raw(starts.to_vec(), bad_ends, k, sa.len()).is_err());
    }

    #[test]
    fn homopolymer_buckets_match_find() {
        let codes = vec![0u8; 64];
        let sa = SuffixArray::build(&codes);
        let t = PrefixTable::build(&sa, &codes, 4);
        let pattern = vec![0u8; 4];
        assert_eq!(t.lookup(&pattern).unwrap(), sa.find(&Packed2::from_codes(&codes), &pattern));
    }
}
