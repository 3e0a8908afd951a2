//! Prefix lookup tables (`--genomeSAindexNbases` analog).
//!
//! The model is STAR's `SAindex`, which stores the suffix-array interval of *every*
//! prefix length `1..=genomeSAindexNbases` and, when a prefix is flagged absent, steps
//! down one length: an MMP search never descends the suffix array from its root, and
//! the step from "absent at depth d+1" to "present at depth d" *is* the answer. Here
//! that is a contiguous ladder of dense 4^d-bucket tables, one per depth
//! `top, top−1, …, 1` ([`crate::mmp::SeedLayers`]). Only depth `k` — the base table —
//! is part of the serialized index and its size; `k` defaults to a `log4`-of-genome
//! shape like STAR's `min(14, log2(GenomeLength)/2 - 1)`, with a smaller cap suited to
//! synthetic genomes. The depths below `k` are derived from the base table when an
//! index is built or loaded ([`PrefixTable::ladder`], O(4^k)); the depths above it are
//! built on first use by scanning the suffix array ([`PrefixTable::deepen`]).
//!
//! A bucket is one [`SaInterval`], addressed by its `d`-mer packed LSB-first — the
//! value `seq.word_from(pos) & mask` reads from a [`Packed2`], so every rung is built
//! from the packed genome and probed from a packed read the same way. An empty bucket
//! is `SaInterval { lo: 0, hi: 0 }`. A depth-`d` bucket holds the suffixes of at least
//! `d` bases that start with its `d`-mer. Shorter suffixes (the last `d-1` genome
//! positions) sort in between bucket runs, so each bucket stores its exact interval
//! rather than deriving its end from the next bucket's start.
//!
//! On disk (`PrefixTable::encode`) a table is its depth, every bucket's first slot,
//! then every bucket's one-past-last slot, with an empty bucket written as
//! `u32::MAX, 0`: index format version 2, which this layout must keep.

use crate::genome::Packed2;
use crate::sa::{SaInterval, SuffixArray};
use crate::StarError;

/// Rungs [`PrefixTable::deepen`] builds above the base table. Measured, not assumed
/// (EXPERIMENTS.md, "Ladder depth: the verdict"): with no rung above `k` seeding is
/// 1.2–1.4× slower on both releases; a second one, `k+2`, quadruples the bytes of the
/// first (128 MiB of release 108's resident set) and did not win nine of ten
/// alternating pairs against `k+1` on either release.
const DEEP_RUNGS: usize = 1;

/// The bucket of a `d`-mer no suffix starts with.
const EMPTY: SaInterval = SaInterval { lo: 0, hi: 0 };

/// Dense `k`-mer → SA-interval table: one rung of the ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixTable {
    k: usize,
    /// Bucket `m` is the interval of the suffixes that start with the `k`-mer whose
    /// LSB-first packed value is `m`; `EMPTY` when there are none.
    buckets: Vec<SaInterval>,
}

impl PrefixTable {
    /// Choose a table depth for a genome of `n` bases: STAR's
    /// `min(cap, log2(n)/2 - 1)` (`--genomeSAindexNbases` default), floored at 4.
    pub fn auto_k(n: usize, cap: usize) -> usize {
        let k = ((n.max(4) as f64).log2() / 2.0 - 1.0).floor() as isize;
        (k.max(4) as usize).min(cap.max(4))
    }

    /// Build the depth-`k` table by a single scan over the suffix array: each suffix
    /// of at least `k` bases lands in the bucket its first `k` bases address, read
    /// from the packed genome in one word (`seq.word_from(pos) & mask`). O(n), and
    /// nothing is allocated but the buckets.
    pub fn build(sa: &SuffixArray, seq: &Packed2, k: usize) -> PrefixTable {
        assert!((1..=13).contains(&k), "prefix depth {k} unsupported");
        let mask = (1u64 << (2 * k)) - 1;
        let mut buckets = vec![EMPTY; 1 << (2 * k)];
        for (slot, &pos) in (0u32..).zip(sa.positions()) {
            let pos = pos as usize;
            if pos + k > seq.len() {
                continue; // suffix too short to be addressable through the table
            }
            let bucket = &mut buckets[(seq.word_from(pos) & mask) as usize];
            debug_assert!(bucket.is_empty() || bucket.hi == slot, "bucket not contiguous in the SA");
            if bucket.is_empty() {
                bucket.lo = slot;
            }
            bucket.hi = slot + 1;
        }
        PrefixTable { k, buckets }
    }

    /// The table depth `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// SA interval for an LSB-first-packed `k`-mer value — the O(1) probe the
    /// packed hot path uses: `seq.word_from(p) & ((1 << 2k) - 1)` *is* the value.
    /// The caller guarantees at least `k` bases remain at the probe position.
    #[inline]
    pub fn lookup_value(&self, m: usize) -> SaInterval {
        self.buckets[m]
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
            let deeper = &rungs.last().expect("starts non-empty").buckets;
            let mask = (1usize << (2 * d)) - 1;
            let mut buckets = vec![EMPTY; mask + 1];
            for (m, iv) in deeper.iter().enumerate().filter(|(_, iv)| !iv.is_empty()) {
                let parent = &mut buckets[m & mask];
                *parent = if parent.is_empty() {
                    *iv
                } else {
                    SaInterval { lo: parent.lo.min(iv.lo), hi: parent.hi.max(iv.hi) }
                };
            }
            if let Some(at) = seq.len().checked_sub(d) {
                let tail: Vec<u8> = (at..seq.len()).map(|i| seq.get(i)).collect();
                let bucket = &mut buckets[seq.word_from(at) as usize & mask];
                let with_tail = sa.find(seq, &tail);
                debug_assert!(bucket.is_empty() || (bucket.lo - 1, bucket.hi) == (with_tail.lo, with_tail.hi));
                *bucket = with_tail;
            }
            rungs.push(PrefixTable { k: d, buckets });
        }
        rungs
    }

    /// The rungs of the ladder above the base table, deepest first: depths
    /// `top, …, base_k + 1`, contiguous, each built by one scan of the suffix array
    /// over the packed genome `seq`.
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
    pub fn deepen(sa: &SuffixArray, seq: &Packed2, base_k: usize) -> Vec<PrefixTable> {
        let mut rungs: Vec<PrefixTable> = (base_k + 1..=(base_k + DEEP_RUNGS).min(13))
            .take_while(|&d| (1usize << (2 * d)) <= 4 * seq.len())
            .map(|d| PrefixTable::build(sa, seq, d))
            .collect();
        rungs.reverse();
        rungs
    }

    /// Bytes of memory/disk the table occupies.
    pub fn byte_size(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<SaInterval>()
    }

    /// Append the serialized table: the depth, every bucket's first slot, then every
    /// bucket's one-past-last slot, little-endian `u32`s; an empty bucket is
    /// `u32::MAX, 0`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.k as u32).to_le_bytes());
        let stored = |iv: &SaInterval| if iv.is_empty() { (u32::MAX, 0) } else { (iv.lo, iv.hi) };
        for iv in &self.buckets {
            out.extend_from_slice(&stored(iv).0.to_le_bytes());
        }
        for iv in &self.buckets {
            out.extend_from_slice(&stored(iv).1.to_le_bytes());
        }
    }

    /// Decode a table `encode` wrote from the front of `input`, and
    /// advance `input` past it. Every bucket is validated against a suffix array of
    /// `sa_len` slots, and the buckets are the only allocation.
    pub(crate) fn decode(input: &mut &[u8], sa_len: usize) -> Result<PrefixTable, StarError> {
        let truncated = || StarError::CorruptIndex("prefix table runs past the end of the blob".into());
        let (k, rest) = input.split_first_chunk::<4>().ok_or_else(truncated)?;
        let k = u32::from_le_bytes(*k) as usize;
        if k == 0 || k > 13 {
            return Err(StarError::CorruptIndex(format!("prefix depth {k}")));
        }
        let n = 1usize << (2 * k);
        if rest.len() < 8 * n {
            return Err(truncated());
        }
        let (starts, rest) = rest.split_at(4 * n);
        let (ends, rest) = rest.split_at(4 * n);
        let slot = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
        let mut buckets = Vec::with_capacity(n);
        for (m, (s, e)) in starts.chunks_exact(4).zip(ends.chunks_exact(4)).enumerate() {
            buckets.push(match (slot(s), slot(e)) {
                (u32::MAX, 0) => EMPTY,
                (lo, hi) if lo < hi && hi as usize <= sa_len => SaInterval { lo, hi },
                (lo, hi) => return Err(StarError::CorruptIndex(format!("bucket {m}: bad range {lo}..{hi}"))),
            });
        }
        *input = rest;
        Ok(PrefixTable { k, buckets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomics::DnaSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Pack 2-bit codes LSB-first (base `i` at bits `2i`): the bucket address
    /// [`Packed2::word_from`] yields for the same bases.
    fn kmer_value(codes: &[u8]) -> usize {
        codes.iter().enumerate().map(|(i, &c)| (c as usize) << (2 * i)).sum()
    }

    /// The bucket of the `k`-mer at the front of `pattern`; `None` when `pattern` is
    /// shorter than the table's depth.
    fn lookup(table: &PrefixTable, pattern: &[u8]) -> Option<SaInterval> {
        let d = table.k();
        (pattern.len() >= d).then(|| table.lookup_value(kmer_value(&pattern[..d])))
    }

    /// Every rung of the whole ladder over `codes` around a depth-`k` base table:
    /// scanned above the base, derived below it, deepest first.
    fn whole_ladder(sa: &SuffixArray, seq: &Packed2, k: usize) -> Vec<PrefixTable> {
        let mut rungs = PrefixTable::deepen(sa, seq, k);
        rungs.extend(PrefixTable::build(sa, seq, k).ladder(sa, seq));
        assert!(rungs.iter().map(|t| t.k()).eq((1..=rungs.len()).rev()), "contiguous down to depth 1");
        rungs
    }

    /// Every bucket of every rung is the interval a from-scratch search finds.
    fn assert_ladder_agrees_with_find(codes: &[u8], k: usize) {
        let packed = Packed2::from_codes(codes);
        let sa = SuffixArray::build(codes);
        for table in whole_ladder(&sa, &packed, k) {
            let d = table.k();
            for m in 0..(1usize << (2 * d)) {
                // LSB-first decode, mirroring kmer_value's packing.
                let pattern: Vec<u8> = (0..d).map(|i| ((m >> (2 * i)) & 0b11) as u8).collect();
                let via_table = lookup(&table, &pattern).unwrap();
                assert_eq!(via_table, table.lookup_value(m), "depth {d}, value probe {m:#b}");
                let via_find = sa.find(&packed, &pattern);
                if via_find.is_empty() {
                    assert_eq!(via_table, EMPTY, "depth {d}, k-mer {m:#b}");
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
        assert_eq!(whole_ladder(&sa, &Packed2::from_codes(s.codes()), 4).len(), 5, "one scanned rung above the base");
        assert_ladder_agrees_with_find(s.codes(), 4);
    }

    #[test]
    fn short_suffixes_do_not_leak_into_buckets() {
        // Craft a text whose final short suffixes sort between bucket runs.
        let s: DnaSeq = "CACGTC".parse().unwrap(); // suffixes include "C", "TC" (short for k=3)
        let (sa, packed) = (SuffixArray::build(s.codes()), Packed2::from_codes(s.codes()));
        let t = PrefixTable::build(&sa, &packed, 3);
        for pat_str in ["CAC", "ACG", "CGT", "GTC", "CCC", "TCA"] {
            let pat: DnaSeq = pat_str.parse().unwrap();
            let via_table = lookup(&t, pat.codes()).unwrap();
            let via_find = sa.find(&packed, pat.codes());
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
        let t = PrefixTable::build(&SuffixArray::build(s.codes()), &Packed2::from_codes(s.codes()), 4);
        // A first and a one-past-last slot per bucket: the two sections on disk.
        assert_eq!(t.byte_size(), 2 * 256 * 4);
        let mut blob = Vec::new();
        t.encode(&mut blob);
        assert_eq!(blob.len(), 4 + t.byte_size());
    }

    #[test]
    fn encode_decode_validates() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        let sa = SuffixArray::build(s.codes());
        let t = PrefixTable::build(&sa, &Packed2::from_codes(s.codes()), 4);
        let mut blob = Vec::new();
        t.encode(&mut blob);
        blob.push(0xAB); // what follows the table in the index
        let decode = |bytes: &[u8]| PrefixTable::decode(&mut &bytes[..], sa.len());
        let mut rest = &blob[..];
        assert_eq!(PrefixTable::decode(&mut rest, sa.len()).unwrap(), t);
        assert_eq!(rest, [0xAB], "decode stops at the table's end");
        // A depth the sections are too short for.
        let mut bad = blob.clone();
        bad[..4].copy_from_slice(&5u32.to_le_bytes());
        assert!(decode(&bad).is_err());
        let (starts, ends) = (4, 4 + 256 * 4);
        let slot_at = |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        // Empty bucket with nonzero end.
        let empty_m = (0..256).find(|&m| t.lookup_value(m).is_empty()).unwrap();
        assert_eq!(slot_at(&blob, starts + 4 * empty_m), u32::MAX, "an empty bucket's stored start");
        let mut bad = blob.clone();
        bad[ends + 4 * empty_m..][..4].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode(&bad).is_err());
        // Range beyond SA.
        let full_m = (0..256).find(|&m| !t.lookup_value(m).is_empty()).unwrap();
        let mut bad = blob.clone();
        bad[ends + 4 * full_m..][..4].copy_from_slice(&(sa.len() as u32 + 5).to_le_bytes());
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn homopolymer_buckets_match_find() {
        let codes = vec![0u8; 64];
        let (sa, packed) = (SuffixArray::build(&codes), Packed2::from_codes(&codes));
        let t = PrefixTable::build(&sa, &packed, 4);
        let pattern = vec![0u8; 4];
        assert_eq!(lookup(&t, &pattern).unwrap(), sa.find(&packed, &pattern));
    }
}
