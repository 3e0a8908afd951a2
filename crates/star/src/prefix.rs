//! Prefix lookup tables (`--genomeSAindexNbases` analog).
//!
//! The model is STAR's `SAindex`, which stores the suffix-array interval of *every*
//! prefix length `1..=genomeSAindexNbases` and, when a prefix is flagged absent, steps
//! down one length: an MMP search never descends the suffix array from its root, and
//! the step from "absent at depth d+1" to "present at depth d" *is* the answer. Here
//! that is a contiguous ladder of dense 4^d-bucket tables, one per depth `k, k−1, …,
//! 1` ([`crate::index::StarIndex::prefix_ladder`]), topped by depth `k+1`, which the
//! base table answers from its own buckets. Only depth `k` — the base table — is part
//! of the serialized index and its size; `k` defaults to a `log4`-of-genome shape like
//! STAR's `min(14, log2(GenomeLength)/2 - 1)`, with a smaller cap suited to synthetic
//! genomes. The depths below `k` are derived from the base table when an index is
//! built or loaded ([`PrefixTable::ladder`], O(4^k)).
//!
//! A bucket is addressed by its `d`-mer packed LSB-first — the value
//! `seq.word_from(pos) & mask` reads from a [`Packed2`], so every rung is built from
//! the packed genome and probed from a packed read the same way. A depth-`d` bucket
//! holds the suffixes of at least `d` bases that start with its `d`-mer. Shorter
//! suffixes (the last `d-1` genome positions) sort in between bucket runs, so each
//! bucket stores its exact interval rather than deriving its end from the next
//! bucket's start.
//!
//! Two bucket encodings, both 8 bytes. A rung below the base stores its interval, and
//! an empty bucket is `SaInterval { lo: 0, hi: 0 }`. The base table stores its first
//! slot and four 8-bit child counts: how many of its suffixes continue with A, C, G
//! and T, which are its four depth-`k+1` buckets in order. Its one suffix with exactly
//! `k` bases left sorts first and is in no child; it is one bucket per table (the
//! genome's last `k` bases), so the table names that bucket instead of giving every
//! bucket a field. A count of 255 means "255 or more": that bucket's exact child sizes
//! are in a short side table, which one more probe reads. So one 8-byte load answers
//! depths `k` and `k+1` at once, and the dense 4^(k+1)-bucket rung the search used to
//! keep beside the base table is gone.
//!
//! On disk (`PrefixTable::encode`) a table is its depth, every bucket's first slot,
//! then every bucket's one-past-last slot, with an empty bucket written as
//! `u32::MAX, 0`: index format version 2, which this layout must keep. The child
//! counts are not stored: loading counts them again from the suffix array and the
//! packed genome, in one scan, and rejects a table whose intervals that scan does not
//! reproduce.

use crate::genome::Packed2;
use crate::sa::{SaInterval, SuffixArray};
use crate::StarError;

/// The bucket of a `d`-mer no suffix starts with.
const EMPTY: SaInterval = SaInterval { lo: 0, hi: 0 };

/// A child count of 255 or more: the bucket's exact child sizes are an overflow entry.
const OVERFLOW: u8 = u8::MAX;

/// A base-table bucket: its first slot and the sizes of its four children, the
/// depth-`k+1` buckets of its `k`-mer followed by A, C, G and T.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Bucket {
    /// First slot; 0 for an empty bucket.
    lo: u32,
    /// Suffixes per child, or [`OVERFLOW`].
    counts: [u8; 4],
}

/// Dense `k`-mer → SA-interval table: one rung of the ladder. Its depth is not a
/// field — a table holds `4^k` buckets — which keeps a rung of the index's list at
/// 40 bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixTable(Rung);

#[derive(Clone, Debug, PartialEq, Eq)]
enum Rung {
    /// A table counted from the suffix array ([`PrefixTable::build`]), which answers
    /// its children as well as its own buckets.
    Counted {
        buckets: Box<[Bucket]>,
        /// The bucket of the one suffix with exactly `k` bases left, which sorts first
        /// in it and is in none of its children; `None` when the genome is shorter.
        short: Option<u32>,
        /// `(bucket, exact child sizes)` of every bucket with an [`OVERFLOW`] count, in
        /// bucket order.
        overflow: Box<[(u32, [u32; 4])]>,
    },
    /// A rung derived below the base table ([`PrefixTable::ladder`]): each bucket's
    /// interval. A search never asks it for children, so it keeps none; counts here
    /// would overflow in most buckets of the shallow rungs.
    Intervals(Box<[SaInterval]>),
}

impl PrefixTable {
    /// Choose a table depth for a genome of `n` bases: STAR's
    /// `min(cap, log2(n)/2 - 1)` (`--genomeSAindexNbases` default), floored at 4.
    pub fn auto_k(n: usize, cap: usize) -> usize {
        let k = ((n.max(4) as f64).log2() / 2.0 - 1.0).floor() as isize;
        (k.max(4) as usize).min(cap.max(4))
    }

    /// Build the depth-`k` table by a single scan over the suffix array: each suffix
    /// of at least `k` bases lands in the bucket its first `k` bases address, and in
    /// the child its next base names, both read from the packed genome in one word
    /// (`seq.word_from(pos)`). O(n), and nothing is allocated but the table.
    ///
    /// # Panics
    ///
    /// If `k` is not in `1..=13`, or `sa` is not the sorted suffix array of `seq`.
    pub fn build(sa: &SuffixArray, seq: &Packed2, k: usize) -> PrefixTable {
        assert!((1..=13).contains(&k), "prefix depth {k} unsupported");
        PrefixTable::count(sa, seq, k).unwrap_or_else(|e| panic!("not the suffix array of the genome: {e}"))
    }

    /// [`PrefixTable::build`]'s scan, checking as it goes that every bucket is one run
    /// of slots in which the short suffix comes first and the children follow in
    /// order — true of any sorted suffix array, and what makes the counts describe
    /// its intervals.
    fn count(sa: &SuffixArray, seq: &Packed2, k: usize) -> Result<PrefixTable, String> {
        let n = seq.len();
        let mask = (1u64 << (2 * k)) - 1;
        let mut buckets = vec![Bucket::default(); 1 << (2 * k)].into_boxed_slice();
        let mut overflow = Vec::new();
        let short = n.checked_sub(k).map(|at| (seq.word_from(at) & mask) as u32);
        // The run of slots being counted: its bucket (`usize::MAX` for none), the
        // suffixes of each child so far, the last child seen, and its k-mer as suffix
        // order sorts it, which must grow from run to run: no bucket is entered twice.
        // (Checked without reading the bucket, whose cache miss would then hold up
        // the scan; its counts are written once, when the run ends.)
        let (mut run, mut sizes, mut last, mut run_kmer) = (usize::MAX, [0u32; 4], 0, None);
        for (slot, &pos) in (0u32..).zip(sa.positions()) {
            let pos = pos as usize;
            if pos + k > n {
                close_run(&mut buckets, &mut overflow, run, sizes);
                run = usize::MAX; // too short to be addressable through the table
                continue;
            }
            let w = seq.word_from(pos);
            let m = (w & mask) as usize;
            if m != run {
                close_run(&mut buckets, &mut overflow, run, sizes);
                let kmer = Some(first_base_first(w, k));
                if kmer <= run_kmer {
                    return Err(format!("bucket {m} is out of suffix order at slot {slot}"));
                }
                (run, sizes, last, run_kmer) = (m, [0; 4], 0, kmer);
                buckets[m].lo = slot;
            }
            if pos + k == n {
                if sizes != [0; 4] {
                    return Err(format!("bucket {m}: its suffix of {k} bases is not first"));
                }
                continue;
            }
            let c = (w >> (2 * k)) as usize & 3;
            if c < last {
                return Err(format!("bucket {m}: child {c} follows a later one at slot {slot}"));
            }
            last = c;
            sizes[c] += 1;
        }
        close_run(&mut buckets, &mut overflow, run, sizes);
        // Runs come in suffix order; the entries are looked up by bucket value.
        overflow.sort_unstable_by_key(|&(m, _)| m);
        Ok(PrefixTable(Rung::Counted { buckets, short, overflow: overflow.into_boxed_slice() }))
    }

    /// The table depth `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.len().trailing_zeros() as usize / 2
    }

    /// Buckets in the table: `4^k`.
    fn len(&self) -> usize {
        match &self.0 {
            Rung::Counted { buckets, .. } => buckets.len(),
            Rung::Intervals(buckets) => buckets.len(),
        }
    }

    /// SA interval for an LSB-first-packed `k`-mer value `m < 4^k`: `seq.word_from(p)
    /// & ((1 << 2k) - 1)` *is* the value.
    #[inline]
    pub fn lookup_value(&self, m: usize) -> SaInterval {
        self.probe(m as u64, &mut 0).0
    }

    /// SA interval for an LSB-first-packed `k+1`-mer value `m < 4^(k+1)`, answered
    /// from its depth-`k` bucket; `None` for a rung derived below the base table,
    /// which keeps no children. Equal to `PrefixTable::build(sa, seq, k + 1)
    /// .lookup_value(m)`, empty intervals included.
    pub fn child(&self, m: usize) -> Option<SaInterval> {
        let child = self.probe(m as u64, &mut 0).1?;
        Some(if child.is_empty() { EMPTY } else { child })
    }

    /// The probe the packed hot path makes: the bucket of the `k`-mer at the front of
    /// the LSB-first packed word `w` and, from a counted table, the interval of the
    /// `k+1`-mer at its front (empty, though not always `lo == hi == 0`, when no
    /// suffix has it). One probe is added to `probes`, and one more when the bucket's
    /// child sizes are an overflow entry. The caller guarantees at least `k` bases
    /// remain at the probe position, and `k + 1` for the child to mean anything.
    #[inline]
    pub(crate) fn probe(&self, w: u64, probes: &mut u64) -> (SaInterval, Option<SaInterval>) {
        *probes += 1;
        let (buckets, short, overflow) = match &self.0 {
            Rung::Counted { buckets, short, overflow } => (buckets, *short, overflow),
            Rung::Intervals(buckets) => return (buckets[w as usize & (buckets.len() - 1)], None),
        };
        let m = w as usize & (buckets.len() - 1);
        let c = (w >> buckets.len().trailing_zeros()) as usize & 3;
        let Bucket { lo, counts } = buckets[m];
        let sizes = if counts.contains(&OVERFLOW) {
            *probes += 1;
            let at = overflow.binary_search_by_key(&(m as u32), |&(b, _)| b);
            overflow[at.expect("an overflow entry per saturated bucket")].1
        } else {
            counts.map(u32::from)
        };
        let first = lo + u32::from(short == Some(m as u32));
        let start = first + sizes[..c].iter().sum::<u32>();
        let bucket = SaInterval { lo, hi: first + sizes.iter().sum::<u32>() };
        (bucket, Some(SaInterval { lo: start, hi: start + sizes[c] }))
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
        let mut rungs = Vec::with_capacity(self.k());
        rungs.push(self);
        for d in (1..rungs[0].k()).rev() {
            let deeper: &PrefixTable = rungs.last().expect("starts non-empty");
            let mask = (1usize << (2 * d)) - 1;
            let mut buckets = vec![EMPTY; mask + 1];
            let deeper_buckets = (0..deeper.len()).map(|m| (m, deeper.lookup_value(m)));
            for (m, iv) in deeper_buckets.filter(|(_, iv)| !iv.is_empty()) {
                let parent = &mut buckets[m & mask];
                *parent = if parent.is_empty() {
                    iv
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
            rungs.push(PrefixTable(Rung::Intervals(buckets.into_boxed_slice())));
        }
        rungs
    }

    /// Bytes of the table's buckets, 8 per bucket in either encoding: what the table
    /// takes on disk, where the base table's starts and ends are 4 bytes each.
    pub fn byte_size(&self) -> usize {
        self.len() * std::mem::size_of::<SaInterval>()
    }

    /// Bytes the table holds in memory: its buckets and the base table's overflow
    /// entries, which are not stored on disk.
    pub fn resident_bytes(&self) -> usize {
        let overflow = match &self.0 {
            Rung::Counted { overflow, .. } => std::mem::size_of_val(&**overflow),
            Rung::Intervals(_) => 0,
        };
        self.byte_size() + overflow
    }

    /// Append the serialized table: the depth, every bucket's first slot, then every
    /// bucket's one-past-last slot, little-endian `u32`s; an empty bucket is
    /// `u32::MAX, 0`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.k() as u32).to_le_bytes());
        let at = out.len();
        out.resize(at + 8 * self.len(), 0);
        let (starts, ends) = out[at..].split_at_mut(4 * self.len());
        for (m, (start, end)) in starts.chunks_exact_mut(4).zip(ends.chunks_exact_mut(4)).enumerate() {
            let (lo, hi) = stored(self.lookup_value(m));
            start.copy_from_slice(&lo.to_le_bytes());
            end.copy_from_slice(&hi.to_le_bytes());
        }
    }

    /// Decode a table `encode` wrote from the front of `input`, and advance `input`
    /// past it. The table is counted again from the suffix array `sa` of the packed
    /// genome `seq` (one scan, as [`PrefixTable::build`]), and every bucket the blob
    /// stores must be the interval that scan finds: a table that disagrees with its
    /// suffix array is rejected here, not met later at search. The table and its
    /// overflow entries are the only allocations.
    pub(crate) fn decode(input: &mut &[u8], sa: &SuffixArray, seq: &Packed2) -> Result<PrefixTable, StarError> {
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
        let table = PrefixTable::count(sa, seq, k)
            .map_err(|e| StarError::CorruptIndex(format!("suffix array out of k-mer order: {e}")))?;
        let slot = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
        for (m, (s, e)) in starts.chunks_exact(4).zip(ends.chunks_exact(4)).enumerate() {
            let (lo, hi) = stored(table.lookup_value(m));
            if (slot(s), slot(e)) != (lo, hi) {
                return Err(StarError::CorruptIndex(format!(
                    "bucket {m}: {}..{} in the blob, {lo}..{hi} in the suffix array",
                    slot(s),
                    slot(e)
                )));
            }
        }
        *input = rest;
        Ok(table)
    }
}

/// The `d`-mer at the front of the LSB-first packed word `w`, as a number whose most
/// significant digit is its first base: the order suffix order sorts `d`-mers in.
fn first_base_first(w: u64, d: usize) -> u64 {
    const LOW_BITS: u64 = 0x5555_5555_5555_5555;
    let reversed = w.reverse_bits(); // the first base on top, its two bits swapped
    (((reversed >> 1) & LOW_BITS) | ((reversed & LOW_BITS) << 1)) >> (64 - 2 * d)
}

/// End [`PrefixTable::count`]'s run of bucket `m` (`usize::MAX`: no run): store its
/// child sizes as counts, and as an overflow entry when one does not fit.
fn close_run(buckets: &mut [Bucket], overflow: &mut Vec<(u32, [u32; 4])>, m: usize, sizes: [u32; 4]) {
    if m == usize::MAX {
        return;
    }
    buckets[m].counts = sizes.map(|size| size.min(u32::from(OVERFLOW)) as u8);
    if sizes.iter().any(|&size| size >= u32::from(OVERFLOW)) {
        overflow.push((m as u32, sizes));
    }
}

/// A bucket as the blob stores it: its interval, or `u32::MAX, 0` when empty.
fn stored(iv: SaInterval) -> (u32, u32) {
    if iv.is_empty() {
        (u32::MAX, 0)
    } else {
        (iv.lo, iv.hi)
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

    /// Every rung of the ladder over `codes` from a depth-`k` base table down,
    /// deepest first.
    fn whole_ladder(sa: &SuffixArray, seq: &Packed2, k: usize) -> Vec<PrefixTable> {
        let rungs = PrefixTable::build(sa, seq, k).ladder(sa, seq);
        assert!(rungs.iter().map(|t| t.k()).eq((1..=k).rev()), "contiguous down to depth 1");
        rungs
    }

    /// The `d`-mer of LSB-first packed value `m`, mirroring kmer_value's packing.
    fn kmer_of(m: usize, d: usize) -> Vec<u8> {
        (0..d).map(|i| ((m >> (2 * i)) & 0b11) as u8).collect()
    }

    /// Every bucket of every rung, and every child of the base table, is the interval
    /// a from-scratch search finds.
    fn assert_ladder_agrees_with_find(codes: &[u8], k: usize) {
        let packed = Packed2::from_codes(codes);
        let sa = SuffixArray::build(&packed);
        let rungs = whole_ladder(&sa, &packed, k);
        for table in &rungs {
            let d = table.k();
            for m in 0..(1usize << (2 * d)) {
                let pattern = kmer_of(m, d);
                let via_table = lookup(table, &pattern).unwrap();
                assert_eq!(via_table, table.lookup_value(m), "depth {d}, value probe {m:#b}");
                let via_find = sa.find(&packed, &pattern);
                if via_find.is_empty() {
                    assert_eq!(via_table, EMPTY, "depth {d}, k-mer {m:#b}");
                } else {
                    assert_eq!(via_table, via_find, "depth {d}, k-mer {m:#b}");
                }
            }
            assert_eq!(table.child(0).is_some(), d == k, "only the base table has children");
        }
        for m in 0..(1usize << (2 * (k + 1))) {
            let via_find = sa.find(&packed, &kmer_of(m, k + 1));
            let want = if via_find.is_empty() { EMPTY } else { via_find };
            assert_eq!(rungs[0].child(m), Some(want), "depth {}, k-mer {m:#b}", k + 1);
        }
    }

    /// Every child of the depth-`k` table, for `k` from 1 to `top`, against the dense
    /// depth-`k+1` table; and the short suffix's bucket is its children and one more.
    fn assert_children_equal_the_dense_table(codes: &[u8], top: usize) {
        let packed = Packed2::from_codes(codes);
        let sa = SuffixArray::build(&packed);
        for k in 1..=top {
            let (table, dense) = (PrefixTable::build(&sa, &packed, k), PrefixTable::build(&sa, &packed, k + 1));
            for m in 0..1usize << (2 * (k + 1)) {
                assert_eq!(table.child(m), Some(dense.lookup_value(m)), "k = {k}, {}-mer {m:#b}", k + 1);
            }
            if let Some(at) = codes.len().checked_sub(k) {
                let m = kmer_value(&codes[at..]);
                let children: u32 = (0..4).map(|c| table.child(m | c << (2 * k)).unwrap().size()).sum();
                assert_eq!(table.lookup_value(m).size(), children + 1, "k = {k}: the short suffix's bucket");
            }
        }
    }

    #[test]
    fn children_equal_the_dense_table_one_deeper() {
        let mut rng = StdRng::seed_from_u64(45);
        for len in [1, 7, 300, 2000] {
            let random = DnaSeq::random(&mut rng, len);
            let auto = PrefixTable::auto_k(len, 11);
            assert_children_equal_the_dense_table(random.codes(), auto + 2);
        }
        let tandem: Vec<u8> = [0u8, 1, 2, 1, 3].iter().copied().cycle().take(1500).collect();
        assert_children_equal_the_dense_table(&tandem, PrefixTable::auto_k(tandem.len(), 11) + 2);
        // A tiny assembly's contigs, concatenated as the index concatenates them.
        let generator = genomics::EnsemblGenerator::new(genomics::EnsemblParams::tiny()).unwrap();
        let assembly = generator.generate(genomics::Release::R111);
        let genome: Vec<u8> = assembly.contigs.iter().flat_map(|c| c.seq.codes().iter().copied()).collect();
        assert_children_equal_the_dense_table(&genome, PrefixTable::auto_k(genome.len(), 11) + 2);
        // A homopolymer: its one non-empty child holds almost every suffix, far past
        // what a count holds, so its size comes from an overflow entry.
        let poly_a = vec![0u8; 2000];
        assert_children_equal_the_dense_table(&poly_a, PrefixTable::auto_k(poly_a.len(), 11) + 2);
        let sa = SuffixArray::build(&Packed2::from_codes(&poly_a));
        let table = PrefixTable::build(&sa, &Packed2::from_codes(&poly_a), 4);
        assert!(table.resident_bytes() > table.byte_size(), "premise: the homopolymer overflows");
        let (mut probes, mut bucket_probes) = (0, 0);
        assert_eq!(table.probe(0, &mut probes).1, Some(SaInterval { lo: 4, hi: 2000 }));
        table.probe(0b01, &mut bucket_probes);
        assert_eq!((probes, bucket_probes), (2, 1), "an overflow entry is one more probe");
    }

    #[test]
    fn lookup_agrees_with_sa_find_on_random_text() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = DnaSeq::random(&mut rng, 2000);
        assert_ladder_agrees_with_find(s.codes(), 4);
    }

    #[test]
    fn short_suffixes_do_not_leak_into_buckets() {
        // Craft a text whose final short suffixes sort between bucket runs.
        let s: DnaSeq = "CACGTC".parse().unwrap(); // suffixes include "C", "TC" (short for k=3)
        let (sa, packed) = (SuffixArray::build(&Packed2::from_codes(s.codes())), Packed2::from_codes(s.codes()));
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
        let t = PrefixTable::build(&SuffixArray::build(&Packed2::from_codes(s.codes())), &Packed2::from_codes(s.codes()), 4);
        // A first and a one-past-last slot per bucket: the two sections on disk.
        assert_eq!(t.byte_size(), 2 * 256 * 4);
        let mut blob = Vec::new();
        t.encode(&mut blob);
        assert_eq!(blob.len(), 4 + t.byte_size());
        // A rung of the index's list, which `index_build_alloc`'s peak counts.
        assert_eq!(std::mem::size_of::<PrefixTable>(), 40);
    }

    #[test]
    fn encode_decode_validates() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        let packed = Packed2::from_codes(s.codes());
        let sa = SuffixArray::build(&packed);
        let t = PrefixTable::build(&sa, &packed, 4);
        let mut blob = Vec::new();
        t.encode(&mut blob);
        blob.push(0xAB); // what follows the table in the index
        let decode = |bytes: &[u8]| PrefixTable::decode(&mut &bytes[..], &sa, &packed);
        let mut rest = &blob[..];
        assert_eq!(PrefixTable::decode(&mut rest, &sa, &packed).unwrap(), t);
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
        let full: Vec<usize> = (0..256).filter(|&m| !t.lookup_value(m).is_empty()).collect();
        let mut bad = blob.clone();
        bad[ends + 4 * full[0]..][..4].copy_from_slice(&(sa.len() as u32 + 5).to_le_bytes());
        assert!(decode(&bad).is_err());
        // Two well-formed buckets swapped: every range is inside the suffix array, but
        // not the one the suffix array gives the k-mer.
        let mut bad = blob.clone();
        for section in [starts, ends] {
            let (a, b) = (slot_at(&blob, section + 4 * full[0]), slot_at(&blob, section + 4 * full[1]));
            bad[section + 4 * full[0]..][..4].copy_from_slice(&b.to_le_bytes());
            bad[section + 4 * full[1]..][..4].copy_from_slice(&a.to_le_bytes());
        }
        assert!(matches!(decode(&bad), Err(StarError::CorruptIndex(_))));
        // A suffix array that is a permutation but not sorted.
        let reversed = SuffixArray::from_raw(sa.positions().iter().rev().copied().collect(), sa.len()).unwrap();
        assert!(matches!(PrefixTable::decode(&mut &blob[..], &reversed, &packed), Err(StarError::CorruptIndex(_))));
    }

    #[test]
    fn first_base_first_orders_kmers_as_suffix_order_does() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        for d in [1, 6, 13] {
            for _ in 0..200 {
                let (a, b): (Vec<u8>, Vec<u8>) = (0..d).map(|_| (rng.gen_range(0..4u8), rng.gen_range(0..4u8))).unzip();
                let (wa, wb) = (kmer_value(&a) as u64, kmer_value(&b) as u64);
                assert_eq!(first_base_first(wa, d).cmp(&first_base_first(wb, d)), a.cmp(&b), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn homopolymer_buckets_match_find() {
        let codes = vec![0u8; 64];
        let (sa, packed) = (SuffixArray::build(&Packed2::from_codes(&codes)), Packed2::from_codes(&codes));
        let t = PrefixTable::build(&sa, &packed, 4);
        let pattern = vec![0u8; 4];
        assert_eq!(lookup(&t, &pattern).unwrap(), sa.find(&packed, &pattern));
    }
}
