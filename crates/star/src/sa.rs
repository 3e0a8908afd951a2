//! Uncompressed suffix array — STAR's central index structure.
//!
//! Built with SA-IS (suffix array by induced sorting, Nong–Zhang–Chan 2009): a
//! linear-time, allocation-lean construction that replaced the original prefix
//! doubling (Manber–Myers, O(n log² n) rounds of sorting). The prefix-doubling
//! builder is kept as [`SuffixArray::build_prefix_doubling`] purely as an
//! independent oracle for differential testing. STAR likewise keeps its suffix
//! array *uncompressed* to trade memory for search speed, which is exactly why
//! index size matters so much in the paper (85 GiB for the release-108 human
//! toplevel genome) and why shrinking the genome shrinks the instance-memory
//! requirement.
//!
//! Search is interval refinement: an interval of the SA whose suffixes share a prefix
//! is narrowed one base at a time via binary search ([`SuffixArray::refine`]), the
//! primitive that the MMP seed search builds on.

use crate::genome::Packed2;

/// An interval `[lo, hi)` of suffix-array slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SaInterval {
    pub lo: u32,
    pub hi: u32,
}

impl SaInterval {
    /// Number of suffixes in the interval.
    #[inline]
    pub fn size(&self) -> u32 {
        self.hi - self.lo
    }

    /// True when the interval contains no suffixes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// The suffix array: all suffix start positions, lexicographically sorted.
///
/// A shorter suffix that is a prefix of a longer one sorts first (standard suffix
/// order with an implicit end-of-text sentinel smaller than every base).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuffixArray {
    sa: Vec<u32>,
}

impl SuffixArray {
    /// Build the suffix array of `codes` (2-bit base codes, one per byte).
    ///
    /// SA-IS: classify suffixes S/L, induce-sort the LMS substrings, recurse on the
    /// reduced string when names collide, then induce the full order from the sorted
    /// LMS suffixes. O(n) time, O(n) extra memory, no per-round reallocation.
    pub fn build(codes: &[u8]) -> SuffixArray {
        let n = codes.len();
        assert!(n < u32::MAX as usize, "genome too large for u32 suffix array");
        if n == 0 {
            return SuffixArray { sa: Vec::new() };
        }
        // Shift codes to 1..=4 and append the unique smallest sentinel 0; the
        // sentinel reproduces the convention that a shorter suffix which is a
        // prefix of a longer one sorts first.
        let mut text: Vec<u32> = Vec::with_capacity(n + 1);
        text.extend(codes.iter().map(|&c| c as u32 + 1));
        text.push(0);
        let mut sa = sa_is(&text, 5);
        let sentinel = sa.remove(0);
        debug_assert_eq!(sentinel as usize, n, "sentinel suffix must sort first");
        SuffixArray { sa }
    }

    /// The original prefix-doubling builder (Manber–Myers), kept as an independent
    /// oracle: ranks start as the codes themselves; each round sorts by
    /// `(rank[i], rank[i+k])` and re-ranks, doubling `k`, until all ranks are unique.
    pub fn build_prefix_doubling(codes: &[u8]) -> SuffixArray {
        let n = codes.len();
        assert!(n < u32::MAX as usize, "genome too large for u32 suffix array");
        if n == 0 {
            return SuffixArray { sa: Vec::new() };
        }
        let mut sa: Vec<u32> = (0..n as u32).collect();
        // rank[i] = rank of suffix i by its first k characters; start with k = 1.
        let mut rank: Vec<u32> = codes.iter().map(|&c| c as u32 + 1).collect();
        let mut next_rank: Vec<u32> = vec![0; n];
        let mut key: Vec<u64> = vec![0; n];
        let mut k = 1usize;
        loop {
            // Composite key: (rank[i], rank[i+k]); missing second half sorts first.
            for (i, dst) in key.iter_mut().enumerate() {
                let r1 = rank[i] as u64;
                let r2 = if i + k < n { rank[i + k] as u64 } else { 0 };
                *dst = (r1 << 32) | r2;
            }
            sa.sort_unstable_by_key(|&i| key[i as usize]);
            // Re-rank: equal keys share a rank. `next_rank` is swapped back in, not
            // reallocated, so the loop reuses two buffers for its whole life.
            let mut r = 1u32;
            next_rank[sa[0] as usize] = r;
            for w in sa.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                if key[a] != key[b] {
                    r += 1;
                }
                next_rank[b] = r;
            }
            std::mem::swap(&mut rank, &mut next_rank);
            if r as usize == n {
                break; // all suffixes distinguished
            }
            k *= 2;
            debug_assert!(k < 2 * n, "prefix doubling failed to converge");
        }
        SuffixArray { sa }
    }

    /// Reconstruct from a previously serialized position vector, validating that it
    /// is a permutation of `0..len` (full lexicographic validation is the caller's
    /// concern; this catches corruption cheaply).
    pub(crate) fn from_raw(sa: Vec<u32>, text_len: usize) -> Result<SuffixArray, crate::StarError> {
        if sa.len() != text_len {
            return Err(crate::StarError::CorruptIndex(format!(
                "suffix array has {} entries for text of length {text_len}",
                sa.len()
            )));
        }
        let mut seen = vec![false; text_len];
        for &p in &sa {
            let p = p as usize;
            if p >= text_len || seen[p] {
                return Err(crate::StarError::CorruptIndex("suffix array is not a permutation".into()));
            }
            seen[p] = true;
        }
        Ok(SuffixArray { sa })
    }

    /// Number of suffixes (= text length).
    #[inline]
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// True for an empty text.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }

    /// The suffix start position stored in slot `slot`.
    #[inline]
    pub fn suffix(&self, slot: u32) -> u32 {
        self.sa[slot as usize]
    }

    /// The raw sorted positions.
    pub fn positions(&self) -> &[u32] {
        &self.sa
    }

    /// The interval covering the whole array.
    #[inline]
    pub fn full(&self) -> SaInterval {
        SaInterval { lo: 0, hi: self.sa.len() as u32 }
    }

    /// Narrow `iv` — whose suffixes all share some prefix of length `depth` — to the
    /// sub-interval whose suffixes continue with base code `c` at offset `depth`.
    ///
    /// Suffixes too short to have a base at `depth` sort at the front of the interval
    /// and are excluded. Two binary searches, O(log |iv|); every step of either — one
    /// suffix-array load and the genome load it addresses — is added to `probes`.
    pub fn refine(
        &self,
        seq: &Packed2,
        iv: SaInterval,
        depth: usize,
        c: u8,
        probes: &mut u64,
    ) -> SaInterval {
        // Rank of the character at `depth` for the suffix in a slot: end-of-text
        // (suffix too short) ranks below every base.
        let n = seq.len();
        let char_at = |slot: u32| -> i16 {
            let pos = self.sa[slot as usize] as usize + depth;
            if pos < n {
                seq.get(pos) as i16
            } else {
                -1
            }
        };
        let target = c as i16;
        // Lower bound: first slot with char >= target.
        let lo = lower_bound(iv.lo, iv.hi, |s| char_at(s) >= target, probes);
        // Upper bound: first slot with char > target.
        let hi = lower_bound(lo, iv.hi, |s| char_at(s) > target, probes);
        SaInterval { lo, hi }
    }

    /// Find the SA interval of all suffixes starting with `pattern` (empty pattern →
    /// full interval). Convenience wrapper over repeated [`SuffixArray::refine`].
    pub fn find(&self, seq: &Packed2, pattern: &[u8]) -> SaInterval {
        let mut iv = self.full();
        for (depth, &c) in pattern.iter().enumerate() {
            iv = self.refine(seq, iv, depth, c, &mut 0);
            if iv.is_empty() {
                break;
            }
        }
        iv
    }

    /// Bytes of memory/disk this structure occupies (4 bytes per suffix).
    pub fn byte_size(&self) -> usize {
        self.sa.len() * std::mem::size_of::<u32>()
    }
}

/// Sentinel slot value for "not yet induced" during SA-IS passes.
const EMPTY: u32 = u32::MAX;

/// SA-IS core (Nong–Zhang–Chan). `text` must end with a unique smallest value 0
/// (the sentinel) and every value must be `< sigma`. Returns the suffix array of
/// `text` including the sentinel suffix (which always lands in slot 0).
fn sa_is(text: &[u32], sigma: usize) -> Vec<u32> {
    let n = text.len();
    if n == 1 {
        return vec![0];
    }
    // Type scan: suffix i is S-type when it sorts before suffix i+1.
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        is_s[i] = text[i] < text[i + 1] || (text[i] == text[i + 1] && is_s[i + 1]);
    }
    // Character bucket sizes.
    let mut bucket = vec![0u32; sigma];
    for &c in text {
        bucket[c as usize] += 1;
    }

    // Pass 1: drop LMS suffixes at their bucket tails (any relative order), then
    // induce. This sorts the LMS *substrings*.
    let mut sa = vec![EMPTY; n];
    let mut tails = bucket_tails(&bucket);
    for i in 1..n {
        if is_s[i] && !is_s[i - 1] {
            let c = text[i] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = i as u32;
        }
    }
    induce(text, &mut sa, &is_s, &bucket);

    // Name LMS substrings by their rank in the induced order; equal substrings
    // share a name so the recursion sees them as one character.
    let mut name = vec![EMPTY; n];
    let mut prev = usize::MAX;
    let mut last_name = 0u32;
    for &p in sa.iter() {
        let p = p as usize;
        if p > 0 && is_s[p] && !is_s[p - 1] {
            if prev != usize::MAX && !lms_substrings_equal(text, &is_s, prev, p) {
                last_name += 1;
            }
            name[p] = last_name;
            prev = p;
        }
    }
    // Reduced string: names in text order. Its last entry is the sentinel's LMS
    // (position n-1), whose name is 0 and unique — the recursion's sentinel.
    let lms_positions: Vec<u32> =
        (1..n).filter(|&i| is_s[i] && !is_s[i - 1]).map(|i| i as u32).collect();
    let reduced: Vec<u32> = lms_positions.iter().map(|&p| name[p as usize]).collect();
    let num_names = last_name as usize + 1;
    let sa1: Vec<u32> = if num_names == reduced.len() {
        // All names unique: the reduced SA is just the inverse permutation.
        let mut sa1 = vec![0u32; reduced.len()];
        for (i, &nm) in reduced.iter().enumerate() {
            sa1[nm as usize] = i as u32;
        }
        sa1
    } else {
        sa_is(&reduced, num_names)
    };

    // Pass 2: drop LMS suffixes in their now-exact order (reverse, so tails fill
    // back-to-front keeps them sorted) and induce the final array.
    sa.fill(EMPTY);
    let mut tails = bucket_tails(&bucket);
    for &r in sa1.iter().rev() {
        let p = lms_positions[r as usize];
        let c = text[p as usize] as usize;
        tails[c] -= 1;
        sa[tails[c] as usize] = p;
    }
    induce(text, &mut sa, &is_s, &bucket);
    sa
}

/// Induced sorting: scatter L-type suffixes left-to-right from bucket heads, then
/// S-type right-to-left from bucket tails. Given correctly ordered LMS seeds this
/// yields the fully sorted array; given unordered seeds it sorts LMS substrings.
fn induce(text: &[u32], sa: &mut [u32], is_s: &[bool], bucket: &[u32]) {
    let n = text.len();
    let mut heads = bucket_heads(bucket);
    for i in 0..n {
        let p = sa[i];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = (p - 1) as usize;
        if !is_s[j] {
            let c = text[j] as usize;
            sa[heads[c] as usize] = j as u32;
            heads[c] += 1;
        }
    }
    let mut tails = bucket_tails(bucket);
    for i in (0..n).rev() {
        let p = sa[i];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = (p - 1) as usize;
        if is_s[j] {
            let c = text[j] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = j as u32;
        }
    }
}

/// Compare the LMS substrings starting at `a` and `b` (char-and-type-wise, up to
/// and including the next LMS position). The unique sentinel only equals itself.
fn lms_substrings_equal(text: &[u32], is_s: &[bool], a: usize, b: usize) -> bool {
    let n = text.len();
    if a == n - 1 || b == n - 1 {
        return a == b;
    }
    let mut i = 0usize;
    loop {
        let (pa, pb) = (a + i, b + i);
        if text[pa] != text[pb] || is_s[pa] != is_s[pb] {
            return false;
        }
        if i > 0 && is_s[pa] && !is_s[pa - 1] {
            // Both hit their closing LMS position simultaneously (types matched at
            // every prior offset, so `b + i` is LMS exactly when `a + i` is).
            return true;
        }
        i += 1;
    }
}

/// Start slot of each character's bucket.
fn bucket_heads(bucket: &[u32]) -> Vec<u32> {
    let mut heads = vec![0u32; bucket.len()];
    let mut sum = 0u32;
    for (h, &b) in heads.iter_mut().zip(bucket) {
        *h = sum;
        sum += b;
    }
    heads
}

/// One-past-the-end slot of each character's bucket.
fn bucket_tails(bucket: &[u32]) -> Vec<u32> {
    let mut tails = vec![0u32; bucket.len()];
    let mut sum = 0u32;
    for (t, &b) in tails.iter_mut().zip(bucket) {
        sum += b;
        *t = sum;
    }
    tails
}

/// First slot in `[lo, hi)` satisfying monotone predicate `pred` (or `hi`); `evals`
/// grows by the number of slots `pred` was asked about.
fn lower_bound(lo: u32, hi: u32, pred: impl Fn(u32) -> bool, evals: &mut u64) -> u32 {
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        *evals += 1;
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomics::DnaSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference: sort suffixes naively.
    fn naive_sa(codes: &[u8]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..codes.len() as u32).collect();
        idx.sort_by(|&a, &b| codes[a as usize..].cmp(&codes[b as usize..]));
        idx
    }

    #[test]
    fn matches_naive_on_known_string() {
        // "banana" in base codes: use ACGT alphabet — "ACGACA" style.
        let s: DnaSeq = "ACGACGTACG".parse().unwrap();
        let sa = SuffixArray::build(s.codes());
        assert_eq!(sa.positions(), naive_sa(s.codes()).as_slice());
    }

    #[test]
    fn matches_naive_on_random_strings() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 2, 5, 17, 100, 1000] {
            let s = DnaSeq::random(&mut rng, len);
            let sa = SuffixArray::build(s.codes());
            assert_eq!(sa.positions(), naive_sa(s.codes()).as_slice(), "len {len}");
        }
    }

    #[test]
    fn handles_homopolymer_worst_case() {
        // All-equal text maximizes prefix-doubling rounds.
        let codes = vec![0u8; 500];
        let sa = SuffixArray::build(&codes);
        // Suffixes of AAAA... sort shortest-first: positions n-1, n-2, ..., 0.
        let expect: Vec<u32> = (0..500u32).rev().collect();
        assert_eq!(sa.positions(), expect.as_slice());
    }

    #[test]
    fn sais_and_prefix_doubling_agree_on_random_genomes() {
        let mut rng = StdRng::seed_from_u64(41);
        for len in [1usize, 2, 3, 7, 64, 257, 1000, 5000] {
            let s = DnaSeq::random(&mut rng, len);
            let fast = SuffixArray::build(s.codes());
            let oracle = SuffixArray::build_prefix_doubling(s.codes());
            assert_eq!(fast.positions(), oracle.positions(), "len {len}");
        }
    }

    #[test]
    fn sais_and_prefix_doubling_agree_on_adversarial_texts() {
        // All-A: maximal bucket collisions, every suffix a prefix of the next.
        let all_a = vec![0u8; 777];
        assert_eq!(
            SuffixArray::build(&all_a).positions(),
            SuffixArray::build_prefix_doubling(&all_a).positions()
        );
        // Short-period texts: ACACAC…, ACGACG…, AACAAC… force deep LMS recursion
        // because every LMS substring looks identical.
        for period in [&[0u8, 1][..], &[0, 1, 2], &[0, 0, 1], &[3, 2, 1, 0]] {
            let text: Vec<u8> = period.iter().copied().cycle().take(600).collect();
            assert_eq!(
                SuffixArray::build(&text).positions(),
                SuffixArray::build_prefix_doubling(&text).positions(),
                "period {period:?}"
            );
        }
    }

    #[test]
    fn sais_and_prefix_doubling_agree_on_duplicated_scaffold() {
        // The paper's release-108 motif: the same scaffold sequence appearing
        // twice in the assembly, giving long exact repeats in the packed genome.
        let mut rng = StdRng::seed_from_u64(108);
        let scaffold = DnaSeq::random(&mut rng, 400);
        let spacer = DnaSeq::random(&mut rng, 37);
        let mut genome: Vec<u8> = Vec::new();
        genome.extend_from_slice(scaffold.codes());
        genome.extend_from_slice(spacer.codes());
        genome.extend_from_slice(scaffold.codes());
        let fast = SuffixArray::build(&genome);
        let oracle = SuffixArray::build_prefix_doubling(&genome);
        assert_eq!(fast.positions(), oracle.positions());
        assert_eq!(fast.positions(), naive_sa(&genome).as_slice());
    }

    #[test]
    fn find_locates_all_occurrences() {
        let s: DnaSeq = "ACGTACGTTACG".parse().unwrap();
        let packed = Packed2::from_codes(s.codes());
        let sa = SuffixArray::build(s.codes());
        let pat: DnaSeq = "ACG".parse().unwrap();
        let iv = sa.find(&packed, pat.codes());
        let mut hits: Vec<u32> = (iv.lo..iv.hi).map(|slot| sa.suffix(slot)).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 4, 9]);
        // Absent pattern.
        let none: DnaSeq = "GGGG".parse().unwrap();
        assert!(sa.find(&packed, none.codes()).is_empty());
        // Empty pattern = everything.
        assert_eq!(sa.find(&packed, &[]).size() as usize, s.len());
    }

    #[test]
    fn refine_excludes_too_short_suffixes() {
        let s: DnaSeq = "TTT".parse().unwrap();
        let sa = SuffixArray::build(s.codes());
        // Suffixes: "T"(2) < "TT"(1) < "TTT"(0). Searching "TT" must hit slots {1,2}.
        let pat: DnaSeq = "TT".parse().unwrap();
        let iv = sa.find(&Packed2::from_codes(s.codes()), pat.codes());
        assert_eq!(iv.size(), 2);
        let mut hits: Vec<u32> = (iv.lo..iv.hi).map(|s_| sa.suffix(s_)).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn from_raw_rejects_corruption() {
        let s: DnaSeq = "ACGT".parse().unwrap();
        let sa = SuffixArray::build(s.codes());
        let good = sa.positions().to_vec();
        assert!(SuffixArray::from_raw(good.clone(), 4).is_ok());
        assert!(SuffixArray::from_raw(good.clone(), 5).is_err());
        let mut dup = good.clone();
        dup[0] = dup[1];
        assert!(SuffixArray::from_raw(dup, 4).is_err());
        let mut oob = good;
        oob[0] = 99;
        assert!(SuffixArray::from_raw(oob, 4).is_err());
    }

    #[test]
    fn empty_text_is_fine() {
        let sa = SuffixArray::build(&[]);
        assert!(sa.is_empty());
        assert!(sa.find(&Packed2::from_codes(&[]), &[0]).is_empty());
    }

    #[test]
    fn byte_size_counts_entries() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        let sa = SuffixArray::build(s.codes());
        assert_eq!(sa.byte_size(), 32);
    }
}
