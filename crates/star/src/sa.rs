//! Uncompressed suffix array — STAR's central index structure.
//!
//! Built with SA-IS (suffix array by induced sorting, Nong–Zhang–Chan 2009) straight
//! from the 2-bit packed genome, in the space of its own output: the level-0 text is
//! read from the [`Packed2`], suffix types are one bit each, and the recursion on the
//! reduced string runs inside the output buffer, so building needs about 4.5 bytes
//! per base where the returned array holds 4. The prefix-doubling builder it replaced
//! (Manber–Myers, O(n log² n)) lives on in this module's tests as an independent
//! oracle. STAR likewise keeps its suffix array *uncompressed* to trade memory for
//! search speed, which is exactly why index size matters so much in the paper
//! (85 GiB for the release-108 human toplevel genome) and why shrinking the genome
//! shrinks the instance-memory requirement.
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
    /// Build the suffix array of the packed sequence `seq`.
    ///
    /// SA-IS reads the 2-bit packing directly and works inside the array it returns:
    /// besides the `4(n+1)` output bytes it holds one type bit per symbol of every
    /// level's text, and two counters per alphabet symbol of the level it is working
    /// on. O(n) time.
    pub fn build(seq: &Packed2) -> SuffixArray {
        SuffixArray::build_counting_levels(seq).0
    }

    /// [`SuffixArray::build`], also returning how many reduced texts SA-IS recursed
    /// into (0 when the first naming already told every LMS substring apart).
    fn build_counting_levels(seq: &Packed2) -> (SuffixArray, usize) {
        let n = seq.len();
        assert!(n < u32::MAX as usize, "genome too large for u32 suffix array");
        if n == 0 {
            return (SuffixArray { sa: Vec::new() }, 0);
        }
        let mut sa = vec![0; n + 1];
        let levels = sa_is(&PackedText(seq), &mut sa, 5);
        // The sentinel suffix sorts first; dropping its slot leaves the order with
        // the convention that a shorter suffix which is a prefix of a longer one
        // sorts first.
        let sentinel = sa.remove(0);
        debug_assert_eq!(sentinel as usize, n, "sentinel suffix must sort first");
        (SuffixArray { sa }, levels)
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

/// A text SA-IS can sort: its last symbol is a unique smallest 0 (the sentinel) and
/// every symbol is below the alphabet size the caller passes with it.
trait Text {
    fn len(&self) -> usize;
    fn at(&self, i: usize) -> u32;
}

/// The level-0 text: base codes shifted to `1..=4`, then a virtual sentinel 0.
struct PackedText<'a>(&'a Packed2);

impl Text for PackedText<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.0.len() + 1
    }

    #[inline]
    fn at(&self, i: usize) -> u32 {
        if i < self.0.len() {
            self.0.get(i) as u32 + 1
        } else {
            0
        }
    }
}

/// A reduced text: the names of the LMS substrings one level up, in text order.
impl Text for [u32] {
    #[inline]
    fn len(&self) -> usize {
        <[u32]>::len(self)
    }

    #[inline]
    fn at(&self, i: usize) -> u32 {
        self[i]
    }
}

/// One bit per suffix: set when the suffix is S-type (sorts before its successor).
struct Types(Vec<u64>);

impl Types {
    fn scan<T: Text + ?Sized>(text: &T) -> Types {
        let n = text.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        bits[(n - 1) >> 6] |= 1 << ((n - 1) & 63);
        let (mut next, mut next_s) = (text.at(n - 1), true);
        for i in (0..n - 1).rev() {
            let c = text.at(i);
            let s = c < next || (c == next && next_s);
            bits[i >> 6] |= (s as u64) << (i & 63);
            (next, next_s) = (c, s);
        }
        Types(bits)
    }

    #[inline]
    fn s(&self, i: usize) -> bool {
        (self.0[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Leftmost S-type suffix of a run: S-type with an L-type predecessor.
    #[inline]
    fn lms(&self, i: usize) -> bool {
        i > 0 && self.s(i) && !self.s(i - 1)
    }
}

/// Per-symbol counts, and the moving head or tail of each symbol's bucket.
struct Buckets {
    counts: Vec<u32>,
    ptr: Vec<u32>,
}

impl Buckets {
    fn count<T: Text + ?Sized>(text: &T, sigma: usize) -> Buckets {
        let mut counts = vec![0u32; sigma];
        for i in 0..text.len() {
            counts[text.at(i) as usize] += 1;
        }
        Buckets { counts, ptr: vec![0; sigma] }
    }

    /// Point every bucket at its first slot.
    fn heads(&mut self) {
        let mut sum = 0u32;
        for (h, &c) in self.ptr.iter_mut().zip(&self.counts) {
            *h = sum;
            sum += c;
        }
    }

    /// Point every bucket one past its last slot.
    fn tails(&mut self) {
        let mut sum = 0u32;
        for (t, &c) in self.ptr.iter_mut().zip(&self.counts) {
            sum += c;
            *t = sum;
        }
    }

    /// Put `p` in the last free slot of bucket `c`.
    #[inline]
    fn push_tail(&mut self, sa: &mut [u32], c: u32, p: u32) {
        let t = &mut self.ptr[c as usize];
        *t -= 1;
        sa[*t as usize] = p;
    }
}

/// SA-IS core (Nong–Zhang–Chan) writing the suffix array of `text`, sentinel
/// included, into `sa` (`sa.len() == text.len()`; the sentinel lands in slot 0).
/// Symbols are `< sigma`. Returns the number of reduced texts it recursed into.
///
/// The recursion runs inside `sa`: with `m` LMS suffixes, the sorted LMS substrings
/// are compacted into `sa[..m]`, the name of position `p` is written to
/// `sa[m + p/2]` (LMS positions are never adjacent, so the slots are distinct), the
/// names are gathered in text order into `sa[n-m..]`, and the reduced text is sorted
/// into `sa[..m]` (`m <= n/2`, so the two do not meet).
fn sa_is<T: Text + ?Sized>(text: &T, sa: &mut [u32], sigma: usize) -> usize {
    let n = text.len();
    debug_assert_eq!(sa.len(), n);
    if n == 1 {
        sa[0] = 0;
        return 0;
    }
    let types = Types::scan(text);

    // Pass 1: drop LMS suffixes at their bucket tails (any relative order), then
    // induce. This sorts the LMS *substrings*.
    let mut buckets = Buckets::count(text, sigma);
    sa.fill(EMPTY);
    buckets.tails();
    for i in 1..n {
        if types.lms(i) {
            buckets.push_tail(sa, text.at(i), i as u32);
        }
    }
    induce(text, &types, sa, &mut buckets);
    drop(buckets);

    // Compact the sorted LMS substrings into sa[..m] (the induce filled every slot).
    let mut m = 0;
    for i in 0..n {
        let p = sa[i];
        if types.lms(p as usize) {
            sa[m] = p;
            m += 1;
        }
    }
    // Name them by rank; equal substrings share a name, so the recursion sees them
    // as one symbol. The sentinel's substring sorts first and alone: name 0.
    sa[m..].fill(EMPTY);
    let mut name = 0u32;
    for i in 0..m {
        let p = sa[i] as usize;
        if i > 0 && !lms_substrings_equal(text, &types, sa[i - 1] as usize, p) {
            name += 1;
        }
        sa[m + p / 2] = name;
    }
    let names = name as usize + 1;
    // Gather the names in text order into sa[n-m..]: the reduced text, whose last
    // symbol is the sentinel's unique 0.
    let mut j = n;
    for i in (m..n).rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }
    let (head, reduced) = sa.split_at_mut(n - m);
    let sorted = &mut head[..m];
    let levels = if names == m {
        // Every name unique: the reduced suffix array is the inverse permutation.
        for (i, &nm) in reduced.iter().enumerate() {
            sorted[nm as usize] = i as u32;
        }
        0
    } else {
        1 + sa_is(&*reduced, sorted, names)
    };

    // The reduced text is spent: overwrite it with the LMS positions in text order,
    // and map the sorted ranks through them.
    let mut j = 0;
    for i in 1..n {
        if types.lms(i) {
            reduced[j] = i as u32;
            j += 1;
        }
    }
    for r in sorted.iter_mut() {
        *r = reduced[*r as usize];
    }

    // Pass 2: drop LMS suffixes in their now-exact order (back to front, so the tails
    // fill keeping them sorted) and induce the final array.
    sa[m..].fill(EMPTY);
    let mut buckets = Buckets::count(text, sigma);
    buckets.tails();
    for i in (0..m).rev() {
        let p = sa[i];
        sa[i] = EMPTY;
        buckets.push_tail(sa, text.at(p as usize), p);
    }
    induce(text, &types, sa, &mut buckets);
    levels
}

/// Induced sorting: scatter L-type suffixes left-to-right from bucket heads, then
/// S-type right-to-left from bucket tails. Given correctly ordered LMS seeds this
/// yields the fully sorted array; given unordered seeds it sorts LMS substrings.
fn induce<T: Text + ?Sized>(text: &T, types: &Types, sa: &mut [u32], buckets: &mut Buckets) {
    let n = text.len();
    buckets.heads();
    for i in 0..n {
        let p = sa[i];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = (p - 1) as usize;
        if !types.s(j) {
            let h = &mut buckets.ptr[text.at(j) as usize];
            sa[*h as usize] = j as u32;
            *h += 1;
        }
    }
    buckets.tails();
    for i in (0..n).rev() {
        let p = sa[i];
        if p == EMPTY || p == 0 {
            continue;
        }
        let j = (p - 1) as usize;
        if types.s(j) {
            buckets.push_tail(sa, text.at(j), j as u32);
        }
    }
}

/// Compare the LMS substrings starting at `a` and `b` (symbol-and-type-wise, up to
/// and including the next LMS position). The unique sentinel only equals itself.
fn lms_substrings_equal<T: Text + ?Sized>(text: &T, types: &Types, a: usize, b: usize) -> bool {
    let n = text.len();
    if a == n - 1 || b == n - 1 {
        return a == b;
    }
    let mut i = 0usize;
    loop {
        let (pa, pb) = (a + i, b + i);
        if text.at(pa) != text.at(pb) || types.s(pa) != types.s(pb) {
            return false;
        }
        if i > 0 && types.lms(pa) {
            // Both hit their closing LMS position simultaneously (types matched at
            // every prior offset, so `b + i` is LMS exactly when `a + i` is).
            return true;
        }
        i += 1;
    }
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
    use rand::{Rng, SeedableRng};

    /// SA-IS over the packing of byte-per-base `codes`.
    fn build(codes: &[u8]) -> SuffixArray {
        SuffixArray::build(&Packed2::from_codes(codes))
    }

    /// Reference: sort suffixes naively.
    fn naive_sa(codes: &[u8]) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..codes.len() as u32).collect();
        idx.sort_by(|&a, &b| codes[a as usize..].cmp(&codes[b as usize..]));
        idx
    }

    /// The original prefix-doubling builder (Manber–Myers), kept as an independent
    /// oracle: ranks start as the codes themselves; each round sorts by
    /// `(rank[i], rank[i+k])` and re-ranks, doubling `k`, until all ranks are unique.
    fn build_prefix_doubling(codes: &[u8]) -> SuffixArray {
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

    /// SA-IS and the oracle agree on `codes`; returns SA-IS's recursion depth.
    fn agrees_with_oracle(codes: &[u8], what: &str) -> usize {
        let (fast, levels) = SuffixArray::build_counting_levels(&Packed2::from_codes(codes));
        assert_eq!(fast.positions(), build_prefix_doubling(codes).positions(), "{what}");
        levels
    }

    #[test]
    fn matches_naive_on_known_string() {
        let s: DnaSeq = "ACGACGTACG".parse().unwrap();
        assert_eq!(build(s.codes()).positions(), naive_sa(s.codes()).as_slice());
    }

    #[test]
    fn matches_naive_on_random_strings() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 2, 5, 17, 100, 1000] {
            let s = DnaSeq::random(&mut rng, len);
            assert_eq!(build(s.codes()).positions(), naive_sa(s.codes()).as_slice(), "len {len}");
        }
    }

    #[test]
    fn handles_homopolymer_worst_case() {
        // All-equal text maximizes prefix-doubling rounds.
        let sa = build(&[0u8; 500]);
        // Suffixes of AAAA... sort shortest-first: positions n-1, n-2, ..., 0.
        let expect: Vec<u32> = (0..500u32).rev().collect();
        assert_eq!(sa.positions(), expect.as_slice());
    }

    #[test]
    fn sais_and_prefix_doubling_agree_on_random_genomes() {
        let mut rng = StdRng::seed_from_u64(41);
        for len in [1usize, 2, 3, 7, 64, 257, 1000, 5000] {
            let s = DnaSeq::random(&mut rng, len);
            agrees_with_oracle(s.codes(), &format!("len {len}"));
        }
    }

    #[test]
    fn sais_and_prefix_doubling_agree_on_every_text_up_to_three_bases() {
        for n in 1..=3u32 {
            for word in 0..4u32.pow(n) {
                let codes: Vec<u8> = (0..n).map(|i| (word >> (2 * i) & 3) as u8).collect();
                agrees_with_oracle(&codes, &format!("{codes:?}"));
            }
        }
    }

    #[test]
    fn sais_and_prefix_doubling_agree_on_one_and_two_letter_texts() {
        let mut rng = StdRng::seed_from_u64(44);
        let lengths = (1..=64).chain((0..60).map(|_| rng.gen_range(65..2000usize)));
        for len in lengths.collect::<Vec<_>>() {
            let a = rng.gen_range(0..4u8);
            let b = if rng.gen_bool(0.5) { a } else { rng.gen_range(0..4u8) };
            let codes: Vec<u8> = (0..len).map(|_| if rng.gen_bool(0.5) { a } else { b }).collect();
            agrees_with_oracle(&codes, &format!("len {len} over {a}/{b}"));
        }
    }

    #[test]
    fn a_text_whose_lms_substrings_all_differ_needs_no_recursion() {
        // LMS substrings CAG, GAT, TAC and the sentinel's: all distinct.
        let s: DnaSeq = "TCAGATACG".parse().unwrap();
        assert_eq!(agrees_with_oracle(s.codes(), "TCAGATACG"), 0);
    }

    #[test]
    fn sais_and_prefix_doubling_agree_on_adversarial_texts() {
        // All-A: maximal bucket collisions, every suffix a prefix of the next.
        agrees_with_oracle(&[0u8; 777], "all A");
        // Short-period texts: ACACAC…, ACGACG…, AACAAC… make every LMS substring
        // look identical, so the first naming collapses them.
        for period in [&[0u8, 1][..], &[0, 1, 2], &[0, 0, 1], &[3, 2, 1, 0]] {
            let text: Vec<u8> = period.iter().copied().cycle().take(600).collect();
            assert!(agrees_with_oracle(&text, &format!("period {period:?}")) >= 1, "period {period:?}");
        }
    }

    #[test]
    fn nested_periodic_texts_recurse_three_levels_and_more() {
        // Fibonacci words over two letters: each reduction is again Fibonacci-like, so
        // the depth grows with the length.
        let (mut a, mut b) = (vec![0u8], vec![0u8, 1]);
        while b.len() < 3000 {
            let next = [b.as_slice(), a.as_slice()].concat();
            (a, b) = (b, next);
        }
        for (letters, len) in [([0u8, 1], 3000), ([2, 0], 2584), ([1, 3], 1597)] {
            let codes: Vec<u8> = b[..len].iter().map(|&c| letters[c as usize]).collect();
            let levels = agrees_with_oracle(&codes, &format!("Fibonacci {len} over {letters:?}"));
            assert!(levels >= 3, "Fibonacci {len} over {letters:?}: {levels} levels");
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
        agrees_with_oracle(&genome, "duplicated scaffold");
        assert_eq!(build(&genome).positions(), naive_sa(&genome).as_slice());
    }

    #[test]
    fn find_locates_all_occurrences() {
        let s: DnaSeq = "ACGTACGTTACG".parse().unwrap();
        let packed = Packed2::from_codes(s.codes());
        let sa = SuffixArray::build(&packed);
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
        let sa = build(s.codes());
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
        let sa = build(s.codes());
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
        let sa = build(&[]);
        assert!(sa.is_empty());
        assert!(sa.find(&Packed2::from_codes(&[]), &[0]).is_empty());
    }

    #[test]
    fn byte_size_counts_entries() {
        let s: DnaSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(build(s.codes()).byte_size(), 32);
    }
}
