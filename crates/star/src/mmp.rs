//! Maximal Mappable Prefix (MMP) search — STAR's seed-discovery primitive.
//!
//! The MMP of a read position `p` is the longest read substring starting at `p` that
//! occurs anywhere in the genome (Dobin et al. 2013, Fig. 1). A search starts from a
//! ladder of O(1) prefix tables, one per depth `top, top−1, …, 1` ([`SeedLayers`]),
//! probed deepest first — like STAR's `SAindex`, never from the root of the suffix
//! array. Every table addresses buckets by the LSB-first packed k-mer value, which a
//! packed query yields with one [`Packed2::word_from`] and a mask — no per-base
//! repacking. If the deepest table the query can address has its prefix, interval
//! refinement on the suffix array takes over, stopping at the first base that empties
//! the interval; small intervals finish with word-at-a-time direct extension
//! (32 bases per compare). If it does not, the first shallower table that has it *is*
//! the answer, and neither the suffix array nor the genome is read at all.

use crate::genome::{common_prefix_len, Packed2};
use crate::index::StarIndex;
use crate::prefix::PrefixTable;
use crate::sa::SaInterval;

/// Result of one MMP search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mmp {
    /// Start offset within the query pattern.
    pub start: usize,
    /// Matched prefix length (0 when even the first base is absent — impossible for
    /// ACGT queries on a genome that uses all four bases, but kept total).
    pub len: usize,
    /// Suffix-array interval of all genome occurrences of the matched prefix.
    pub interval: SaInterval,
}

impl Mmp {
    /// Number of genome positions the matched prefix occurs at.
    pub fn occurrences(&self) -> u32 {
        self.interval.size()
    }
}

/// What MMP searches cost, counted rather than timed: a pure function of the index
/// and the queries, so it repeats exactly across runs, hosts and thread counts.
/// `probes` is the proxy for dependent cache misses — every load whose address the
/// previous one decided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCost {
    /// Searches run.
    pub searches: u64,
    /// Prefix-table lookups, plus binary-search steps inside
    /// [`crate::sa::SuffixArray::refine`] (one suffix-array load and one genome load
    /// each), plus suffixes compared by direct extension.
    pub probes: u64,
    /// Suffixes in the searches' starting intervals, summed.
    pub start_suffixes: u64,
    /// The widest starting interval of any search.
    pub widest_start: u32,
}

/// Once the live interval is at most this many suffixes, the search switches from
/// binary-search refinement (O(log |iv|) probes per base) to direct per-suffix prefix
/// extension (O(|iv| + remaining/32) contiguous compares). Same result, and the cost
/// becomes proportional to the candidate count — which is exactly the quantity a
/// scaffold-duplicated genome inflates.
const DIRECT_EXTEND_MAX_INTERVAL: u32 = 16;

/// Where an MMP search may start: the ladder of prefix tables over one index, one per
/// depth `top, …, 1` — the runtime-only tables deeper than the index's base table,
/// then [`StarIndex::prefix_ladder`]. Built once per [`crate::Aligner`]
/// ([`SeedLayers::full`]) and borrowed down through seed collection into
/// [`mmp_search_packed`]. No choice of `top` changes a search result.
#[derive(Clone, Copy, Debug)]
pub struct SeedLayers<'i> {
    // Private so that no ladder with a missing depth can be made: a search reads an
    // empty bucket at depth `d+1` beside a full one at depth `d` as "the MMP is `d`
    // bases", which is only true of adjacent depths.
    index: &'i StarIndex,
    deep: &'i [PrefixTable],
}

impl<'i> SeedLayers<'i> {
    /// The index's own ladder under `deep`, which must hold the depths
    /// `k + deep.len(), …, k + 1` above the base table's `k`, deepest first
    /// ([`PrefixTable::deepen`], or a tail of it).
    pub fn new(index: &'i StarIndex, deep: &'i [PrefixTable]) -> SeedLayers<'i> {
        let rungs = deep.iter().chain(index.prefix_ladder());
        let top = index.prefix().k() + deep.len();
        assert!(rungs.map(|t| t.k()).eq((1..=top).rev()), "prefix ladder skips a depth");
        SeedLayers { index, deep }
    }

    /// The layers an aligner searches through: the index with its cached deep
    /// prefix tables ([`StarIndex::deep_prefix`]).
    pub fn full(index: &'i StarIndex) -> SeedLayers<'i> {
        SeedLayers::new(index, index.deep_prefix())
    }

    /// The index: genome, suffix array, and the ladder from its base table down.
    pub fn index(&self) -> &'i StarIndex {
        self.index
    }
}

/// The full MMP search over a packed query; what it cost is added to `cost`.
///
/// The ladder is probed deepest first, from the deepest table the remaining query
/// can address. A depth-`d` bucket *is* the interval that refinement from the root
/// reaches at depth `d`, so whichever rung answers, the result is the same:
///
/// * the first rung probed has the prefix — refine from its bucket;
/// * a rung has it after the rung above was probed and found empty — the MMP is
///   exactly that rung's depth and its bucket the interval, with no suffix or genome
///   base read (what extending every suffix of the bucket by zero bases would find);
/// * no rung has it — the first base does not occur in the genome.
pub fn mmp_search_packed(
    layers: &SeedLayers<'_>,
    q: &Packed2,
    from: usize,
    cost: &mut SearchCost,
) -> Mmp {
    let SeedLayers { index, deep } = *layers;
    let seq = index.genome().seq();
    let sa = index.sa();
    let remaining = q.len() - from;
    // One unaligned fetch covers every table's probe: depths are ≤ 31 bases.
    let w = q.word_from(from);
    cost.searches += 1;

    let mut deeper_absent = false;
    let mut start = None;
    for table in deep.iter().chain(index.prefix_ladder()) {
        let d = table.k();
        if d > remaining {
            continue;
        }
        cost.probes += 1;
        let bucket = table.lookup_value((w & ((1u64 << (2 * d)) - 1)) as usize);
        if bucket.is_empty() {
            deeper_absent = true;
            continue;
        }
        cost.start_suffixes += u64::from(bucket.size());
        cost.widest_start = cost.widest_start.max(bucket.size());
        if deeper_absent {
            return Mmp { start: from, len: d, interval: bucket };
        }
        start = Some((d, bucket));
        break;
    }
    let Some((mut depth, mut iv)) = start else {
        return Mmp { start: from, len: 0, interval: SaInterval { lo: 0, hi: 0 } };
    };

    while depth < remaining {
        if iv.size() <= DIRECT_EXTEND_MAX_INTERVAL {
            cost.probes += u64::from(iv.size());
            return direct_extend(seq, sa, q, from, depth, iv);
        }
        let next = sa.refine(seq, iv, depth, q.get(from + depth), &mut cost.probes);
        if next.is_empty() {
            break;
        }
        iv = next;
        depth += 1;
    }
    Mmp { start: from, len: depth, interval: iv }
}

/// Finish an MMP search by extending every suffix of the (small) interval directly
/// against the query, 32 bases per compare, and keeping the maximizers.
///
/// All suffixes in `iv` share `query[from..from+depth]`, `depth ≥ 1`. The suffixes
/// matching the *longest* query prefix form a contiguous sub-interval (any suffix
/// sorted between two suffixes sharing a prefix also shares it), so tracking the
/// first/last maximizer reconstructs the exact interval binary refinement would have
/// produced.
fn direct_extend(
    seq: &Packed2,
    sa: &crate::sa::SuffixArray,
    q: &Packed2,
    from: usize,
    depth: usize,
    iv: SaInterval,
) -> Mmp {
    debug_assert!(!iv.is_empty() && depth > 0);
    let tail_len = q.len() - from - depth;
    let mut best_ext = 0usize;
    let mut best_lo = iv.lo;
    let mut best_hi = iv.lo;
    for slot in iv.lo..iv.hi {
        let pos = sa.suffix(slot) as usize + depth;
        let max = tail_len.min(seq.len().saturating_sub(pos));
        let ext = common_prefix_len(seq, pos, q, from + depth, max);
        match ext.cmp(&best_ext) {
            std::cmp::Ordering::Greater => {
                best_ext = ext;
                best_lo = slot;
                best_hi = slot + 1;
            }
            std::cmp::Ordering::Equal if best_ext > 0 => {
                debug_assert_eq!(best_hi, slot, "maximizers must be contiguous");
                best_hi = slot + 1;
            }
            _ => {}
        }
    }
    if best_ext == 0 {
        // No suffix continues the match: the MMP is exactly the shared prefix, and
        // every suffix of the interval carries it.
        return Mmp { start: from, len: depth, interval: iv };
    }
    Mmp { start: from, len: depth + best_ext, interval: SaInterval { lo: best_lo, hi: best_hi } }
}

#[cfg(test)]
impl<'i> SeedLayers<'i> {
    /// The serialized base table and the rungs below it, no deep tables: a start no
    /// aligner uses, kept as the reference the deep tables are checked against.
    pub(crate) fn base(index: &'i StarIndex) -> SeedLayers<'i> {
        SeedLayers::new(index, &[])
    }
}

/// The MMP of unpacked `pattern[from..]`, started from [`SeedLayers::base`].
#[cfg(test)]
pub(crate) fn mmp_search(index: &StarIndex, pattern: &[u8], from: usize) -> Mmp {
    let q = Packed2::from_codes(pattern);
    mmp_search_packed(&SeedLayers::base(index), &q, from, &mut SearchCost::default())
}

/// The oracle: the MMP of `q[from..]` by per-base interval refinement from the root
/// of the suffix array — no table, no shortcut, no direct extension.
#[cfg(test)]
pub(crate) fn mmp_by_refinement(index: &StarIndex, q: &Packed2, from: usize) -> Mmp {
    let (seq, sa) = (index.genome().seq(), index.sa());
    let mut iv = sa.full();
    let mut depth = 0;
    while from + depth < q.len() {
        let next = sa.refine(seq, iv, depth, q.get(from + depth), &mut 0);
        if next.is_empty() {
            break;
        }
        iv = next;
        depth += 1;
    }
    if depth == 0 {
        iv = SaInterval { lo: 0, hi: 0 };
    }
    Mmp { start: from, len: depth, interval: iv }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexParams, StarIndex};
    use genomics::{Annotation, Assembly, AssemblyKind, Contig, ContigKind, DnaSeq};

    fn index_of(seq: &str) -> StarIndex {
        index_with(seq, IndexParams::default())
    }

    fn index_with(seq: &str, params: IndexParams) -> StarIndex {
        let asm = Assembly {
            name: "T".into(),
            release: 1,
            kind: AssemblyKind::Toplevel,
            contigs: vec![Contig {
                name: "1".into(),
                kind: ContigKind::Chromosome,
                seq: seq.parse::<DnaSeq>().unwrap(),
            }],
        };
        StarIndex::build(&asm, &Annotation::default(), &params).unwrap()
    }

    /// Reference MMP: longest prefix of `q` occurring in `text`.
    fn naive_mmp(text: &str, q: &str) -> usize {
        (0..=q.len()).rev().find(|&l| l == 0 || text.contains(&q[..l])).unwrap_or(0)
    }

    #[test]
    fn finds_full_match_for_genomic_substring() {
        let text = "ACGTACGGTTACGATCGGATCGATTACGGATC";
        let idx = index_of(text);
        let q: DnaSeq = text[5..25].parse().unwrap();
        let m = mmp_search(&idx, q.codes(), 0);
        assert_eq!(m.len, 20);
        assert!(m.occurrences() >= 1);
        let hit = idx.sa().suffix(m.interval.lo) as usize;
        assert_eq!(&text[hit..hit + 20], &text[5..25]);
    }

    #[test]
    fn stops_at_first_mismatch() {
        let text = "ACGTACGGTTACGATCGGATCGATTACGGATC";
        let idx = index_of(text);
        // 10 genomic bases then a divergent tail absent from the genome.
        let q: DnaSeq = format!("{}{}", &text[3..13], "CCCCCCCCCC").parse().unwrap();
        let m = mmp_search(&idx, q.codes(), 0);
        assert_eq!(m.len, naive_mmp(text, &q.to_string()));
        assert!(m.len >= 10);
    }

    #[test]
    fn matches_naive_mmp_on_random_queries() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let text_seq = DnaSeq::random(&mut rng, 3000);
        let text = text_seq.to_string();
        let idx = index_of(&text);
        for _ in 0..200 {
            let qlen = rng.gen_range(1..60);
            let q = DnaSeq::random(&mut rng, qlen);
            let m = mmp_search(&idx, q.codes(), 0);
            assert_eq!(m.len, naive_mmp(&text, &q.to_string()), "query {q}");
            if m.len > 0 {
                // Every reported occurrence really matches.
                for slot in m.interval.lo..m.interval.hi {
                    let pos = idx.sa().suffix(slot) as usize;
                    assert_eq!(&text[pos..pos + m.len], &q.to_string()[..m.len]);
                }
            }
        }
    }

    #[test]
    fn deep_table_never_changes_results() {
        use crate::prefix::PrefixTable;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        let text_seq = DnaSeq::random(&mut rng, 5000);
        let text = text_seq.to_string();
        let idx = index_of(&text);
        let codes = idx.genome().unpack();
        let deep = PrefixTable::deepen(idx.sa(), &codes, idx.prefix().k());
        assert!(!deep.is_empty(), "5kb genome supports a deeper table");
        assert!(deep.iter().all(|t| t.k() > idx.prefix().k()));
        for i in 0..500 {
            // Mix pure-random queries with genomic and near-genomic ones so both the
            // deep-hit and deep-miss fallback paths are exercised.
            let q = match i % 3 {
                0 => {
                    let qlen = rng.gen_range(1..80usize);
                    DnaSeq::random(&mut rng, qlen)
                }
                1 => {
                    let s = rng.gen_range(0..text.len() - 80);
                    text[s..s + rng.gen_range(1..80usize)].parse::<DnaSeq>().unwrap()
                }
                _ => {
                    let s = rng.gen_range(0..text.len() - 80);
                    let mut codes = text[s..s + 60].parse::<DnaSeq>().unwrap().codes().to_vec();
                    let flip = rng.gen_range(0..codes.len());
                    codes[flip] = (codes[flip] + rng.gen_range(1..4u8)) % 4;
                    DnaSeq::from_codes(codes)
                }
            };
            let plain = mmp_search(&idx, q.codes(), 0);
            let layers = SeedLayers::new(&idx, &deep);
            let fast = mmp_search_packed(
                &layers,
                &Packed2::from_codes(q.codes()),
                0,
                &mut SearchCost::default(),
            );
            assert_eq!(plain, fast, "query {q}");
        }
    }

    /// The ladder search — from the base table down, and with the deep tables on
    /// top — against per-base refinement from the root, for every `(q, from)`.
    fn assert_ladder_matches_refinement(idx: &StarIndex, queries: &[DnaSeq]) {
        for q in queries {
            let packed = Packed2::from_codes(q.codes());
            for from in 0..=q.len() {
                let want = mmp_by_refinement(idx, &packed, from);
                for layers in [SeedLayers::base(idx), SeedLayers::full(idx)] {
                    let got = mmp_search_packed(&layers, &packed, from, &mut SearchCost::default());
                    assert_eq!(got, want, "query {q} from {from}, {} deep tables", layers.deep.len());
                }
            }
        }
    }

    /// Queries of every length from one base up, so some are shorter than every
    /// table but the last: random, poly-A, each single base, and — when the text
    /// has room — genomic substrings with and without one flipped base.
    fn probe_queries(text: &str, seed: u64) -> Vec<DnaSeq> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries: Vec<DnaSeq> = (1..=40).map(|len| DnaSeq::random(&mut rng, len)).collect();
        queries.push(DnaSeq::from_codes(vec![0; 30]));
        queries.extend((0..4u8).map(|c| DnaSeq::from_codes(vec![c])));
        for len in 1..text.len().min(45) {
            let s = rng.gen_range(0..=text.len() - len);
            let genomic: DnaSeq = text[s..s + len].parse().unwrap();
            let mut codes = genomic.codes().to_vec();
            let flip = rng.gen_range(0..len);
            codes[flip] = (codes[flip] + rng.gen_range(1..4u8)) % 4;
            queries.extend([genomic, DnaSeq::from_codes(codes)]);
        }
        queries
    }

    #[test]
    fn ladder_search_equals_root_refinement_everywhere() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let random = DnaSeq::random(&mut StdRng::seed_from_u64(5), 5000).to_string();
        let texts = [
            random.as_str(),
            &"A".repeat(300),              // homopolymer
            &"ACG".repeat(100),            // tandem repeats; T is absent from the genome
            &"AC".repeat(150),
            "ACG",                         // shorter than the base depth (k >= 4)
            "TTTTGTTTTTTTTTTTTTTTCTTTTTT", // a lone C and G among the T runs
        ];
        for (i, text) in texts.into_iter().enumerate() {
            let idx = index_of(text);
            assert_ladder_matches_refinement(&idx, &probe_queries(text, i as u64));
        }
        assert!(!index_of(&random).deep_prefix().is_empty(), "the random text has deep tables");
        // `prefix::tests::short_suffixes_do_not_leak_into_buckets`' text: its last
        // k-1 suffixes sort between the bucket runs of the base table.
        let idx = index_with("CACGTC", IndexParams { sa_index_nbases: Some(3) });
        assert_ladder_matches_refinement(&idx, &probe_queries("CACGTC", 9));
    }

    #[test]
    fn an_empty_rung_above_a_full_one_answers_without_reading_the_suffix_array() {
        // "GGT" occurs once in the text and "GGTC" never: the base table (k = 4) has
        // no bucket for the query's first four bases, the depth-3 rung has one.
        let text = "ACGTACGGTTACGATCGGATCGATTACGGATC";
        let idx = index_of(text);
        assert_eq!(idx.prefix().k(), 4);
        let q: DnaSeq = "GGTCCCCCCC".parse().unwrap();
        let mut cost = SearchCost::default();
        let m = mmp_search_packed(&SeedLayers::base(&idx), &Packed2::from_codes(q.codes()), 0, &mut cost);
        assert_eq!((m.len, m.occurrences()), (3, 1));
        assert_eq!(cost, SearchCost { searches: 1, probes: 2, start_suffixes: 1, widest_start: 1 });
        assert_eq!(m, mmp_by_refinement(&idx, &Packed2::from_codes(q.codes()), 0));
    }

    #[test]
    fn respects_from_offset() {
        let text = "ACGTACGGTTACGATCGGATCGATTACGGATC";
        let idx = index_of(text);
        let q: DnaSeq = format!("CCCCC{}", &text[0..15]).parse().unwrap();
        let m = mmp_search(&idx, q.codes(), 5);
        assert_eq!(m.start, 5);
        assert_eq!(m.len, 15);
    }

    #[test]
    fn empty_query_yields_len_zero() {
        let idx = index_of("ACGTACGT");
        let q: DnaSeq = "ACGT".parse().unwrap();
        let m = mmp_search(&idx, q.codes(), 4);
        assert_eq!(m.len, 0);
        assert_eq!(m.occurrences(), 0);
    }

    #[test]
    fn counts_all_occurrences_of_repeats() {
        let unit = "ACGGTTCAGCATCGAAACCCTTTGGGA"; // 27bp unique-ish unit
        let text = unit.repeat(4);
        let idx = index_of(&text);
        let q: DnaSeq = unit.parse().unwrap();
        let m = mmp_search(&idx, q.codes(), 0);
        // The full query matches (it is a substring) and the first `len` bases occur
        // at least 4 times.
        assert_eq!(m.len, unit.len());
        assert_eq!(m.occurrences(), 4);
    }
}
