//! Seed windowing and stitching (STAR's "clustering/stitching/scoring" stage).
//!
//! Seeds are grouped into genomic *windows* (close enough to be one locus, intron
//! gaps allowed), and within each window the best collinear chain is selected by
//! dynamic programming. Each chain is a candidate alignment to be extended and
//! scored by [`crate::extend`].

use crate::scratch::{ChainPool, StitchScratch, WindowDp};
use crate::seed::Seed;

/// Maximum intron length considered when stitching seeds (`--alignIntronMax`).
pub const MAX_INTRON_LEN: u64 = 5_000;

/// A collinear chain of seeds within one genomic window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chain {
    /// Seeds in read order; consecutive pairs are gap-compatible (see
    /// [`gap_compatible`]).
    pub seeds: Vec<Seed>,
}

impl Chain {
    /// Total read bases covered by seeds (the chain score used for ranking).
    pub fn covered(&self) -> u32 {
        self.seeds.iter().map(|s| s.len).sum()
    }

    /// Genomic start of the chain.
    pub fn gstart(&self) -> u64 {
        self.seeds.first().map_or(0, |s| s.gpos)
    }

    /// Genomic end (exclusive) of the chain.
    pub fn gend(&self) -> u64 {
        self.seeds.last().map_or(0, |s| s.gend())
    }
}

/// Can `b` directly follow `a` in a chain? Requires read and genome order, no overlap,
/// and a genome gap that equals the read gap (mismatch run) or exceeds it by at most
/// `max_intron` (splice). Substitution-only model: the genome gap is never smaller.
pub fn gap_compatible(a: &Seed, b: &Seed, max_intron: u64) -> bool {
    if b.read_pos < a.read_end() || b.gpos < a.gend() {
        return false;
    }
    let read_gap = (b.read_pos - a.read_end()) as u64;
    let genome_gap = b.gpos - a.gend();
    genome_gap >= read_gap && genome_gap - read_gap <= max_intron
}

/// Group seeds into windows and emit the maximal chains of each window into the
/// pooled `out` (cleared first).
///
/// Windows are built by sorting seeds by genome position and splitting where the gap
/// between consecutive seeds exceeds [`MAX_INTRON_LEN`]` + read_len` (they could never be
/// stitched). Within a window, a quadratic DP maximizes covered read bases; one chain
/// is emitted per DP *terminal* (a seed no better chain passes through), so
/// duplicated loci inside one window — e.g. a read hitting both a chromosome region
/// and its scaffold copy — each produce their own candidate chain. Windows hold only
/// a handful of seeds, so O(w²) is cheap. Allocation-free in the steady state:
/// windowing and DP run on `scratch`'s buffers.
pub(crate) fn best_chains_into(
    seeds: &[Seed],
    read_len: usize,
    scratch: &mut StitchScratch,
    out: &mut ChainPool,
) {
    out.clear();
    if seeds.is_empty() {
        return;
    }
    let StitchScratch { by_gpos, dp } = scratch;
    by_gpos.clear();
    by_gpos.extend_from_slice(seeds);
    by_gpos.sort_unstable_by_key(|s| s.gpos);

    let split_gap = MAX_INTRON_LEN + read_len as u64;
    let mut win_start = 0usize;
    for i in 1..by_gpos.len() {
        if by_gpos[i].gpos.saturating_sub(by_gpos[i - 1].gend()) > split_gap {
            chain_window(&by_gpos[win_start..i], dp, out);
            win_start = i;
        }
    }
    chain_window(&by_gpos[win_start..], dp, out);
}

/// [`best_chains_into`] on fresh buffers, returning owned chains.
#[cfg(test)]
pub(crate) fn best_chains(seeds: &[Seed], read_len: usize) -> Vec<Chain> {
    let mut pool = ChainPool::default();
    best_chains_into(seeds, read_len, &mut StitchScratch::default(), &mut pool);
    pool.chains.truncate(pool.len);
    pool.chains
}

/// DP over one window: maximize covered read bases over gap-compatible chains and
/// emit one chain per terminal (a seed no better chain passes through).
fn chain_window(window: &[Seed], dp: &mut WindowDp, out: &mut ChainPool) {
    let WindowDp { win, best_cov, prev, used_as_prev } = dp;
    if window.is_empty() {
        return;
    }
    // Order by read position (then genome) for the DP.
    win.clear();
    win.extend_from_slice(window);
    win.sort_unstable_by_key(|s| (s.read_pos, s.gpos));

    let n = win.len();
    best_cov.clear();
    best_cov.extend(win.iter().map(|s| s.len));
    prev.clear();
    prev.resize(n, u32::MAX); // MAX = chain start
    for i in 0..n {
        for j in 0..i {
            if gap_compatible(&win[j], &win[i], MAX_INTRON_LEN) {
                let cand = best_cov[j] + win[i].len;
                if cand > best_cov[i] {
                    best_cov[i] = cand;
                    prev[i] = j as u32;
                }
            }
        }
    }
    // Terminals: seeds that no chosen chain continues from.
    used_as_prev.clear();
    used_as_prev.resize(n, false);
    for i in 0..n {
        if prev[i] != u32::MAX {
            used_as_prev[prev[i] as usize] = true;
        }
    }
    for end in (0..n).filter(|&i| !used_as_prev[i]) {
        let chain = out.acquire();
        let mut cur = end as u32;
        loop {
            chain.seeds.push(win[cur as usize]);
            if prev[cur as usize] == u32::MAX {
                break;
            }
            cur = prev[cur as usize];
        }
        chain.seeds.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(read_pos: u32, gpos: u64, len: u32) -> Seed {
        Seed { read_pos, gpos, len, interval_size: 1 }
    }

    #[test]
    fn gap_compatibility_rules() {
        let a = seed(0, 100, 50);
        // Contiguous mismatch gap: read gap 1 == genome gap 1.
        assert!(gap_compatible(&a, &seed(51, 151, 40), 1000));
        // Intron: genome gap 501, read gap 1, within max intron.
        assert!(gap_compatible(&a, &seed(51, 651, 40), 1000));
        // Intron too long.
        assert!(!gap_compatible(&a, &seed(51, 3651, 40), 1000));
        // Genome gap smaller than read gap (would need an insertion).
        assert!(!gap_compatible(&a, &seed(60, 155, 40), 1000));
        // Read overlap.
        assert!(!gap_compatible(&a, &seed(40, 200, 40), 1000));
        // Genome overlap.
        assert!(!gap_compatible(&a, &seed(51, 140, 40), 1000));
    }

    #[test]
    fn single_seed_gives_single_chain() {
        let chains = best_chains(&[seed(0, 500, 100)], 100);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].covered(), 100);
    }

    #[test]
    fn mismatch_split_seeds_chain_together() {
        let s = [seed(0, 100, 50), seed(51, 151, 49)];
        let chains = best_chains(&s, 100);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].seeds.len(), 2);
        assert_eq!(chains[0].covered(), 99);
    }

    #[test]
    fn spliced_seeds_chain_within_intron_limit() {
        let s = [seed(0, 100, 60), seed(60, 1160, 40)]; // 1000bp intron
        let chains = best_chains(&s, 100);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].seeds.len(), 2);
    }

    #[test]
    fn distant_loci_become_separate_windows() {
        let s = [seed(0, 100, 100), seed(0, 1_000_000, 100)];
        let chains = best_chains(&s, 100);
        assert_eq!(chains.len(), 2, "two windows, one chain each");
        assert_eq!(chains[0].covered(), 100);
        assert_eq!(chains[1].covered(), 100);
    }

    #[test]
    fn dp_picks_maximal_coverage_chain() {
        // Three seeds where the greedy pair (0 + big middle) blocks the better tail.
        let s = [
            seed(0, 100, 30),
            seed(35, 500, 20),  // compatible with first but then blocks the third
            seed(35, 140, 60),  // 5bp mismatch gap after first; total 90
        ];
        let chains = best_chains(&s, 100);
        let best = chains.iter().max_by_key(|c| c.covered()).unwrap();
        assert_eq!(best.covered(), 90);
        assert_eq!(best.seeds.len(), 2);
        assert_eq!(best.seeds[1].gpos, 140);
    }

    #[test]
    fn duplicate_loci_yield_one_chain_each() {
        // Same read seeds at two distant loci (multimapping): two chains.
        let s = [
            seed(0, 100, 50),
            seed(51, 151, 49),
            seed(0, 50_100, 50),
            seed(51, 50_151, 49),
        ];
        let chains = best_chains(&s, 100);
        assert_eq!(chains.len(), 2);
        assert!(chains.iter().all(|c| c.covered() == 99));
    }

    #[test]
    fn empty_input_gives_no_chains() {
        assert!(best_chains(&[], 100).is_empty());
    }
}
