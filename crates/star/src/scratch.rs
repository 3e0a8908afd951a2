//! Reusable per-thread alignment scratch.
//!
//! Steady-state per-read alignment must perform zero heap allocations: every
//! buffer the seed → stitch → extend pipeline needs lives in an [`AlignScratch`]
//! that is reused across reads. Vectors are cleared, never dropped, so their
//! capacity (grown over the first few reads) is retained; pooled objects with
//! interior vectors (`ChainPool`, `CandSet`) keep dead slots alive beyond
//! their live length for the same reason.
//!
//! Each OS thread owns one scratch through a thread-local (`with_thread_scratch`),
//! so a [`crate::runner::Runner`]'s pool workers amortize their buffers across
//! batches for the lifetime of the pool. Callers that want explicit control (e.g.
//! allocation-counting tests) can hold their own [`AlignScratch`] and use
//! [`crate::align::Aligner::align_seq_with`].

use std::cell::RefCell;

use crate::extend::WindowAlignment;
use crate::genome::Packed2;
use crate::pair::CandidatePair;
use crate::seed::{Seed, SeedProbeScratch};
use crate::stitch::Chain;

/// All buffers the per-read alignment hot path reuses.
#[derive(Debug, Default)]
pub struct AlignScratch {
    pub(crate) core: ScratchCore,
    pub(crate) cands: CandSet,
    /// Second mate's candidate set (paired-end alignment).
    pub(crate) cands2: CandSet,
    /// Candidate pairings (paired-end alignment).
    pub(crate) pairs: Vec<CandidatePair>,
}

impl AlignScratch {
    /// A fresh scratch; buffers grow on first use and are then retained.
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }
}

/// Buffers consumed within one `candidates` pass (shared by both mates).
#[derive(Debug, Default)]
pub(crate) struct ScratchCore {
    /// Reverse-complement codes of the read being aligned.
    pub(crate) rc: Vec<u8>,
    /// 2-bit packed forward read (word buffer reused across reads).
    pub(crate) fwd: Packed2,
    /// 2-bit packed reverse-complement read.
    pub(crate) rcp: Packed2,
    /// Seed list for the current orientation.
    pub(crate) seeds: Vec<Seed>,
    /// Batched seed-occurrence resolution buffers.
    pub(crate) probe: SeedProbeScratch,
    pub(crate) stitch: StitchScratch,
    pub(crate) chains: ChainPool,
}

/// Working vectors for windowing + chain DP.
#[derive(Debug, Default)]
pub(crate) struct StitchScratch {
    /// Seeds re-sorted by genome position for window splitting.
    pub(crate) by_gpos: Vec<Seed>,
    pub(crate) dp: WindowDp,
}

/// Per-window DP state (windows are slices of `by_gpos`, hence the separate struct).
#[derive(Debug, Default)]
pub(crate) struct WindowDp {
    /// Current window's seeds, sorted by (read_pos, gpos) for the DP.
    pub(crate) win: Vec<Seed>,
    pub(crate) best_cov: Vec<u32>,
    /// DP back-pointers; `u32::MAX` = chain start.
    pub(crate) prev: Vec<u32>,
    pub(crate) used_as_prev: Vec<bool>,
}

/// Pool of chains: `chains[..len]` are live; dead slots keep their seed-vector
/// capacity so re-acquiring them allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ChainPool {
    pub(crate) chains: Vec<Chain>,
    pub(crate) len: usize,
}

impl ChainPool {
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    /// Acquire the next slot with an emptied (capacity-retaining) seed vector.
    pub(crate) fn acquire(&mut self) -> &mut Chain {
        if self.len == self.chains.len() {
            self.chains.push(Chain { seeds: Vec::new() });
        }
        let c = &mut self.chains[self.len];
        self.len += 1;
        c.seeds.clear();
        c
    }

    pub(crate) fn live(&self) -> &[Chain] {
        &self.chains[..self.len]
    }
}

/// Pooled candidate set: window alignments plus the deduplicated access order.
///
/// `pool[..len]` hold the candidates of the current read; `order` lists the
/// surviving (deduplicated) candidates as indexes into `pool`, sorted by
/// `(strand, gstart, score desc)`. Keeping an index vector instead of sorting
/// the pool itself lets dead entries retain their CIGAR/junction capacity.
#[derive(Debug, Default)]
pub(crate) struct CandSet {
    pub(crate) pool: Vec<(bool, WindowAlignment)>,
    pub(crate) len: usize,
    pub(crate) order: Vec<u32>,
}

impl CandSet {
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.order.clear();
    }

    /// Slot for the extender to fill in place; call [`CandSet::commit`] to keep it.
    #[inline]
    pub(crate) fn slot(&mut self, is_rc: bool) -> &mut WindowAlignment {
        if self.len == self.pool.len() {
            self.pool.push((false, WindowAlignment::empty()));
        }
        let entry = &mut self.pool[self.len];
        entry.0 = is_rc;
        entry.1.reset();
        &mut entry.1
    }

    pub(crate) fn commit(&mut self) {
        self.len += 1;
    }

    /// Sort by `(strand, gstart, score desc, insertion order)` and keep the first
    /// candidate per `(strand, gstart)` locus. The insertion-order tiebreak makes
    /// the unstable sort reproduce the previous stable-sort + keep-first-dedup
    /// result bit for bit.
    pub(crate) fn finalize(&mut self) {
        self.order.clear();
        self.order.extend(0..self.len as u32);
        let pool = &self.pool;
        self.order.sort_unstable_by_key(|&i| {
            let (rc, wa) = &pool[i as usize];
            (*rc, wa.gstart, std::cmp::Reverse(wa.score), i)
        });
        let mut kept = 0usize;
        for r in 0..self.order.len() {
            let i = self.order[r];
            let dup = kept > 0 && {
                let (prc, pwa) = &pool[self.order[kept - 1] as usize];
                let (rc, wa) = &pool[i as usize];
                *prc == *rc && pwa.gstart == wa.gstart
            };
            if !dup {
                self.order[kept] = i;
                kept += 1;
            }
        }
        self.order.truncate(kept);
    }

    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The `i`-th surviving candidate in sorted order.
    pub(crate) fn get(&self, i: usize) -> &(bool, WindowAlignment) {
        &self.pool[self.order[i] as usize]
    }

    /// Surviving candidates in sorted order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(bool, WindowAlignment)> + '_ {
        self.order.iter().map(move |&i| &self.pool[i as usize])
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<AlignScratch> = RefCell::new(AlignScratch::new());
}

/// Run `f` with this thread's scratch. One scratch per OS thread: the workers of a
/// runner's pool, which persist for the process, keep their buffers warm across
/// batches and runs.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut AlignScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_pool_retains_seed_capacity() {
        let mut pool = ChainPool::default();
        {
            let c = pool.acquire();
            for i in 0..64u32 {
                c.seeds.push(Seed { read_pos: i, gpos: i as u64, len: 1, interval_size: 1 });
            }
        }
        let cap = pool.chains[0].seeds.capacity();
        pool.clear();
        let c = pool.acquire();
        assert_eq!(c.seeds.len(), 0, "acquire hands out an emptied chain");
        assert_eq!(c.seeds.capacity(), cap, "capacity survives reuse");
    }

    #[test]
    fn cand_set_finalize_keeps_best_per_locus_in_insertion_order() {
        let mut set = CandSet::default();
        // Three candidates at the same locus with scores 5, 9, 9 and one elsewhere.
        for (gstart, score) in [(100u64, 5i32), (100, 9), (100, 9), (200, 7)] {
            let wa = set.slot(false);
            wa.gstart = gstart;
            wa.score = score;
            set.commit();
        }
        set.finalize();
        assert_eq!(set.len(), 2);
        // Winner at locus 100 is the *first inserted* of the score-9 ties (pool idx 1).
        assert_eq!(set.order[0], 1);
        assert_eq!(set.get(0).1.score, 9);
        assert_eq!(set.get(1).1.gstart, 200);
        // Reuse clears the order but keeps the pool slots.
        let pool_cap = set.pool.len();
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.pool.len(), pool_cap);
    }
}
