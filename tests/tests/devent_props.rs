//! Property tests of the discrete-event kernel's ordering contract.
//!
//! The kernel's promises (crates/cloudsim/src/devent.rs):
//!
//! 1. pops come out in `(time, sequence)` order — earliest first, equal
//!    timestamps strictly FIFO in scheduling order;
//! 2. the order is stable under arbitrary interleavings of schedule/pop
//!    (a heap rebalance can never reorder equal keys);
//! 3. the clock is monotone: dispatch timestamps never decrease;
//! 4. exactly-once accounting holds (`scheduled == dispatched + pending` at all
//!    times).
//!
//! The heap compares integer keys (a time's bit pattern, then the sequence), so
//! a last case drives the edges of that representation: zero and subnormal
//! offsets, times near 10^12 s and `SimTime::from_secs(-0.0)`.
//!
//! Whole campaigns replaying byte for byte is `devent_diff`'s and
//! `campaign_pins`' job.

use cloudsim::{Kernel, SimDuration, SimTime};
use proptest::prelude::*;

/// Scripted kernel operation. Times are offsets added to `now` so schedules are
/// always legal.
#[derive(Clone, Debug)]
enum Op {
    Schedule(f64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0.0f64..100.0).prop_map(Op::Schedule),
        3 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Invariant 1: a batch of events sharing timestamps pops sorted by time,
    /// FIFO within a timestamp — exactly a stable sort by time of the
    /// scheduling order.
    #[test]
    fn same_timestamp_events_pop_in_insertion_order(
        times in prop::collection::vec(0u8..6, 1..60),
    ) {
        let mut k: Kernel<usize> = Kernel::new();
        let mut expected: Vec<(u8, usize)> = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            k.schedule(SimTime::from_secs(t as f64), i);
            expected.push((t, i));
        }
        // Stable sort by time preserves insertion order within a timestamp.
        expected.sort_by_key(|&(t, _)| t);
        let popped: Vec<(u8, usize)> = std::iter::from_fn(|| k.pop())
            .map(|(at, i)| (at.as_secs() as u8, i))
            .collect();
        prop_assert_eq!(popped, expected);
    }

    /// Invariants 1-4 under interleaved schedule/pop: the kernel agrees with a
    /// brute-force model (a vector stably sorted per pop), keeps the clock
    /// monotone, and balances its books.
    #[test]
    fn interleaved_ops_match_the_stable_model(
        ops in prop::collection::vec(op_strategy(), 0..200),
    ) {
        let mut k: Kernel<u64> = Kernel::new();
        // Model: (time_bits, payload) for every unpopped event, mirrored by hand;
        // payloads count the schedules.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut next_payload = 0u64;
        let mut last_at = f64::NEG_INFINITY;

        for op in ops {
            match op {
                Op::Schedule(dt) => {
                    let at = k.now() + cloudsim::SimDuration::from_secs(dt);
                    k.schedule(at, next_payload);
                    model.push((at.as_secs().to_bits(), next_payload));
                    next_payload += 1;
                }
                Op::Pop => {
                    // The model's next event: smallest time, earliest scheduled.
                    // Model insertion order == scheduling order, and min_by
                    // keeps the first of equal keys — the FIFO winner.
                    let want = model
                        .iter()
                        .enumerate()
                        .min_by(|a, b| f64::from_bits(a.1 .0).total_cmp(&f64::from_bits(b.1 .0)))
                        .map(|(i, _)| i);
                    match (k.pop(), want) {
                        (None, None) => {}
                        (Some((at, payload)), Some(idx)) => {
                            let (bits, expect_payload) = model.remove(idx);
                            prop_assert_eq!(payload, expect_payload, "pop order diverged from model");
                            prop_assert_eq!(at.as_secs().to_bits(), bits);
                            // Invariant 3: monotone clock.
                            prop_assert!(at.as_secs() >= last_at, "clock went backwards");
                            last_at = at.as_secs();
                        }
                        (got, want) => {
                            prop_assert!(false, "kernel {:?} vs model {:?}", got.map(|g| g.1), want);
                        }
                    }
                }
            }
            // Invariant 4: books balance after every operation.
            prop_assert_eq!(next_payload, k.dispatched() + k.len() as u64);
            prop_assert_eq!(k.len(), model.len());
        }
    }

    /// Invariants 1-4 at the edges of the integer key: offsets of zero (ties),
    /// subnormal offsets (times one ulp apart near zero), absolute times around
    /// 10^12 s (where neighbouring times differ by ~10^-4 s), and −0.0, which
    /// must tie with +0.0 and pop in scheduling order. The model orders by the
    /// requested seconds as values, not by any representation.
    #[test]
    fn edge_times_match_the_stable_model(
        ops in prop::collection::vec(edge_op_strategy(), 0..200),
    ) {
        let mut k: Kernel<u64> = Kernel::new();
        // (requested seconds, payload) for every unpopped event.
        let mut model: Vec<(f64, u64)> = Vec::new();
        let mut next_payload = 0u64;
        let mut last_at = 0.0f64;
        for op in ops {
            let at = match op {
                EdgeOp::In(offset) => Some(k.now() + SimDuration::from_secs(offset)),
                EdgeOp::At(secs) => {
                    let at = SimTime::from_secs(secs);
                    Some(if at >= k.now() { at } else { k.now() })
                }
                EdgeOp::Pop => None,
            };
            if let Some(at) = at {
                k.schedule(at, next_payload);
                model.push((at.as_secs(), next_payload));
                next_payload += 1;
            } else {
                // Smallest value first; `min_by` keeps the first of equal values,
                // so −0.0 and +0.0 tie and the earlier schedule wins.
                let want = model
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).unwrap())
                    .map(|(i, _)| i);
                match (k.pop(), want) {
                    (None, None) => {}
                    (Some((at, payload)), Some(idx)) => {
                        let (secs, expect_payload) = model.remove(idx);
                        prop_assert_eq!(payload, expect_payload, "pop order diverged from model");
                        prop_assert_eq!(at.as_secs(), secs);
                        prop_assert!(at.as_secs().is_sign_positive(), "a time kept its sign bit");
                        prop_assert!(at.as_secs() >= last_at, "clock went backwards");
                        last_at = at.as_secs();
                    }
                    (got, want) => {
                        prop_assert!(false, "kernel {:?} vs model {:?}", got.map(|g| g.1), want);
                    }
                }
            }
            prop_assert_eq!(next_payload, k.dispatched() + k.len() as u64);
            prop_assert_eq!(k.len(), model.len());
        }
    }
}

/// Scripted kernel operation at the key's edges. `At` times below the clock
/// are raised to it, so every schedule is legal.
#[derive(Clone, Debug)]
enum EdgeOp {
    In(f64),
    At(f64),
    Pop,
}

const EDGE_OFFSETS: [f64; 7] = [0.0, -0.0, 1e-310, 5e-324, f64::MIN_POSITIVE, 1e-4, 1.0];
const EDGE_TIMES: [f64; 7] = [-0.0, 0.0, 1e-310, 1.0, 1e12, 1e12 + 1.0, 1e12 + 1e-3];

fn edge_op_strategy() -> impl Strategy<Value = EdgeOp> {
    prop_oneof![
        3 => (0usize..EDGE_OFFSETS.len()).prop_map(|i| EdgeOp::In(EDGE_OFFSETS[i])),
        2 => (0usize..EDGE_TIMES.len()).prop_map(|i| EdgeOp::At(EDGE_TIMES[i])),
        3 => Just(EdgeOp::Pop),
    ]
}
