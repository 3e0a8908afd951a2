//! The discrete-event simulation kernel.
//!
//! [`Kernel`] is the scheduling heart fleet-scale campaigns run on: a binary heap
//! of `(time, sequence)`-keyed timers with deterministic tie-breaking (earlier
//! time first; equal times pop in scheduling order), O(1) cancellation via
//! tombstones, dispatch statistics, and an optional operation trace that makes a
//! whole simulation *replayable* — feeding a recorded trace back through a fresh
//! kernel must reproduce the exact pop sequence, byte for byte.
//!
//! Determinism contract:
//!
//! * `pop` order is a pure function of the sequence of `schedule`/`cancel` calls —
//!   no hashing, no pointer identity, no wall clock.
//! * events at the same timestamp pop in the order they were scheduled
//!   (sequence numbers are assigned monotonically and never reused);
//! * the clock never moves backwards: scheduling into the past panics, and each
//!   pop advances `now` to the popped event's timestamp.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Handle to a scheduled event, usable to [`Kernel::cancel`] it before it fires.
///
/// Sequence numbers are unique for the lifetime of a kernel, so a stale handle
/// (already fired or already cancelled) is harmless: cancelling it is a no-op
/// that reports `false`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

impl TimerId {
    /// The raw sequence number (stable identifier in traces).
    pub fn seq(&self) -> u64 {
        self.0
    }
}

/// Dispatch statistics, for campaign reports and kernel benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events popped and handed to the simulation.
    pub dispatched: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// High-water mark of pending (live) events.
    pub peak_pending: usize,
}

/// One recorded kernel operation (see [`Kernel::enable_trace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// An event was scheduled at `at` with sequence `seq`.
    Schedule {
        /// Bit pattern of the timestamp (exact, no rounding).
        at_bits: u64,
        /// Sequence number assigned.
        seq: u64,
    },
    /// The event with sequence `seq` was cancelled while pending.
    Cancel {
        /// Sequence number cancelled.
        seq: u64,
    },
    /// The event with sequence `seq` fired at `at`.
    Pop {
        /// Bit pattern of the dispatch timestamp.
        at_bits: u64,
        /// Sequence number dispatched.
        seq: u64,
    },
}

struct Entry<E> {
    key: Reverse<(SimTime, u64)>,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The discrete-event kernel: a deterministic, cancellable timer wheel.
pub struct Kernel<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers currently live: scheduled, not fired, not cancelled.
    /// Membership answers `cancel` in O(1); the sets are lookup-only (never
    /// iterated), so hashing cannot perturb simulation order.
    live: HashSet<u64>,
    /// Cancelled-but-still-heaped sequence numbers, discarded lazily at pop.
    tombstones: HashSet<u64>,
    seq: u64,
    now: SimTime,
    stats: KernelStats,
    trace: Option<Vec<TraceOp>>,
}

impl<E> Default for Kernel<E> {
    fn default() -> Self {
        Kernel {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            tombstones: HashSet::new(),
            seq: 0,
            now: SimTime::ZERO,
            stats: KernelStats::default(),
            trace: None,
        }
    }
}

impl<E> Kernel<E> {
    /// An empty kernel with the clock at zero.
    pub fn new() -> Kernel<E> {
        Kernel::default()
    }

    /// Start recording every schedule/cancel/pop as a [`TraceOp`].
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded operation trace (empty unless [`Kernel::enable_trace`] ran
    /// before the operations of interest).
    pub fn trace(&self) -> &[TraceOp] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Serialize the trace to bytes — a canonical, comparison-friendly encoding
    /// for the replay property tests (op tag, then the op's fields, little-endian).
    pub fn trace_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.trace().len() * 17);
        for op in self.trace() {
            match op {
                TraceOp::Schedule { at_bits, seq } => {
                    out.push(1);
                    out.extend_from_slice(&at_bits.to_le_bytes());
                    out.extend_from_slice(&seq.to_le_bytes());
                }
                TraceOp::Cancel { seq } => {
                    out.push(2);
                    out.extend_from_slice(&seq.to_le_bytes());
                }
                TraceOp::Pop { at_bits, seq } => {
                    out.push(3);
                    out.extend_from_slice(&at_bits.to_le_bytes());
                    out.extend_from_slice(&seq.to_le_bytes());
                }
            }
        }
        out
    }

    /// Current simulation time (the timestamp of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Dispatch statistics so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Schedule `payload` at absolute time `at`, returning a cancellable handle.
    ///
    /// Panics when scheduling in the past — a simulation bug that must not be
    /// silently reordered.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> TimerId {
        assert!(at >= self.now, "scheduling into the past: {at:?} < {:?}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { key: Reverse((at, seq)), payload });
        self.live.insert(seq);
        self.stats.scheduled += 1;
        let pending = self.len();
        if pending > self.stats.peak_pending {
            self.stats.peak_pending = pending;
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceOp::Schedule { at_bits: at.as_secs().to_bits(), seq });
        }
        TimerId(seq)
    }

    /// Schedule `payload` `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> TimerId {
        self.schedule(self.now + delay, payload)
    }

    /// Cancel a pending event. Returns `true` when the event was live (it will
    /// never fire); `false` for stale handles (already fired or cancelled).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if !self.live.remove(&id.0) {
            return false;
        }
        self.tombstones.insert(id.0);
        self.stats.cancelled += 1;
        if let Some(t) = &mut self.trace {
            t.push(TraceOp::Cancel { seq: id.0 });
        }
        true
    }

    /// Pop the earliest live event, advancing the clock to its timestamp.
    /// Cancelled entries are discarded silently.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            let Reverse((at, seq)) = entry.key;
            if self.tombstones.remove(&seq) {
                continue;
            }
            self.live.remove(&seq);
            debug_assert!(at >= self.now, "kernel clock must be monotone");
            self.now = at;
            self.stats.dispatched += 1;
            if let Some(t) = &mut self.trace {
                t.push(TraceOp::Pop { at_bits: at.as_secs().to_bits(), seq });
            }
            return Some((at, entry.payload));
        }
        None
    }

    /// Number of pending (live, uncancelled) events.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(e) = self.heap.peek() {
            let Reverse((at, seq)) = e.key;
            if self.tombstones.contains(&seq) {
                self.heap.pop();
                self.tombstones.remove(&seq);
                continue;
            }
            return Some(at);
        }
        None
    }
}

impl<E> std::fmt::Debug for Kernel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut k = Kernel::new();
        k.schedule(SimTime::from_secs(3.0), "late");
        k.schedule(SimTime::from_secs(1.0), "a");
        k.schedule(SimTime::from_secs(1.0), "b");
        k.schedule(SimTime::from_secs(2.0), "mid");
        let order: Vec<&str> = std::iter::from_fn(|| k.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "mid", "late"]);
        assert_eq!(k.now(), SimTime::from_secs(3.0));
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut k = Kernel::new();
        let a = k.schedule(SimTime::from_secs(1.0), "a");
        let b = k.schedule(SimTime::from_secs(2.0), "b");
        k.schedule(SimTime::from_secs(3.0), "c");
        assert!(k.cancel(b));
        assert!(!k.cancel(b), "double cancel is a stale no-op");
        assert_eq!(k.len(), 2);
        let order: Vec<&str> = std::iter::from_fn(|| k.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "c"]);
        assert!(!k.cancel(a), "fired handles are stale");
        assert_eq!(k.stats().cancelled, 1);
        assert_eq!(k.stats().dispatched, 2);
        assert_eq!(k.stats().scheduled, 3);
    }

    #[test]
    fn peek_skips_tombstones() {
        let mut k = Kernel::new();
        assert!(k.is_empty());
        assert_eq!(k.peek_time(), None);
        let a = k.schedule(SimTime::from_secs(1.0), ());
        k.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(k.len(), 2);
        k.cancel(a);
        assert_eq!(k.peek_time(), Some(SimTime::from_secs(2.0)));
        assert_eq!(k.len(), 1);
        assert!(!k.is_empty());
    }

    #[test]
    fn schedule_in_is_relative_and_clock_monotone() {
        let mut k = Kernel::new();
        k.schedule(SimTime::from_secs(10.0), 1);
        k.pop();
        k.schedule_in(SimDuration::from_secs(5.0), 2);
        let (t, v) = k.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15.0));
        assert_eq!(v, 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut k = Kernel::new();
        k.schedule(SimTime::from_secs(10.0), ());
        k.pop();
        k.schedule(SimTime::from_secs(5.0), ());
    }

    #[test]
    fn trace_records_schedule_cancel_pop() {
        let mut k = Kernel::new();
        k.enable_trace();
        let a = k.schedule(SimTime::from_secs(1.0), ());
        let b = k.schedule(SimTime::from_secs(2.0), ());
        k.cancel(b);
        k.pop();
        assert_eq!(
            k.trace(),
            &[
                TraceOp::Schedule { at_bits: 1.0f64.to_bits(), seq: a.seq() },
                TraceOp::Schedule { at_bits: 2.0f64.to_bits(), seq: b.seq() },
                TraceOp::Cancel { seq: b.seq() },
                TraceOp::Pop { at_bits: 1.0f64.to_bits(), seq: a.seq() },
            ]
        );
        assert_eq!(k.trace_bytes().len(), 17 + 17 + 9 + 17);
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut k = Kernel::new();
        for i in 0..5 {
            k.schedule(SimTime::from_secs(i as f64), i);
        }
        for _ in 0..5 {
            k.pop();
        }
        k.schedule(SimTime::from_secs(10.0), 99);
        assert_eq!(k.stats().peak_pending, 5);
    }
}
