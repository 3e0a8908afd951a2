//! The discrete-event simulation kernel.
//!
//! [`Kernel`] is the scheduling heart fleet-scale campaigns run on: a binary heap
//! of `(time, sequence)`-keyed timers with deterministic tie-breaking (earlier
//! time first; equal times pop in scheduling order). There is no cancellation: a
//! campaign absorbs an event that no longer applies when it pops (by the epoch the
//! event carries), so the kernel only schedules and pops.
//!
//! Determinism contract:
//!
//! * `pop` order is a pure function of the sequence of `schedule` calls — no
//!   hashing, no pointer identity, no wall clock.
//! * events at the same timestamp pop in the order they were scheduled
//!   (sequence numbers are assigned monotonically and never reused);
//! * the clock never moves backwards: scheduling into the past panics, and each
//!   pop advances `now` to the popped event's timestamp.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The discrete-event kernel: a deterministic timer heap.
pub struct Kernel<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    dispatched: u64,
}

impl<E> Default for Kernel<E> {
    fn default() -> Self {
        Kernel { heap: BinaryHeap::new(), seq: 0, now: SimTime::ZERO, dispatched: 0 }
    }
}

impl<E> Kernel<E> {
    /// An empty kernel with the clock at zero.
    pub fn new() -> Kernel<E> {
        Kernel::default()
    }

    /// Current simulation time (the timestamp of the last dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events popped and handed to the simulation so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Panics when scheduling in the past — a simulation bug that must not be
    /// silently reordered.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "scheduling into the past: {at:?} < {:?}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { key: Reverse((at, seq)), payload });
    }

    /// Schedule `payload` `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        let Reverse((at, _)) = entry.key;
        debug_assert!(at >= self.now, "kernel clock must be monotone");
        self.now = at;
        self.dispatched += 1;
        Some((at, entry.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for Kernel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("dispatched", &self.dispatched)
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
        assert_eq!(k.len(), 4);
        let order: Vec<&str> = std::iter::from_fn(|| k.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "mid", "late"]);
        assert_eq!(k.now(), SimTime::from_secs(3.0));
        assert_eq!(k.dispatched(), 4);
        assert!(k.is_empty());
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
}
