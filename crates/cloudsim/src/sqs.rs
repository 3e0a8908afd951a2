//! SQS-style work queue with visibility timeouts and at-least-once delivery.
//!
//! The architecture's backbone (Fig. 2): SRA ids are sent to the queue, instances
//! poll, and a message only disappears when the worker *deletes* it after success. If
//! a worker dies (spot reclaim) or stalls past the visibility timeout, the message
//! becomes visible again and another instance picks it up.
//!
//! With [`SqsQueue::with_max_receive_count`] the queue also models a dead-letter
//! queue: a message that has already been delivered `max_receive_count` times is
//! moved to the DLQ instead of being delivered again, so a poison accession cannot
//! spin the fleet forever — and campaign accounting can prove conservation
//! (`completed + dead_lettered == sent`).
//!
//! # Discrete-event internals
//!
//! This implementation is kernel-grade: nothing scans the message store. Visibility
//! expiries are *scheduled events* on an internal min-heap keyed `(expiry, index)`
//! (the expiry as its bit pattern, see [`SimTime`]); [`SqsQueue::receive`] drains
//! only the entries that have actually come due, re-queueing them in message-index
//! order (the same order the original lazy full-scan reconciliation produced, so
//! delivery schedules are unchanged). A lease change reaches the heap once: the
//! receive and any extensions before the next reconciliation only mark the
//! message, and the reconciliation pushes its lease as it stands then.
//!
//! A [`ReceiptHandle`] carries its message's index beside the receipt serial, so a
//! receipt resolves with one comparison (`messages[index]` still holds that
//! serial) and there is no receipt map. [`SqsQueue::pending_count`] is a
//! maintained counter. All operations are O(log n) or better; a 10^6-message
//! campaign costs the same per operation as a 30-message one, and nothing hashed
//! can perturb delivery order.
//!
//! This implementation replaced an earlier full-scan queue after the property
//! suites proved the two observationally identical, operation for operation;
//! the scan version (and the per-tick orchestration loop it drove) has since
//! been deleted. The semantics the oracle pinned — delivery order, receipt
//! numbering, dead-letter order — are now pinned directly by the reference
//! model in the queue property tests.

use crate::time::{SimDuration, SimTime};
use crate::CloudError;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Receipt handle returned by [`SqsQueue::receive`]; required to delete or extend.
/// Opaque: a receipt serial, unique per delivery, and the message it was issued
/// for. It prints as `ReceiptHandle(<serial>)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReceiptHandle {
    serial: u64,
    index: usize,
}

impl fmt::Debug for ReceiptHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReceiptHandle({})", self.serial)
    }
}

/// A message with its delivery metadata.
#[derive(Clone, Debug)]
struct StoredMessage<M> {
    body: M,
    /// Times this message has been delivered.
    receive_count: u32,
    /// In-flight until this time (None = visible).
    invisible_until: Option<SimTime>,
    /// Serial of the current in-flight delivery's receipt.
    current_receipt: Option<u64>,
    /// True once deleted.
    deleted: bool,
    /// True while the message's index sits in the visible deque.
    queued: bool,
    /// True while the message's index sits in `unscheduled`: its lease changed
    /// since the last reconciliation and has no expiry entry yet.
    unscheduled: bool,
    /// When it was first delivered, once delivered.
    first_received_at: Option<SimTime>,
}

/// The queue. Time never advances inside it: callers pass `now` explicitly (from the
/// event queue) and visibility expiries fire from an internal event heap.
#[derive(Debug)]
pub struct SqsQueue<M> {
    messages: Vec<StoredMessage<M>>,
    /// Indices of (potentially) visible messages, FIFO.
    visible: VecDeque<usize>,
    /// Scheduled visibility expiries `(when as SimTime key, message index)`.
    /// Entries are validated against the message's current `invisible_until`
    /// when they come due, so a lease that changed after its entry was pushed
    /// simply strands the entry.
    expiries: BinaryHeap<Reverse<(u64, usize)>>,
    /// Messages whose lease changed since the last reconciliation, each once;
    /// `reconcile` pushes their current leases before it pops anything.
    unscheduled: Vec<usize>,
    default_visibility: SimDuration,
    next_receipt: u64,
    /// Deliveries allowed before a message dead-letters (None = unbounded).
    max_receive_count: Option<u32>,
    /// Bodies moved to the dead-letter queue, in dead-letter order.
    dead_letters: Vec<M>,
    /// Undeleted messages (maintained counter; answers `pending_count` in O(1)).
    live: usize,
    /// `reconcile`'s batch of due expiries `(index, when as key)`, kept so a
    /// reconciliation reuses it.
    due: Vec<(usize, u64)>,
}

impl<M: Clone> SqsQueue<M> {
    /// An empty queue with the given default visibility timeout.
    pub fn new(default_visibility: SimDuration) -> SqsQueue<M> {
        SqsQueue {
            messages: Vec::new(),
            visible: VecDeque::new(),
            expiries: BinaryHeap::new(),
            unscheduled: Vec::new(),
            default_visibility,
            next_receipt: 1,
            max_receive_count: None,
            dead_letters: Vec::new(),
            live: 0,
            due: Vec::new(),
        }
    }

    /// Attach a dead-letter policy: a message already delivered `n` times moves to
    /// the DLQ instead of being delivered an `n+1`-th time (AWS redrive semantics).
    pub fn with_max_receive_count(mut self, n: u32) -> SqsQueue<M> {
        assert!(n >= 1, "max_receive_count must be >= 1");
        self.max_receive_count = Some(n);
        self
    }

    /// Send a message at campaign start (`t = 0`).
    pub fn send(&mut self, body: M) {
        let idx = self.messages.len();
        self.messages.push(StoredMessage {
            body,
            receive_count: 0,
            invisible_until: None,
            current_receipt: None,
            deleted: false,
            queued: true,
            unscheduled: false,
            first_received_at: None,
        });
        self.visible.push_back(idx);
        self.live += 1;
    }

    /// Try to receive one message at time `now`. Returns the body, its receipt
    /// handle, and the delivery count (1 for first delivery).
    pub fn receive(&mut self, now: SimTime) -> Option<(M, ReceiptHandle, u32)> {
        self.reconcile(now);
        while let Some(idx) = self.visible.pop_front() {
            self.messages[idx].queued = false;
            let msg = &mut self.messages[idx];
            if msg.deleted {
                continue;
            }
            if let Some(t) = msg.invisible_until {
                if t > now {
                    // Re-leased while queued (duplicate-delivery dance): drop it
                    // from the deque; its expiry event will re-queue it.
                    continue;
                }
            }
            if let Some(max) = self.max_receive_count {
                if msg.receive_count >= max {
                    // Redrive: the message used up its deliveries; dead-letter it.
                    msg.deleted = true;
                    msg.invisible_until = None;
                    msg.current_receipt = None;
                    self.dead_letters.push(msg.body.clone());
                    self.live -= 1;
                    continue;
                }
            }
            msg.receive_count += 1;
            if msg.first_received_at.is_none() {
                msg.first_received_at = Some(now);
            }
            // A duplicate delivery supersedes: the first consumer's receipt
            // goes stale the moment the message is delivered again.
            let receipt = ReceiptHandle { serial: self.next_receipt, index: idx };
            self.next_receipt += 1;
            msg.current_receipt = Some(receipt.serial);
            let body = msg.body.clone();
            let count = msg.receive_count;
            self.lease(idx, now + self.default_visibility);
            return Some((body, receipt, count));
        }
        None
    }

    /// Hide message `idx` until `until`. Its expiry entry is pushed by the next
    /// reconciliation, so leases changed again before then cost one entry.
    fn lease(&mut self, idx: usize, until: SimTime) {
        let msg = &mut self.messages[idx];
        msg.invisible_until = Some(until);
        if !msg.unscheduled {
            msg.unscheduled = true;
            self.unscheduled.push(idx);
        }
    }

    /// The message `receipt` still holds, if it is live: the message has not been
    /// delivered again, deleted, dead-lettered, released or expired since.
    fn live_index(&self, receipt: ReceiptHandle) -> Option<usize> {
        let msg = self.messages.get(receipt.index)?;
        (msg.current_receipt == Some(receipt.serial)).then_some(receipt.index)
    }

    /// [`SqsQueue::live_index`], or report the receipt stale.
    fn receipt_index(&self, receipt: ReceiptHandle) -> Result<usize, CloudError> {
        self.live_index(receipt).ok_or_else(|| CloudError::StaleReceipt(format!("{receipt:?}")))
    }

    /// Delete a message by receipt. Fails if the receipt is stale (the message timed
    /// out and was redelivered, or was already deleted).
    pub fn delete(&mut self, receipt: ReceiptHandle) -> Result<(), CloudError> {
        let idx = self.receipt_index(receipt)?;
        let msg = &mut self.messages[idx];
        debug_assert!(!msg.deleted);
        msg.deleted = true;
        msg.current_receipt = None;
        self.live -= 1;
        Ok(())
    }

    /// Extend (or shrink) the visibility of an in-flight message — workers heartbeat
    /// long alignments this way.
    pub fn change_visibility(
        &mut self,
        receipt: ReceiptHandle,
        now: SimTime,
        timeout: SimDuration,
    ) -> Result<(), CloudError> {
        let idx = self.receipt_index(receipt)?;
        self.lease(idx, now + timeout);
        Ok(())
    }

    /// Messages currently visible (deliverable) at `now`.
    pub fn visible_count(&mut self, now: SimTime) -> usize {
        self.reconcile(now);
        self.visible
            .iter()
            .filter(|&&i| {
                let m = &self.messages[i];
                !m.deleted && m.invisible_until.is_none_or(|t| t <= now)
            })
            .count()
    }

    /// Messages in flight (delivered, not deleted, not yet expired) at `now`.
    pub fn in_flight_count(&self, now: SimTime) -> usize {
        self.messages
            .iter()
            .filter(|m| !m.deleted && m.invisible_until.is_some_and(|t| t > now))
            .count()
    }

    /// Total undeleted messages (visible + in flight). O(1).
    pub fn pending_count(&self) -> usize {
        self.live
    }

    /// Queue wait of the message currently held under `receipt`: the interval from
    /// send (`t = 0`) to *first* delivery (at-least-once redeliveries don't reset
    /// it). `None` for a stale receipt.
    pub fn queue_wait(&self, receipt: ReceiptHandle) -> Option<SimDuration> {
        let idx = self.live_index(receipt)?;
        self.messages[idx].first_received_at.map(|t| t - SimTime::ZERO)
    }

    /// Bodies that were dead-lettered, in DLQ arrival order.
    pub fn dead_letters(&self) -> &[M] {
        &self.dead_letters
    }

    /// Number of dead-lettered messages.
    pub fn dead_letter_count(&self) -> usize {
        self.dead_letters.len()
    }

    /// Force an in-flight message back to visible *without* invalidating the
    /// receipt — models a duplicate delivery (SQS's at-least-once escape hatch:
    /// visibility is best-effort, not a lock). The original consumer keeps a valid
    /// receipt until the message is delivered again.
    pub fn force_visible(&mut self, receipt: ReceiptHandle) -> Result<(), CloudError> {
        let idx = self.receipt_index(receipt)?;
        let msg = &mut self.messages[idx];
        msg.invisible_until = None;
        if !msg.queued {
            msg.queued = true;
            self.visible.push_back(idx);
        }
        Ok(())
    }

    /// Hand an in-flight message back to the queue immediately (visibility → 0)
    /// and invalidate the receipt — the graceful-drain counterpart of
    /// [`SqsQueue::force_visible`]. A worker that received an interruption
    /// notice renounces its message instead of letting the lease lapse, so the
    /// message is redeliverable *now* rather than after the visibility timeout.
    /// Unlike `force_visible`, the caller's receipt goes stale: the worker has
    /// given the message up and can no longer delete or extend it.
    pub fn release(&mut self, receipt: ReceiptHandle) -> Result<(), CloudError> {
        let idx = self.receipt_index(receipt)?;
        let msg = &mut self.messages[idx];
        debug_assert!(!msg.deleted);
        msg.invisible_until = None;
        msg.current_receipt = None;
        if !msg.queued {
            msg.queued = true;
            self.visible.push_back(idx);
        }
        Ok(())
    }

    /// Fire the visibility expiries that have come due: each expired message's
    /// receipt goes stale and the message is re-queued. Messages expiring in the
    /// same reconciliation batch re-queue in message-index order — the order a
    /// full scan over the message store would produce, which is the delivery
    /// schedule the campaign digests were frozen against.
    ///
    /// Leases changed since the last call are pushed first, as they stand now. A
    /// lease they replaced would only have stranded an entry, so leaving it
    /// unpushed changes nothing.
    fn reconcile(&mut self, now: SimTime) {
        for idx in self.unscheduled.drain(..) {
            let msg = &mut self.messages[idx];
            msg.unscheduled = false;
            if let Some(until) = msg.invisible_until.filter(|_| !msg.deleted) {
                self.expiries.push(Reverse((until.to_key(), idx)));
            }
        }
        let now_key = now.to_key();
        if self.expiries.peek().is_none_or(|&Reverse((t, _))| t > now_key) {
            return;
        }
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        while let Some(&Reverse((t, idx))) = self.expiries.peek() {
            if t > now_key {
                break;
            }
            self.expiries.pop();
            due.push((idx, t));
        }
        // Index order, then schedule order within an index (only the entry
        // matching the live lease validates; the rest are stranded).
        due.sort_unstable();
        for &(idx, t) in &due {
            let msg = &mut self.messages[idx];
            if msg.deleted || msg.invisible_until != Some(SimTime::from_key(t)) {
                continue; // stranded entry: superseded lease or finished message
            }
            // Expired: receipt becomes stale, message is visible again.
            msg.invisible_until = None;
            msg.current_receipt = None;
            if !msg.queued {
                msg.queued = true;
                self.visible.push_back(idx);
            }
        }
        self.due = due;
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn queue() -> SqsQueue<String> {
        SqsQueue::new(SimDuration::from_secs(30.0))
    }

    #[test]
    fn fifo_delivery_and_delete() {
        let mut q = queue();
        q.send("a".into());
        q.send("b".into());
        let (m1, r1, c1) = q.receive(t(0.0)).unwrap();
        assert_eq!((m1.as_str(), c1), ("a", 1));
        let (m2, _, _) = q.receive(t(0.0)).unwrap();
        assert_eq!(m2, "b");
        assert!(q.receive(t(0.0)).is_none(), "both in flight");
        q.delete(r1).unwrap();
        assert_eq!(q.pending_count(), 1);
    }

    #[test]
    fn visibility_timeout_redelivers() {
        let mut q = queue();
        q.send("a".into());
        let (_, r, c) = q.receive(t(0.0)).unwrap();
        assert_eq!(c, 1);
        // Before expiry: invisible.
        assert!(q.receive(t(29.0)).is_none());
        // After expiry: redelivered with bumped count, old receipt stale.
        let (_, _, c2) = q.receive(t(31.0)).unwrap();
        assert_eq!(c2, 2);
        assert!(q.delete(r).is_err(), "stale receipt must not delete");
        assert_eq!(q.pending_count(), 1);
    }

    #[test]
    fn delete_before_timeout_wins() {
        let mut q = queue();
        q.send("a".into());
        let (_, r, _) = q.receive(t(0.0)).unwrap();
        q.delete(r).unwrap();
        assert!(q.receive(t(100.0)).is_none());
        assert_eq!(q.pending_count(), 0);
        assert!(q.delete(r).is_err(), "double delete rejected");
    }

    #[test]
    fn change_visibility_extends_the_lease() {
        let mut q = queue();
        q.send("a".into());
        let (_, r, _) = q.receive(t(0.0)).unwrap();
        q.change_visibility(r, t(20.0), SimDuration::from_secs(100.0)).unwrap();
        assert!(q.receive(t(60.0)).is_none(), "lease extended to t=120");
        let (_, _, c) = q.receive(t(121.0)).unwrap();
        assert_eq!(c, 2);
    }

    #[test]
    fn counts_reflect_states() {
        let mut q = queue();
        for i in 0..5 {
            q.send(format!("m{i}"));
        }
        assert_eq!(q.visible_count(t(0.0)), 5);
        let (_, r, _) = q.receive(t(0.0)).unwrap();
        let _ = q.receive(t(0.0)).unwrap();
        assert_eq!(q.visible_count(t(0.0)), 3);
        assert_eq!(q.in_flight_count(t(0.0)), 2);
        assert_eq!(q.pending_count(), 5);
        q.delete(r).unwrap();
        assert_eq!(q.pending_count(), 4);
        // After timeout the undeleted in-flight message returns.
        assert_eq!(q.visible_count(t(31.0)), 4);
        assert_eq!(q.in_flight_count(t(31.0)), 0);
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut q = queue();
        assert!(q.receive(t(0.0)).is_none());
        assert_eq!(q.visible_count(t(0.0)), 0);
    }

    #[test]
    fn dead_letter_after_max_receive_count() {
        let mut q: SqsQueue<String> =
            SqsQueue::new(SimDuration::from_secs(10.0)).with_max_receive_count(2);
        q.send("poison".into());
        // Two deliveries allowed; never deleted.
        let (_, _, c1) = q.receive(t(0.0)).unwrap();
        assert_eq!(c1, 1);
        let (_, _, c2) = q.receive(t(11.0)).unwrap();
        assert_eq!(c2, 2);
        // Third delivery attempt dead-letters instead.
        assert!(q.receive(t(22.0)).is_none());
        assert_eq!(q.dead_letters(), &["poison".to_string()]);
        assert_eq!(q.pending_count(), 0, "dead-lettered messages are no longer pending");
        // And it never comes back.
        assert!(q.receive(t(100.0)).is_none());
        assert_eq!(q.dead_letter_count(), 1);
    }

    #[test]
    fn delete_within_allowance_avoids_the_dlq() {
        let mut q: SqsQueue<String> =
            SqsQueue::new(SimDuration::from_secs(10.0)).with_max_receive_count(2);
        q.send("ok".into());
        let _ = q.receive(t(0.0)).unwrap();
        let (_, r2, _) = q.receive(t(11.0)).unwrap();
        q.delete(r2).unwrap();
        assert!(q.receive(t(100.0)).is_none());
        assert_eq!(q.dead_letter_count(), 0);
    }

    #[test]
    fn queue_wait_spans_send_to_first_receive_only() {
        let mut q = queue();
        q.send("a".into());
        let (_, r1, _) = q.receive(t(5.5)).unwrap();
        assert_eq!(q.queue_wait(r1), Some(SimDuration::from_secs(5.5)));
        // Redelivery after timeout: wait still measures to the *first* receive.
        let (_, r2, c2) = q.receive(t(40.0)).unwrap();
        assert_eq!(c2, 2);
        assert_eq!(q.queue_wait(r2), Some(SimDuration::from_secs(5.5)));
        assert_eq!(q.queue_wait(r1), None, "stale receipt has no wait");
    }

    #[test]
    fn force_visible_models_duplicate_delivery() {
        let mut q = queue();
        q.send("a".into());
        let (_, r1, c1) = q.receive(t(0.0)).unwrap();
        assert_eq!(c1, 1);
        q.force_visible(r1).unwrap();
        // Duplicate delivery while the first consumer still works on it.
        let (_, r2, c2) = q.receive(t(1.0)).unwrap();
        assert_eq!(c2, 2);
        // First receipt is now stale; second consumer's delete wins.
        assert!(q.delete(r1).is_err());
        q.delete(r2).unwrap();
        assert_eq!(q.pending_count(), 0);
    }

    #[test]
    fn release_hands_the_message_back_and_invalidates_the_receipt() {
        let mut q = queue();
        q.send("a".into());
        let (_, r, c) = q.receive(t(0.0)).unwrap();
        assert_eq!(c, 1);
        q.release(r).unwrap();
        // The worker gave the message up: its receipt is dead.
        assert!(q.delete(r).is_err(), "released receipt is stale");
        assert!(q.change_visibility(r, t(1.0), SimDuration::from_secs(9.0)).is_err());
        assert!(q.release(r).is_err(), "double release rejected");
        // Immediately redeliverable — no waiting out the visibility timeout.
        let (_, r2, c2) = q.receive(t(1.0)).unwrap();
        assert_eq!(c2, 2);
        q.delete(r2).unwrap();
        assert_eq!(q.pending_count(), 0);
    }

    #[test]
    fn release_respects_the_dead_letter_allowance() {
        // A released message still counts its deliveries: draining workers do
        // not grant a poison message extra lives.
        let mut q: SqsQueue<String> =
            SqsQueue::new(SimDuration::from_secs(10.0)).with_max_receive_count(2);
        q.send("p".into());
        let (_, r1, _) = q.receive(t(0.0)).unwrap();
        q.release(r1).unwrap();
        let (_, r2, c2) = q.receive(t(1.0)).unwrap();
        assert_eq!(c2, 2);
        q.release(r2).unwrap();
        assert!(q.receive(t(2.0)).is_none(), "third delivery dead-letters");
        assert_eq!(q.dead_letter_count(), 1);
    }

    #[test]
    fn release_while_queued_drops_and_requeues_via_expiry() {
        // force_visible puts the message back in the deque while its consumer
        // still holds the receipt; a lease extension then re-hides the *queued*
        // message. The delivery attempt must skip it and the extended lease's
        // expiry must resurface it.
        let mut q = queue();
        q.send("a".into());
        let (_, r, _) = q.receive(t(0.0)).unwrap();
        q.force_visible(r).unwrap();
        q.change_visibility(r, t(5.0), SimDuration::from_secs(50.0)).unwrap();
        assert!(q.receive(t(6.0)).is_none(), "re-hidden while queued");
        assert_eq!(q.pending_count(), 1);
        let (_, _, c) = q.receive(t(56.0)).unwrap();
        assert_eq!(c, 2, "extended lease expired, message redelivered");
    }

    #[test]
    fn a_receipt_goes_stale_on_redelivery_delete_or_dead_letter() {
        let mut q: SqsQueue<String> =
            SqsQueue::new(SimDuration::from_secs(10.0)).with_max_receive_count(2);
        q.send("a".into());
        q.send("b".into());
        // Redelivered after its lease expired.
        let (_, a1, _) = q.receive(t(0.0)).unwrap();
        let (_, b1, _) = q.receive(t(0.0)).unwrap();
        let (m, a2, c) = q.receive(t(11.0)).unwrap();
        assert_eq!((m.as_str(), c), ("a", 2));
        assert!(q.change_visibility(a1, t(11.0), SimDuration::from_secs(5.0)).is_err());
        assert_eq!(q.queue_wait(a1), None);
        // Deleted.
        q.delete(a2).unwrap();
        assert!(q.force_visible(a2).is_err());
        assert!(q.release(a2).is_err());
        // Dead-lettered: `b` used both deliveries and its last lease expired.
        let (_, b2, _) = q.receive(t(11.0)).unwrap();
        assert!(q.receive(t(30.0)).is_none());
        assert_eq!(q.dead_letters(), &["b".to_string()]);
        for r in [b1, b2] {
            assert!(q.delete(r).is_err() && q.queue_wait(r).is_none());
        }
    }

    #[test]
    fn a_receipt_cannot_act_on_another_message() {
        let mut q = queue();
        q.send("a".into());
        q.send("b".into());
        let (_, ra, _) = q.receive(t(0.0)).unwrap();
        let (_, rb, _) = q.receive(t(0.0)).unwrap();
        // `b`'s live serial presented for `a`'s slot, and a slot past the store.
        let crossed = ReceiptHandle { serial: rb.serial, index: ra.index };
        let outside = ReceiptHandle { serial: rb.serial, index: 7 };
        for r in [crossed, outside] {
            assert!(q.delete(r).is_err());
            assert!(q.change_visibility(r, t(1.0), SimDuration::from_secs(1.0)).is_err());
            assert!(q.force_visible(r).is_err() && q.release(r).is_err());
            assert_eq!(q.queue_wait(r), None);
        }
        assert_eq!(q.pending_count(), 2);
        q.delete(ra).unwrap();
        assert!(q.delete(ra).is_err(), "a's receipt does not reach b");
        q.delete(rb).unwrap();
        assert_eq!(q.pending_count(), 0);
    }

    #[test]
    fn a_receipt_prints_its_serial() {
        let mut q = queue();
        q.send("a".into());
        q.send("b".into());
        let _ = q.receive(t(0.0)).unwrap();
        let (_, r, _) = q.receive(t(0.0)).unwrap();
        assert_eq!(format!("{r:?}"), "ReceiptHandle(2)");
        q.delete(r).unwrap();
        let err = q.delete(r).unwrap_err();
        assert!(err.to_string().contains("ReceiptHandle(2)"), "{err}");
    }

    #[test]
    fn lease_changes_before_a_reconciliation_push_one_expiry() {
        let mut q = queue();
        q.send("a".into());
        let (_, r, _) = q.receive(t(0.0)).unwrap();
        q.change_visibility(r, t(0.0), SimDuration::from_secs(60.0)).unwrap();
        q.change_visibility(r, t(1.0), SimDuration::from_secs(90.0)).unwrap();
        assert_eq!((q.expiries.len(), q.unscheduled.len()), (0, 1));
        assert_eq!(q.visible_count(t(2.0)), 0);
        assert_eq!((q.expiries.len(), q.unscheduled.len()), (1, 0), "the live lease only");
        assert!(q.receive(t(90.0)).is_none(), "leased to t=91");
        assert_eq!(q.receive(t(91.0)).unwrap().2, 2);
    }

    #[test]
    fn a_stored_message_stays_one_cache_line() {
        assert_eq!(std::mem::size_of::<StoredMessage<u32>>(), 64);
    }

    #[test]
    fn many_cycles_never_lose_or_duplicate_live_messages() {
        // Property-style: random receive/delete/timeout interleavings keep
        // pending = sent - deleted.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut q: SqsQueue<u32> = SqsQueue::new(SimDuration::from_secs(10.0));
        let mut now = 0.0f64;
        let mut deleted = 0usize;
        for i in 0..200u32 {
            q.send(i);
        }
        let mut receipts: Vec<ReceiptHandle> = Vec::new();
        for _ in 0..2000 {
            now += rng.gen_range(0.1..3.0);
            match rng.gen_range(0..3) {
                0 => {
                    if let Some((_, r, _)) = q.receive(t(now)) {
                        receipts.push(r);
                    }
                }
                1 => {
                    if !receipts.is_empty() {
                        let r = receipts.swap_remove(rng.gen_range(0..receipts.len()));
                        if q.delete(r).is_ok() {
                            deleted += 1;
                        }
                    }
                }
                _ => { /* just let time pass */ }
            }
        }
        assert_eq!(q.pending_count(), 200 - deleted);
    }
}
