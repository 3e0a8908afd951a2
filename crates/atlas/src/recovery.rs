//! Graceful spot degradation: recovery configuration and the checkpoint store.
//!
//! AWS precedes every spot reclaim with a ~2-minute interruption notice. With
//! recovery enabled ([`crate::orchestrator::CampaignConfig::recovery`]) the
//! campaign engine turns that notice into a *drain*: the worker stops pulling
//! SQS messages, checkpoints its in-flight alignment progress to the (simulated)
//! S3 checkpoint store, and hands the message straight back (visibility → 0)
//! instead of letting the lease lapse. The next worker to receive the message
//! resumes from the checkpoint and skips the already-aligned reads — the
//! star-side contract ([`star_aligner::checkpoint::AlignCheckpoint`]) guarantees
//! the resumed output is bit-identical, so the engine only needs to model the
//! *time*: a resumed attempt's align stage shrinks by the checkpointed offset.
//!
//! Everything here is opt-in: with `recovery: None` the engine schedules the
//! exact event sequence it always did — no notices, no extra fault rolls, no
//! extra telemetry — and campaign digests and event logs are byte-identical to
//! builds that predate the recovery layer.

use std::collections::BTreeMap;

use crate::campaign::Acc;

/// Seconds a stored checkpoint stays usable. Expired checkpoints are ignored by
/// resume lookups and garbage-collected at scale ticks; the progress they held
/// is accounted as lost compute at settlement. Generous relative to job
/// durations: checkpoints survive several redelivery cycles but not a wedged
/// campaign.
pub const CHECKPOINT_TTL_SECS: f64 = 7200.0;

/// Turns the recovery layer on (`CampaignConfig::recovery = Some(..)`); it has
/// no knobs. The notice lead time and the checkpoint-write failure probability
/// live in the fault plan ([`cloudsim::FaultPlan::spot_notice_secs`],
/// [`cloudsim::FaultPlan::checkpoint_write_fail`]): they are properties of the
/// simulated environment, and the checkpoint lifetime is
/// [`CHECKPOINT_TTL_SECS`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryConfig;

/// The simulated-S3 checkpoint store, keyed by accession handle. A checkpoint
/// lives for [`CHECKPOINT_TTL_SECS`].
///
/// The engine stores the *modeled* checkpoint — the cumulative align-stage
/// seconds completed, and when it was written (for TTL enforcement) — because at
/// campaign scale the workload is modeled too; the byte-level `AlignCheckpoint`
/// equivalence is proven once in the star crate and the engine only propagates
/// its time consequence.
#[derive(Debug, Default)]
pub(crate) struct CheckpointStore {
    index: BTreeMap<Acc, CheckpointMeta>,
}

#[derive(Clone, Copy, Debug)]
struct CheckpointMeta {
    written_at_secs: f64,
    align_offset_secs: f64,
}

impl CheckpointStore {
    /// Write (or overwrite) the checkpoint for an accession: cumulative
    /// align-stage seconds completed across its drained attempts.
    pub fn put(&mut self, accession: Acc, align_offset_secs: f64, now_secs: f64) {
        let meta = CheckpointMeta { written_at_secs: now_secs, align_offset_secs };
        self.index.insert(accession, meta);
    }

    /// The stored align offset for an accession, if a live (non-expired)
    /// checkpoint exists. Lookups are TTL-aware even before a GC pass runs.
    pub fn get(&self, accession: Acc, now_secs: f64) -> Option<f64> {
        let meta = self.index.get(&accession)?;
        (now_secs - meta.written_at_secs <= CHECKPOINT_TTL_SECS).then_some(meta.align_offset_secs)
    }

    /// Drop an accession's checkpoint (consumed by a successful completion).
    pub fn remove(&mut self, accession: Acc) {
        self.index.remove(&accession);
    }

    /// Garbage-collect expired checkpoints; returns how many were collected.
    pub fn gc(&mut self, now_secs: f64) -> usize {
        let before = self.index.len();
        self.index.retain(|_, m| now_secs - m.written_at_secs <= CHECKPOINT_TTL_SECS);
        before - self.index.len()
    }

    /// Live checkpoints currently stored.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    const SRR1: Acc = Acc(0);
    const SRR2: Acc = Acc(1);

    #[test]
    fn put_get_remove_roundtrip() {
        let mut s = CheckpointStore::default();
        assert_eq!(s.len(), 0);
        s.put(SRR1, 42.5, 100.0);
        assert_eq!(s.get(SRR1, 150.0), Some(42.5));
        assert_eq!(s.get(SRR2, 150.0), None);
        assert_eq!(s.len(), 1);
        // Overwrite refreshes both the offset and the TTL clock.
        s.put(SRR1, 60.0, 200.0);
        assert_eq!(s.get(SRR1, 250.0), Some(60.0));
        s.remove(SRR1);
        assert_eq!(s.len(), 0);
        assert_eq!(s.get(SRR1, 250.0), None);
    }

    #[test]
    fn expired_checkpoints_are_invisible_and_collectable() {
        let mut s = CheckpointStore::default();
        s.put(SRR1, 10.0, 0.0);
        s.put(SRR2, 20.0, 500.0);
        // Just past the TTL, SRR1 (age TTL + 1) is expired; SRR2 (age TTL - 499)
        // is live, and so was SRR1 at exactly the TTL.
        let past = CHECKPOINT_TTL_SECS + 1.0;
        assert_eq!(s.get(SRR1, CHECKPOINT_TTL_SECS), Some(10.0), "live at the TTL");
        assert_eq!(s.get(SRR1, past), None, "expired before GC runs");
        assert_eq!(s.get(SRR2, past), Some(20.0));
        assert_eq!(s.gc(past), 1);
        assert_eq!(s.len(), 1);
        // GC is idempotent until more expire.
        assert_eq!(s.gc(past), 0);
        assert_eq!(s.gc(500.0 + past), 1);
        assert_eq!(s.len(), 0);
    }
}
