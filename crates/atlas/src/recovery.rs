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
use crate::AtlasError;

/// Recovery-layer knobs. The notice lead time and the checkpoint-write failure
/// probability live in the fault plan ([`cloudsim::FaultPlan::spot_notice_secs`],
/// [`cloudsim::FaultPlan::checkpoint_write_fail`]) — they are properties of the
/// simulated environment; this struct configures the worker-side policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Seconds a stored checkpoint stays usable. Expired checkpoints are
    /// ignored by resume lookups and garbage-collected at scale ticks; the
    /// progress they held is accounted as lost compute at settlement.
    pub checkpoint_ttl_secs: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        // Generous relative to job durations: checkpoints survive several
        // redelivery cycles but not a wedged campaign.
        RecoveryConfig { checkpoint_ttl_secs: 7200.0 }
    }
}

impl RecoveryConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), AtlasError> {
        if !self.checkpoint_ttl_secs.is_finite() || self.checkpoint_ttl_secs <= 0.0 {
            return Err(AtlasError::InvalidParams(
                "recovery.checkpoint_ttl_secs must be finite and positive".into(),
            ));
        }
        Ok(())
    }
}

/// The simulated-S3 checkpoint store, keyed by accession handle.
///
/// The engine stores the *modeled* checkpoint — the cumulative align-stage
/// seconds completed, and when it was written (for TTL enforcement) — because at
/// campaign scale the workload is modeled too; the byte-level `AlignCheckpoint`
/// equivalence is proven once in the star crate and the engine only propagates
/// its time consequence.
#[derive(Debug, Default)]
pub(crate) struct CheckpointStore {
    index: BTreeMap<Acc, CheckpointMeta>,
    /// Seconds a checkpoint stays usable; lookups and GC share it.
    ttl_secs: f64,
}

#[derive(Clone, Copy, Debug)]
struct CheckpointMeta {
    written_at_secs: f64,
    align_offset_secs: f64,
}

impl CheckpointStore {
    /// An empty store whose checkpoints live for `ttl_secs`
    /// ([`RecoveryConfig::checkpoint_ttl_secs`]).
    pub fn new(ttl_secs: f64) -> CheckpointStore {
        CheckpointStore { ttl_secs, ..CheckpointStore::default() }
    }

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
        (now_secs - meta.written_at_secs <= self.ttl_secs).then_some(meta.align_offset_secs)
    }

    /// Drop an accession's checkpoint (consumed by a successful completion).
    pub fn remove(&mut self, accession: Acc) {
        self.index.remove(&accession);
    }

    /// Garbage-collect expired checkpoints; returns how many were collected.
    pub fn gc(&mut self, now_secs: f64) -> usize {
        let before = self.index.len();
        let ttl_secs = self.ttl_secs;
        self.index.retain(|_, m| now_secs - m.written_at_secs <= ttl_secs);
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
    fn default_config_validates_and_bad_ttls_do_not() {
        RecoveryConfig::default().validate().unwrap();
        assert!(RecoveryConfig { checkpoint_ttl_secs: 0.0 }.validate().is_err());
        assert!(RecoveryConfig { checkpoint_ttl_secs: -5.0 }.validate().is_err());
        assert!(RecoveryConfig { checkpoint_ttl_secs: f64::NAN }.validate().is_err());
        assert!(RecoveryConfig { checkpoint_ttl_secs: f64::INFINITY }.validate().is_err());
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut s = CheckpointStore::new(3600.0);
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
        let mut s = CheckpointStore::new(600.0);
        s.put(SRR1, 10.0, 0.0);
        s.put(SRR2, 20.0, 500.0);
        // TTL 600: at t=700, SRR1 (age 700) is expired, SRR2 (age 200) is live.
        assert_eq!(s.get(SRR1, 700.0), None, "expired before GC runs");
        assert_eq!(s.get(SRR2, 700.0), Some(20.0));
        assert_eq!(s.gc(700.0), 1);
        assert_eq!(s.len(), 1);
        // GC is idempotent until more expire.
        assert_eq!(s.gc(700.0), 0);
        assert_eq!(s.gc(2000.0), 1);
        assert_eq!(s.len(), 0);
    }
}
