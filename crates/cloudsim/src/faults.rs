//! Deterministic fault injection for chaos campaigns.
//!
//! The paper's architecture (Fig. 2) gets its correctness from AWS failure
//! semantics: SQS redelivers what a dead worker never deleted, S3 calls are retried
//! by the SDK, and spot reclaims can strike any instance at any time. To *prove*
//! the at-least-once path rather than assume it, a [`FaultPlan`] describes which
//! operations misbehave and how often, and a [`FaultInjector`] turns that plan into
//! concrete fault decisions.
//!
//! Every decision is a pure hash of `(seed, instance_serial, op, counter)` — no
//! shared RNG stream — so two runs of the same plan produce identical fault
//! schedules even if unrelated code draws random numbers in between, and a single
//! instance's fault stream is independent of fleet size. That is what makes chaos
//! campaigns replayable bit-for-bit and failures bisectable.

use crate::retry::RetryPolicy;
use crate::time::{SimDuration, SimTime};
use crate::CloudError;
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::{JsonValue, Recorder};

/// Operations that can fail transiently under a [`FaultPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// S3 GET (index manifest download, result fetch).
    S3Get,
    /// S3 PUT (result upload).
    S3Put,
    /// SQS ReceiveMessage.
    SqsReceive,
    /// SQS DeleteMessage.
    SqsDelete,
    /// SQS ChangeMessageVisibility (lease heartbeat).
    SqsExtend,
    /// Duplicate delivery: a received message stays visible (visibility violated).
    DuplicateDelivery,
    /// Worker process crash mid-pipeline.
    WorkerCrash,
    /// Checkpoint upload at an interruption notice (drain-time S3 PUT).
    CheckpointPut,
}

impl FaultOp {
    /// Stable snake_case name, used in telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::S3Get => "s3_get",
            FaultOp::S3Put => "s3_put",
            FaultOp::SqsReceive => "sqs_receive",
            FaultOp::SqsDelete => "sqs_delete",
            FaultOp::SqsExtend => "sqs_extend",
            FaultOp::DuplicateDelivery => "duplicate_delivery",
            FaultOp::WorkerCrash => "worker_crash",
            FaultOp::CheckpointPut => "checkpoint_put",
        }
    }

    fn tag(self) -> u64 {
        match self {
            FaultOp::S3Get => 1,
            FaultOp::S3Put => 2,
            FaultOp::SqsReceive => 3,
            FaultOp::SqsDelete => 4,
            FaultOp::SqsExtend => 5,
            FaultOp::DuplicateDelivery => 6,
            FaultOp::WorkerCrash => 7,
            FaultOp::CheckpointPut => 8,
        }
    }
}

/// A window of elevated spot-interruption pressure (capacity crunch), layered on
/// top of [`crate::SpotMarket`]'s base Poisson process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpotBurst {
    /// Window start, simulated seconds.
    pub start_secs: f64,
    /// Window length, seconds.
    pub duration_secs: f64,
    /// Extra interruption rate during the window, per instance-hour.
    pub rate_per_hour: f64,
}

/// Declarative description of a chaos campaign's faults.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed addressing the entire fault schedule.
    pub seed: u64,
    /// Probability an S3 GET attempt fails transiently.
    pub s3_get_fail: f64,
    /// Probability an S3 PUT attempt fails transiently.
    pub s3_put_fail: f64,
    /// Probability an SQS receive attempt fails transiently.
    pub sqs_receive_fail: f64,
    /// Probability an SQS delete attempt fails transiently.
    pub sqs_delete_fail: f64,
    /// Probability an SQS visibility-change attempt fails transiently.
    pub sqs_extend_fail: f64,
    /// Probability a successful receive is also duplicated (message stays visible).
    pub duplicate_delivery: f64,
    /// Probability a started job crashes partway through the pipeline.
    pub worker_crash_per_job: f64,
    /// Probability a drain-time checkpoint upload fails (progress is lost and
    /// the interrupted work restarts from zero, as without checkpointing).
    /// Only rolled when the campaign's recovery layer is enabled.
    pub checkpoint_write_fail: f64,
    /// Interruption-notice lead time, seconds before the reclaim (AWS delivers
    /// two minutes). Only consulted when the recovery layer is enabled; `0`
    /// means the notice and the reclaim land at the same instant (the notice
    /// still dispatches first).
    pub spot_notice_secs: f64,
    /// Windows of elevated spot-interruption pressure.
    pub spot_bursts: Vec<SpotBurst>,
}

impl Default for FaultPlan {
    /// No faults at all: the injector becomes a no-op.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            s3_get_fail: 0.0,
            s3_put_fail: 0.0,
            sqs_receive_fail: 0.0,
            sqs_delete_fail: 0.0,
            sqs_extend_fail: 0.0,
            duplicate_delivery: 0.0,
            worker_crash_per_job: 0.0,
            checkpoint_write_fail: 0.0,
            spot_notice_secs: 120.0,
            spot_bursts: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A moderately hostile plan for chaos tests: a few percent of everything.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            s3_get_fail: 0.05,
            s3_put_fail: 0.05,
            sqs_receive_fail: 0.05,
            sqs_delete_fail: 0.05,
            sqs_extend_fail: 0.05,
            duplicate_delivery: 0.10,
            worker_crash_per_job: 0.10,
            checkpoint_write_fail: 0.05,
            spot_notice_secs: 120.0,
            spot_bursts: Vec::new(),
        }
    }

    /// Validate probabilities and burst windows.
    pub fn validate(&self) -> Result<(), CloudError> {
        let probs = [
            self.s3_get_fail,
            self.s3_put_fail,
            self.sqs_receive_fail,
            self.sqs_delete_fail,
            self.sqs_extend_fail,
            self.duplicate_delivery,
            self.worker_crash_per_job,
            self.checkpoint_write_fail,
        ];
        if probs.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err(CloudError::InvalidParams(
                "fault probabilities must be in [0, 1]".into(),
            ));
        }
        if !self.spot_notice_secs.is_finite() || self.spot_notice_secs < 0.0 {
            return Err(CloudError::InvalidParams(
                "spot_notice_secs must be finite and >= 0".into(),
            ));
        }
        for b in &self.spot_bursts {
            // Written so a NaN fails: it would silently disable the window, or
            // panic the interruption sampler mid-campaign.
            let finite = [b.start_secs, b.duration_secs, b.rate_per_hour].iter().all(|v| v.is_finite());
            if !(finite && b.start_secs >= 0.0 && b.duration_secs > 0.0 && b.rate_per_hour > 0.0) {
                return Err(CloudError::InvalidParams(
                    "spot bursts need finite start >= 0, duration > 0, rate > 0".into(),
                ));
            }
        }
        Ok(())
    }

    fn probability(&self, op: FaultOp) -> f64 {
        match op {
            FaultOp::S3Get => self.s3_get_fail,
            FaultOp::S3Put => self.s3_put_fail,
            FaultOp::SqsReceive => self.sqs_receive_fail,
            FaultOp::SqsDelete => self.sqs_delete_fail,
            FaultOp::SqsExtend => self.sqs_extend_fail,
            FaultOp::DuplicateDelivery => self.duplicate_delivery,
            FaultOp::WorkerCrash => self.worker_crash_per_job,
            FaultOp::CheckpointPut => self.checkpoint_write_fail,
        }
    }
}

/// One injected fault, for the replayable event trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Instance the fault struck (launch serial).
    pub instance_serial: u64,
    /// Operation that failed.
    pub op: FaultOp,
    /// Per-(instance, op) attempt counter at the time of the fault.
    pub counter: u64,
}

/// Result of driving an operation through [`FaultInjector::with_retry`].
#[derive(Debug)]
pub struct Retried<T> {
    /// The final outcome (`Err` only when retries were exhausted or the underlying
    /// operation failed for a non-injected reason).
    pub outcome: Result<T, CloudError>,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Total backoff slept between attempts.
    pub backoff: SimDuration,
}

/// SplitMix64 finalizer: a high-quality 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from a hash of the address tuple.
fn unit(seed: u64, serial: u64, stream: u64, counter: u64) -> f64 {
    let h = mix64(seed ^ mix64(serial ^ mix64(stream ^ mix64(counter))));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Tallies of injected faults and retry activity over a chaos campaign.
///
/// Filled in by [`FaultInjector`] and quoted by campaign reports so a chaos
/// run documents exactly how much adversity it survived.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultCounters {
    /// Transient S3 GET failures injected.
    pub s3_get_faults: u64,
    /// Transient S3 PUT failures injected.
    pub s3_put_faults: u64,
    /// Transient SQS receive failures injected.
    pub sqs_receive_faults: u64,
    /// Transient SQS delete failures injected.
    pub sqs_delete_faults: u64,
    /// Transient SQS visibility-change failures injected.
    pub sqs_extend_faults: u64,
    /// Duplicate deliveries injected (message left visible after receive).
    pub duplicate_deliveries: u64,
    /// Worker crashes injected mid-pipeline.
    pub worker_crashes: u64,
    /// Drain-time checkpoint uploads that failed (progress lost at a notice).
    pub checkpoint_put_faults: u64,
    /// Failed attempts that consumed a retry.
    pub retry_attempts: u64,
    /// Operations that failed every attempt of their retry policy.
    pub retries_exhausted: u64,
    /// Total simulated seconds slept in retry backoff.
    pub retry_backoff_secs: f64,
}

impl FaultCounters {
    /// Record one injected fault of kind `op`.
    pub fn count(&mut self, op: FaultOp) {
        match op {
            FaultOp::S3Get => self.s3_get_faults += 1,
            FaultOp::S3Put => self.s3_put_faults += 1,
            FaultOp::SqsReceive => self.sqs_receive_faults += 1,
            FaultOp::SqsDelete => self.sqs_delete_faults += 1,
            FaultOp::SqsExtend => self.sqs_extend_faults += 1,
            FaultOp::DuplicateDelivery => self.duplicate_deliveries += 1,
            FaultOp::WorkerCrash => self.worker_crashes += 1,
            FaultOp::CheckpointPut => self.checkpoint_put_faults += 1,
        }
    }

    /// Total injected faults across all operation kinds.
    pub fn total_faults(&self) -> u64 {
        self.s3_get_faults
            + self.s3_put_faults
            + self.sqs_receive_faults
            + self.sqs_delete_faults
            + self.sqs_extend_faults
            + self.duplicate_deliveries
            + self.worker_crashes
            + self.checkpoint_put_faults
    }
}

/// Stateful view over a [`FaultPlan`]: tracks per-`(instance, op)` attempt counters,
/// tallies what it injected, and records the fault trace.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    counters: HashMap<(u64, FaultOp), u64>,
    side_counters: HashMap<(u64, u64), u64>,
    tallies: FaultCounters,
    trace: Vec<FaultEvent>,
    /// Telemetry sink, when attached. Injection decisions never depend on it.
    recorder: Option<Arc<Recorder>>,
    /// Current sim time for emitted events (advanced by the orchestrator loop).
    now_secs: f64,
}

impl FaultInjector {
    /// An injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            counters: HashMap::new(),
            side_counters: HashMap::new(),
            tallies: FaultCounters::default(),
            trace: Vec::new(),
            recorder: None,
            now_secs: 0.0,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Attach a telemetry recorder: injected faults, retries, and exhaustions are
    /// emitted as structured events from now on. A disabled recorder is not kept:
    /// it would drop every event, so nothing is built for it.
    pub fn attach_recorder(&mut self, recorder: Arc<Recorder>) {
        if recorder.is_enabled() {
            self.recorder = Some(recorder);
        }
    }

    /// Advance the sim clock used to timestamp emitted events.
    pub fn set_now(&mut self, now_secs: f64) {
        self.now_secs = now_secs;
    }

    /// Emit a structured event at the injector's current sim time (no-op without an
    /// attached recorder, and then `fields` is never called). Service models (S3,
    /// SQS wrappers) reuse this so their events share the injector's clock.
    pub fn emit(
        &self,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, JsonValue)>,
    ) {
        if let Some(rec) = &self.recorder {
            rec.event(self.now_secs, kind, fields());
        }
    }

    /// Injection tallies so far.
    pub fn tallies(&self) -> &FaultCounters {
        &self.tallies
    }

    /// The ordered trace of injected faults.
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// Advance the `(serial, op)` counter and return its pre-increment value.
    fn bump(&mut self, serial: u64, op: FaultOp) -> u64 {
        let c = self.counters.entry((serial, op)).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    /// Roll one fault decision for `op` on instance `serial`. Deterministic in
    /// `(plan.seed, serial, op, attempt counter)`.
    pub fn roll(&mut self, serial: u64, op: FaultOp) -> bool {
        let p = self.plan.probability(op);
        // An op the plan cannot inject keeps no counter: a counter is read only by
        // later rolls of its own `(serial, op)`, and the plan never changes.
        if p <= 0.0 {
            return false;
        }
        let counter = self.bump(serial, op);
        let hit = unit(self.plan.seed, serial, op.tag(), counter) < p;
        if hit {
            self.tallies.count(op);
            self.trace.push(FaultEvent { instance_serial: serial, op, counter });
            if let Some(rec) = &self.recorder {
                rec.event(
                    self.now_secs,
                    "fault_injected",
                    vec![
                        ("op", JsonValue::from(op.name())),
                        ("instance", JsonValue::from(serial)),
                        ("counter", JsonValue::from(counter)),
                    ],
                );
                rec.counter_add("faults_injected", 1);
            }
        }
        hit
    }

    /// A deterministic uniform `[0, 1)` draw on a side stream (jitter, crash
    /// offsets) that does not disturb the fault streams.
    pub fn side_roll(&mut self, serial: u64, salt: u64) -> f64 {
        let c = self.side_counters.entry((serial, salt)).or_insert(0);
        let counter = *c;
        *c += 1;
        unit(self.plan.seed ^ 0xA5A5_A5A5_A5A5_A5A5, serial, salt, counter)
    }

    /// Drive `f` under `policy`, injecting transient `op` faults before each
    /// attempt. Backoff accrues between failed attempts with deterministic jitter.
    /// Non-injected errors from `f` (semantic failures like a stale receipt) are
    /// returned immediately — retrying cannot fix them.
    pub fn with_retry<T>(
        &mut self,
        serial: u64,
        op: FaultOp,
        policy: &RetryPolicy,
        mut f: impl FnMut() -> Result<T, CloudError>,
    ) -> Retried<T> {
        let mut backoff = SimDuration::ZERO;
        for attempt in 1..=policy.max_attempts {
            if self.roll(serial, op) {
                self.tallies.retry_attempts += 1;
                if attempt == policy.max_attempts {
                    self.tallies.retries_exhausted += 1;
                    self.emit("retries_exhausted", || {
                        vec![
                            ("op", JsonValue::from(op.name())),
                            ("instance", JsonValue::from(serial)),
                            ("attempts", JsonValue::from(attempt)),
                        ]
                    });
                    return Retried {
                        outcome: Err(CloudError::RetriesExhausted(format!(
                            "{op:?} on instance {serial} after {attempt} attempts"
                        ))),
                        attempts: attempt,
                        backoff,
                    };
                }
                let u = self.side_roll(serial, 0xB0FF ^ op.tag());
                let sleep = policy.backoff_after(attempt, u);
                backoff += sleep;
                self.tallies.retry_backoff_secs += sleep.as_secs();
                if let Some(rec) = &self.recorder {
                    rec.event(
                        self.now_secs,
                        "retry",
                        vec![
                            ("op", JsonValue::from(op.name())),
                            ("instance", JsonValue::from(serial)),
                            ("attempt", JsonValue::from(attempt)),
                            ("backoff_secs", JsonValue::from(sleep.as_secs())),
                        ],
                    );
                    rec.observe(
                        "retry_backoff_secs",
                        &policy.backoff_histogram_bounds(),
                        sleep.as_secs(),
                    );
                }
                continue;
            }
            return Retried { outcome: f(), attempts: attempt, backoff };
        }
        unreachable!("max_attempts >= 1 is enforced by RetryPolicy::validate")
    }

    /// The unified reclaim schedule for an instance launched at `launched_at`:
    /// the market's base Poisson interruption and the earliest fault-plan burst
    /// interruption, sampled through exactly the draws the two legacy call
    /// sites made, in a fixed order (market first, then burst). Interruption
    /// notices are derived from this single schedule — every reclaim, whatever
    /// its source, gets a notice `plan.spot_notice_secs` ahead (clamped to the
    /// launch instant), so market and burst reclaims can never diverge in
    /// notice behavior.
    pub fn reclaim_schedule(
        &self,
        market: &crate::SpotMarket,
        launched_at: SimTime,
        serial: u64,
    ) -> Vec<crate::spot::Reclaim> {
        use crate::spot::{Reclaim, ReclaimSource};
        let mut out = Vec::new();
        if let Some(at) = market.sample_interruption(launched_at, serial) {
            out.push(Reclaim { at, source: ReclaimSource::Market });
        }
        if let Some(at) = self.burst_interruption(launched_at, serial) {
            out.push(Reclaim { at, source: ReclaimSource::Burst });
        }
        out
    }

    /// The notice instant for a reclaim at `reclaim_at`: `spot_notice_secs`
    /// ahead of the reclaim, clamped so a notice can never precede the launch.
    pub fn notice_at(&self, launched_at: SimTime, reclaim_at: SimTime) -> SimTime {
        let at = (reclaim_at.as_secs() - self.plan.spot_notice_secs).max(launched_at.as_secs());
        SimTime::from_secs(at)
    }

    /// Earliest burst-layer interruption for an instance launched at `launched_at`,
    /// if any burst window catches it. Deterministic per `(seed, serial, burst)`;
    /// exponential waiting time within each window (memoryless, so sampling from
    /// `max(window start, launch)` is exact).
    pub fn burst_interruption(&self, launched_at: SimTime, serial: u64) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for (i, b) in self.plan.spot_bursts.iter().enumerate() {
            let end = b.start_secs + b.duration_secs;
            if launched_at.as_secs() >= end {
                continue;
            }
            let from = launched_at.as_secs().max(b.start_secs);
            let stream = serial.wrapping_mul(1 << 20).wrapping_add(i as u64);
            let wait_hours =
                crate::spot::exponential_hours(self.plan.seed ^ 0x5B5B_5B5B, stream, b.rate_per_hour);
            let t = from + wait_hours * 3600.0;
            if t < end {
                let t = SimTime::from_secs(t);
                earliest = Some(match earliest {
                    Some(e) if e <= t => e,
                    _ => t,
                });
            }
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan { s3_get_fail: 0.5, sqs_delete_fail: 1.0, ..FaultPlan::default() }
    }

    #[test]
    fn rolls_replay_bit_for_bit() {
        let mut a = FaultInjector::new(FaultPlan::chaos(9));
        let mut b = FaultInjector::new(FaultPlan::chaos(9));
        for serial in 0..8 {
            for _ in 0..50 {
                assert_eq!(a.roll(serial, FaultOp::S3Get), b.roll(serial, FaultOp::S3Get));
                assert_eq!(
                    a.roll(serial, FaultOp::SqsReceive),
                    b.roll(serial, FaultOp::SqsReceive)
                );
            }
        }
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.tallies(), b.tallies());
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let mut a = FaultInjector::new(FaultPlan::chaos(1));
        let mut b = FaultInjector::new(FaultPlan::chaos(2));
        for serial in 0..4 {
            for _ in 0..100 {
                a.roll(serial, FaultOp::S3Get);
                b.roll(serial, FaultOp::S3Get);
            }
        }
        assert_ne!(a.trace(), b.trace());
    }

    #[test]
    fn instance_streams_are_independent_of_interleaving() {
        // Serial 5's decisions must not depend on how often serial 6 rolled.
        let mut a = FaultInjector::new(plan());
        let mut b = FaultInjector::new(plan());
        let mut seq_a = Vec::new();
        for _ in 0..40 {
            seq_a.push(a.roll(5, FaultOp::S3Get));
        }
        let mut seq_b = Vec::new();
        for i in 0..40 {
            if i % 3 == 0 {
                b.roll(6, FaultOp::S3Get);
                b.roll(6, FaultOp::SqsReceive);
            }
            seq_b.push(b.roll(5, FaultOp::S3Get));
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn zero_probability_never_fires_and_one_always_fires() {
        let mut inj = FaultInjector::new(plan());
        for _ in 0..100 {
            assert!(!inj.roll(1, FaultOp::S3Put), "p=0 must never fire");
            assert!(inj.roll(1, FaultOp::SqsDelete), "p=1 must always fire");
        }
        assert_eq!(inj.tallies().sqs_delete_faults, 100);
        assert_eq!(inj.tallies().s3_put_faults, 0);
    }

    #[test]
    fn fault_rate_tracks_probability() {
        let mut inj = FaultInjector::new(plan());
        let n = 4000;
        let mut hits = 0;
        for serial in 0..4 {
            for _ in 0..n / 4 {
                if inj.roll(serial, FaultOp::S3Get) {
                    hits += 1;
                }
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "rate {rate} for p=0.5");
    }

    #[test]
    fn with_retry_recovers_from_transients() {
        // p = 0.5 and 4 attempts: most calls succeed eventually; backoff accrues
        // exactly when attempts were consumed.
        let mut inj = FaultInjector::new(plan());
        let policy = RetryPolicy::default();
        let mut ok = 0;
        let mut exhausted = 0;
        for i in 0..200 {
            let r = inj.with_retry(i % 8, FaultOp::S3Get, &policy, || Ok(42));
            match r.outcome {
                Ok(v) => {
                    assert_eq!(v, 42);
                    ok += 1;
                    assert_eq!(r.backoff > SimDuration::ZERO, r.attempts > 1);
                }
                Err(CloudError::RetriesExhausted(_)) => {
                    exhausted += 1;
                    assert_eq!(r.attempts, policy.max_attempts);
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(ok > 150, "most calls should survive retries, got {ok}");
        assert!(exhausted > 0, "p=0.5^4 over 200 calls should exhaust some");
        assert_eq!(inj.tallies().retries_exhausted, exhausted);
    }

    #[test]
    fn with_retry_passes_semantic_errors_through() {
        let mut inj = FaultInjector::new(FaultPlan::default());
        let r: Retried<()> = inj.with_retry(0, FaultOp::SqsDelete, &RetryPolicy::default(), || {
            Err(CloudError::StaleReceipt("r".into()))
        });
        assert_eq!(r.attempts, 1, "semantic errors are not retried");
        assert!(matches!(r.outcome, Err(CloudError::StaleReceipt(_))));
    }

    #[test]
    fn attached_recorder_sees_faults_and_retries() {
        let mut inj = FaultInjector::new(plan());
        let rec = Arc::new(Recorder::new());
        inj.attach_recorder(Arc::clone(&rec));
        inj.set_now(42.0);
        // p = 1.0 on SqsDelete: every attempt faults, so the policy exhausts.
        let r: Retried<()> =
            inj.with_retry(3, FaultOp::SqsDelete, &RetryPolicy::default(), || Ok(()));
        assert!(matches!(r.outcome, Err(CloudError::RetriesExhausted(_))));
        let log = rec.events_ndjson();
        assert!(log.contains("\"kind\":\"fault_injected\",\"op\":\"sqs_delete\""), "{log}");
        assert!(log.contains("\"kind\":\"retry\""), "{log}");
        assert!(log.contains("\"kind\":\"retries_exhausted\""), "{log}");
        assert!(log.lines().all(|l| l.starts_with("{\"t\":42,")), "events use set_now time");
        rec.read(|_, _, metrics| {
            assert_eq!(metrics.counter("faults_injected"), 4);
            assert_eq!(metrics.histogram("retry_backoff_secs").unwrap().count(), 3);
        });
        // Decisions are identical with and without a recorder attached.
        let mut bare = FaultInjector::new(plan());
        let b: Retried<()> =
            bare.with_retry(3, FaultOp::SqsDelete, &RetryPolicy::default(), || Ok(()));
        assert_eq!(r.attempts, b.attempts);
        assert_eq!(r.backoff, b.backoff);
    }

    #[test]
    fn burst_interruptions_stay_in_window_and_replay() {
        let plan = FaultPlan {
            spot_bursts: vec![SpotBurst {
                start_secs: 1000.0,
                duration_secs: 600.0,
                rate_per_hour: 60.0,
            }],
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan.clone());
        let inj2 = FaultInjector::new(plan);
        let mut hit = 0;
        for serial in 0..200 {
            let t = inj.burst_interruption(SimTime::ZERO, serial);
            assert_eq!(t, inj2.burst_interruption(SimTime::ZERO, serial));
            if let Some(t) = t {
                hit += 1;
                assert!((1000.0..1600.0).contains(&t.as_secs()), "t {t}");
            }
        }
        // λ=60/h over a 10-minute window: ~1 - e^-10 of instances hit.
        assert!(hit > 180, "burst should catch nearly every instance, hit {hit}");
        // Instances launched after the window are safe.
        assert!(inj.burst_interruption(SimTime::from_secs(1601.0), 3).is_none());
    }

    #[test]
    fn plan_validation() {
        assert!(FaultPlan::default().validate().is_ok());
        assert!(FaultPlan::chaos(1).validate().is_ok());
        let bad = FaultPlan { s3_get_fail: 1.5, ..FaultPlan::default() };
        assert!(bad.validate().is_err());
        let bad = FaultPlan {
            spot_bursts: vec![SpotBurst { start_secs: 0.0, duration_secs: 0.0, rate_per_hour: 1.0 }],
            ..FaultPlan::default()
        };
        assert!(bad.validate().is_err());
        let ok = SpotBurst { start_secs: 0.0, duration_secs: 60.0, rate_per_hour: 1.0 };
        for nan in [
            SpotBurst { start_secs: f64::NAN, ..ok },
            SpotBurst { duration_secs: f64::NAN, ..ok },
            SpotBurst { rate_per_hour: f64::NAN, ..ok },
            SpotBurst { duration_secs: f64::INFINITY, ..ok },
        ] {
            let bad = FaultPlan { spot_bursts: vec![nan], ..FaultPlan::default() };
            assert!(matches!(bad.validate(), Err(CloudError::InvalidParams(_))), "{nan:?}");
        }
        assert!(FaultPlan { spot_bursts: vec![ok], ..FaultPlan::default() }.validate().is_ok());
    }

    #[test]
    fn an_impossible_fault_leaves_no_trace() {
        // `a` rolls only the ops the plan can inject; `b` interleaves any number of
        // rolls and retried calls of p = 0 ops, on the same serial and on others.
        // Neither the p > 0 decisions nor the trace nor the tallies may move.
        let plan = FaultPlan {
            seed: 5,
            s3_get_fail: 0.4,
            worker_crash_per_job: 0.3,
            ..FaultPlan::default()
        };
        let impossible =
            [FaultOp::S3Put, FaultOp::SqsReceive, FaultOp::SqsDelete, FaultOp::CheckpointPut];
        let policy = RetryPolicy::default();
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for i in 0..600u64 {
            let serial = i % 7;
            let noise = mix64(i);
            for k in 0..noise % 5 {
                let op = impossible[((noise >> (8 * k)) % 4) as usize];
                let other = serial + 1 + (noise >> 40) % 3;
                if k % 2 == 0 {
                    assert!(!b.roll(if k % 4 == 0 { serial } else { other }, op));
                } else {
                    let s = if k % 3 == 0 { serial } else { other };
                    let r = b.with_retry(s, op, &policy, || Ok(k));
                    assert_eq!((r.outcome.unwrap(), r.attempts, r.backoff), (k, 1, SimDuration::ZERO));
                }
            }
            if i % 2 == 0 {
                let crash = FaultOp::WorkerCrash;
                assert_eq!(a.roll(serial, crash), b.roll(serial, crash), "roll {i}");
            } else {
                let ra = a.with_retry(serial, FaultOp::S3Get, &policy, || Ok(()));
                let rb = b.with_retry(serial, FaultOp::S3Get, &policy, || Ok(()));
                let seen = |r: &Retried<()>| (r.outcome.is_ok(), r.attempts, r.backoff);
                assert_eq!(seen(&ra), seen(&rb), "retried call {i}");
            }
        }
        assert!(!a.trace().is_empty(), "premise: the p > 0 ops fault");
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.tallies(), b.tallies());
        assert!(b.counters.keys().all(|(_, op)| !impossible.contains(op)), "no counter for p = 0");
    }

    #[test]
    fn recovery_knob_validation() {
        let bad = FaultPlan { checkpoint_write_fail: 1.01, ..FaultPlan::default() };
        assert!(bad.validate().is_err());
        let bad = FaultPlan { checkpoint_write_fail: -0.1, ..FaultPlan::default() };
        assert!(bad.validate().is_err());
        let bad = FaultPlan { spot_notice_secs: -1.0, ..FaultPlan::default() };
        assert!(bad.validate().is_err());
        let bad = FaultPlan { spot_notice_secs: f64::NAN, ..FaultPlan::default() };
        assert!(bad.validate().is_err());
        let bad = FaultPlan { spot_notice_secs: f64::INFINITY, ..FaultPlan::default() };
        assert!(bad.validate().is_err());
        let ok = FaultPlan { spot_notice_secs: 0.0, checkpoint_write_fail: 1.0, ..FaultPlan::default() };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn reclaim_schedule_matches_the_legacy_call_sites() {
        use crate::spot::ReclaimSource;
        use crate::SpotMarket;
        // The unified schedule must reproduce the exact draws (and order) the
        // kernel used to make directly: market sample first, then burst sample.
        let plan = FaultPlan {
            spot_bursts: vec![SpotBurst {
                start_secs: 0.0,
                duration_secs: 4000.0,
                rate_per_hour: 30.0,
            }],
            ..FaultPlan::chaos(13)
        };
        let market = SpotMarket { interruptions_per_hour: 2.0, ..SpotMarket::default() };
        let inj = FaultInjector::new(plan);
        for serial in 1..40 {
            let launched = SimTime::from_secs(serial as f64 * 11.0);
            let schedule = inj.reclaim_schedule(&market, launched, serial);
            let legacy: Vec<(SimTime, ReclaimSource)> = market
                .sample_interruption(launched, serial)
                .map(|t| (t, ReclaimSource::Market))
                .into_iter()
                .chain(
                    inj.burst_interruption(launched, serial)
                        .map(|t| (t, ReclaimSource::Burst)),
                )
                .collect();
            let got: Vec<(SimTime, ReclaimSource)> =
                schedule.iter().map(|r| (r.at, r.source)).collect();
            assert_eq!(got, legacy, "serial {serial}");
        }
        // No market rate, no bursts → empty schedule.
        let quiet = FaultInjector::new(FaultPlan::default());
        assert!(quiet
            .reclaim_schedule(&SpotMarket::default(), SimTime::ZERO, 1)
            .is_empty());
    }

    #[test]
    fn notice_precedes_reclaim_by_the_lead_clamped_to_launch() {
        let inj = FaultInjector::new(FaultPlan::default()); // 120 s lead
        let launched = SimTime::from_secs(1000.0);
        // Far-out reclaim: notice lands exactly 120 s ahead.
        let n = inj.notice_at(launched, SimTime::from_secs(5000.0));
        assert_eq!(n, SimTime::from_secs(4880.0));
        // Reclaim sooner than the lead: notice clamps to the launch instant.
        let n = inj.notice_at(launched, SimTime::from_secs(1060.0));
        assert_eq!(n, launched);
        // Zero lead: notice and reclaim coincide.
        let inj = FaultInjector::new(FaultPlan { spot_notice_secs: 0.0, ..FaultPlan::default() });
        let n = inj.notice_at(launched, SimTime::from_secs(2000.0));
        assert_eq!(n, SimTime::from_secs(2000.0));
    }
}
