//! The campaign state machine (paper Fig. 2 as a discrete-event simulation).
//!
//! Everything that happens in a campaign is one of seven [`Event`]s scheduled
//! at an instant on [`cloudsim::Kernel`]; there are no ticks. [`Campaign::run`]
//! pops events and hands each to its one handler:
//!
//! | event | handler | what it does |
//! |---|---|---|
//! | `ScaleTick` | `on_scale_tick` | ASG evaluation: launch / scale in, sample the fleet, GC checkpoints |
//! | `InstanceReady` | `on_instance_ready` | index loaded: start polling |
//! | `Poll` | `on_poll` → `on_delivery` → `start_job` | receive a message, run (or resume) the pipeline, lease it |
//! | `JobDone` | `on_job_done` → `record_completion` | upload, delete, resolve the accession |
//! | `WorkerCrash` | `on_worker_crash` | the process died mid-job; the instance re-polls |
//! | `SpotNotice` | `on_spot_notice` → `drain_job` | two-minute warning: stop polling, checkpoint, hand back |
//! | `Interruption` | `on_interruption` | the reclaim itself |
//!
//! Handlers work over the sub-states in [`state`], each of which owns one
//! invariant; [`Campaign::settle`] turns the final state into the report. A
//! worker's in-flight [`Job`] sits in the fleet's job table, so events carry
//! only ids and are `Copy`.
//!
//! An accession is named by its [`Acc`] handle — its index in the submitted
//! slice — from the moment it is sent to the queue: messages, jobs, the
//! resolution and accounting tables and the checkpoint store are all addressed
//! by it. The handle turns back into the submitted name ([`Campaign::name`])
//! only where text leaves the campaign: event and span fields, the results key,
//! the workload call and the report.
//!
//! Nothing here is per-tick or O(campaign size) inside the event loop. The run
//! is a pure function of config + workload: `tests/tests/devent_diff.rs` replays
//! seeded campaigns byte for byte, and `tests/tests/campaign_pins.rs` pins five
//! of them to absolute digests — float operand order, fault-roll order,
//! `schedule` order and recorder-call order in this file are all load-bearing.

#![warn(clippy::too_many_lines)]

mod state;

use crate::early_stop::SavingsSummary;
use crate::ledger::{build_ledger, SloReport};
use crate::orchestrator::{CampaignConfig, CampaignReport, Completion, FleetSample};
use crate::pipeline::StageTimes;
use crate::recovery::CheckpointStore;
use crate::workload::CampaignWorkload;
use crate::AtlasError;
use cloudsim::cost::CostTracker;
use cloudsim::faults::{FaultInjector, FaultOp};
use cloudsim::instance::{InstanceId, InstanceState};
use cloudsim::sqs::ReceiptHandle;
use cloudsim::{s3, Kernel, ReclaimSource, SimDuration, SimTime, SqsQueue};
use deseq_norm::{CountsMatrix, NormalizedMatrix};
use star_aligner::quant::{GeneCounts, Strandedness};
use state::{Accounting, Fleet, Job, Observers, Resolution};
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::{JsonValue, SloSignal, RATE_BUCKETS, SECS_BUCKETS};

/// Base SQS visibility timeout, seconds (workers extend it per job).
const VISIBILITY_TIMEOUT_SECS: f64 = 120.0;
/// Visibility lease = expected job duration × this margin.
const LEASE_MARGIN: f64 = 3.0;
/// Safety stop for the simulated clock: thirty days.
const MAX_SIM_SECS: f64 = 30.0 * 24.0 * 3600.0;

/// An accession inside a campaign: its index in the slice handed to
/// [`crate::Orchestrator::run`]. Handle order is submit order, so "in accession
/// order" is an index walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Acc(pub u32);

impl Acc {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The campaign event taxonomy.
#[derive(Clone, Copy, Debug)]
enum Event {
    InstanceReady(InstanceId),
    Poll(InstanceId),
    /// The job started under `epoch` on `instance` reaches its end.
    JobDone { instance: InstanceId, epoch: u64 },
    /// The two-minute warning: `instance` will be reclaimed at `reclaim_at`.
    /// Only scheduled when [`CampaignConfig::recovery`] is on.
    SpotNotice { instance: InstanceId, reclaim_at: SimTime, source: ReclaimSource },
    Interruption(InstanceId),
    /// The job started under `epoch` on `instance` crashes.
    WorkerCrash { instance: InstanceId, epoch: u64 },
    ScaleTick,
}

/// One campaign over `accessions`, from first scale tick to settled report.
pub(crate) struct Campaign<'a> {
    cfg: &'a CampaignConfig,
    workload: &'a dyn CampaignWorkload,
    accessions: &'a [String],
    events: Kernel<Event>,
    sqs: SqsQueue<Acc>,
    injector: FaultInjector,
    fleet: Fleet,
    resolution: Resolution,
    accounting: Accounting,
    /// The checkpoint store; `None` when [`CampaignConfig::recovery`] is off.
    recovery: Option<CheckpointStore>,
    obs: Observers,
    timeline: Vec<FleetSample>,
    next_epoch: u64,
}

impl<'a> Campaign<'a> {
    pub(crate) fn new(
        workload: &'a dyn CampaignWorkload,
        cfg: &'a CampaignConfig,
        accessions: &'a [String],
    ) -> Result<Campaign<'a>, AtlasError> {
        let n = reject_repeated_ids(accessions)?;
        let mut sqs: SqsQueue<Acc> = SqsQueue::new(SimDuration::from_secs(VISIBILITY_TIMEOUT_SECS));
        if let Some(max) = cfg.max_receive_count {
            sqs = sqs.with_max_receive_count(max);
        }
        for i in 0..n {
            sqs.send(Acc(i));
        }
        // The single pricing point for the bill, the SLO sketches and the ledger.
        let cost = if cfg.spot {
            CostTracker::with_spot(cfg.spot_market)
        } else {
            CostTracker::on_demand()
        };
        let obs = Observers::new(cfg, cost.hourly_rate(cfg.instance_type, cfg.spot));
        let mut injector = FaultInjector::new(cfg.faults.clone().unwrap_or_default());
        injector.attach_recorder(Arc::clone(&obs.recorder));
        let mut events = Kernel::new();
        events.schedule(SimTime::ZERO, Event::ScaleTick);
        // Per-accession accounts exist only when something will read them.
        let ledger = cfg.slo.is_some();
        let accounts = if ledger || cfg.recovery.is_some() { accessions.len() } else { 0 };
        Ok(Campaign {
            cfg,
            workload,
            accessions,
            events,
            sqs,
            injector,
            fleet: Fleet::new(cfg, &obs, accessions.len())?,
            resolution: Resolution::new(accessions.len()),
            accounting: Accounting::new(cost, ledger, accounts),
            recovery: cfg.recovery.map(|r| CheckpointStore::new(r.checkpoint_ttl_secs)),
            obs,
            timeline: Vec::new(),
            next_epoch: 1,
        })
    }

    /// The submitted name of `accession`.
    fn name(&self, accession: Acc) -> &'a str {
        &self.accessions[accession.index()]
    }

    /// Run until every accession is resolved (completed, or dead-lettered
    /// without completing), then settle.
    pub(crate) fn run(mut self) -> Result<CampaignReport, AtlasError> {
        while !self.resolution.done() {
            let (now, event) = self.next_event()?;
            match event {
                Event::ScaleTick => self.on_scale_tick(now),
                Event::InstanceReady(id) => self.on_instance_ready(now, id)?,
                Event::Poll(id) => self.on_poll(now, id)?,
                Event::JobDone { instance, epoch } => self.on_job_done(now, instance, epoch),
                Event::WorkerCrash { instance, epoch } => {
                    self.on_worker_crash(now, instance, epoch)
                }
                Event::SpotNotice { instance, reclaim_at, source } => {
                    self.on_spot_notice(now, instance, reclaim_at, source)?
                }
                Event::Interruption(id) => self.on_interruption(now, id),
            }
        }
        self.settle()
    }

    /// Pop the next event, enforcing the clock and event-budget safety valves.
    fn next_event(&mut self) -> Result<(SimTime, Event), AtlasError> {
        let (now, event) = self.events.pop().ok_or_else(|| {
            AtlasError::InvalidParams(
                "event queue drained before completion (simulation bug)".into(),
            )
        })?;
        if now.as_secs() > MAX_SIM_SECS {
            return Err(AtlasError::InvalidParams(format!(
                "campaign exceeded {MAX_SIM_SECS} simulated seconds; likely stuck"
            )));
        }
        // Generous: every accession can bounce a few times before we declare the
        // simulation wedged (chaos campaigns bounce more than most).
        if self.events.dispatched() > 10_000 + 400 * self.accessions.len() as u64 + 200_000 {
            return Err(AtlasError::InvalidParams("event budget exceeded (simulation bug)".into()));
        }
        self.injector.set_now(now.as_secs());
        Ok((now, event))
    }

    // ——— Fleet sizing ———

    fn on_scale_tick(&mut self, now: SimTime) {
        let rec = Arc::clone(&self.obs.recorder);
        let pending = self.sqs.pending_count();
        let decision = self.fleet.asg().evaluate(pending);
        if decision.launch > 0 {
            self.obs.event(now.as_secs(), "scale_out", || {
                vec![
                    ("launch", JsonValue::from(decision.launch as u64)),
                    ("pending", JsonValue::from(pending)),
                ]
            });
        }
        for _ in 0..decision.launch {
            self.launch_instance(now);
        }
        for id in decision.terminate {
            // Never scale-in a busy worker; it finishes its job first.
            if !self.fleet.is_busy(id) && self.fleet.retire(id, now) {
                self.obs.event(now.as_secs(), "scale_in", || {
                    vec![("instance", JsonValue::from(id.0)), ("pending", JsonValue::from(pending))]
                });
            }
        }
        let active = self.fleet.asg().active_count();
        self.timeline.push(FleetSample {
            at_secs: now.as_secs(),
            active_instances: active,
            pending_messages: pending,
        });
        self.fleet.sample(now);
        rec.gauge_set_at(now.as_secs(), "fleet_active", active as f64);
        rec.gauge_set_at(now.as_secs(), "queue_pending", pending as f64);
        if let Some(recovery) = &mut self.recovery {
            // Checkpoint-store housekeeping rides the ASG tick.
            let expired = recovery.gc(now.as_secs());
            if expired > 0 {
                rec.counter_add("checkpoints_expired", expired as u64);
            }
        }
        if !self.resolution.done() {
            self.events.schedule(now + self.cfg.scale_tick, Event::ScaleTick);
        }
    }

    fn launch_instance(&mut self, now: SimTime) {
        let cfg = self.cfg;
        let id = self.fleet.launch(now);
        // Init starts with the GET of a small index manifest, so a persistent S3
        // failure kills the launch and the ASG replaces the instance at a later
        // tick. The bulk index transfer time itself is modeled by `init_secs`.
        let manifest = b"star-index manifest".len() as u64;
        match s3::get_retrying("index/manifest", manifest, &mut self.injector, id.0, &cfg.retry) {
            Ok(d) => {
                let init = SimDuration::from_secs(cfg.init_secs());
                self.events.schedule(now + init + d, Event::InstanceReady(id));
            }
            Err(_) => {
                self.fleet.retire(id, now);
                self.obs.event(now.as_secs(), "instance_init_failed", || {
                    vec![("instance", JsonValue::from(id.0))]
                });
            }
        }
        if cfg.spot {
            // One reclaim pipeline for market-sampled and fault-plan burst
            // interruptions. With recovery on, each reclaim is preceded by its
            // notice; scheduling the notice first makes the FIFO tie-break
            // dispatch it before a same-instant reclaim.
            for r in self.injector.reclaim_schedule(&cfg.spot_market, now, id.0) {
                if self.recovery.is_some() {
                    self.events.schedule(
                        self.injector.notice_at(now, r.at),
                        Event::SpotNotice { instance: id, reclaim_at: r.at, source: r.source },
                    );
                }
                self.events.schedule(r.at, Event::Interruption(id));
            }
        }
    }

    fn on_instance_ready(&mut self, now: SimTime, id: InstanceId) -> Result<(), AtlasError> {
        // Reclaimed or drained while still initializing: nothing to start.
        let Some(inst) = self.fleet.instance_mut(id) else { return Ok(()) };
        if inst.state != InstanceState::Initializing {
            return Ok(());
        }
        inst.mark_running().map_err(AtlasError::Cloud)?;
        self.obs.event(now.as_secs(), "instance_ready", || vec![("instance", JsonValue::from(id.0))]);
        self.events.schedule(now, Event::Poll(id));
        Ok(())
    }

    // ——— Poll → delivery → job start ———

    fn on_poll(&mut self, now: SimTime, id: InstanceId) -> Result<(), AtlasError> {
        let running =
            self.fleet.asg().instance(id).is_some_and(|i| i.state == InstanceState::Running);
        if !running || self.fleet.is_busy(id) {
            return Ok(());
        }
        let cfg = self.cfg;
        let received = self
            .injector
            .with_retry(id.0, FaultOp::SqsReceive, &cfg.retry, || Ok(self.sqs.receive(now)));
        let retry_at = now + cfg.poll_interval + received.backoff;
        let Ok(msg) = received.outcome else {
            // Receive retries exhausted: the worker backs off and polls again;
            // no message was consumed.
            self.events.schedule(retry_at, Event::Poll(id));
            return Ok(());
        };
        // A receive can tip a message over its allowance into the DLQ.
        for &a in self.resolution.absorb_dead_letters(self.sqs.dead_letters()) {
            let name = self.name(a);
            self.obs.event(now.as_secs(), "dead_letter", || {
                vec![("accession", JsonValue::from(name))]
            });
            self.obs.recorder.counter_add("dead_letters", 1);
        }
        let Some((accession, receipt, count)) = msg else {
            // Nothing visible. Once the queue is fully drained, stop polling: the
            // ASG will reap us.
            if self.sqs.pending_count() > 0 {
                self.events.schedule(retry_at, Event::Poll(id));
            }
            return Ok(());
        };
        self.on_delivery(now, id, accession, receipt, count)
    }

    fn on_delivery(
        &mut self,
        now: SimTime,
        id: InstanceId,
        accession: Acc,
        receipt: ReceiptHandle,
        receive_count: u32,
    ) -> Result<(), AtlasError> {
        let rec = &self.obs.recorder;
        let name = self.name(accession);
        if receive_count > 1 {
            self.accounting.redeliveries += 1;
            rec.counter_add("redeliveries", 1);
        } else if let Some(wait) = self.sqs.queue_wait(receipt) {
            // First delivery: submit → first-receive latency.
            self.obs.job_event(now, "queue_wait", name, id, &[("wait_secs", wait.as_secs())]);
            rec.observe("queue_wait_secs", SECS_BUCKETS, wait.as_secs());
            self.obs.slo_sample(now, SloSignal::QueueWait, wait.as_secs());
            if let Some(account) = self.accounting.ledger_account(accession) {
                account.queue_wait_secs = Some(wait.as_secs());
            }
        }
        if self.resolution.is_completed(accession) {
            // A duplicate delivery of already-finished work: acknowledge and
            // poll again immediately.
            self.obs.job_event(now, "duplicate_receive", name, id, &[]);
            let _ = self
                .injector
                .with_retry(id.0, FaultOp::SqsDelete, &self.cfg.retry, || self.sqs.delete(receipt))
                .outcome;
            self.events.schedule(now, Event::Poll(id));
            return Ok(());
        }
        // When the recorder runs the monitor the job also reports live progress,
        // like STAR's `Log.progress.out`: snapshots from the real alignment,
        // timestamped inside the modeled align window. Without a monitor no
        // progress events exist and the log is byte-identical to a monitor-free
        // build.
        let (mut run, history) = if self.obs.monitored {
            self.workload.run_accession_with_history(name)?
        } else {
            (self.workload.run_accession(name)?, Vec::new())
        };
        // Resume: a live checkpoint from a drained attempt lets this one skip
        // the already-aligned reads — the align stage shrinks by the
        // checkpointed offset. The star crate's differential test is what
        // entitles the model to treat the resumed output as identical.
        let offset = self.recovery.as_ref().and_then(|r| r.get(accession, now.as_secs()));
        let resumed_secs = offset.map_or(0.0, |o| o.min(run.stage_secs.align_secs));
        if resumed_secs > 0.0 {
            run.stage_secs.align_secs -= resumed_secs;
            self.obs.job_event(now, "resume", name, id, &[("skipped_secs", resumed_secs)]);
            rec.counter_add("checkpoint_resumes", 1);
        }
        let job = Job {
            epoch: self.next_epoch,
            accession,
            receipt,
            started_secs: now.as_secs(),
            run,
            resumed_secs,
            crash_offset_secs: 0.0,
        };
        self.next_epoch += 1;
        self.obs.progress_events(id, name, &job, &history);
        self.start_job(now, id, job);
        Ok(())
    }

    /// Lease the message for the job's duration, roll the job-level faults, and
    /// hand the job to its worker.
    fn start_job(&mut self, now: SimTime, id: InstanceId, mut job: Job) {
        let (cfg, serial, epoch) = (self.cfg, id.0, job.epoch);
        let stages = job.run.stage_secs;
        let duration = stages.total().max(0.001);
        // A failed or stale lease extension leaves the base visibility timeout
        // in force: the message may re-deliver mid-job and the duplicate
        // completion is absorbed by `Resolution::is_completed`.
        let lease = SimDuration::from_secs(duration * LEASE_MARGIN);
        let _ = self
            .injector
            .with_retry(serial, FaultOp::SqsExtend, &cfg.retry, || {
                self.sqs.change_visibility(job.receipt, now, lease)
            })
            .outcome;
        // Duplicate delivery: the broker violates visibility and hands this
        // message to a second worker while ours is still working on it.
        if self.injector.roll(serial, FaultOp::DuplicateDelivery) {
            let _ = self.sqs.force_visible(job.receipt);
        }
        let mut crash_at = None;
        if self.injector.roll(serial, FaultOp::WorkerCrash) {
            // Crash at a deterministic offset inside a uniformly chosen stage.
            let stage = ((self.injector.side_roll(serial, 0xC0DE) * StageTimes::N_STAGES as f64)
                as usize)
                .min(StageTimes::N_STAGES - 1);
            job.crash_offset_secs = (stages.prefix_secs(stage)
                + self.injector.side_roll(serial, 0xC0DF) * stages.as_array()[stage])
                .clamp(0.0, duration);
            crash_at = Some(now + SimDuration::from_secs(job.crash_offset_secs));
        }
        self.fleet.start_job(id, now, job);
        if let Some(at) = crash_at {
            self.events.schedule(at, Event::WorkerCrash { instance: id, epoch });
        }
        self.events.schedule(
            now + SimDuration::from_secs(duration),
            Event::JobDone { instance: id, epoch },
        );
    }

    // ——— Job end: done or crashed ———

    fn on_job_done(&mut self, now: SimTime, id: InstanceId, epoch: u64) {
        // A stale epoch means the worker died mid-job (spot reclaim), crashed,
        // or drained and handed the message back: the result is lost and the
        // message re-delivers (immediately after a drain, after its lease
        // expires otherwise).
        let Some(job) = self.fleet.finish(id, epoch, now) else { return };
        let cfg = self.cfg;
        let duration = job.run.stage_secs.total();
        // Job spans are emitted retroactively: the job started when the message
        // was received, `duration` sim-seconds ago.
        let window = (now.as_secs() - duration, now.as_secs());
        let parent = self.fleet.job_parent(id);
        let name = self.name(job.accession);
        // Nothing reads a result back from S3 (the report carries it), so the
        // upload is modeled — transfer, retries, backoff — and not kept.
        let upload = s3::upload_retrying(
            format_args!("results/{name}"),
            name.len() as u64,
            &mut self.injector,
            id.0,
            &cfg.retry,
        );
        let Ok(upload_secs) = upload else {
            // Result upload exhausted its retries: the job's output is lost and
            // the message re-delivers after its lease expires, so another
            // worker redoes the work.
            self.obs.job_spans(parent, id, name, &job, window, "upload_lost");
            self.obs.job_event(now, "upload_lost", name, id, &[]);
            self.accounting.waste(job.accession, duration);
            self.events.schedule(now + cfg.poll_interval, Event::Poll(id));
            return;
        };
        // The lease was sized with margin, so the delete should succeed; if it
        // went stale (duplicate delivery, missed extension) the message
        // re-delivers and the duplicate is absorbed by `Resolution::is_completed`.
        let deleted = self
            .injector
            .with_retry(id.0, FaultOp::SqsDelete, &cfg.retry, || self.sqs.delete(job.receipt));
        if self.resolution.is_completed(job.accession) {
            self.obs.job_spans(parent, id, name, &job, window, "duplicate");
            self.accounting.duplicate_completions += 1;
            self.accounting.waste(job.accession, duration);
        } else {
            self.obs.job_spans(parent, id, name, &job, window, "ok");
            self.record_completion(now, job);
        }
        self.events.schedule(now + upload_secs + deleted.backoff, Event::Poll(id));
    }

    /// First durable completion of `job.accession`.
    fn record_completion(&mut self, now: SimTime, job: Job) {
        let rec = &self.obs.recorder;
        let Job { accession, run, resumed_secs, .. } = job;
        rec.counter_add("jobs_completed", 1);
        rec.observe("align_secs_per_accession", SECS_BUCKETS, run.stage_secs.align_secs);
        let duration = run.stage_secs.total();
        // Campaigns submit everything at t=0, so the completion instant *is* the
        // turnaround; the cost sample prices the successful attempt. Both precede
        // the backdated `early_stop` event: what they set off belongs right
        // after the job that caused it.
        self.obs.slo_sample(now, SloSignal::AccessionTurnaround, now.as_secs());
        let cost_usd = duration * self.obs.usd_per_hour / 3600.0;
        self.obs.slo_sample(now, SloSignal::AccessionCost, cost_usd);
        let name = self.name(accession);
        if run.early_stopped() {
            // The decision landed at the end of the (cut short) align stage.
            let decided_at =
                now.as_secs() - duration + run.stage_secs.prefix_secs(2) + run.stage_secs.align_secs;
            self.obs.event(decided_at, "early_stop", || {
                let mut fields = vec![
                    ("accession", JsonValue::from(name)),
                    ("mapping_rate", JsonValue::from(run.mapping_rate)),
                ];
                fields.extend(run.early_stop.decision_fields());
                fields
            });
            rec.observe("mapping_rate_at_stop", RATE_BUCKETS, run.mapping_rate);
        }
        if let Some(account) = self.accounting.ledger_account(accession) {
            account.completed_at_secs = Some(now.as_secs());
        }
        if let Some(recovery) = &mut self.recovery {
            recovery.remove(accession);
            if resumed_secs > 0.0 {
                self.accounting.salvaged(accession, resumed_secs);
            }
        }
        self.resolution.complete(accession, name, run);
    }

    fn on_worker_crash(&mut self, now: SimTime, id: InstanceId, epoch: u64) {
        // The worker process dies mid-job (the instance survives and re-polls);
        // the in-flight message re-delivers after its lease expires. A stale
        // epoch means the job already ended some other way.
        let Some(job) = self.fleet.finish(id, epoch, now) else { return };
        let wasted = job.crash_offset_secs;
        let name = self.name(job.accession);
        let window = (now.as_secs() - wasted, now.as_secs());
        self.obs.lost_job_span(self.fleet.job_parent(id), name, window, "crashed");
        self.obs.job_event(now, "worker_crash", name, id, &[("wasted_secs", wasted)]);
        self.accounting.waste(job.accession, wasted);
        self.events.schedule(now + self.cfg.poll_interval, Event::Poll(id));
    }

    // ——— Spot: notice, drain, reclaim ———

    fn on_spot_notice(
        &mut self,
        now: SimTime,
        id: InstanceId,
        reclaim_at: SimTime,
        source: ReclaimSource,
    ) -> Result<(), AtlasError> {
        // The instance enters Draining: the Poll guard only fires on Running
        // instances, so it stops pulling messages. Already terminated (an
        // earlier reclaim beat this notice) or already draining (overlapping
        // notices): nothing to do.
        let Some(inst) = self.fleet.instance_mut(id) else { return Ok(()) };
        if !matches!(inst.state, InstanceState::Initializing | InstanceState::Running) {
            return Ok(());
        }
        inst.mark_draining().map_err(AtlasError::Cloud)?;
        self.obs.event(now.as_secs(), "spot_notice", || {
            vec![
                ("instance", JsonValue::from(id.0)),
                ("source", JsonValue::from(source.name())),
                ("lead_secs", JsonValue::from(reclaim_at.as_secs() - now.as_secs())),
            ]
        });
        self.obs.recorder.counter_add("spot_notices", 1);
        match self.fleet.go_idle(id, now) {
            Some(job) => self.drain_job(now, id, &job),
            None => {
                self.obs.event(now.as_secs(), "drain", || {
                    vec![("instance", JsonValue::from(id.0)), ("handed_back", JsonValue::from(false))]
                });
                self.obs.recorder.counter_add("drains", 1);
            }
        }
        Ok(())
    }

    /// A busy worker got its notice: checkpoint the align progress and hand the
    /// in-flight message straight back (visibility → 0) instead of letting the
    /// lease lapse after the reclaim.
    fn drain_job(&mut self, now: SimTime, id: InstanceId, job: &Job) {
        let rec = &self.obs.recorder;
        let (accession, name) = (job.accession, self.name(job.accession));
        let window = (job.started_secs, now.as_secs());
        self.obs.lost_job_span(self.fleet.job_parent(id), name, window, "drained");
        let elapsed = now.as_secs() - job.started_secs;
        // Align-stage seconds this attempt completed before the notice;
        // pre-align stages are not resumable.
        let stages = &job.run.stage_secs;
        let align_done = (elapsed - stages.prefix_secs(2)).clamp(0.0, stages.align_secs);
        let mut checkpointed = 0.0f64;
        if !self.resolution.is_completed(accession) && align_done > 0.0 {
            if self.injector.roll(id.0, FaultOp::CheckpointPut) {
                // The checkpoint upload failed inside the notice window; the
                // progress will be redone.
                self.obs.job_event(now, "checkpoint_failed", name, id, &[]);
            } else if let Some(checkpoints) = &mut self.recovery {
                let offset = job.resumed_secs + align_done;
                checkpoints.put(accession, offset, now.as_secs());
                checkpointed = align_done;
                self.accounting.checkpointed(accession, align_done);
                self.obs.job_event(now, "checkpoint", name, id, &[("offset_secs", offset)]);
                rec.counter_add("checkpoints_written", 1);
            }
        }
        // Checkpointed seconds stay out of the waste pool for now; settlement
        // reclassifies whatever no resumed attempt reuses.
        self.accounting.waste(accession, (elapsed - checkpointed).max(0.0));
        self.obs.event(now.as_secs(), "drain", || {
            vec![
                ("instance", JsonValue::from(id.0)),
                ("accession", JsonValue::from(name)),
                ("handed_back", JsonValue::from(true)),
                ("checkpointed_secs", JsonValue::from(checkpointed)),
            ]
        });
        rec.counter_add("drains", 1);
        // The receipt is invalidated, so the message re-delivers immediately. A
        // stale receipt (the broker already re-delivered) is fine.
        let _ = self.sqs.release(job.receipt);
    }

    fn on_interruption(&mut self, now: SimTime, id: InstanceId) {
        let was_busy = self.fleet.is_busy(id);
        if !self.fleet.retire(id, now) {
            return;
        }
        self.accounting.interruptions += 1;
        // A reclaim samples utilization even when the worker was idle.
        self.fleet.sample(now);
        self.obs.event(now.as_secs(), "spot_interruption", || {
            vec![("instance", JsonValue::from(id.0)), ("was_busy", JsonValue::from(was_busy))]
        });
        self.obs.recorder.counter_add("spot_interruptions", 1);
    }

    // ——— Settlement ———

    /// Terminate survivors, charge everyone, close the books, and report.
    fn settle(mut self) -> Result<CampaignReport, AtlasError> {
        let cfg = self.cfg;
        let end = self.events.now();
        for serial in 1..=self.fleet.asg().instances().len() as u64 {
            self.fleet.retire(InstanceId(serial), end);
        }
        for inst in self.fleet.asg().instances() {
            self.accounting.cost.charge(inst, end);
        }
        let (wasted_secs, salvaged_secs) = self.accounting.close(cfg.instance_type, cfg.spot)?;
        let dead_lettered = self.resolution.conserve(self.accessions, self.sqs.dead_letters())?;
        let dead_lettered = dead_lettered.into_iter().map(|a| self.name(a).to_string()).collect();

        let rec = &self.obs.recorder;
        let mut savings = SavingsSummary::default();
        for c in self.resolution.results() {
            savings.add(&c.early_stop);
        }
        let normalized = build_normalized(self.resolution.gene_counts());
        if let Some(n) = &normalized {
            let attrs = n.span_attrs();
            rec.span_closed("deseq", self.obs.campaign_span, end.as_secs(), end.as_secs(), &attrs);
            rec.event(
                end.as_secs(),
                "deseq_normalized",
                attrs.iter().map(|(k, v)| (*k, JsonValue::from(v.as_str()))).collect(),
            );
        }
        let slo = self.slo_report(end);
        rec.span_end(self.obs.campaign_span, end.as_secs());
        let (mean_fleet_size, busy_fraction) = self.fleet.utilization(end);
        Ok(CampaignReport {
            completed: self.resolution.into_results(),
            makespan: end - SimTime::ZERO,
            cost: self.accounting.cost.report().clone(),
            instances_launched: self.fleet.asg().instances().len(),
            interruptions: self.accounting.interruptions,
            redeliveries: self.accounting.redeliveries,
            savings,
            normalized,
            init_secs_per_instance: cfg.init_secs(),
            fleet_timeline: self.timeline,
            mean_fleet_size,
            busy_fraction,
            dead_lettered,
            fault_counters: self.injector.tallies().clone(),
            duplicate_completions: self.accounting.duplicate_completions,
            wasted_compute_secs: wasted_secs,
            salvaged_compute_secs: salvaged_secs,
            telemetry: cfg.telemetry.then(|| telemetry::summarize(rec)),
            alerts: rec.alerts(),
            sim_events: self.events.dispatched(),
            slo,
        })
    }

    /// SLO settlement: budget-remaining and ledger-rollup gauges land in the
    /// metrics snapshot (and from there in the OpenMetrics dump), and the
    /// attribution ledger decomposes each completed accession's turnaround and
    /// dollars. Pure observer: computed from quantities the campaign already
    /// tracked.
    fn slo_report(&self, end: SimTime) -> Option<SloReport> {
        if !self.obs.slo_on {
            return None;
        }
        let rec = &self.obs.recorder;
        let at = end.as_secs();
        let objectives = rec.slo_status();
        for s in &objectives {
            rec.gauge_set_at(at, &format!("slo_budget_remaining:{}", s.id), s.budget_remaining);
        }
        let inputs = self.accounting.ledger_inputs(&self.resolution, at);
        let (ledger, totals) =
            build_ledger(&inputs, self.obs.usd_per_hour, self.accounting.cost.report().total_usd);
        rec.gauge_set_at(at, "slo_ledger_compute_usd", totals.compute_usd);
        rec.gauge_set_at(at, "slo_ledger_retry_usd", totals.retry_usd);
        rec.gauge_set_at(at, "slo_ledger_idle_amortized_usd", totals.idle_amortized_usd);
        rec.gauge_set_at(at, "slo_ledger_retry_waste_secs", totals.retry_waste_secs);
        if self.recovery.is_some() {
            // Only on recovery campaigns, so recovery-off OpenMetrics dumps (and
            // their goldens) are byte-identical to pre-recovery builds.
            rec.gauge_set_at(at, "slo_ledger_salvaged_secs", totals.salvaged_secs);
            rec.gauge_set_at(at, "slo_ledger_lost_secs", totals.retry_waste_secs);
        }
        Some(SloReport { objectives, ledger, totals })
    }
}

/// Handles are positions in `accessions`, so the list must fit a `u32` and name
/// each accession once: a repeated id would be two messages racing for one
/// results key, and the campaign could never resolve both. Returns the count.
fn reject_repeated_ids(accessions: &[String]) -> Result<u32, AtlasError> {
    let mut first_at = HashMap::with_capacity(accessions.len());
    for (i, a) in accessions.iter().enumerate() {
        if let Some(first) = first_at.insert(a.as_str(), i) {
            return Err(AtlasError::InvalidParams(format!(
                "accession {a} is submitted twice (positions {first} and {i})"
            )));
        }
    }
    u32::try_from(accessions.len())
        .map_err(|_| AtlasError::InvalidParams("more accessions than u32 handles".into()))
}

/// DESeq2 step: assemble the counts matrix over the completions that produced
/// counts, in completion order, and normalize it. Returns `None` when there is
/// nothing usable.
fn build_normalized<'r>(
    counts: impl Iterator<Item = (&'r Completion, &'r GeneCounts)>,
) -> Option<NormalizedMatrix> {
    let with_counts: Vec<_> = counts.collect();
    let gene_ids = with_counts.first()?.1.gene_ids.clone();
    let sample_ids: Vec<String> = with_counts.iter().map(|(c, _)| c.accession.clone()).collect();
    let mut matrix = CountsMatrix::zeros(gene_ids.clone(), sample_ids);
    for (j, (_, gc)) in with_counts.iter().enumerate() {
        for (g, id) in gene_ids.iter().enumerate() {
            if let Some(c) = gc.count(id, Strandedness::Unstranded) {
                matrix.set(g, j, c);
            }
        }
    }
    deseq_norm::normalize(&matrix).ok()
}
