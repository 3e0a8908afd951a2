//! The campaign's sub-states. Each owns one invariant and is testable without
//! running a campaign:
//!
//! * [`Fleet`] — a terminated instance has no job and no open span;
//!   `busy_count` equals the number of workers holding a job, and each of
//!   them holds its own slot of the job table; both utilization integrals take
//!   a sample at every change.
//! * [`Resolution`] — an accession is resolved exactly once: completed, or
//!   dead-lettered without (yet) completing; a first completion keeps a
//!   [`Completion`], and gene counts only when the run produced them.
//! * [`Accounting`] — every wasted second lands in the campaign total and (when
//!   a ledger will read it) in exactly one accession's account; every
//!   checkpointed second ends up salvaged or wasted, never both.
//! * [`Observers`] — telemetry only ever *reads* the campaign; the SLO sketches
//!   and the ledger price compute at the rate the bill is settled at. It and
//!   [`Fleet::launch`] make the records of what the cloud models report: faults,
//!   retries and launches.
//!
//! Per-accession state is the *accession table*: vectors addressed by the
//! [`Acc`] handle (submit index) — a fate in [`Resolution`], an account in
//! [`Accounting`] (allocated only when a ledger or the recovery layer reads it).
//! Nothing here is keyed by an accession's name; names arrive as `&str` where a
//! span or event attribute is built.

#![warn(clippy::too_many_lines)]

use std::sync::Arc;

use super::Acc;
use crate::ledger::CompletedAccession;
use crate::orchestrator::{CampaignConfig, Completion};
use crate::workload::AccessionRun;
use crate::AtlasError;
use cloudsim::asg::AutoScalingGroup;
use cloudsim::faults::{FaultOp, Retried};
use cloudsim::instance::{Instance, InstanceId};
use cloudsim::retry::{BACKOFF_BUCKETS, MAX_ATTEMPTS};
use cloudsim::sqs::ReceiptHandle;
use cloudsim::SimTime;
use star_aligner::quant::GeneCounts;
use telemetry::slo::SLO_SKETCH_ALPHA;
use telemetry::{JsonValue, Recorder, SloSignal, SpanId};

/// One attempt at one accession, held for the worker running it in a slot of
/// the fleet's job table. The `JobDone` / `WorkerCrash` events only name
/// `(instance, epoch)`; everything else they need is here, so a drain, crash or
/// reclaim that takes the job away leaves those events with nothing to act on.
#[derive(Debug)]
pub(super) struct Job {
    /// Unique per job start: tells a live assignment from a stale event.
    pub epoch: u64,
    /// The message body.
    pub accession: Acc,
    pub receipt: ReceiptHandle,
    /// When the message was received.
    pub started_secs: f64,
    /// The attempt's run (align stage already shortened on resume).
    pub run: AccessionRun,
    /// Align-stage seconds skipped by resuming from a checkpoint.
    pub resumed_secs: f64,
    /// Seconds into the attempt at which its scheduled `WorkerCrash` strikes
    /// (0 when none was rolled).
    pub crash_offset_secs: f64,
}

/// Orchestration-side state of one instance; the lifecycle itself
/// (Initializing → Running → Draining → Terminated) lives in [`Instance`].
#[derive(Debug)]
struct Worker {
    /// The worker's slot in [`Fleet`]'s job table, while it holds a job.
    job: Option<u32>,
    /// The instance's telemetry span, open until it terminates.
    span: SpanId,
}

/// The autoscaled fleet: the ASG plus one [`Worker`] per instance ever
/// launched, indexed by instance serial (ids are dense and count from 1).
pub(super) struct Fleet {
    asg: AutoScalingGroup,
    /// The one instance type every launch is, for the launch records.
    itype: &'static str,
    workers: Vec<Worker>,
    /// The job table: one slot per job in flight. A freed slot goes on `free`
    /// and is reused, so the table is as long as the most jobs ever held at
    /// once (at most the fleet cap) and a delivery allocates nothing.
    jobs: Vec<Option<Job>>,
    free: Vec<u32>,
    busy_count: usize,
    fleet_size: StepIntegral,
    busy: StepIntegral,
    recorder: Arc<Recorder>,
    campaign_span: SpanId,
}

impl Fleet {
    /// A fleet for a campaign of `accessions`: the job table is sized for the
    /// fleet cap, or for one job per accession when that is fewer.
    pub fn new(cfg: &CampaignConfig, obs: &Observers, accessions: usize) -> Result<Fleet, AtlasError> {
        let asg = AutoScalingGroup::new(cfg.scaling).map_err(AtlasError::Cloud)?;
        let slots = (cfg.scaling.max_size as usize).min(accessions);
        Ok(Fleet {
            asg,
            itype: cfg.instance_type.name,
            workers: Vec::new(),
            jobs: Vec::with_capacity(slots),
            free: Vec::with_capacity(slots),
            busy_count: 0,
            fleet_size: StepIntegral::default(),
            busy: StepIntegral::default(),
            recorder: Arc::clone(&obs.recorder),
            campaign_span: obs.campaign_span,
        })
    }

    fn worker(&mut self, id: InstanceId) -> &mut Worker {
        &mut self.workers[(id.0 - 1) as usize]
    }

    /// Read-only view of the group: policy evaluation, instance states, the
    /// bill's instance list. Launches and terminations go through the fleet.
    pub fn asg(&self) -> &AutoScalingGroup {
        &self.asg
    }

    /// For transitions that keep the instance alive (`mark_running`,
    /// `mark_draining`); termination goes through [`Fleet::retire`].
    pub fn instance_mut(&mut self, id: InstanceId) -> Option<&mut Instance> {
        self.asg.instance_mut(id)
    }

    pub fn is_busy(&self, id: InstanceId) -> bool {
        self.workers[(id.0 - 1) as usize].job.is_some()
    }

    /// Parent for a job span: the instance's span (jobs only end on live
    /// instances, so it is still open).
    pub fn job_parent(&self, id: InstanceId) -> SpanId {
        self.workers[(id.0 - 1) as usize].span
    }

    /// Launch one instance, log the launch and open its span.
    pub fn launch(&mut self, now: SimTime) -> InstanceId {
        let id = self.asg.launch(now);
        self.fleet_size.record(now, self.asg.active_count());
        debug_assert_eq!(id.0 as usize, self.workers.len() + 1, "serials are dense instance ids");
        let span = if self.recorder.is_enabled() {
            self.recorder.event(
                now.as_secs(),
                "instance_launch",
                vec![
                    ("instance", JsonValue::from(id.0)),
                    ("itype", JsonValue::from(self.itype)),
                    ("spot", JsonValue::from(true)),
                    ("active", JsonValue::from(self.asg.active_count())),
                ],
            );
            self.recorder.counter_add("instances_launched", 1);
            self.recorder.span_start_attrs(
                "instance",
                self.campaign_span,
                now.as_secs(),
                &[
                    ("instance", id.0.to_string()),
                    ("itype", self.itype.to_string()),
                    ("spot", true.to_string()),
                ],
            )
        } else {
            SpanId::NONE
        };
        self.workers.push(Worker { job: None, span });
        id
    }

    /// Terminate `id`: whatever job it held is lost, its span closes. Returns
    /// whether this call did the termination (idempotent, like the ASG's).
    pub fn retire(&mut self, id: InstanceId, now: SimTime) -> bool {
        if !matches!(self.asg.terminate(id, now), Ok(true)) {
            return false;
        }
        self.go_idle(id, now);
        self.fleet_size.record(now, self.asg.active_count());
        self.recorder.span_end(self.job_parent(id), now.as_secs());
        true
    }

    pub fn start_job(&mut self, id: InstanceId, now: SimTime, job: Job) {
        debug_assert!(self.worker(id).job.is_none(), "a worker runs one job at a time");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.jobs[slot as usize] = Some(job);
                slot
            }
            None => {
                self.jobs.push(Some(job));
                u32::try_from(self.jobs.len() - 1).expect("one job per worker, within the u32 fleet cap")
            }
        };
        self.worker(id).job = Some(slot);
        self.busy_count += 1;
        self.busy.record(now, self.busy_count);
    }

    /// Take the worker's job away (finished, crashed, drained or reclaimed) and
    /// free its slot. A no-op on an idle worker.
    pub fn go_idle(&mut self, id: InstanceId, now: SimTime) -> Option<Job> {
        let slot = self.worker(id).job.take()?;
        let job = self.jobs[slot as usize].take().expect("a busy worker's slot holds its job");
        self.free.push(slot);
        self.busy_count -= 1;
        self.busy.record(now, self.busy_count);
        Some(job)
    }

    /// [`Fleet::go_idle`] for a `JobDone` / `WorkerCrash` event: only if the
    /// worker is still on the job the event was scheduled for.
    pub fn finish(&mut self, id: InstanceId, epoch: u64, now: SimTime) -> Option<Job> {
        let slot = self.worker(id).job?;
        if self.jobs[slot as usize].as_ref()?.epoch != epoch {
            return None;
        }
        self.go_idle(id, now)
    }

    /// Sample both utilization step functions.
    pub fn sample(&mut self, now: SimTime) {
        self.fleet_size.record(now, self.asg.active_count());
        self.busy.record(now, self.busy_count);
    }

    /// `(mean_fleet_size, busy_fraction)` over `[first launch, end]`.
    pub fn utilization(&self, end: SimTime) -> (f64, f64) {
        let fleet_secs = self.fleet_size.integral_until(end);
        let busy_secs = self.busy.integral_until(end);
        let busy_fraction = if fleet_secs > 0.0 { busy_secs / fleet_secs } else { 0.0 };
        (self.fleet_size.mean_until(end), busy_fraction)
    }
}

/// A step function (a count that holds from one sample to the next) folded into
/// its integral as the samples arrive, instead of kept as a series and
/// integrated at settle. It performs [`telemetry::TimeSeries::integral_until`]'s
/// float operations in the same order, so the integral and the mean are
/// bit-identical to the series'. Valid for an `end` no earlier than the last
/// sample — the campaign's clock is monotone and settle samples at `end`.
#[derive(Default)]
struct StepIntegral {
    first_secs: Option<f64>,
    /// The last sample, `(at, value)`.
    last: Option<(f64, f64)>,
    /// Integral over `[first sample, last sample]`.
    closed: f64,
}

impl StepIntegral {
    /// Take a sample unless it repeats the last one exactly: a same-instant,
    /// same-value step is zero-width and adds nothing.
    fn record(&mut self, now: SimTime, count: usize) {
        let sample = (now.as_secs(), count as f64);
        match self.last {
            Some(last) if last == sample => return,
            Some((t0, v0)) => {
                assert!(sample.0 >= t0, "samples must be time-ordered: {} < {t0}", sample.0);
                if sample.0 > t0 {
                    self.closed += v0 * (sample.0 - t0);
                }
            }
            None => self.first_secs = Some(sample.0),
        }
        self.last = Some(sample);
    }

    /// Integral over `[first sample, end]`.
    fn integral_until(&self, end: SimTime) -> f64 {
        let end = end.as_secs();
        debug_assert!(!matches!(self.last, Some((t, _)) if end < t), "end precedes a sample");
        match self.last {
            Some((t_last, v_last)) if end > t_last => self.closed + v_last * (end - t_last),
            _ => self.closed,
        }
    }

    /// Time-weighted mean over `[first sample, end]` (0 for no samples or a
    /// zero-length span).
    fn mean_until(&self, end: SimTime) -> f64 {
        let Some(t0) = self.first_secs else { return 0.0 };
        let span = end.as_secs() - t0;
        if span <= 0.0 {
            return 0.0;
        }
        self.integral_until(end) / span
    }
}

/// How one accession stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Pending,
    /// Dead-lettered by the queue; an in-flight duplicate may still complete it.
    DeadLettered,
    Completed,
}

/// The accession table's resolution side: one [`Fate`] per submitted accession,
/// addressed by handle, and the first completions in the order they landed.
#[derive(Default)]
pub(super) struct Resolution {
    fates: Vec<Fate>,
    /// `completed[i]` is the first completion of `completion_order[i]`.
    completed: Vec<Completion>,
    completion_order: Vec<Acc>,
    /// `(i, counts)`: the gene counts of `completed[i]`, for the completions
    /// whose run produced counts, in completion order.
    gene_counts: Vec<(usize, GeneCounts)>,
    /// How many fates are `DeadLettered` right now.
    dead_only: usize,
    /// How much of the queue's dead-letter list has been absorbed.
    dl_seen: usize,
}

impl Resolution {
    /// Sized once, at submit, for `target` first completions.
    pub fn new(target: usize) -> Resolution {
        Resolution {
            fates: vec![Fate::Pending; target],
            completed: Vec::with_capacity(target),
            completion_order: Vec::with_capacity(target),
            ..Resolution::default()
        }
    }

    /// Accessions completed or dead-lettered without completing. O(1).
    pub fn resolved(&self) -> usize {
        self.completed.len() + self.dead_only
    }

    pub fn done(&self) -> bool {
        self.resolved() >= self.fates.len()
    }

    pub fn is_completed(&self, accession: Acc) -> bool {
        self.fates[accession.index()] == Fate::Completed
    }

    /// Absorb the tail of the queue's dead-letter list; returns the new entries.
    pub fn absorb_dead_letters<'q>(&mut self, all: &'q [Acc]) -> &'q [Acc] {
        let new = &all[self.dl_seen..];
        for a in new {
            let fate = &mut self.fates[a.index()];
            if *fate == Fate::Pending {
                *fate = Fate::DeadLettered;
                self.dead_only += 1;
            }
        }
        self.dl_seen = all.len();
        new
    }

    /// Record the first completion of `accession`, submitted as `name` (a
    /// dead-lettered accession re-resolves as completed). The only place a
    /// campaign copies a name: once per accession, never per delivery.
    pub fn complete(&mut self, accession: Acc, name: &str, run: AccessionRun) {
        let fate = std::mem::replace(&mut self.fates[accession.index()], Fate::Completed);
        debug_assert!(fate != Fate::Completed, "duplicates are filtered by is_completed");
        if fate == Fate::DeadLettered {
            self.dead_only -= 1;
        }
        if let Some(counts) = run.products.and_then(|p| p.gene_counts) {
            self.gene_counts.push((self.completed.len(), counts));
        }
        self.completed.push(Completion {
            accession: name.to_string(),
            stage_secs: run.stage_secs,
            mapping_rate: run.mapping_rate,
            status: run.status,
            early_stop: run.early_stop,
        });
        self.completion_order.push(accession);
    }

    /// Completions in completion order, each with the handle it belongs to.
    pub fn completed(&self) -> impl Iterator<Item = (Acc, &Completion)> {
        self.completion_order.iter().copied().zip(&self.completed)
    }

    /// The completions alone, in completion order.
    pub fn results(&self) -> &[Completion] {
        &self.completed
    }

    /// `(completion, counts)` for each completion whose run produced gene
    /// counts, in completion order.
    pub fn gene_counts(&self) -> impl Iterator<Item = (&Completion, &GeneCounts)> {
        self.gene_counts.iter().map(|(i, counts)| (&self.completed[*i], counts))
    }

    /// What the report carries: [`Resolution::results`], moved out.
    pub fn into_results(self) -> Vec<Completion> {
        self.completed
    }

    /// At-least-once accounting: every accession completed or dead-lettered.
    /// Returns the dead-lettered ones, in the queue's dead-letter order
    /// (`names[i]`, the submitted id of handle `i`, is for the error text).
    pub fn conserve(&self, names: &[String], dead_letters: &[Acc]) -> Result<Vec<Acc>, AtlasError> {
        let dead: Vec<Acc> =
            dead_letters.iter().copied().filter(|&a| !self.is_completed(a)).collect();
        // An error, not a debug assertion: `done()` ended the run on `dead_only`,
        // so a divergence means a release campaign settled on a wrong count.
        if dead.len() != self.dead_only
            || dead.iter().any(|a| self.fates[a.index()] != Fate::DeadLettered)
        {
            return Err(AtlasError::Conservation(
                "maintained dead-letter count diverged from the queue's list".into(),
            ));
        }
        if let Some(i) = self.fates.iter().position(|&f| f == Fate::Pending) {
            return Err(AtlasError::Conservation(format!(
                "accession {} neither completed nor dead-lettered",
                names[i]
            )));
        }
        if self.completed.len() + dead.len() != self.fates.len() {
            return Err(AtlasError::Conservation(format!(
                "{} completed + {} dead-lettered != {} accessions",
                self.completed.len(),
                dead.len(),
                self.fates.len()
            )));
        }
        Ok(dead)
    }
}

/// One accession's books.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(super) struct AccessionAccount {
    /// Submit → first delivery.
    pub queue_wait_secs: Option<f64>,
    /// Seconds burned on this accession's failed or redundant attempts.
    pub retry_waste_secs: f64,
    pub completed_at_secs: Option<f64>,
    /// Checkpointed seconds no resumed completion has reused yet.
    pub pending_salvage_secs: f64,
    /// Checkpointed seconds a resumed completion did reuse.
    pub salvaged_secs: f64,
}

/// Counters and the waste/salvage books.
#[derive(Default)]
pub(super) struct Accounting {
    pub interruptions: usize,
    pub redeliveries: u64,
    pub duplicate_completions: u64,
    wasted_secs: f64,
    salvaged_secs: f64,
    /// Every second ever passed to [`Accounting::checkpointed`].
    checkpointed_secs: f64,
    /// Whether an attribution ledger will read the per-accession accounts. The
    /// salvage accounts are kept regardless: settlement needs them.
    ledger: bool,
    /// The accession table's accounting side, addressed by handle. Empty when
    /// neither a ledger nor the recovery layer will touch it.
    accounts: Vec<AccessionAccount>,
}

impl Accounting {
    /// `accounts` is the number of accessions when a ledger or the recovery
    /// layer is on, 0 otherwise.
    pub fn new(ledger: bool, accounts: usize) -> Accounting {
        let accounts = vec![AccessionAccount::default(); accounts];
        Accounting { ledger, accounts, ..Accounting::default() }
    }

    /// `accession`'s account, when an attribution ledger will read it.
    pub fn ledger_account(&mut self, accession: Acc) -> Option<&mut AccessionAccount> {
        self.ledger.then(|| &mut self.accounts[accession.index()])
    }

    /// `secs` of compute produced nothing durable for `accession`.
    pub fn waste(&mut self, accession: Acc, secs: f64) {
        self.wasted_secs += secs;
        if let Some(a) = self.ledger_account(accession) {
            a.retry_waste_secs += secs;
        }
    }

    /// A drain checkpointed `secs` of align progress. They stay optimistically
    /// out of the waste pool until settlement.
    pub fn checkpointed(&mut self, accession: Acc, secs: f64) {
        self.checkpointed_secs += secs;
        self.accounts[accession.index()].pending_salvage_secs += secs;
    }

    /// A completion resumed past `secs` of checkpointed progress: provably
    /// salvaged compute.
    pub fn salvaged(&mut self, accession: Acc, secs: f64) {
        self.salvaged_secs += secs;
        let a = &mut self.accounts[accession.index()];
        a.salvaged_secs += secs;
        a.pending_salvage_secs = (a.pending_salvage_secs - secs).max(0.0);
    }

    /// Settlement: checkpointed progress no resumed attempt ever reused is lost
    /// compute after all, so every drained second is accounted exactly once
    /// (salvaged or wasted). The reclassification folds in handle order, i.e.
    /// the order the accessions were submitted in — float addition makes that
    /// order part of the result. Errs when the checkpointed seconds are not
    /// `salvaged + lost`. Returns `(wasted, salvaged)` seconds.
    pub fn close(&mut self) -> Result<(f64, f64), AtlasError> {
        let mut lost_secs = 0.0;
        for a in self.accounts.iter_mut().filter(|a| a.pending_salvage_secs > 0.0) {
            self.wasted_secs += a.pending_salvage_secs;
            lost_secs += a.pending_salvage_secs;
            if self.ledger {
                a.retry_waste_secs += a.pending_salvage_secs;
            }
        }
        let residual = self.checkpointed_secs - (self.salvaged_secs + lost_secs);
        if residual.abs() > 1e-9 * self.checkpointed_secs.max(1.0) {
            return Err(AtlasError::Conservation(format!(
                "{} s checkpointed != {} s salvaged + {lost_secs} s lost",
                self.checkpointed_secs, self.salvaged_secs
            )));
        }
        Ok((self.wasted_secs, self.salvaged_secs))
    }

    /// What the attribution ledger needs about each completed accession.
    pub fn ledger_inputs(&self, resolution: &Resolution, end_secs: f64) -> Vec<CompletedAccession> {
        resolution
            .completed()
            .map(|(accession, completion)| {
                let a = self.accounts[accession.index()];
                CompletedAccession {
                    accession: completion.accession.clone(),
                    queue_wait_secs: a.queue_wait_secs.unwrap_or(0.0),
                    stage_secs: completion.stage_secs,
                    ended_secs: a.completed_at_secs.unwrap_or(end_secs),
                    retry_waste_secs: a.retry_waste_secs,
                    salvaged_secs: a.salvaged_secs,
                }
            })
            .collect()
    }
}

/// Telemetry. Strictly observers: fault decisions, scaling and the event clock
/// never read any of it, so a disabled recorder changes nothing.
pub(super) struct Observers {
    pub recorder: Arc<Recorder>,
    /// The recorder runs the live monitor, so jobs stream `progress` for it.
    pub monitored: bool,
    pub campaign_span: SpanId,
    /// The SLO engine is on: samples are taken and the ledger is settled.
    pub slo_on: bool,
    /// The hourly rate the settle-time bill uses. SLO cost samples and ledger
    /// dollars are priced with it, so they agree with the cost report to the bit.
    pub usd_per_hour: f64,
}

impl Observers {
    pub fn new(cfg: &CampaignConfig, usd_per_hour: f64) -> Observers {
        let slo_on = cfg.slo.is_some();
        // With telemetry off there is no stream, so no monitor either. An SLO
        // config runs one even without alert rules: the burn-rate evaluator reads
        // the stream too.
        let monitored = cfg.telemetry && (cfg.monitor.is_some() || slo_on);
        let recorder = Arc::new(if monitored {
            let rules = cfg.monitor.clone().unwrap_or_default().rules;
            let slos = cfg.slo.as_ref().map(|s| s.registry.slos.clone());
            Recorder::monitored(rules, slos.unwrap_or_default())
        } else if cfg.telemetry {
            Recorder::new()
        } else {
            Recorder::disabled()
        });
        let campaign_span = recorder.span_start("campaign", SpanId::NONE, 0.0);
        Observers { recorder, monitored, campaign_span, slo_on, usd_per_hour }
    }

    /// Log `kind` at `at_secs`. `fields` is called only for a recorder that
    /// records: a disabled one would drop them unread.
    pub fn event(
        &self,
        at_secs: f64,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, JsonValue)>,
    ) {
        if self.recorder.is_enabled() {
            self.recorder.event(at_secs, kind, fields());
        }
    }

    /// Log `kind` about `accession` on `instance`, plus event-specific seconds.
    pub fn job_event(
        &self,
        now: SimTime,
        kind: &'static str,
        accession: &str,
        instance: InstanceId,
        extra: &[(&'static str, f64)],
    ) {
        self.event(now.as_secs(), kind, || {
            let mut fields = vec![
                ("accession", JsonValue::from(accession)),
                ("instance", JsonValue::from(instance.0)),
            ];
            fields.extend(extra.iter().map(|&(k, v)| (k, JsonValue::from(v))));
            fields
        });
    }

    /// Log a fault the injector rolled: `counter` is what
    /// [`cloudsim::FaultInjector::roll`] returned for the hit.
    pub fn fault_injected(&self, now: SimTime, op: FaultOp, serial: u64, counter: u64) {
        if self.recorder.is_enabled() {
            self.recorder.event(
                now.as_secs(),
                "fault_injected",
                vec![
                    ("op", JsonValue::from(op.name())),
                    ("instance", JsonValue::from(serial)),
                    ("counter", JsonValue::from(counter)),
                ],
            );
            self.recorder.counter_add("faults_injected", 1);
        }
    }

    /// Log the failed attempts of a call instance `serial` drove through
    /// [`cloudsim::FaultInjector::with_retry`], in order: each one's fault, then
    /// its `retry` and backoff sample, or `retries_exhausted` for the last attempt.
    pub fn retried<T>(&self, now: SimTime, op: FaultOp, serial: u64, call: &Retried<T>) {
        if !self.recorder.is_enabled() {
            return;
        }
        for (attempt, failed) in (1u32..).zip(call.failures()) {
            self.fault_injected(now, op, serial, failed.counter);
            let (op, instance) = (JsonValue::from(op.name()), JsonValue::from(serial));
            if attempt == MAX_ATTEMPTS {
                let attempts = JsonValue::from(attempt);
                let fields = vec![("op", op), ("instance", instance), ("attempts", attempts)];
                self.recorder.event(now.as_secs(), "retries_exhausted", fields);
            } else {
                let backoff = failed.backoff.as_secs();
                let fields = vec![
                    ("op", op),
                    ("instance", instance),
                    ("attempt", JsonValue::from(attempt)),
                    ("backoff_secs", JsonValue::from(backoff)),
                ];
                self.recorder.event(now.as_secs(), "retry", fields);
                self.recorder.observe("retry_backoff_secs", BACKOFF_BUCKETS, backoff);
            }
        }
    }

    /// Close the `job` span of an attempt that ended with no result
    /// (`outcome` is `crashed` or `drained`).
    pub fn lost_job_span(
        &self,
        parent: SpanId,
        accession: &str,
        (started, ended): (f64, f64),
        outcome: &str,
    ) {
        if self.recorder.is_enabled() {
            let attrs = [("accession", accession.to_string()), ("outcome", outcome.to_string())];
            self.recorder.span_closed("job", parent, started, ended, &attrs);
        }
    }

    /// The one place an SLO sample is made (nothing when the SLO engine is
    /// off): `signal`'s sketch takes it, and through the recorder's sample hook
    /// so does every objective constraining `signal`.
    pub fn slo_sample(&self, now: SimTime, signal: SloSignal, value: f64) {
        if self.slo_on {
            let name = signal.sketch_name();
            self.recorder.sketch_observe(now.as_secs(), name, SLO_SKETCH_ALPHA, value);
        }
    }

    /// Retroactively emit the span tree of one finished job (`accession` is its
    /// submitted name): the `job` span covering `[started, ended]`, its four
    /// pipeline-stage children, and the align stage's seed/stitch/extend
    /// grandchildren (split by measured work units). Only `outcome == "ok"`
    /// spans feed [`telemetry::summarize`]'s stage statistics; duplicates and
    /// lost uploads are leaf spans — wasted, undifferentiated time.
    pub fn job_spans(
        &self,
        parent: SpanId,
        instance: InstanceId,
        accession: &str,
        job: &Job,
        (started, ended): (f64, f64),
        outcome: &str,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let run = &job.run;
        let span = self.recorder.span_closed(
            "job",
            parent,
            started,
            ended,
            &[
                ("accession", accession.to_string()),
                ("instance", instance.0.to_string()),
                ("outcome", outcome.to_string()),
                ("strategy", format!("{:?}", run.strategy)),
                ("mapping_rate", format!("{:.6}", run.mapping_rate)),
            ],
        );
        if outcome != "ok" {
            return;
        }
        let dump_attrs = run.products.as_ref().map_or(&[][..], |p| &p.dump_attrs[..]);
        for (name, s, e) in run.stage_secs.spans() {
            let attrs = if name == "fasterq-dump" { dump_attrs } else { &[] };
            let stage = self.recorder.span_closed(name, span, started + s, started + e, attrs);
            if name == "align" {
                for (phase, ps, pe) in run.stage_secs.align_phase_spans(&run.phase_work) {
                    self.recorder.span_closed(phase, stage, started + ps, started + pe, &[]);
                }
            }
        }
    }

    /// Emit up to 8 `progress` events for a starting job, timestamped inside its
    /// modeled align window: snapshot `processed/processed_final` maps linearly
    /// onto `[align_start, align_start + align_secs]`. The align stage duration
    /// already reflects an early-stop cut, so the last snapshot lands exactly
    /// when the stage ends — an `early_stop_eligible` alert therefore always
    /// precedes the backdated `early_stop` decision event for the same accession.
    /// (Histories only exist under a monitor, which implies an enabled recorder.)
    pub fn progress_events(
        &self,
        instance: InstanceId,
        accession: &str,
        job: &Job,
        history: &[star_aligner::ProgressSnapshot],
    ) {
        let align_start = job.started_secs + job.run.stage_secs.prefix_secs(2);
        let align_secs = job.run.stage_secs.align_secs;
        let final_processed = history.last().map(|s| s.processed).unwrap_or(0).max(1);
        let n = history.len();
        let points = n.min(8);
        for k in 1..=points {
            // `points <= n`, so these indices are strictly increasing.
            let snap = &history[k * n / points - 1];
            let t = align_start + align_secs * (snap.processed as f64 / final_processed as f64);
            self.recorder.event(
                t,
                "progress",
                vec![
                    ("accession", JsonValue::from(accession)),
                    ("instance", JsonValue::from(instance.0)),
                    ("processed", JsonValue::from(snap.processed)),
                    ("total", JsonValue::from(snap.total_reads)),
                    ("processed_fraction", JsonValue::from(snap.processed_fraction())),
                    ("mapping_rate", JsonValue::from(snap.mapped_fraction())),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CampaignWorkload, ModeledWorkload};
    use cloudsim::instance::InstanceType;
    use telemetry::{AlertRule, MonitorConfig, SloConfig};
    const T0: SimTime = SimTime::ZERO;
    const SRR1: Acc = Acc(0);
    const SRR2: Acc = Acc(1);

    fn xlarge() -> &'static InstanceType {
        InstanceType::by_name("r6a.xlarge").unwrap()
    }

    fn fleet() -> Fleet {
        let mut cfg = CampaignConfig::new(xlarge(), 1 << 20);
        cfg.telemetry = false;
        Fleet::new(&cfg, &Observers::new(&cfg, 0.0), 2).unwrap()
    }

    fn run(accession: &str) -> AccessionRun {
        ModeledWorkload::default().run_accession(accession).unwrap()
    }

    fn job(epoch: u64) -> Job {
        let mut q = cloudsim::SqsQueue::new(cloudsim::SimDuration::from_secs(30.0));
        q.send(());
        Job {
            epoch,
            accession: SRR1,
            receipt: q.receive(T0).expect("one message").1,
            started_secs: 0.0,
            run: run("SRR1"),
            resumed_secs: 0.0,
            crash_offset_secs: 0.0,
        }
    }

    #[test]
    fn go_idle_on_an_idle_worker_is_a_no_op() {
        let mut f = fleet();
        let id = f.launch(T0);
        assert!(f.go_idle(id, T0).is_none());
        assert_eq!(f.busy_count, 0, "no underflow");
        f.start_job(id, T0, job(1));
        assert!(f.is_busy(id));
        assert_eq!(f.busy_count, 1);
        assert_eq!(f.go_idle(id, T0).unwrap().epoch, 1);
        assert!(f.go_idle(id, T0).is_none(), "the job can be taken once");
        assert_eq!(f.busy_count, 0);
    }

    #[test]
    fn stale_epochs_are_inert_after_drain_crash_or_reclaim() {
        let mut f = fleet();
        let id = f.launch(T0);
        // Drain or crash: the job is taken away; its JobDone finds nothing.
        f.start_job(id, T0, job(1));
        f.go_idle(id, T0);
        assert!(f.finish(id, 1, T0).is_none());
        // The worker moved on to a new job: the old epoch must not end it.
        f.start_job(id, T0, job(2));
        assert!(f.finish(id, 1, T0).is_none());
        assert_eq!(f.busy_count, 1, "the live job is untouched");
        // Reclaim: the job is lost with the instance.
        assert!(f.retire(id, T0));
        assert_eq!(f.busy_count, 0);
        assert_eq!(f.asg().active_count(), 0);
        assert!(f.finish(id, 2, T0).is_none());
        assert!(!f.retire(id, T0), "retiring twice is idempotent");
        // The live epoch does finish a live job.
        let id2 = f.launch(T0);
        f.start_job(id2, T0, job(3));
        assert_eq!(f.finish(id2, 3, T0).unwrap().epoch, 3);
    }

    #[test]
    fn a_reused_slot_leaves_the_old_epoch_inert() {
        let mut f = fleet();
        let (a, b) = (f.launch(T0), f.launch(T0));
        f.start_job(a, T0, job(1));
        assert_eq!(f.go_idle(a, T0).unwrap().epoch, 1, "A drained or crashed");
        // B takes the slot A freed.
        f.start_job(b, T0, job(2));
        assert_eq!(f.jobs.len(), 1, "the freed slot is reused");
        assert!(f.finish(a, 1, T0).is_none(), "A's JobDone finds A idle");
        assert!(f.finish(a, 2, T0).is_none(), "B's epoch is not A's job either");
        assert!(f.is_busy(b) && !f.is_busy(a));
        assert_eq!(f.busy_count, 1);
        assert_eq!(f.finish(b, 2, T0).unwrap().epoch, 2);
    }

    #[test]
    fn start_idle_cycles_reuse_the_job_table() {
        let mut f = fleet();
        let ids = [f.launch(T0), f.launch(T0)];
        let mut epoch = 0;
        for round in 0..50 {
            for &id in &ids {
                epoch += 1;
                f.start_job(id, T0, job(epoch));
            }
            // Free in both orders so the free list is popped both ways.
            let order = if round % 2 == 0 { [ids[0], ids[1]] } else { [ids[1], ids[0]] };
            for id in order {
                assert!(f.go_idle(id, T0).is_some());
            }
        }
        assert_eq!((f.jobs.len(), f.free.len(), f.busy_count), (2, 2, 0));
    }

    #[test]
    fn a_disabled_recorder_given_rules_records_and_fires_nothing() {
        let mut cfg = CampaignConfig::new(xlarge(), 1 << 20);
        cfg.telemetry = false;
        cfg.monitor = Some(MonitorConfig { rules: vec![AlertRule::fault_burst(60.0, 1)] });
        cfg.slo = Some(SloConfig::default());
        let obs = Observers::new(&cfg, 1.0);
        let rec = &obs.recorder;
        assert!(!rec.is_enabled());
        rec.event(1.0, "fault_injected", vec![]);
        obs.slo_sample(SimTime::from_secs(2.0), SloSignal::QueueWait, 1e9);
        assert_eq!((rec.n_events(), rec.alerts().len(), rec.slo_status().len()), (0, 0, 0));
        assert!(rec.read(|_, _, m| m.sketch(SloSignal::QueueWait.sketch_name()).is_none()));
    }

    #[test]
    fn step_integrals_equal_the_series_they_replace_to_the_bit() {
        // The series the fleet used to keep, deduplicated the same way and
        // integrated at `end`, is the reference: both results must agree bit for
        // bit on streams with repeats, same-instant steps and irregular gaps.
        let mut state = 0x5EED_u64;
        let mut draw = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..200 {
            let (mut integral, mut series) = (StepIntegral::default(), telemetry::TimeSeries::new());
            let mut t = draw(50) as f64 * 0.37;
            for _ in 0..draw(40) {
                t += [0.0, 0.1, 1.0 / 3.0, 7.25][draw(4) as usize];
                let count = draw(6) as usize;
                integral.record(SimTime::from_secs(t), count);
                if series.samples().last() != Some(&(t, count as f64)) {
                    series.record(t, count as f64);
                }
            }
            for end in [t, t + 0.7, t + 1e6] {
                let end_t = SimTime::from_secs(end);
                assert_eq!(integral.integral_until(end_t).to_bits(), series.integral_until(end).to_bits());
                assert_eq!(integral.mean_until(end_t).to_bits(), series.time_weighted_mean(end).to_bits());
            }
        }
    }

    fn ids() -> [String; 2] {
        ["SRR1".to_string(), "SRR2".to_string()]
    }

    #[test]
    fn dead_letter_then_complete_resolves_once() {
        let mut r = Resolution::new(2);
        let dlq = vec![SRR1];
        assert_eq!(r.absorb_dead_letters(&dlq), &dlq[..]);
        assert!(r.absorb_dead_letters(&dlq).is_empty(), "each dead letter is absorbed once");
        assert_eq!(r.resolved(), 1);
        assert!(!r.is_completed(SRR1));
        // An in-flight duplicate completes it after all.
        r.complete(SRR1, "SRR1", run("SRR1"));
        assert!(r.is_completed(SRR1));
        assert_eq!(r.resolved(), 1, "moved from dead-lettered to completed, not counted twice");
        assert_eq!(r.dead_only, 0, "no longer resolved by dead-lettering alone");
        assert!(!r.done());
        // A dead letter for an already-completed accession resolves nothing new.
        r.complete(SRR2, "SRR2", run("SRR2"));
        let dlq = vec![SRR1, SRR2];
        assert_eq!(r.absorb_dead_letters(&dlq), &dlq[1..]);
        assert_eq!(r.resolved(), 2);
        assert_eq!(r.dead_only, 0);
        assert!(r.done());
        assert!(r.conserve(&ids(), &dlq).unwrap().is_empty());
        assert_eq!(r.completed().map(|(a, _)| a).collect::<Vec<_>>(), [SRR1, SRR2]);
        let names: Vec<String> = r.into_results().into_iter().map(|r| r.accession).collect();
        assert_eq!(names, ids());
    }

    #[test]
    fn a_duplicate_delivery_of_a_completed_handle_counts_once() {
        let mut r = Resolution::new(2);
        r.complete(SRR2, "SRR2", run("SRR2"));
        // What `on_delivery` / `on_job_done` ask before touching the table again.
        assert!(r.is_completed(SRR2) && !r.is_completed(SRR1));
        assert_eq!(r.resolved(), 1);
        assert!(!r.done(), "the other handle is still pending");
        r.complete(SRR1, "SRR1", run("SRR1"));
        assert!(r.done());
        assert_eq!(r.completed().map(|(a, _)| a).collect::<Vec<_>>(), [SRR2, SRR1]);
    }

    #[test]
    fn an_unresolved_slot_is_a_conservation_error() {
        let mut r = Resolution::new(2);
        r.complete(SRR1, "SRR1", run("SRR1"));
        let err = r.conserve(&ids(), &[]).unwrap_err();
        assert!(
            matches!(&err, AtlasError::Conservation(m) if m.contains("SRR2 neither completed")),
            "{err}"
        );
    }

    #[test]
    fn a_diverged_dead_letter_set_is_a_conservation_error() {
        let mut r = Resolution::new(2);
        r.complete(SRR1, "SRR1", run("SRR1"));
        // The queue dead-lettered SRR2 but the maintained count never absorbed it.
        let dlq = vec![SRR2];
        let err = r.conserve(&ids(), &dlq).unwrap_err();
        assert!(matches!(&err, AtlasError::Conservation(m) if m.contains("diverged")), "{err}");
        r.absorb_dead_letters(&dlq);
        assert_eq!(r.conserve(&ids(), &dlq).unwrap(), dlq);
        // The count agrees but names a handle the queue never dead-lettered.
        let err = r.conserve(&ids(), &[]).unwrap_err();
        assert!(matches!(&err, AtlasError::Conservation(m) if m.contains("diverged")), "{err}");
    }

    #[test]
    fn waste_lands_in_the_total_and_one_account_exactly_once() {
        let mut with_ledger = Accounting::new(true, 2);
        with_ledger.waste(SRR1, 10.0);
        with_ledger.waste(SRR2, 5.0);
        with_ledger.waste(SRR1, 2.5);
        assert_eq!(with_ledger.wasted_secs, 17.5);
        assert_eq!(with_ledger.accounts[SRR1.index()].retry_waste_secs, 12.5);
        assert_eq!(with_ledger.accounts[SRR2.index()].retry_waste_secs, 5.0);
        // Without a ledger to read them, no per-accession entries are made.
        let mut bare = Accounting::new(false, 0);
        bare.waste(SRR1, 10.0);
        assert!(bare.ledger_account(SRR1).is_none());
        assert_eq!(bare.wasted_secs, 10.0);
        assert!(bare.accounts.is_empty());
    }

    #[test]
    fn unsalvaged_checkpoints_become_waste_in_accession_order() {
        const A: Acc = Acc(0);
        const B: Acc = Acc(1);
        const C: Acc = Acc(2);
        const D: Acc = Acc(3);
        let mut a = Accounting::new(true, 4);
        // Inserted out of order; float addition makes the fold order observable:
        // (1 + 1) + 1e16 keeps the 2, 1e16 + 1 + 1 loses it.
        a.checkpointed(C, 1e16);
        a.checkpointed(B, 1.0);
        a.checkpointed(A, 1.0);
        a.checkpointed(D, 40.0);
        a.salvaged(D, 40.0);
        assert_eq!(a.close().unwrap(), ((1.0 + 1.0) + 1e16, 40.0));
        assert_ne!(a.wasted_secs, (1e16 + 1.0) + 1.0, "premise: order is observable");
        assert_eq!(a.accounts[D.index()].retry_waste_secs, 0.0, "fully salvaged: nothing lost");
        assert_eq!(a.accounts[D.index()].salvaged_secs, 40.0);
        assert_eq!(
            a.accounts[B.index()].retry_waste_secs,
            1.0,
            "the ledger sees the reclassification"
        );
        // A partial resume leaves the remainder to be lost.
        let mut p = Accounting::new(false, 1);
        p.checkpointed(A, 30.0);
        p.salvaged(A, 10.0);
        assert_eq!(p.close().unwrap(), (20.0, 10.0));
        let untouched = p.accounts[A.index()].retry_waste_secs;
        assert_eq!(untouched, 0.0, "no ledger, no per-accession waste");
    }

    #[test]
    fn checkpointed_seconds_are_salvaged_or_lost() {
        // Put / resume / expire, as `drain_job` and `record_completion` drive it:
        // SRR1 drains twice and a resumed completion reuses both slices; SRR2's
        // checkpoint expires, so its completion salvages nothing.
        let mut a = Accounting::new(false, 2);
        a.checkpointed(SRR1, 100.25);
        a.checkpointed(SRR2, 61.5);
        a.checkpointed(SRR1, 50.125);
        a.salvaged(SRR1, 100.25 + 50.125);
        assert_eq!(a.close().unwrap(), (61.5, 150.375));
        // A second that is neither pending nor salvaged breaks the books.
        let mut broken = Accounting::new(false, 1);
        broken.checkpointed(SRR1, 30.0);
        broken.accounts[SRR1.index()].pending_salvage_secs = 10.0;
        let err = broken.close().unwrap_err();
        assert!(matches!(&err, AtlasError::Conservation(m) if m.contains("checkpointed")), "{err}");
        // So does salvaging more than was ever checkpointed.
        let mut over = Accounting::new(false, 1);
        over.checkpointed(SRR1, 30.0);
        over.salvaged(SRR1, 45.0);
        assert!(matches!(over.close(), Err(AtlasError::Conservation(_))));
    }
}
