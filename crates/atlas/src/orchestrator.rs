//! The cloud campaign orchestrator (paper Fig. 2).
//!
//! Runs a whole accession workload on the simulated AWS architecture:
//!
//! * accession ids go into an SQS queue;
//! * an AutoScalingGroup sizes a fleet of spot instances from the backlog;
//! * each instance spends its init phase downloading the STAR index from S3 and
//!   loading it into shared memory — the overhead §III-A says shrinks with the
//!   release-111 index;
//! * ready instances poll the queue, run the four-stage pipeline per accession,
//!   lease the message for the job's expected duration, upload results and delete
//!   the message;
//! * spot interruptions kill instances mid-job; the visibility timeout re-delivers
//!   the orphaned message to another instance (at-least-once processing);
//! * when the queue drains, the fleet scales in and the campaign settles costs and
//!   DESeq2-normalizes the collected counts.
//!
//! The *pipelines run for real* (the aligner aligns); only time is simulated —
//! stage durations advance the event clock, so a multi-hour campaign simulates in
//! seconds of wall time. (At fleet scale, [`crate::workload::ModeledWorkload`]
//! swaps the real alignment for a seeded synthetic one.)
//!
//! This module is the public face — [`CampaignConfig`], [`CampaignReport`] and
//! the [`Orchestrator`] facade; the event-driven state machine that runs a
//! campaign lives in `crate::campaign`; `tests/tests/devent_diff.rs` pins its
//! determinism by replay and `tests/tests/campaign_pins.rs` by absolute digests.

use std::sync::Arc;

use crate::campaign::Campaign;
use crate::early_stop::{EarlyStopAccounting, SavingsSummary};
use crate::pipeline::{AtlasPipeline, StageTimes};
use crate::workload::CampaignWorkload;
use crate::AtlasError;
use cloudsim::cost::CostReport;
use cloudsim::faults::{FaultCounters, FaultPlan};
use cloudsim::instance::InstanceType;
use cloudsim::{ScalingPolicy, SimDuration, SpotMarket};
use deseq_norm::NormalizedMatrix;
use genomics::fnv;
use star_aligner::RunStatus;
use telemetry::{AlertEvent, CampaignTelemetry, MonitorConfig};

/// S3 download bandwidth at instance init, bytes/second.
const INDEX_DOWNLOAD_BPS: f64 = 400e6;
/// Shared-memory load rate after the download, bytes/second.
const INDEX_LOAD_BPS: f64 = 1e9;

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Instance type the ASG launches (pick with [`crate::RightSizer`]).
    pub instance_type: &'static InstanceType,
    /// Spot pricing/interruption model. The fleet runs on the spot market: an
    /// instance-hour costs the type's on-demand price × `price_factor`, and an
    /// on-demand fleet is a market at `price_factor: 1.0` with
    /// `interruptions_per_hour: 0.0`.
    pub spot_market: SpotMarket,
    /// Fleet sizing policy.
    pub scaling: ScalingPolicy,
    /// Idle worker re-poll interval.
    pub poll_interval: SimDuration,
    /// ASG evaluation period.
    pub scale_tick: SimDuration,
    /// Index size charged at instance init (bytes). Use the measured blob size, or a
    /// paper-scale override (85 GiB vs 29.5 GiB) for full-scale campaigns.
    pub index_bytes: u64,
    /// Deterministic fault plan for chaos campaigns (`None` = fault-free).
    pub faults: Option<FaultPlan>,
    /// Deliveries allowed per message before it moves to the dead-letter queue
    /// (`None` = redeliver forever, the pre-DLQ behavior).
    pub max_receive_count: Option<u32>,
    /// Record sim-time telemetry (spans, metrics, event log). Disabling swaps in
    /// a no-op recorder; campaign outcomes are identical either way.
    pub telemetry: bool,
    /// Live alert rules evaluated against the telemetry stream *during* the
    /// campaign (`None` = no monitor). Requires `telemetry`; like the recorder,
    /// the monitor is strictly an observer — campaign outcomes are identical
    /// with it on or off, but enabling it adds `progress` and `alert` events to
    /// the log.
    pub monitor: Option<MonitorConfig>,
    /// Declarative SLOs ([`telemetry::slo`]) evaluated live over the telemetry
    /// stream — streaming quantile sketches, multi-window burn-rate alerting —
    /// plus the per-accession cost/latency attribution ledger
    /// ([`crate::ledger`]). `None` = SLO engine off. Requires `telemetry`; like
    /// the monitor it is strictly an observer — the summary digest and the
    /// stripped event log are byte-identical with it on or off.
    pub slo: Option<telemetry::SloConfig>,
    /// Graceful spot degradation ([`crate::recovery`]): act on the two-minute
    /// interruption notice by draining the worker (stop polling, hand the
    /// in-flight message back), checkpointing its alignment progress, and
    /// letting the next delivery resume from the checkpoint. `None` = legacy
    /// behavior: the reclaim strikes unannounced and the orphaned message waits
    /// out its visibility lease. Pure opt-in — with `None`, campaign digests
    /// and event logs are byte-identical to builds without the recovery layer.
    pub recovery: Option<crate::recovery::RecoveryConfig>,
}

impl CampaignConfig {
    /// A small-scale default around the given instance type and index size.
    pub fn new(instance_type: &'static InstanceType, index_bytes: u64) -> CampaignConfig {
        CampaignConfig {
            instance_type,
            spot_market: SpotMarket::default(),
            scaling: ScalingPolicy::default(),
            poll_interval: SimDuration::from_secs(20.0),
            scale_tick: SimDuration::from_secs(60.0),
            index_bytes,
            faults: None,
            max_receive_count: None,
            telemetry: true,
            monitor: None,
            slo: None,
            recovery: None,
        }
    }

    /// Instance init seconds: index download + load into shared memory.
    pub fn init_secs(&self) -> f64 {
        self.index_bytes as f64 / INDEX_DOWNLOAD_BPS + self.index_bytes as f64 / INDEX_LOAD_BPS
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), AtlasError> {
        self.scaling.validate().map_err(AtlasError::Cloud)?;
        // A zero period re-fires at the same instant until the event budget runs out.
        let positive = [
            ("scale_tick", self.scale_tick.as_secs()),
            ("poll_interval", self.poll_interval.as_secs()),
        ];
        if let Some((name, _)) = positive.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
            return Err(AtlasError::InvalidParams(format!("{name} must be finite and positive")));
        }
        self.spot_market.validate().map_err(AtlasError::Cloud)?;
        if let Some(plan) = &self.faults {
            plan.validate().map_err(AtlasError::Cloud)?;
        }
        if self.max_receive_count == Some(0) {
            return Err(AtlasError::InvalidParams("max_receive_count must be >= 1".into()));
        }
        if let Some(monitor) = &self.monitor {
            monitor.validate().map_err(AtlasError::InvalidParams)?;
        }
        if let Some(slo) = &self.slo {
            slo.registry.validate().map_err(AtlasError::InvalidParams)?;
            if !self.telemetry {
                return Err(AtlasError::InvalidParams(
                    "slo requires telemetry (the SLO engine observes the telemetry stream)".into(),
                ));
            }
        }
        Ok(())
    }
}

/// One sample of campaign telemetry (taken at every scale tick).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetSample {
    /// Simulated time of the sample.
    pub at_secs: f64,
    /// Active (not terminated) instances.
    pub active_instances: usize,
    /// Undeleted messages (visible + in flight).
    pub pending_messages: usize,
}

/// One accession's first completion, as the report keeps it: what the digest,
/// the savings, the ledger and the renderers read, and nothing else.
#[derive(Clone, Debug, PartialEq)]
pub struct Completion {
    /// The accession, as submitted.
    pub accession: String,
    /// Modeled per-stage durations of the completing attempt (align stage
    /// already shortened when it resumed from a checkpoint).
    pub stage_secs: StageTimes,
    /// Final mapping rate observed by the aligner.
    pub mapping_rate: f64,
    /// How the alignment ended.
    pub status: RunStatus,
    /// Early-stop time accounting (on modeled alignment seconds).
    pub early_stop: EarlyStopAccounting,
}

impl Completion {
    /// Did early stopping abort this accession?
    pub fn early_stopped(&self) -> bool {
        matches!(self.status, RunStatus::EarlyStopped { .. })
    }
}

/// Campaign outcome.
#[derive(Debug)]
pub struct CampaignReport {
    /// First completions, in completion order. A completion keeps no gene
    /// counts or phase work: the counts of the runs that produced them went into
    /// [`CampaignReport::normalized`], and nothing else reads the rest.
    pub completed: Vec<Completion>,
    /// Total simulated campaign duration.
    pub makespan: SimDuration,
    /// USD/instance-hour accounting.
    pub cost: CostReport,
    /// Instances launched over the campaign.
    pub instances_launched: usize,
    /// Spot interruptions that struck.
    pub interruptions: usize,
    /// Deliveries with `receive_count > 1` (work redone after loss/timeouts).
    pub redeliveries: u64,
    /// Early-stopping aggregate (Fig. 4 totals when the policy is on).
    pub savings: SavingsSummary,
    /// DESeq2-normalized counts across completed accessions (None when fewer than
    /// one usable sample or no commonly expressed gene).
    pub normalized: Option<NormalizedMatrix>,
    /// Per-instance init seconds charged (download + load of the index).
    pub init_secs_per_instance: f64,
    /// Fleet telemetry over time.
    pub fleet_timeline: Vec<FleetSample>,
    /// Time-weighted mean active fleet size over the campaign.
    pub mean_fleet_size: f64,
    /// Fraction of active instance time spent busy on a pipeline (utilization —
    /// the paper's "high utilization of resources" goal).
    pub busy_fraction: f64,
    /// Accessions that exhausted `max_receive_count` and landed in the DLQ
    /// without ever completing (empty in fault-free campaigns).
    pub dead_lettered: Vec<String>,
    /// Injected-fault tallies (all zero when `CampaignConfig::faults` is `None`).
    pub fault_counters: FaultCounters,
    /// Jobs that finished an accession some other worker had already completed
    /// (at-least-once duplicates; only the first completion counts).
    pub duplicate_completions: u64,
    /// Instance-seconds spent on work that produced nothing durable: crashed
    /// jobs, duplicate completions, and results whose upload was lost. This is a
    /// labeled slice of already-charged time, mirrored into
    /// [`CostReport::wasted_usd`].
    pub wasted_compute_secs: f64,
    /// Instance-seconds of drained-attempt progress that a later resumed
    /// attempt did *not* redo — compute rescued by the checkpoint/resume path.
    /// Always 0 when [`CampaignConfig::recovery`] is off. Checkpointed progress
    /// that never gets salvaged (expired checkpoint, dead-lettered accession)
    /// falls back into `wasted_compute_secs` at settlement, so every drained
    /// second is accounted exactly once as salvaged or lost.
    pub salvaged_compute_secs: f64,
    /// Sim-time telemetry: span tree, metrics, event log and critical-path
    /// breakdown (`None` when [`CampaignConfig::telemetry`] is off). Excluded
    /// from [`CampaignReport::summary_digest`]; its own determinism is covered
    /// by the telemetry replay test.
    pub telemetry: Option<CampaignTelemetry>,
    /// Alerts the live monitor fired, in firing order (empty when
    /// [`CampaignConfig::monitor`] is `None`). Excluded from
    /// [`CampaignReport::summary_digest`] like the rest of the telemetry.
    pub alerts: Vec<AlertEvent>,
    /// Simulation events dispatched over the campaign. Identical across replays
    /// of the same campaign (the differential harness checks it); excluded from
    /// the digest because it describes the simulator, not the outcome.
    pub sim_events: u64,
    /// SLO attainment and the per-accession attribution ledger (`None` when
    /// [`CampaignConfig::slo`] is off). Excluded from
    /// [`CampaignReport::summary_digest`] like the rest of the telemetry.
    pub slo: Option<crate::ledger::SloReport>,
}

impl CampaignReport {
    /// An order-sensitive FNV-1a digest of everything the fault layer can
    /// perturb: completion order, dead letters, fault tallies, duplicate/waste
    /// accounting, makespan and cost bits. Two runs of the same workload with
    /// the same `FaultPlan` must produce identical digests (see the chaos
    /// determinism test); differing seeds almost surely differ.
    pub fn summary_digest(&self) -> u64 {
        let mut h = fnv::OFFSET;
        let mut eat = |bytes: &[u8]| h = fnv::fnv1a(h, bytes);
        for r in &self.completed {
            eat(r.accession.as_bytes());
            eat(&[0xff]);
        }
        eat(&[0xfe]);
        for a in &self.dead_lettered {
            eat(a.as_bytes());
            eat(&[0xff]);
        }
        eat(&(self.interruptions as u64).to_le_bytes());
        eat(&self.redeliveries.to_le_bytes());
        eat(&(self.instances_launched as u64).to_le_bytes());
        eat(&self.duplicate_completions.to_le_bytes());
        let c = &self.fault_counters;
        for v in [
            c.s3_get_faults,
            c.s3_put_faults,
            c.sqs_receive_faults,
            c.sqs_delete_faults,
            c.sqs_extend_faults,
            c.duplicate_deliveries,
            c.worker_crashes,
            c.retry_attempts,
            c.retries_exhausted,
            c.checkpoint_put_faults,
        ] {
            eat(&v.to_le_bytes());
        }
        eat(&c.retry_backoff_secs.to_bits().to_le_bytes());
        eat(&self.wasted_compute_secs.to_bits().to_le_bytes());
        eat(&self.salvaged_compute_secs.to_bits().to_le_bytes());
        eat(&self.makespan.as_secs().to_bits().to_le_bytes());
        eat(&self.cost.total_usd.to_bits().to_le_bytes());
        eat(&self.cost.wasted_usd.to_bits().to_le_bytes());
        h
    }

    /// The run's [`telemetry::RunProfile`] for differential attribution
    /// (`telemetry::diff`). Starts from whatever the event log alone carries
    /// (per-instance waits/waste, event counts), then overrides with the
    /// authoritative report quantities: makespan and total dollars from the
    /// cost model, the latency/cost category decompositions from the
    /// attribution ledger (so diff category deltas are bit-exact deltas of
    /// ledger totals), per-accession turnarounds from ledger entries, and
    /// critical-path edges (`accession/dominant_stage`) from the telemetry
    /// section. Purely derived — reads the report, mutates nothing.
    pub fn run_profile(&self, label: &str) -> telemetry::RunProfile {
        let mut p = self
            .telemetry
            .as_ref()
            .and_then(|t| telemetry::RunProfile::from_event_log(label, &t.event_log).ok())
            .unwrap_or_default();
        p.label = label.to_string();
        p.makespan_secs = self.makespan.as_secs();
        p.cost_usd = self.cost.total_usd;
        if let Some(slo) = &self.slo {
            let t = &slo.totals;
            p.latency_categories = vec![
                ("queue_wait".to_string(), t.queue_wait_secs),
                ("download".to_string(), t.download_secs),
                ("align".to_string(), t.align_secs),
                ("collect".to_string(), t.collect_secs),
                ("retry_waste".to_string(), t.retry_waste_secs),
                ("idle_gap".to_string(), t.idle_gap_secs),
            ];
            p.cost_categories = vec![
                ("compute".to_string(), t.compute_usd),
                ("retry".to_string(), t.retry_usd),
                ("idle_amortized".to_string(), t.idle_amortized_usd),
            ];
            p.per_accession_secs = slo
                .ledger
                .iter()
                .map(|e| (e.accession.clone(), e.turnaround_secs))
                .collect();
            p.per_accession_secs.sort_by(|a, b| a.0.cmp(&b.0));
        }
        if let Some(t) = &self.telemetry {
            p.critical_edges = t
                .critical_path
                .per_accession
                .iter()
                .map(|a| (format!("{}/{}", a.accession, a.dominant_stage), a.dominant_secs))
                .collect();
            p.critical_edges.sort_by(|a, b| a.0.cmp(&b.0));
        }
        p
    }
}

/// The campaign driver.
pub struct Orchestrator {
    workload: Arc<dyn CampaignWorkload>,
    config: CampaignConfig,
}

impl Orchestrator {
    /// Create an orchestrator running the real pipeline. Validates the configuration.
    pub fn new(pipeline: Arc<AtlasPipeline>, config: CampaignConfig) -> Result<Orchestrator, AtlasError> {
        Orchestrator::with_workload(pipeline, config)
    }

    /// Create an orchestrator over any [`CampaignWorkload`] — the real pipeline or
    /// a modeled one for fleet-scale campaigns. Validates the configuration.
    pub fn with_workload(
        workload: Arc<dyn CampaignWorkload>,
        config: CampaignConfig,
    ) -> Result<Orchestrator, AtlasError> {
        config.validate()?;
        Ok(Orchestrator { workload, config })
    }

    /// Run the campaign over `accessions`. An id may appear once: the campaign
    /// names each accession by its position in this slice, so a repeated id is
    /// rejected with [`AtlasError::InvalidParams`] before anything is queued.
    pub fn run(&self, accessions: &[String]) -> Result<CampaignReport, AtlasError> {
        Campaign::new(&*self.workload, &self.config, accessions)?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
    use sra_sim::accession::CatalogParams;
    use sra_sim::SraRepository;
    use star_aligner::index::{IndexParams, StarIndex};

    fn setup(n_accessions: usize, sc_fraction: f64) -> (Arc<AtlasPipeline>, Vec<String>, u64) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = Arc::new(g.generate(Release::R111));
        let ann = Arc::new(Annotation::simulate(&asm, &g).unwrap());
        let idx = Arc::new(StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap());
        let index_bytes = idx.stats().total_bytes() as u64;
        let mut cat = CatalogParams::default();
        cat.n_accessions = n_accessions;
        cat.bulk_spots_median = 300;
        cat.single_cell_fraction = sc_fraction;
        let repo =
            Arc::new(SraRepository::new(Arc::clone(&asm), Arc::clone(&ann), cat.generate().unwrap())
                .with_spot_cap(600));
        let mut pc = PipelineConfig::default();
        pc.run_config.threads = 2;
        pc.run_config.batch_size = 100;
        let pipeline = Arc::new(AtlasPipeline::new(repo, idx, ann, pc).unwrap());
        let ids = pipeline.repository().ids();
        (pipeline, ids, index_bytes)
    }

    fn config(index_bytes: u64) -> CampaignConfig {
        let t = InstanceType::by_name("r6a.xlarge").unwrap();
        let mut c = CampaignConfig::new(t, index_bytes);
        c.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 3 };
        c
    }

    #[test]
    fn campaign_processes_every_accession() {
        let (pipeline, ids, index_bytes) = setup(8, 0.25);
        let orch = Orchestrator::new(pipeline, config(index_bytes)).unwrap();
        let report = orch.run(&ids).unwrap();
        assert_eq!(report.completed.len(), 8);
        assert!(report.makespan.as_secs() > 0.0);
        assert!(report.instances_launched >= 1);
        assert!(report.cost.total_usd > 0.0);
        // Every accession appears exactly once.
        let mut seen: Vec<&str> = report.completed.iter().map(|r| r.accession.as_str()).collect();
        seen.sort_unstable();
        let mut expect: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn early_stops_show_up_in_savings() {
        let (pipeline, ids, index_bytes) = setup(8, 0.25);
        let orch = Orchestrator::new(pipeline, config(index_bytes)).unwrap();
        let report = orch.run(&ids).unwrap();
        assert_eq!(report.savings.runs, 8);
        assert_eq!(report.savings.stopped, 2, "25% of 8 accessions are single-cell");
        assert!(report.savings.saved_secs() > 0.0);
        assert!(report.savings.saved_fraction() > 0.0);
    }

    #[test]
    fn normalization_covers_completed_bulk_accessions() {
        let (pipeline, ids, index_bytes) = setup(8, 0.25);
        let orch = Orchestrator::new(pipeline, config(index_bytes)).unwrap();
        let report = orch.run(&ids).unwrap();
        let norm = report.normalized.expect("bulk accessions produce counts");
        assert_eq!(norm.sample_ids.len(), 6, "2 of 8 were early-stopped and excluded");
        assert_eq!(norm.size_factors.len(), 6);
        assert!(norm.size_factors.iter().all(|&f| f > 0.0));
    }

    #[test]
    fn spot_interruptions_cause_redelivery_not_loss() {
        let (pipeline, ids, index_bytes) = setup(10, 0.0);
        let mut cfg = config(index_bytes);
        // Violent interruption pressure with fast ASG reaction so deaths actually
        // strike within the short simulated campaign.
        cfg.spot_market = SpotMarket { price_factor: 0.35, interruptions_per_hour: 1200.0, seed: 3 };
        cfg.scale_tick = cloudsim::SimDuration::from_secs(5.0);
        cfg.poll_interval = cloudsim::SimDuration::from_secs(2.0);
        let orch = Orchestrator::new(pipeline, cfg).unwrap();
        let report = orch.run(&ids).unwrap();
        assert_eq!(report.completed.len(), 10, "all work completes despite interruptions");
        assert!(report.interruptions > 0, "premise: interruptions actually struck");
    }

    #[test]
    fn init_time_scales_with_index_bytes() {
        let (pipeline, _, _) = setup(2, 0.0);
        let t = InstanceType::by_name("r6a.xlarge").unwrap();
        let small = CampaignConfig::new(t, 1_000_000);
        let big = CampaignConfig::new(t, 10_000_000);
        assert!(big.init_secs() > small.init_secs() * 5.0);
        drop(pipeline);
    }

    #[test]
    fn fleet_scales_with_backlog_and_drains() {
        let (pipeline, ids, index_bytes) = setup(12, 0.0);
        let orch = Orchestrator::new(pipeline, config(index_bytes)).unwrap();
        let report = orch.run(&ids).unwrap();
        let peak = report.fleet_timeline.iter().map(|s| s.active_instances).max().unwrap();
        assert!(peak >= 2, "backlog of 12 with target 3/instance must scale out, peak {peak}");
        let first = report.fleet_timeline.first().unwrap();
        assert_eq!(first.pending_messages, 12);
    }

    #[test]
    fn utilization_metrics_are_sane() {
        let (pipeline, ids, index_bytes) = setup(10, 0.0);
        let orch = Orchestrator::new(pipeline, config(index_bytes)).unwrap();
        let report = orch.run(&ids).unwrap();
        assert!(report.mean_fleet_size > 0.0, "fleet existed");
        assert!(
            report.mean_fleet_size
                <= report.fleet_timeline.iter().map(|s| s.active_instances).max().unwrap() as f64,
            "mean cannot exceed peak"
        );
        assert!((0.0..=1.0).contains(&report.busy_fraction), "busy {}", report.busy_fraction);
    }

    #[test]
    fn fault_free_campaigns_report_zero_fault_accounting() {
        let (pipeline, ids, index_bytes) = setup(6, 0.0);
        let orch = Orchestrator::new(pipeline, config(index_bytes)).unwrap();
        let report = orch.run(&ids).unwrap();
        assert_eq!(report.fault_counters.total_faults(), 0);
        assert_eq!(report.fault_counters.retry_attempts, 0);
        assert!(report.dead_lettered.is_empty());
        assert_eq!(report.duplicate_completions, 0);
        assert_eq!(report.wasted_compute_secs, 0.0);
        assert_eq!(report.cost.wasted_usd, 0.0);
    }

    #[test]
    fn chaos_campaign_conserves_every_accession() {
        let (pipeline, ids, index_bytes) = setup(10, 0.0);
        let mut cfg = config(index_bytes);
        cfg.faults = Some(FaultPlan::chaos(11));
        cfg.max_receive_count = Some(6);
        cfg.scale_tick = cloudsim::SimDuration::from_secs(10.0);
        cfg.poll_interval = cloudsim::SimDuration::from_secs(5.0);
        let orch = Orchestrator::new(pipeline, cfg).unwrap();
        let report = orch.run(&ids).unwrap();
        assert_eq!(
            report.completed.len() + report.dead_lettered.len(),
            10,
            "conservation: {} completed, {:?} dead-lettered",
            report.completed.len(),
            report.dead_lettered
        );
        assert!(report.fault_counters.total_faults() > 0, "premise: chaos actually struck");
    }

    #[test]
    fn worker_crashes_attribute_wasted_cost() {
        let (pipeline, ids, index_bytes) = setup(8, 0.0);
        let mut cfg = config(index_bytes);
        cfg.faults = Some(FaultPlan {
            seed: 5,
            worker_crash_per_job: 0.5,
            ..FaultPlan::default()
        });
        cfg.max_receive_count = Some(20);
        let orch = Orchestrator::new(pipeline, cfg).unwrap();
        let report = orch.run(&ids).unwrap();
        assert!(report.fault_counters.worker_crashes > 0, "premise: crashes struck");
        assert!(report.wasted_compute_secs > 0.0);
        assert!(report.cost.wasted_usd > 0.0);
        assert!(report.cost.wasted_usd <= report.cost.total_usd);
        assert_eq!(report.completed.len(), 8, "crashes delay but do not lose work");
    }

    #[test]
    fn persistent_put_failures_dead_letter_instead_of_hanging() {
        let (pipeline, ids, index_bytes) = setup(4, 0.0);
        let mut cfg = config(index_bytes);
        // Every result upload fails forever: no accession can ever complete, so
        // each message must exhaust its receive allowance and dead-letter.
        cfg.faults = Some(FaultPlan { seed: 2, s3_put_fail: 1.0, ..FaultPlan::default() });
        cfg.max_receive_count = Some(3);
        cfg.scale_tick = cloudsim::SimDuration::from_secs(10.0);
        cfg.poll_interval = cloudsim::SimDuration::from_secs(5.0);
        let orch = Orchestrator::new(pipeline, cfg).unwrap();
        let report = orch.run(&ids).unwrap();
        assert_eq!(report.completed.len(), 0);
        assert_eq!(report.dead_lettered.len(), 4);
        assert!(report.fault_counters.retries_exhausted > 0);
        assert!(report.wasted_compute_secs > 0.0, "every attempt was wasted work");
    }

    #[test]
    fn invalid_config_rejected() {
        let (pipeline, _, index_bytes) = setup(2, 0.0);
        // Periods that would re-fire at the same instant forever: typed errors up
        // front, not a burned event budget inside the run.
        let cases: [(&str, fn(&mut CampaignConfig)); 2] = [
            ("scale_tick", |c| c.scale_tick = SimDuration::from_secs(0.0)),
            ("poll_interval", |c| c.poll_interval = SimDuration::from_secs(0.0)),
        ];
        for (name, breakage) in cases {
            let mut cfg = config(index_bytes);
            breakage(&mut cfg);
            match Orchestrator::new(Arc::clone(&pipeline), cfg) {
                Err(AtlasError::InvalidParams(msg)) => assert!(msg.contains(name), "{msg}"),
                other => panic!("{name}: expected InvalidParams, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn every_f64_knob_rejects_nan_infinity_and_negative_at_submit() {
        use cloudsim::{CloudError, SpotBurst};
        // A NaN spot rate and an infinite retry delay each passed validation once
        // and panicked mid-campaign; this covers the whole class.
        fn plan(c: &mut CampaignConfig) -> &mut FaultPlan {
            c.faults.get_or_insert_with(FaultPlan::default)
        }
        fn burst(c: &mut CampaignConfig) -> &mut SpotBurst {
            let ok = SpotBurst { start_secs: 0.0, duration_secs: 60.0, rate_per_hour: 1.0 };
            plan(c).spot_bursts = vec![ok];
            &mut plan(c).spot_bursts[0]
        }
        type Set = fn(&mut CampaignConfig, f64);
        let knobs: [(&str, Set); 14] = [
            ("spot_market.price_factor", |c, v| c.spot_market.price_factor = v),
            ("spot_market.interruptions_per_hour", |c, v| c.spot_market.interruptions_per_hour = v),
            ("faults.s3_get_fail", |c, v| plan(c).s3_get_fail = v),
            ("faults.s3_put_fail", |c, v| plan(c).s3_put_fail = v),
            ("faults.sqs_receive_fail", |c, v| plan(c).sqs_receive_fail = v),
            ("faults.sqs_delete_fail", |c, v| plan(c).sqs_delete_fail = v),
            ("faults.sqs_extend_fail", |c, v| plan(c).sqs_extend_fail = v),
            ("faults.duplicate_delivery", |c, v| plan(c).duplicate_delivery = v),
            ("faults.worker_crash_per_job", |c, v| plan(c).worker_crash_per_job = v),
            ("faults.checkpoint_write_fail", |c, v| plan(c).checkpoint_write_fail = v),
            ("faults.spot_notice_secs", |c, v| plan(c).spot_notice_secs = v),
            ("spot_burst.start_secs", |c, v| burst(c).start_secs = v),
            ("spot_burst.duration_secs", |c, v| burst(c).duration_secs = v),
            ("spot_burst.rate_per_hour", |c, v| burst(c).rate_per_hour = v),
        ];
        let workload = ModeledWorkload::default().into_workload();
        let config = || CampaignConfig::new(InstanceType::by_name("r6a.xlarge").unwrap(), 1 << 30);
        for (name, set) in knobs {
            // The knob's own valid value submits, so the rejections below are its.
            let mut cfg = config();
            set(&mut cfg, 1.0);
            Orchestrator::with_workload(Arc::clone(&workload), cfg).unwrap();
            for v in [f64::NAN, f64::INFINITY, -1.0] {
                let mut cfg = config();
                set(&mut cfg, v);
                match Orchestrator::with_workload(Arc::clone(&workload), cfg) {
                    Err(AtlasError::InvalidParams(_) | AtlasError::Cloud(CloudError::InvalidParams(_))) => {}
                    other => panic!("{name} = {v}: expected InvalidParams, got {:?}", other.map(|_| ())),
                }
            }
        }
    }

    use crate::recovery::RecoveryConfig;
    use crate::workload::ModeledWorkload;

    #[test]
    fn a_repeated_accession_id_is_rejected_up_front() {
        let t = InstanceType::by_name("r6a.xlarge").unwrap();
        let orch = Orchestrator::with_workload(
            ModeledWorkload::default().into_workload(),
            CampaignConfig::new(t, 1 << 30),
        )
        .unwrap();
        let mut ids = ModeledWorkload::accessions(21);
        ids[17] = ids[3].clone();
        let aba = ["SRR90000001", "SRR90000002", "SRR90000001"].map(String::from);
        let cases = [(&ids[..], &ids[3], "positions 3 and 17"), (&aba, &aba[0], "positions 0 and 2")];
        for (ids, repeated, positions) in cases {
            match orch.run(ids) {
                Err(AtlasError::InvalidParams(msg)) => {
                    assert!(msg.contains(repeated.as_str()) && msg.contains(positions), "{msg}");
                }
                other => panic!("expected InvalidParams, got {:?}", other.map(|r| r.sim_events)),
            }
        }
        // Nothing submitted is not an error: an empty campaign, settled at t = 0.
        let empty = orch.run(&[]).unwrap();
        assert_eq!((empty.sim_events, empty.makespan.as_secs()), (0, 0.0));
        assert!(empty.completed.is_empty() && empty.dead_lettered.is_empty());
    }

    #[test]
    fn a_completion_fits_in_128_bytes() {
        // The report keeps one per accession; at 10^6 accessions every byte here
        // is a megabyte of the campaign's peak.
        assert!(std::mem::size_of::<Completion>() <= 128, "{}", std::mem::size_of::<Completion>());
    }

    #[test]
    fn a_monitor_rule_that_would_panic_or_leak_is_rejected_up_front() {
        use telemetry::{AlertRule, MonitorConfig};
        // A negative window used to evict the sample it had just taken and panic on
        // the campaign's first `queue_pending` sample; a NaN window never evicts, so
        // it grew for the whole campaign. The rest: minimum counts of 0, non-finite bounds.
        let bad = [
            AlertRule::queue_backlog_growth(-1.0, 0.02),
            AlertRule::queue_backlog_growth(f64::NAN, 0.02),
            AlertRule::queue_backlog_growth(0.0, 0.02),
            AlertRule::queue_backlog_growth(600.0, f64::NAN),
            AlertRule::fault_burst(-300.0, 5),
            AlertRule::fault_burst(300.0, 0),
            AlertRule::interruption_storm(f64::INFINITY, 3),
            AlertRule::interruption_storm(900.0, 0),
            AlertRule::straggler_instances(f64::NAN, 8),
            AlertRule::straggler_instances(3.0, 0),
            AlertRule::early_stop_eligible(f64::NAN, 0.10),
            AlertRule::early_stop_eligible(0.30, f64::INFINITY),
        ];
        let config = |rules: Vec<AlertRule>| {
            let mut cfg = CampaignConfig::new(InstanceType::by_name("r6a.xlarge").unwrap(), 1 << 30);
            cfg.telemetry = true;
            cfg.monitor = Some(MonitorConfig { rules });
            cfg
        };
        let workload = ModeledWorkload::default().into_workload();
        for rule in bad {
            // Behind a good rule: every rule is checked, not the first.
            let rules = vec![AlertRule::fault_burst(300.0, 5), rule.clone()];
            match Orchestrator::with_workload(Arc::clone(&workload), config(rules)) {
                Err(AtlasError::InvalidParams(msg)) => assert!(msg.contains("monitor rule"), "{msg}"),
                Err(other) => panic!("{rule:?}: expected InvalidParams, got {other:?}"),
                Ok(orch) => {
                    // What accepting it costs, before saying that it was accepted.
                    let _ = orch.run(&ModeledWorkload::accessions(8));
                    panic!("{rule:?} was accepted");
                }
            }
        }
        let mut rules = MonitorConfig::standard().rules;
        rules.push(AlertRule::interruption_storm(900.0, 3));
        Orchestrator::with_workload(workload, config(rules)).unwrap();
    }

    #[test]
    fn a_nan_spot_rate_price_or_burst_is_rejected_up_front() {
        use cloudsim::faults::SpotBurst;
        use cloudsim::CloudError;
        // A NaN rate passed validation and panicked the interruption sampler at
        // the first launch; NaN burst bounds silently disabled the window; a NaN
        // price factor priced every spot hour at NaN.
        let burst = SpotBurst { start_secs: 3600.0, duration_secs: 3600.0, rate_per_hour: 6.0 };
        let market = SpotMarket { price_factor: 0.35, interruptions_per_hour: 2.0, seed: 12 };
        let with_burst = |b: SpotBurst| Some(FaultPlan { spot_bursts: vec![b], ..FaultPlan::chaos(13) });
        let config = |market: SpotMarket, faults: Option<FaultPlan>| {
            let mut cfg = CampaignConfig::new(InstanceType::by_name("r6a.xlarge").unwrap(), 1 << 30);
            (cfg.spot_market, cfg.faults) = (market, faults);
            cfg
        };
        let workload = ModeledWorkload::default().into_workload();
        let bad = [
            config(SpotMarket { interruptions_per_hour: f64::NAN, ..market }, None),
            config(SpotMarket { interruptions_per_hour: f64::INFINITY, ..market }, None),
            config(SpotMarket { interruptions_per_hour: -2.0, ..market }, None),
            config(SpotMarket { price_factor: f64::NAN, ..market }, None),
            config(SpotMarket { price_factor: -0.35, ..market }, None),
            config(market, with_burst(SpotBurst { rate_per_hour: f64::NAN, ..burst })),
            config(market, with_burst(SpotBurst { start_secs: f64::NAN, ..burst })),
            config(market, with_burst(SpotBurst { duration_secs: f64::NAN, ..burst })),
            config(market, with_burst(SpotBurst { duration_secs: f64::INFINITY, ..burst })),
        ];
        for cfg in bad {
            let case = format!("{:?} {:?}", cfg.spot_market, cfg.faults.as_ref().map(|p| &p.spot_bursts));
            match Orchestrator::with_workload(Arc::clone(&workload), cfg) {
                Err(AtlasError::Cloud(CloudError::InvalidParams(_))) => {}
                Err(other) => panic!("{case}: expected InvalidParams, got {other:?}"),
                Ok(orch) => {
                    let _ = orch.run(&ModeledWorkload::accessions(8));
                    panic!("{case} was accepted");
                }
            }
        }
        // The market and burst shapes the suites and the benchmark run (each
        // suite also builds its own through `with_workload(..).unwrap()`).
        let good = [
            config(SpotMarket::default(), None),
            config(market, with_burst(burst)),
            config(SpotMarket { price_factor: 0.3, interruptions_per_hour: 600.0, seed: 5 }, None),
            config(SpotMarket { interruptions_per_hour: 1200.0, ..market }, Some(FaultPlan::chaos(11))),
            config(market, with_burst(SpotBurst { start_secs: 0.0, duration_secs: 400.0, rate_per_hour: 400.0 })),
            config(SpotMarket { price_factor: 0.0, interruptions_per_hour: 0.0, seed: 0 }, None),
        ];
        for cfg in good {
            Orchestrator::with_workload(Arc::clone(&workload), cfg).unwrap();
        }
    }

    // ——— Graceful spot degradation (notice → drain → checkpoint → resume) ———

    /// A fleet-scale config over the modeled workload: paper-sized index
    /// (~105 s init), modeled ~12-minute jobs dominated by the align stage, so
    /// a 2-minute notice usually lands mid-align and has progress to save.
    fn modeled_cfg(interruptions_per_hour: f64, recovery: bool) -> CampaignConfig {
        let t = InstanceType::by_name("r6a.xlarge").unwrap();
        let mut c = CampaignConfig::new(t, 30_000_000_000);
        c.scaling = ScalingPolicy { min_size: 0, max_size: 8, target_backlog_per_instance: 4 };
        c.spot_market = SpotMarket { price_factor: 0.35, interruptions_per_hour, seed: 9 };
        if recovery {
            c.recovery = Some(RecoveryConfig::default());
        }
        c
    }

    #[test]
    fn recovery_is_pure_opt_in_without_reclaims() {
        // Zero interruption pressure: with no reclaims there are no notices, so
        // the recovery layer must be invisible — not one extra fault roll or
        // digest-relevant quantity.
        let w = ModeledWorkload::default().into_workload();
        let ids = ModeledWorkload::accessions(12);
        let off = Orchestrator::with_workload(Arc::clone(&w), modeled_cfg(0.0, false))
            .unwrap()
            .run(&ids)
            .unwrap();
        let on = Orchestrator::with_workload(w, modeled_cfg(0.0, true))
            .unwrap()
            .run(&ids)
            .unwrap();
        assert_eq!(
            on.summary_digest(),
            off.summary_digest(),
            "recovery with no reclaims must be invisible"
        );
        assert_eq!(on.salvaged_compute_secs, 0.0);
        assert_eq!(off.salvaged_compute_secs, 0.0);
    }

    #[test]
    fn spot_drains_checkpoint_and_salvage_compute() {
        let w = ModeledWorkload::default().into_workload();
        let ids = ModeledWorkload::accessions(40);
        let cfg = modeled_cfg(12.0, true);
        let report =
            Orchestrator::with_workload(Arc::clone(&w), cfg.clone()).unwrap().run(&ids).unwrap();
        assert_eq!(report.completed.len(), 40, "dead-lettered: {:?}", report.dead_lettered);
        assert!(report.interruptions > 0, "premise: reclaims actually struck");
        assert!(report.salvaged_compute_secs > 0.0, "drained progress was salvaged");
        let again = Orchestrator::with_workload(w, cfg).unwrap().run(&ids).unwrap();
        assert_eq!(report.summary_digest(), again.summary_digest(), "recovery replays exactly");
    }

    #[test]
    fn recovery_reduces_wasted_compute_under_spot_pressure() {
        let w = ModeledWorkload::default().into_workload();
        let ids = ModeledWorkload::accessions(40);
        let mut off_cfg = modeled_cfg(12.0, false);
        off_cfg.slo = Some(telemetry::SloConfig::default());
        let mut on_cfg = modeled_cfg(12.0, true);
        on_cfg.slo = Some(telemetry::SloConfig::default());
        let off = Orchestrator::with_workload(Arc::clone(&w), off_cfg).unwrap().run(&ids).unwrap();
        let on = Orchestrator::with_workload(w, on_cfg).unwrap().run(&ids).unwrap();
        assert!(off.interruptions > 0 && on.interruptions > 0, "premise: reclaims struck");
        assert!(on.salvaged_compute_secs > 0.0);
        // Interrupted-attempt time surfaces as idle gap (the accession waits
        // for redelivery and the redo starts from zero); retry waste covers the
        // explicitly burned slices. Recovery trades some of both for salvage.
        let burned = |r: &CampaignReport| {
            let t = &r.slo.as_ref().unwrap().totals;
            t.retry_waste_secs + t.idle_gap_secs
        };
        assert!(
            burned(&on) < burned(&off),
            "checkpoint/resume must cut waste: on {} vs off {}",
            burned(&on),
            burned(&off)
        );
    }
}
