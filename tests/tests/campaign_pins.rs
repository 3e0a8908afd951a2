//! Absolute pins for the campaign state machine.
//!
//! Every other campaign test compares a run with its own replay, so a change
//! that reorders one float sum (or one fault roll, or one recorder call) on
//! *both* sides passes them all. These rows are literals captured once from
//! five fixed `ModeledWorkload` campaigns that between them walk every event
//! handler and every `slo` / `recovery` branch; a refactor of `atlas::campaign`
//! that claims "behaviour unchanged" must leave all five byte-identical.
//!
//! A row is `(summary_digest, sim_events, FNV-1a of the stripped event log,
//! FNV-1a of the OpenMetrics exposition)`. On an intended behaviour change,
//! re-capture with `cargo test --test campaign_pins -- --nocapture` (each case
//! prints its current row) and say why in the commit.

use atlas_integration_tests::stripped_event_log;
use atlas_pipeline::orchestrator::{CampaignConfig, Orchestrator};
use atlas_pipeline::{ModeledWorkload, RecoveryConfig};
use cloudsim::faults::{FaultPlan, SpotBurst};
use cloudsim::instance::InstanceType;
use cloudsim::{ScalingPolicy, SimDuration, SpotMarket};
use telemetry::{MonitorConfig, SloConfig};

type Pin = (u64, u64, u64, u64);

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn base_config(max_fleet: u32, interruptions_per_hour: f64) -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling =
        ScalingPolicy { min_size: 0, max_size: max_fleet, target_backlog_per_instance: 8 };
    cfg.scale_tick = SimDuration::from_secs(10.0);
    cfg.poll_interval = SimDuration::from_secs(5.0);
    cfg.spot_market = SpotMarket { price_factor: 0.35, interruptions_per_hour, seed: 5 };
    cfg
}

fn pin_of(cfg: CampaignConfig, n: usize) -> Pin {
    let ids = ModeledWorkload::accessions(n);
    let report = Orchestrator::with_workload(ModeledWorkload::default().into_workload(), cfg)
        .unwrap()
        .run(&ids)
        .unwrap();
    assert_eq!(report.completed.len() + report.dead_lettered.len(), n, "conservation");
    let telemetry = report.telemetry.as_ref().expect("pins run with telemetry on");
    (
        report.summary_digest(),
        report.sim_events,
        fnv1a(&stripped_event_log(&report).unwrap()),
        fnv1a(&telemetry.openmetrics_text),
    )
}

fn check(name: &str, got: Pin, want: Pin) {
    println!("{name}: (0x{:016x}, {}, 0x{:016x}, 0x{:016x})", got.0, got.1, got.2, got.3);
    assert_eq!(got, want, "{name}: campaign behaviour moved (digest, events, log, openmetrics)");
}

#[test]
fn fault_free_spot_fleet() {
    let cfg = base_config(128, 2.0);
    check(
        "fault_free_spot_fleet",
        pin_of(cfg, 2000),
        (0xa4d1e29c119f54f6, 12997, 0x626ee1d6c7a27b9b, 0xa60924f8a697326d),
    );
}

#[test]
fn chaos_plan_with_dead_letter_queue() {
    let mut cfg = base_config(64, 2.0);
    cfg.scaling.target_backlog_per_instance = 2;
    cfg.faults = Some(FaultPlan::chaos(11));
    cfg.max_receive_count = Some(6);
    check(
        "chaos_plan_with_dead_letter_queue",
        pin_of(cfg, 400),
        (0x9c5910f3ee631167, 15209, 0x3cc1b3d49e2cde36, 0x62fd1db2b234cd6e),
    );
}

#[test]
fn recovery_under_reclaims_and_a_burst() {
    // Paper-sized index and the default 60 s / 20 s cadence: ~12-minute jobs, so
    // notices land mid-align and the drain/checkpoint/resume arms all run. The
    // chaos plan adds failed checkpoint writes, crashes and dead letters on top;
    // the SLO engine makes the per-accession waste/salvage accounts observable.
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 30_000_000_000);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 8, target_backlog_per_instance: 4 };
    cfg.spot_market = SpotMarket { price_factor: 0.35, interruptions_per_hour: 12.0, seed: 9 };
    let mut plan = FaultPlan::chaos(42);
    plan.spot_bursts =
        vec![SpotBurst { start_secs: 300.0, duration_secs: 2400.0, rate_per_hour: 18.0 }];
    cfg.faults = Some(plan);
    cfg.max_receive_count = Some(8);
    cfg.recovery = Some(RecoveryConfig::default());
    cfg.slo = Some(SloConfig::default());
    check(
        "recovery_under_reclaims_and_a_burst",
        pin_of(cfg, 80),
        (0x1efc4a17b4da9929, 3593, 0xe2cc0331ceabcf79, 0x41bf5a929ec7bd52),
    );
}

#[test]
fn every_upload_fails_so_everything_dead_letters() {
    let mut cfg = base_config(8, 0.0);
    // Most manifest GETs fail too, so some launches die in init and are replaced.
    cfg.faults =
        Some(FaultPlan { seed: 2, s3_put_fail: 1.0, s3_get_fail: 0.9, ..FaultPlan::default() });
    cfg.max_receive_count = Some(3);
    check(
        "every_upload_fails_so_everything_dead_letters",
        pin_of(cfg, 40),
        (0xf010969ad5927e97, 2480, 0x58a0a8891f5012d7, 0x8616ca3d0d9cc000),
    );
}

#[test]
fn observed_campaign_with_monitor_and_slos() {
    let mut cfg = base_config(32, 2.0);
    cfg.monitor = Some(MonitorConfig::standard());
    cfg.slo = Some(SloConfig::default());
    check(
        "observed_campaign_with_monitor_and_slos",
        pin_of(cfg, 500),
        (0x585d585a49c471f0, 5495, 0xfa9545c494e7c587, 0xc6c3561bcaf89f68),
    );
}
