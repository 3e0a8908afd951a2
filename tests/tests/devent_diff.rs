//! Replay verification of the discrete-event kernel engine.
//!
//! The legacy per-tick scan loop the kernel soaked against has been deleted;
//! what remains load-bearing is that the kernel is a pure function of config +
//! workload. These tests prove a replay is *byte-for-byte* identical —
//! identical summary digests, completion orders, dead letters, fault tallies,
//! makespans, costs, dispatched event counts and stripped telemetry logs —
//! across:
//!
//! * a fault-free real-pipeline campaign;
//! * chaos-seeded real-pipeline campaigns (transient faults + spot bursts);
//! * a fleet-scale modeled campaign far beyond what the old tick loop's test
//!   budget allowed.
//!
//! They also pin the chaos-suite guarantees (conservation, bit-exact replay)
//! and the monitor pure-observer proof to the kernel path explicitly.

use atlas_integration_tests::{run_differential, stripped_event_log};
use atlas_pipeline::experiments::Substrate;
use atlas_pipeline::orchestrator::{CampaignConfig, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use atlas_pipeline::ModeledWorkload;
use cloudsim::faults::{FaultPlan, SpotBurst};
use cloudsim::instance::InstanceType;
use cloudsim::ScalingPolicy;
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use std::sync::Arc;
use telemetry::MonitorConfig;

fn pipeline_fixture(n: usize) -> (Arc<AtlasPipeline>, Vec<String>) {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let catalog = CatalogParams {
        n_accessions: n,
        single_cell_fraction: 0.2,
        bulk_spots_median: 400,
        ..CatalogParams::default()
    }
    .generate()
    .unwrap();
    let repo = Arc::new(
        SraRepository::new(Arc::clone(&sub.asm_111), Arc::clone(&sub.annotation), catalog)
            .with_spot_cap(600),
    );
    let mut pc = PipelineConfig::default();
    pc.run_config.threads = 2;
    // Modeled per-read align cost keeps campaign clocks bit-reproducible.
    pc.align_secs_per_read = Some(2.0e-4);
    let pipeline = Arc::new(
        AtlasPipeline::new(repo, Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc).unwrap(),
    );
    let ids = pipeline.repository().ids();
    (pipeline, ids)
}

fn small_fleet_config() -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 4 };
    cfg.scale_tick = cloudsim::SimDuration::from_secs(10.0);
    cfg.poll_interval = cloudsim::SimDuration::from_secs(5.0);
    cfg
}

fn chaos_config(plan: FaultPlan) -> CampaignConfig {
    let mut cfg = small_fleet_config();
    cfg.spot_market =
        cloudsim::SpotMarket { price_factor: 0.35, interruptions_per_hour: 40.0, seed: 5 };
    cfg.faults = Some(plan);
    cfg.max_receive_count = Some(6);
    cfg
}

#[test]
fn fault_free_campaign_replays_byte_for_byte() {
    let (pipeline, ids) = pipeline_fixture(8);
    let cmp = run_differential(pipeline, &small_fleet_config(), &ids).unwrap();
    cmp.assert_equivalent().unwrap_or_else(|d| panic!("replay diverged: {d}"));
    assert_eq!(cmp.first.completed.len(), ids.len());
    assert!(cmp.first.sim_events > 0, "the kernel must actually dispatch events");
}

#[test]
fn chaos_campaign_replays_byte_for_byte() {
    let (pipeline, ids) = pipeline_fixture(10);
    // The hostile end of the fault spectrum: transient faults on every service
    // plus a violent spot burst — the regime where scheduling-order bugs show.
    let mut plan = FaultPlan::chaos(42);
    plan.spot_bursts =
        vec![SpotBurst { start_secs: 200.0, duration_secs: 600.0, rate_per_hour: 30.0 }];
    let cmp = run_differential(pipeline, &chaos_config(plan), &ids).unwrap();
    cmp.assert_equivalent().unwrap_or_else(|d| panic!("replay diverged under chaos: {d}"));
    assert!(cmp.first.fault_counters.total_faults() > 0, "premise: chaos actually struck");

    // The determinism must hold per seed, not on average: a second seed takes
    // a different trajectory and its replay must follow it in lockstep.
    let (pipeline, ids) = pipeline_fixture(10);
    let cmp2 = run_differential(pipeline, &chaos_config(FaultPlan::chaos(7)), &ids).unwrap();
    cmp2.assert_equivalent().unwrap_or_else(|d| panic!("replay diverged on seed 7: {d}"));
    assert_ne!(
        cmp.first.summary_digest(),
        cmp2.first.summary_digest(),
        "different fault seeds must steer the campaign differently"
    );
}

#[test]
fn fleet_scale_modeled_campaign_replays_byte_for_byte() {
    // 400 accessions over a 32-instance ceiling — an order of magnitude past the
    // real-pipeline fixtures, cheap because the workload is modeled (the bench
    // covers 10k+).
    let n = 400;
    let ids = ModeledWorkload::accessions(n);
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 32, target_backlog_per_instance: 8 };
    cfg.spot_market =
        cloudsim::SpotMarket { price_factor: 0.35, interruptions_per_hour: 8.0, seed: 11 };
    cfg.faults = Some(FaultPlan::chaos(21));
    cfg.max_receive_count = Some(6);

    let cmp = run_differential(ModeledWorkload::default().into_workload(), &cfg, &ids).unwrap();
    cmp.assert_equivalent().unwrap_or_else(|d| panic!("replay diverged at fleet scale: {d}"));

    // Conservation at scale, on the kernel report.
    assert_eq!(
        cmp.first.completed.len() + cmp.first.dead_lettered.len(),
        n,
        "every accession resolves exactly once"
    );
    assert!(cmp.first.instances_launched >= 32, "the fleet must actually scale out");
}

#[test]
fn kernel_engine_replays_bit_for_bit_and_conserves_under_chaos() {
    // The chaos-suite guarantees, pinned to the kernel path explicitly.
    let n = 120;
    let ids = ModeledWorkload::accessions(n);
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 12, target_backlog_per_instance: 6 };
    cfg.spot_market =
        cloudsim::SpotMarket { price_factor: 0.35, interruptions_per_hour: 30.0, seed: 5 };
    cfg.faults = Some(FaultPlan::chaos(9));
    cfg.max_receive_count = Some(5);

    let run = |cfg: &CampaignConfig| {
        Orchestrator::with_workload(ModeledWorkload::default().into_workload(), cfg.clone())
            .unwrap()
            .run(&ids)
            .unwrap()
    };
    let a1 = run(&cfg);
    let a2 = run(&cfg);
    assert_eq!(a1.summary_digest(), a2.summary_digest(), "same seed must replay identically");
    assert_eq!(a1.sim_events, a2.sim_events);
    assert_eq!(
        stripped_event_log(&a1),
        stripped_event_log(&a2),
        "replayed event logs must match byte for byte"
    );

    // Conservation: every accession resolved exactly once, no inventions.
    let mut resolved: Vec<&str> = a1
        .completed
        .iter()
        .map(|r| r.accession.as_str())
        .chain(a1.dead_lettered.iter().map(|s| s.as_str()))
        .collect();
    resolved.sort_unstable();
    let mut expect: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    expect.sort_unstable();
    assert_eq!(resolved, expect);
    assert!(a1.fault_counters.total_faults() > 0, "premise: chaos actually struck");
}

#[test]
fn monitor_is_a_pure_observer_on_the_kernel_engine() {
    // Port of the telemetry_export proof to the kernel path: attaching the live
    // monitor must not perturb the simulation, only add monitor-gated records.
    let (pipeline, ids) = pipeline_fixture(8);
    let mut cfg = small_fleet_config();
    let off = Orchestrator::new(Arc::clone(&pipeline), cfg.clone()).unwrap().run(&ids).unwrap();
    cfg.monitor = Some(MonitorConfig::standard());
    let on = Orchestrator::new(pipeline, cfg).unwrap().run(&ids).unwrap();

    assert_eq!(on.summary_digest(), off.summary_digest(), "watching must not change the campaign");
    assert_eq!(on.sim_events, off.sim_events, "the monitor must not schedule events");
    let off_log = &off.telemetry.as_ref().unwrap().event_log;
    assert!(!off_log.contains("\"kind\":\"progress\""), "progress events are monitor-gated");
    let on_log = &on.telemetry.as_ref().unwrap().event_log;
    assert!(on_log.contains("\"kind\":\"progress\""), "monitor-on campaigns stream progress");
    assert_eq!(
        stripped_event_log(&on).unwrap(),
        off_log.lines().collect::<Vec<_>>().join("\n"),
        "monitor-on log is the off log plus monitor records"
    );
}
