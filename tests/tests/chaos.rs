//! Chaos campaigns: deterministic fault injection against the full orchestrator.
//!
//! Two end-to-end guarantees beyond what the unit suites check:
//!
//! * **conservation + correctness** — under a hostile fault plan every accession
//!   either completes or dead-letters, and the results of commonly-completed
//!   accessions are bit-identical to a fault-free run (faults perturb *when* and
//!   *how often* work happens, never *what* it computes);
//! * **replay** — the same `(workload, FaultPlan)` pair reproduces the campaign
//!   byte for byte, and a different fault seed produces a different trajectory.

use atlas_pipeline::experiments::Substrate;
use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use cloudsim::faults::{FaultPlan, SpotBurst};
use cloudsim::instance::InstanceType;
use cloudsim::ScalingPolicy;
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use std::sync::Arc;

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
    // Replace measured wall time with a modeled per-read cost so campaign clocks
    // (and hence digests) are bit-reproducible across runs.
    pc.align_secs_per_read = Some(2.0e-4);
    let pipeline = Arc::new(
        AtlasPipeline::new(repo, Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc).unwrap(),
    );
    let ids = pipeline.repository().ids();
    (pipeline, ids)
}

fn chaos_config(plan: FaultPlan) -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 4 };
    // A live baseline interruption rate on top of whatever the plan bursts.
    cfg.spot_market =
        cloudsim::SpotMarket { price_factor: 0.35, interruptions_per_hour: 40.0, seed: 5 };
    cfg.scale_tick = cloudsim::SimDuration::from_secs(10.0);
    cfg.poll_interval = cloudsim::SimDuration::from_secs(5.0);
    cfg.faults = Some(plan);
    cfg.max_receive_count = Some(6);
    cfg
}

fn run_chaos(pipeline: &Arc<AtlasPipeline>, ids: &[String], plan: FaultPlan) -> CampaignReport {
    let orch = Orchestrator::new(Arc::clone(pipeline), chaos_config(plan)).unwrap();
    orch.run(ids).unwrap()
}

#[test]
fn chaos_campaign_conserves_accessions_and_matches_fault_free_results() {
    let (pipeline, ids) = pipeline_fixture(12);

    // Fault-free baseline.
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut base_cfg = CampaignConfig::new(t, 1 << 20);
    base_cfg.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 4 };
    let baseline =
        Orchestrator::new(Arc::clone(&pipeline), base_cfg).unwrap().run(&ids).unwrap();
    assert_eq!(baseline.completed.len(), ids.len());

    // Chaos: transient faults on every service plus a spot burst mid-campaign.
    let mut plan = FaultPlan::chaos(42);
    plan.spot_bursts = vec![SpotBurst { start_secs: 200.0, duration_secs: 600.0, rate_per_hour: 30.0 }];
    let chaos = run_chaos(&pipeline, &ids, plan);

    // Conservation: every accession resolved, exactly once, with no inventions.
    assert_eq!(
        chaos.completed.len() + chaos.dead_lettered.len(),
        ids.len(),
        "completed {} + dead-lettered {:?} must cover the workload",
        chaos.completed.len(),
        chaos.dead_lettered
    );
    let mut resolved: Vec<&str> = chaos
        .completed
        .iter()
        .map(|r| r.accession.as_str())
        .chain(chaos.dead_lettered.iter().map(|s| s.as_str()))
        .collect();
    resolved.sort_unstable();
    let mut expect: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    expect.sort_unstable();
    assert_eq!(resolved, expect);
    assert!(chaos.fault_counters.total_faults() > 0, "premise: chaos actually struck");

    // Correctness under duplication: accessions completed in both runs carry
    // identical pipeline results — faults never change what gets computed.
    let by_accession: std::collections::BTreeMap<&str, _> = baseline
        .completed
        .iter()
        .map(|r| (r.accession.as_str(), (r.mapping_rate, r.stage_secs.total(), r.early_stopped())))
        .collect();
    let mut compared = 0usize;
    for r in &chaos.completed {
        let (rate, secs, stopped) = by_accession[r.accession.as_str()];
        assert_eq!(r.mapping_rate.to_bits(), rate.to_bits(), "{}", r.accession);
        assert_eq!(r.stage_secs.total().to_bits(), secs.to_bits(), "{}", r.accession);
        assert_eq!(r.early_stopped(), stopped, "{}", r.accession);
        compared += 1;
    }
    assert!(compared > 0, "some accession must complete under chaos");
}

#[test]
fn chaos_campaigns_replay_bit_for_bit_and_diverge_across_seeds() {
    let (pipeline, ids) = pipeline_fixture(10);

    let a1 = run_chaos(&pipeline, &ids, FaultPlan::chaos(7));
    let a2 = run_chaos(&pipeline, &ids, FaultPlan::chaos(7));
    assert_eq!(a1.summary_digest(), a2.summary_digest(), "same seed must replay identically");
    assert_eq!(a1.fault_counters, a2.fault_counters);
    assert_eq!(a1.dead_lettered, a2.dead_lettered);
    assert_eq!(a1.makespan.as_secs().to_bits(), a2.makespan.as_secs().to_bits());
    assert_eq!(a1.cost.total_usd.to_bits(), a2.cost.total_usd.to_bits());

    let b = run_chaos(&pipeline, &ids, FaultPlan::chaos(8));
    assert_ne!(
        a1.summary_digest(),
        b.summary_digest(),
        "a different fault seed must steer the campaign differently"
    );
}

#[test]
fn chaos_replay_agrees_on_every_observable() {
    // The digest-level replay test above is necessary but coarse; the replay
    // harness in `tests/lib.rs` compares the full observable surface —
    // completion order, dead letters, fleet timelines, makespan and
    // cost bit patterns, stripped telemetry logs. Drive it from this suite's
    // hostile chaos config so the whole surface is pinned under faults, not
    // just on the tame devent_diff fixtures.
    let (pipeline, ids) = pipeline_fixture(10);
    let cfg = chaos_config(FaultPlan::chaos(7));
    let cmp = atlas_integration_tests::run_differential(pipeline, &cfg, &ids).unwrap();
    cmp.assert_equivalent().unwrap_or_else(|d| panic!("chaos replay diverged: {d}"));
    assert!(cmp.first.fault_counters.total_faults() > 0, "premise: chaos actually struck");
}

#[test]
fn spot_burst_alone_interrupts_but_loses_nothing() {
    let (pipeline, ids) = pipeline_fixture(10);
    // No transient faults at all — only a violent interruption burst early on.
    let plan = FaultPlan {
        seed: 3,
        spot_bursts: vec![SpotBurst { start_secs: 0.0, duration_secs: 400.0, rate_per_hour: 400.0 }],
        ..FaultPlan::default()
    };
    let report = run_chaos(&pipeline, &ids, plan);
    assert!(report.interruptions > 0, "premise: the burst must strike");
    assert_eq!(report.completed.len(), ids.len(), "interruptions redeliver, never lose work");
    assert!(report.dead_lettered.is_empty());
}
