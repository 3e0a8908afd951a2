//! Fleet-scale campaign bench — the payoff of the discrete-event kernel.
//!
//! The deleted legacy loop walked every instance and message on every poll
//! tick, so campaign cost grew with `ticks × fleet` regardless of how much
//! actually happened. The kernel dispatches only scheduled events, which is
//! what makes a 10k-accession / 1250-instance-ceiling campaign (two orders of
//! magnitude past the old fixtures) a seconds-scale bench. A 1k-accession /
//! 128-ceiling cell tracks the mid-scale regime; the replay suite
//! (devent_diff.rs) proves reports are byte-identical run to run, so any
//! timing change here is pure bookkeeping cost.
//!
//! The workload is modeled (`ModeledWorkload`): per-accession results are a pure
//! function of `(seed, accession)`, so every iteration replays the exact same
//! event schedule with zero pipeline cost — the bench measures the simulator,
//! not STAR.

use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::ModeledWorkload;
use cloudsim::instance::InstanceType;
use cloudsim::ScalingPolicy;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn fleet_config(max_fleet: u32) -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").expect("catalog type");
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling =
        ScalingPolicy { min_size: 0, max_size: max_fleet, target_backlog_per_instance: 8 };
    cfg.scale_tick = cloudsim::SimDuration::from_secs(10.0);
    cfg.poll_interval = cloudsim::SimDuration::from_secs(5.0);
    // Light spot pressure keeps the interruption/redelivery machinery on the
    // hot path; at 10k-job scale a handful of unlucky accessions exhaust their
    // redelivery allowance and dead-letter — the DLQ path is part of the load.
    cfg.spot_market =
        cloudsim::SpotMarket { price_factor: 0.35, interruptions_per_hour: 2.0, seed: 11 };
    cfg.max_receive_count = Some(6);
    // Measure the simulator, not the span recorder.
    cfg.telemetry = false;
    cfg
}

fn run_campaign(cfg: &CampaignConfig, ids: &[String]) -> CampaignReport {
    Orchestrator::with_workload(ModeledWorkload::default().into_workload(), cfg.clone())
        .expect("orchestrator")
        .run(ids)
        .expect("campaign")
}

fn bench_fleet(c: &mut Criterion) {
    // Headline scale: 10k accessions, fleet ceiling 1250 (backlog/8 ⇒ the ASG
    // actually drives it past 1000 instances at peak).
    let n_large = 10_000usize;
    let large_ids = ModeledWorkload::accessions(n_large);
    let large_cfg = fleet_config(1250);

    // Premise check once, outside the timed loop: the campaign really is
    // fleet-scale and loses nothing.
    let report = run_campaign(&large_cfg, &large_ids);
    assert_eq!(
        report.completed.len() + report.dead_lettered.len(),
        n_large,
        "every accession must resolve exactly once"
    );
    assert!(report.completed.len() >= n_large - n_large / 100, "≥99% must complete");
    let peak = report.fleet_timeline.iter().map(|s| s.active_instances).max().unwrap_or(0);
    assert!(peak >= 1000, "peak fleet {peak} must reach four digits");
    assert!(report.sim_events > 0);

    let mut group = c.benchmark_group("fleet_campaign");
    group.sample_size(10);

    group.throughput(Throughput::Elements(n_large as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter("kernel_10k_x1250"),
        &large_cfg,
        |b, cfg| {
            b.iter(|| {
                let r = run_campaign(cfg, &large_ids);
                assert_eq!(r.completed.len() + r.dead_lettered.len(), n_large);
                r.summary_digest()
            });
        },
    );

    // Mid-scale cell: 1k accessions, 128-instance ceiling — the size the old
    // legacy loop topped out at, kept for continuity with earlier baselines.
    let n_small = 1_000usize;
    let small_ids = ModeledWorkload::accessions(n_small);
    group.throughput(Throughput::Elements(n_small as u64));
    let cfg = fleet_config(128);
    group.bench_with_input(BenchmarkId::from_parameter("kernel_1k_x128"), &cfg, |b, cfg| {
        b.iter(|| {
            let r = run_campaign(cfg, &small_ids);
            assert_eq!(r.completed.len() + r.dead_lettered.len(), n_small);
            r.summary_digest()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
