//! Recovery-overhead bench: what does *arming* graceful spot degradation cost a
//! campaign that never needs it?
//!
//! Two variants of the same fault-free fixed-seed campaign, timed in one
//! process with the interleaved min-of-rounds estimator (same rationale as
//! bench_cloud_campaign — see its module doc):
//!
//! * `spot_recovery_off` — recovery disabled;
//! * `spot_recovery_on` — recovery armed: the campaign schedules a notice per
//!   reclaim, runs checkpoint-store GC at scale ticks, and consults the store
//!   on every job start. With zero reclaims none of it ever fires, so the
//!   measured delta is pure bookkeeping overhead.
//!
//! The ci.sh gate holds that delta within 2% (`bench_compare --overhead
//! benchmarks/baseline BENCH_spot_recovery_off.json BENCH_spot_recovery_on.json`).
//! Capture baselines on an idle box the same way as the campaign bench:
//!
//! ```text
//! BENCH_ITERS=10 BENCH_BEST_OF=10 BENCH_KEEP_MIN=1 BENCH_JSON_DIR=benchmarks/baseline \
//!     cargo bench -p atlas-bench --bench bench_spot_recovery
//! ```

use atlas_bench::{ensembl_params, Scale};
use atlas_pipeline::experiments::Substrate;
use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use atlas_pipeline::RecoveryConfig;
use cloudsim::instance::InstanceType;
use cloudsim::ScalingPolicy;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use std::sync::Arc;

const SIZES: [usize; 1] = [120];

fn pipeline_fixture(sub: &Substrate, n_accessions: usize) -> (Arc<AtlasPipeline>, Vec<String>) {
    let catalog = CatalogParams {
        n_accessions,
        bulk_spots_median: 400,
        single_cell_fraction: 0.1,
        ..CatalogParams::default()
    }
    .generate()
    .expect("catalog");
    let repo = Arc::new(
        SraRepository::new(Arc::clone(&sub.asm_111), Arc::clone(&sub.annotation), catalog)
            .with_spot_cap(500),
    );
    let mut pc = PipelineConfig::default();
    pc.run_config.threads = 2;
    pc.run_config.batch_size = 200;
    let p = Arc::new(
        AtlasPipeline::new(repo, Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc)
            .expect("pipeline"),
    );
    let ids = p.repository().ids();
    (p, ids)
}

fn config(recovery: bool) -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").expect("catalog type");
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 4 };
    // Fault-free on purpose: zero interruptions means the recovery machinery is
    // armed but never fires, which is exactly the overhead the gate prices.
    if recovery {
        cfg.recovery = Some(RecoveryConfig::default());
    }
    cfg
}

fn run_campaign(
    pipeline: &Arc<AtlasPipeline>,
    ids: &[String],
    cfg: CampaignConfig,
) -> CampaignReport {
    let orch = Orchestrator::new(Arc::clone(pipeline), cfg).expect("orchestrator");
    let report = orch.run(ids).expect("campaign");
    assert_eq!(report.completed.len(), ids.len());
    report
}

/// Interleaved min-of-rounds timing of the off/on pair — see
/// bench_cloud_campaign's `measure_interleaved` for why adjacency matters.
fn measure_interleaved(fixtures: &[(usize, Arc<AtlasPipeline>, Vec<String>)]) -> Vec<Vec<f64>> {
    let env_num = |k: &str, default: u64| {
        std::env::var(k).ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(default).max(1)
    };
    let iters = env_num("BENCH_ITERS", 10);
    let rounds = env_num("BENCH_BEST_OF", 2);
    let variants = [false, true];

    for (_, pipeline, ids) in fixtures {
        for &on in &variants {
            let report = run_campaign(pipeline, ids, config(on));
            // Arming recovery on a fault-free campaign must not change the
            // outcome — asserted outside the timed loops.
            assert_eq!(report.salvaged_compute_secs, 0.0);
            std::hint::black_box(report.cost.total_usd);
        }
    }

    let mut best = vec![vec![f64::INFINITY; fixtures.len()]; variants.len()];
    for _ in 0..rounds {
        for (fi, (_, pipeline, ids)) in fixtures.iter().enumerate() {
            for (vi, &on) in variants.iter().enumerate() {
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    let report = run_campaign(pipeline, ids, config(on));
                    std::hint::black_box(report.cost.total_usd);
                }
                let mean = start.elapsed().as_secs_f64() / iters as f64;
                best[vi][fi] = best[vi][fi].min(mean);
            }
        }
    }
    best
}

fn bench_spot_recovery(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let fixtures: Vec<(usize, Arc<AtlasPipeline>, Vec<String>)> = SIZES
        .iter()
        .map(|&n| {
            let (pipeline, ids) = pipeline_fixture(&sub, n);
            (n, pipeline, ids)
        })
        .collect();

    // Digest equality off vs on: recovery is pure opt-in on fault-free
    // campaigns (checked here once, outside the timed loops, with the modeled
    // deterministic clock left alone — the unit suite covers digests; this
    // asserts the cheap observable surface).
    for (_, pipeline, ids) in &fixtures {
        let off = run_campaign(pipeline, ids, config(false));
        let on = run_campaign(pipeline, ids, config(true));
        assert_eq!(off.completed.len(), on.completed.len());
        assert_eq!(on.salvaged_compute_secs, 0.0);
        assert_eq!(off.interruptions, on.interruptions);
    }

    let timings = measure_interleaved(&fixtures);

    for (vi, name) in ["spot_recovery_off", "spot_recovery_on"].iter().enumerate() {
        let mut group = c.benchmark_group(*name);
        group.sample_size(10);
        for (fi, (n, _, _)) in fixtures.iter().enumerate() {
            group.throughput(Throughput::Elements(*n as u64));
            let mean = timings[vi][fi];
            group.bench_with_input(BenchmarkId::from_parameter(n), &mean, |b, &mean| {
                b.iter_custom(|iters| std::time::Duration::from_secs_f64(mean * iters as f64));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_spot_recovery);
criterion_main!(benches);
