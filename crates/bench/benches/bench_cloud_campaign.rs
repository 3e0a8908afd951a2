//! E4/E5 bench — the discrete-event campaign itself: how fast the simulator chews
//! through an accession workload (events, not aligned reads, are the scaling unit of
//! the orchestration layer), plus the two observer variants whose cost the
//! overhead gates price:
//!
//! * `cloud_campaign` — telemetry on, nobody watching (the base);
//! * `cloud_campaign_monitor` — live alert monitor attached (standard rule set,
//!   streamed progress events) and the Perfetto/OpenMetrics exports rendered;
//! * `cloud_campaign_slo` — the SLO engine live: standard objectives with
//!   burn-rate evaluation, quantile sketches fed per completion, budget gauges,
//!   and the attribution ledger settled into the report.
//!
//! All three run in *one process*, interleaved round-robin with a per-cell
//! min-of-rounds estimator (see [`measure_interleaved`]), precisely so the
//! `bench_compare --overhead` gates compare like with like: across separate
//! processes — or even sequential groups minutes apart in one process —
//! allocator/cache warmup and machine-load drift swamp the few-percent effect
//! being measured. Capture baselines by running this 2-3 times on an idle box
//! (`BENCH_KEEP_MIN` merges passes by keeping each cell's fastest run):
//!
//! ```text
//! BENCH_ITERS=10 BENCH_BEST_OF=10 BENCH_KEEP_MIN=1 BENCH_JSON_DIR=benchmarks/baseline \
//!     cargo bench -p atlas-bench --bench bench_cloud_campaign
//! ```

use atlas_bench::{ensembl_params, Scale};
use atlas_pipeline::experiments::Substrate;
use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use cloudsim::instance::InstanceType;
use cloudsim::ScalingPolicy;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use std::sync::Arc;
use telemetry::{MonitorConfig, SloConfig, SloRegistry};

// One workload size, deliberately the large one: the overhead gates compare
// these cells against each other at 2% tolerance, and a 30-accession campaign
// (~40ms) is too short for even an interleaved min-of-rounds estimator to
// resolve a 2% difference above scheduler noise. Campaign *scaling* is covered
// by atlas-e2e's fleet_300k / fleet_chaos_100k workloads; this bench prices observers.
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

fn base_config() -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").expect("catalog type");
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 4 };
    cfg
}

fn monitor_config() -> CampaignConfig {
    let mut cfg = base_config();
    cfg.monitor = Some(MonitorConfig::standard());
    cfg
}

fn slo_config() -> CampaignConfig {
    let mut cfg = base_config();
    // Tight enough that every objective is actively scored and the burn
    // evaluator does real window arithmetic each sample.
    cfg.slo = Some(SloConfig {
        registry: SloRegistry::standard(4.0 * 3600.0, 3600.0, 0.25),
        ..SloConfig::default()
    });
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

/// Sanity checks per variant: the observed runs must actually have observed.
fn check_report(variant: usize, ids: &[String], report: &CampaignReport) {
    match variant {
        1 => {
            let t = report.telemetry.as_ref().expect("telemetry on");
            // The rendered exports are part of what the overhead gate prices in.
            std::hint::black_box((t.perfetto_json.len(), t.openmetrics_text.len()));
        }
        2 => {
            let slo = report.slo.as_ref().expect("slo on");
            assert_eq!(slo.ledger.len(), ids.len());
            let t = report.telemetry.as_ref().expect("telemetry on");
            std::hint::black_box((t.perfetto_json.len(), t.openmetrics_text.len()));
        }
        _ => {
            std::hint::black_box(report.cost.total_usd);
        }
    }
}

/// Interleaved min-of-rounds measurement of every `(variant, size)` cell.
///
/// The three variants are timed round-robin — every round runs each cell for a
/// short burst, and a cell keeps its fastest round. Machine-load transients on a
/// shared box last seconds-to-minutes; measuring the variants *adjacently inside
/// each round* means a transient inflates at most the rounds it overlaps, and the
/// per-cell minimum over rounds discards those. Measuring group-by-group instead
/// (minutes apart) lets one transient skew a whole group, which swamps the
/// few-percent overhead the gates compare.
///
/// `BENCH_ITERS` sets the burst length (iterations per cell per round) and
/// `BENCH_BEST_OF` the number of rounds, mirroring what those knobs mean for the
/// shim's default estimator.
fn measure_interleaved(fixtures: &[(usize, Arc<AtlasPipeline>, Vec<String>)]) -> Vec<Vec<f64>> {
    let env_num = |k: &str, default: u64| {
        std::env::var(k).ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(default).max(1)
    };
    let iters = env_num("BENCH_ITERS", 10);
    let rounds = env_num("BENCH_BEST_OF", 2);
    let variants = [base_config, monitor_config, slo_config];

    // Unmeasured warmup: fault in the allocator/page-cache state every variant
    // will run under, so round one starts from steady state.
    for (_, pipeline, ids) in fixtures {
        for mk in variants {
            std::hint::black_box(run_campaign(pipeline, ids, mk()).cost.total_usd);
        }
    }

    let mut best = vec![vec![f64::INFINITY; fixtures.len()]; variants.len()];
    for _ in 0..rounds {
        for (fi, (_, pipeline, ids)) in fixtures.iter().enumerate() {
            for (vi, mk) in variants.iter().enumerate() {
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    let report = run_campaign(pipeline, ids, mk());
                    check_report(vi, ids, &report);
                }
                let mean = start.elapsed().as_secs_f64() / iters as f64;
                best[vi][fi] = best[vi][fi].min(mean);
            }
        }
    }
    best
}

fn bench_campaign(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let fixtures: Vec<(usize, Arc<AtlasPipeline>, Vec<String>)> = SIZES
        .iter()
        .map(|&n| {
            let (pipeline, ids) = pipeline_fixture(&sub, n);
            (n, pipeline, ids)
        })
        .collect();

    let timings = measure_interleaved(&fixtures);

    // Report the interleaved measurements through the normal group machinery
    // (console lines + BENCH_*.json files) via `iter_custom`.
    for (vi, name) in
        ["cloud_campaign", "cloud_campaign_monitor", "cloud_campaign_slo"].iter().enumerate()
    {
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

    // One representative run per workload size, summarized next to the shim's
    // BENCH_cloud_campaign.json (no-op without BENCH_JSON_DIR).
    if std::env::var("BENCH_JSON_DIR").is_ok_and(|d| !d.is_empty()) {
        let reports: Vec<(String, _)> = fixtures
            .iter()
            .map(|(n, pipeline, ids)| (n.to_string(), run_campaign(pipeline, ids, base_config())))
            .collect();
        let refs: Vec<_> = reports.iter().map(|(n, r)| (n.as_str(), r)).collect();
        atlas_bench::write_bench_telemetry("cloud_campaign", &refs);
    }
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
