//! Campaign-level integration: the discrete-event orchestrator must agree with a
//! plain sequential execution of the same pipeline, survive hostile spot markets,
//! price the release-111 configuration below the release-108 one, and bill an
//! on-demand fleet (a spot market at full price, never reclaimed) at the
//! on-demand rate.

use atlas_pipeline::experiments::Substrate;
use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use atlas_pipeline::{ModeledWorkload, RecoveryConfig};
use cloudsim::instance::InstanceType;
use cloudsim::{FaultPlan, ScalingPolicy, SpotMarket};
use deseq_norm::CountsMatrix;
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use star_aligner::quant::Strandedness;
use std::sync::Arc;

fn pipeline_fixture(
    n: usize,
    sc_fraction: f64,
    align_secs_per_read: Option<f64>,
) -> (Arc<AtlasPipeline>, Vec<String>) {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let catalog = CatalogParams {
        n_accessions: n,
        single_cell_fraction: sc_fraction,
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
    pc.align_secs_per_read = align_secs_per_read;
    let pipeline = Arc::new(
        AtlasPipeline::new(repo, Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc).unwrap(),
    );
    let ids = pipeline.repository().ids();
    (pipeline, ids)
}

fn campaign_config() -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 4 };
    cfg
}

#[test]
fn orchestrated_results_match_sequential_execution() {
    let (pipeline, ids) = pipeline_fixture(10, 0.2, None);
    // Sequential ground truth.
    let mut sequential: std::collections::BTreeMap<String, (bool, f64)> = Default::default();
    for id in &ids {
        let r = pipeline.run_accession(id).unwrap();
        sequential.insert(id.clone(), (r.early_stopped(), r.mapping_rate));
    }
    // Orchestrated.
    let orch = Orchestrator::new(Arc::clone(&pipeline), campaign_config()).unwrap();
    let report = orch.run(&ids).unwrap();
    assert_eq!(report.completed.len(), ids.len());
    for r in &report.completed {
        let (stopped, rate) = sequential[&r.accession];
        assert_eq!(r.early_stopped(), stopped, "{}", r.accession);
        assert!((r.mapping_rate - rate).abs() < 1e-9, "{}", r.accession);
    }
}

#[test]
fn normalized_counts_are_the_completions_counts_in_completion_order() {
    // A completion keeps no gene counts; the campaign holds them beside it. The
    // DESeq2 step must still see every counting run's table, in completion
    // order, as a direct run of the same accession produces it.
    let (pipeline, ids) = pipeline_fixture(10, 0.2, Some(2.0e-4));
    let report = Orchestrator::new(Arc::clone(&pipeline), campaign_config()).unwrap().run(&ids).unwrap();
    let direct: Vec<_> = report
        .completed
        .iter()
        .filter_map(|c| {
            let counts = pipeline.run_accession(&c.accession).unwrap().gene_counts?;
            Some((c.accession.clone(), counts))
        })
        .collect();
    assert!(
        direct.len() >= 2 && direct.len() < report.completed.len(),
        "premise: {} of {} completions counted (early stops count nothing)",
        direct.len(),
        report.completed.len()
    );
    let gene_ids = direct[0].1.gene_ids.clone();
    let samples = direct.iter().map(|(accession, _)| accession.clone()).collect();
    let mut matrix = CountsMatrix::zeros(gene_ids.clone(), samples);
    for (j, (_, counts)) in direct.iter().enumerate() {
        for (g, id) in gene_ids.iter().enumerate() {
            matrix.set(g, j, counts.count(id, Strandedness::Unstranded).unwrap());
        }
    }
    assert_eq!(report.normalized, Some(deseq_norm::normalize(&matrix).unwrap()));
}

#[test]
fn hostile_spot_market_still_completes_everything() {
    // Modeled align time: with measured wall time, whether an interruption lands
    // on a running job depends on how loaded the machine is.
    let (pipeline, ids) = pipeline_fixture(12, 0.0, Some(2.0e-4));
    let mut cfg = campaign_config();
    cfg.spot_market = SpotMarket { price_factor: 0.3, interruptions_per_hour: 600.0, seed: 5 };
    cfg.scale_tick = cloudsim::SimDuration::from_secs(10.0);
    cfg.poll_interval = cloudsim::SimDuration::from_secs(5.0);
    let orch = Orchestrator::new(pipeline, cfg).unwrap();
    let report = orch.run(&ids).unwrap();
    assert_eq!(report.completed.len(), 12);
    assert!(report.interruptions > 0, "market must actually interrupt");
    // Interruption recovery costs re-delivered work.
    assert!(report.redeliveries > 0, "lost jobs must be re-delivered");
}

#[test]
fn early_stopping_reduces_campaign_alignment_time() {
    // Modeled align time on both pipelines: measured sums of ~20-50 ms made the
    // comparison depend on how loaded the machine was.
    let (with_policy, ids) = pipeline_fixture(12, 0.25, Some(2.0e-4));
    // A second pipeline identical but without the policy.
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let catalog = CatalogParams {
        n_accessions: 12,
        single_cell_fraction: 0.25,
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
    pc.align_secs_per_read = Some(2.0e-4);
    pc.early_stop = None;
    let without_policy = Arc::new(
        AtlasPipeline::new(repo, Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc).unwrap(),
    );

    let report_on =
        Orchestrator::new(with_policy, campaign_config()).unwrap().run(&ids).unwrap();
    let report_off =
        Orchestrator::new(without_policy, campaign_config()).unwrap().run(&ids).unwrap();
    assert_eq!(report_on.savings.stopped, 3, "25% of 12");
    assert_eq!(report_off.savings.stopped, 0);
    // Modeled seconds of every accession's completing attempt.
    let align_secs = |r: &CampaignReport| r.completed.iter().map(|c| c.stage_secs.align_secs).sum::<f64>();
    let (align_on, align_off) = (align_secs(&report_on), align_secs(&report_off));
    assert!(
        align_on < align_off,
        "early stopping must reduce total alignment seconds: {align_on} vs {align_off}"
    );
}

#[test]
fn makespan_shrinks_with_a_larger_fleet() {
    let (pipeline, ids) = pipeline_fixture(12, 0.0, None);
    let mut small = campaign_config();
    small.scaling = ScalingPolicy { min_size: 1, max_size: 1, target_backlog_per_instance: 1 };
    let mut large = campaign_config();
    large.scaling = ScalingPolicy { min_size: 4, max_size: 4, target_backlog_per_instance: 1 };
    let r_small = Orchestrator::new(Arc::clone(&pipeline), small).unwrap().run(&ids).unwrap();
    let r_large = Orchestrator::new(pipeline, large).unwrap().run(&ids).unwrap();
    assert!(
        r_large.makespan < r_small.makespan,
        "scaling out must shorten the campaign: {} vs {}",
        r_large.makespan,
        r_small.makespan
    );
}

#[test]
fn paired_catalog_campaign_completes_with_counts() {
    // A fully paired-end catalog through the whole simulated architecture.
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let catalog = CatalogParams {
        n_accessions: 6,
        single_cell_fraction: 0.0,
        bulk_spots_median: 300,
        paired_fraction: 1.0,
        ..CatalogParams::default()
    }
    .generate()
    .unwrap();
    let repo = Arc::new(
        SraRepository::new(Arc::clone(&sub.asm_111), Arc::clone(&sub.annotation), catalog)
            .with_spot_cap(400),
    );
    let mut pc = PipelineConfig::default();
    pc.run_config.threads = 2;
    let pipeline = Arc::new(
        AtlasPipeline::new(repo, Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc).unwrap(),
    );
    let ids = pipeline.repository().ids();
    let report = Orchestrator::new(pipeline, campaign_config()).unwrap().run(&ids).unwrap();
    assert_eq!(report.completed.len(), 6);
    for r in &report.completed {
        assert!(r.mapping_rate > 0.6, "{}: paired rate {}", r.accession, r.mapping_rate);
    }
    let norm = report.normalized.expect("paired fragments produce counts");
    assert_eq!(norm.sample_ids.len(), 6);
}

#[test]
fn bigger_index_costs_more_init_time() {
    // §III-A: "reduces the initial overhead associated with downloading and loading
    // index to shared memory".
    let t = InstanceType::by_name("r6a.4xlarge").unwrap();
    let gib = (1u64 << 30) as f64;
    let cfg_108 = CampaignConfig::new(t, (85.0 * gib) as u64);
    let cfg_111 = CampaignConfig::new(t, (29.5 * gib) as u64);
    let ratio = cfg_108.init_secs() / cfg_111.init_secs();
    assert!((ratio - 85.0 / 29.5).abs() < 0.01, "init time ratio {ratio}");
    assert!(cfg_108.init_secs() > 200.0, "85 GiB at 400 MB/s is minutes, not seconds");
}

#[test]
fn an_on_demand_fleet_is_a_spot_market_at_full_price_without_interruptions() {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 30);
    cfg.spot_market = SpotMarket { price_factor: 1.0, interruptions_per_hour: 0.0, seed: 3 };
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 8, target_backlog_per_instance: 4 };
    // Crashes, duplicates and failed uploads waste compute, so the wasted slice
    // of the bill is not zero; recovery is armed, so a reclaim would be noticed.
    cfg.faults = Some(FaultPlan::chaos(11));
    cfg.recovery = Some(RecoveryConfig::default());
    let ids = ModeledWorkload::accessions(200);
    let report = Orchestrator::with_workload(ModeledWorkload::default().into_workload(), cfg)
        .unwrap()
        .run(&ids)
        .unwrap();
    assert_eq!(report.completed.len() + report.dead_lettered.len(), ids.len());

    let log = &report.telemetry.as_ref().unwrap().event_log;
    for kind in ["spot_interruption", "spot_notice"] {
        assert!(!log.contains(&format!("\"kind\":\"{kind}\"")), "{kind} on an on-demand fleet");
    }
    assert_eq!(report.interruptions, 0);

    let od = t.on_demand_hourly_usd;
    let cost = &report.cost;
    let on_demand_bill = cost.total_hours * od;
    assert!(cost.total_hours > 0.0);
    assert!(
        (cost.total_usd - on_demand_bill).abs() <= 1e-9 * on_demand_bill,
        "{} USD billed for {} h at {od} USD/h",
        cost.total_usd,
        cost.total_hours
    );
    assert!(report.wasted_compute_secs > 0.0, "the chaos plan wastes compute");
    assert_eq!(cost.wasted_usd.to_bits(), (od * report.wasted_compute_secs / 3600.0).to_bits());
}
