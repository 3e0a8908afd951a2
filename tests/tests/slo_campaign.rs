//! The SLO engine end-to-end: pure-observer proof, burn-rate alerts firing
//! mid-campaign, the bit-exact attribution-ledger invariant, sketch
//! determinism, and the golden-pinned OpenMetrics exposition with summaries.

use atlas_pipeline::ledger::AccessionLedgerEntry;
use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use atlas_pipeline::experiments::Substrate;
use cloudsim::faults::FaultPlan;
use cloudsim::instance::InstanceType;
use cloudsim::ScalingPolicy;
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use std::sync::Arc;
use telemetry::{BurnRateRule, Slo, SloConfig, SloRegistry, SloSignal};

/// Same deterministic mini-campaign substrate as telemetry_export.rs: modeled
/// per-read align cost, fixed-seed catalog.
fn fixture(n: usize, sc_fraction: f64) -> (Arc<AtlasPipeline>, Vec<String>) {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let catalog = CatalogParams {
        seed: 2024,
        n_accessions: n,
        single_cell_fraction: sc_fraction,
        bulk_spots_median: 400,
        bulk_spots_sigma: 0.0,
        ..CatalogParams::default()
    }
    .generate()
    .unwrap();
    let repo = Arc::new(
        SraRepository::new(Arc::clone(&sub.asm_111), Arc::clone(&sub.annotation), catalog)
            .with_spot_cap(6_000),
    );
    let mut pc = PipelineConfig::default();
    pc.run_config.threads = 2;
    pc.align_secs_per_read = Some(2.0e-2);
    let pipeline = Arc::new(
        AtlasPipeline::new(repo, Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc)
            .unwrap(),
    );
    let ids = pipeline.repository().ids();
    (pipeline, ids)
}

fn base_config() -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 4 };
    cfg.scale_tick = cloudsim::SimDuration::from_secs(10.0);
    cfg.poll_interval = cloudsim::SimDuration::from_secs(5.0);
    cfg
}

/// Campaign-scale SLOs: windows sized in sim-seconds so burn rules can resolve
/// inside a mini-campaign, thresholds set per test.
fn slo_config(turnaround_secs: f64, queue_wait_secs: f64, cost_usd: f64) -> SloConfig {
    let windows = || vec![BurnRateRule { long_secs: 200.0, short_secs: 20.0, factor: 2.0, min_count: 3 }];
    SloConfig {
        registry: SloRegistry {
            slos: vec![
                Slo {
                    id: "accession_turnaround_p95".into(),
                    signal: SloSignal::AccessionTurnaround,
                    threshold: turnaround_secs,
                    target: 0.95,
                    windows: windows(),
                },
                Slo {
                    id: "queue_wait_p99".into(),
                    signal: SloSignal::QueueWait,
                    threshold: queue_wait_secs,
                    target: 0.99,
                    windows: windows(),
                },
                Slo {
                    id: "cost_per_accession".into(),
                    signal: SloSignal::AccessionCost,
                    threshold: cost_usd,
                    target: 0.99,
                    windows: windows(),
                },
            ],
        },
        ..SloConfig::default()
    }
}

/// Generous thresholds: nothing burns, budgets stay full.
fn healthy_slo() -> SloConfig {
    slo_config(1e6, 1e6, 1e6)
}

fn run(pipeline: &Arc<AtlasPipeline>, ids: &[String], cfg: CampaignConfig) -> CampaignReport {
    Orchestrator::new(Arc::clone(pipeline), cfg).unwrap().run(ids).unwrap()
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("rewrite golden");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {path}: {e} (rerun with UPDATE_GOLDEN=1)"));
    assert_eq!(actual, golden, "{name} drifted; rerun with UPDATE_GOLDEN=1 if intended");
}

/// The SLO engine is a pure observer: the campaign digest is unchanged, and
/// stripping the SLO/monitor-gated record kinds (`progress`, `alert`,
/// `slo_budget`, `slo_clear`) recovers the SLO-off event log byte for byte.
#[test]
fn slo_engine_is_a_pure_observer() {
    let (pipeline, ids) = fixture(8, 0.25);
    let off = run(&pipeline, &ids, base_config());
    let mut cfg = base_config();
    // Tight thresholds so the engine actually fires burn alerts and budget
    // updates — the proof must hold with the engine *active*, not idle.
    cfg.slo = Some(slo_config(1.0, 1e6, 1e6));
    let on = run(&pipeline, &ids, cfg);

    assert_eq!(on.summary_digest(), off.summary_digest(), "observing must not perturb");
    assert!(
        on.alerts.iter().any(|a| a.rule == telemetry::slo::BURN_ALERT_RULE),
        "premise: the engine was firing, not idle ({:?})",
        on.alerts
    );
    let on_log = &on.telemetry.as_ref().unwrap().event_log;
    assert!(on_log.contains("\"kind\":\"slo_budget\""), "budget updates stream into the log");
    let off_log = &off.telemetry.as_ref().unwrap().event_log;
    for kind in ["progress", "alert", "slo_budget", "slo_clear"] {
        assert!(!off_log.contains(&format!("\"kind\":\"{kind}\"")), "{kind} is SLO/monitor-gated");
    }
    let stripped: String = on_log
        .lines()
        .filter(|l| {
            !["progress", "alert", "slo_budget", "slo_clear"]
                .iter()
                .any(|k| l.contains(&format!("\"kind\":\"{k}\"")))
        })
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_eq!(&stripped, off_log, "SLO-on log is the off log plus observer records");
}

/// Saturated bad traffic (turnaround threshold below every completion time)
/// trips the multi-window burn-rate rule *during* the campaign, with a
/// detection latency, and lands in both `report.alerts` and the objectives.
#[test]
fn burn_alerts_fire_during_the_campaign() {
    let (pipeline, ids) = fixture(10, 0.0);
    let mut cfg = base_config();
    cfg.slo = Some(slo_config(1.0, 1e6, 1e6));
    let report = run(&pipeline, &ids, cfg);

    let burns: Vec<_> = report
        .alerts
        .iter()
        .filter(|a| a.rule == telemetry::slo::BURN_ALERT_RULE)
        .collect();
    assert!(!burns.is_empty(), "every completion violates a 1s turnaround SLO");
    for a in &burns {
        assert!(a.at_secs <= report.makespan.as_secs(), "fired online, not post-hoc");
        assert!(a.latency_secs >= 0.0, "detection latency attached");
        assert!(a.subject.starts_with("accession_turnaround_p95:"), "{}", a.subject);
        assert!(a.value >= a.threshold, "burn {} at least the factor {}", a.value, a.threshold);
    }

    let slo = report.slo.as_ref().expect("slo configured");
    let turnaround =
        slo.objectives.iter().find(|o| o.id == "accession_turnaround_p95").unwrap();
    assert_eq!(turnaround.total, 10, "one sample per completed accession");
    assert_eq!(turnaround.bad, 10, "every completion was over threshold");
    assert!(turnaround.burn_alerts >= 1);
    assert!(turnaround.budget_remaining < 0.0, "budget overspent");
    assert_eq!(turnaround.attained, 0.0);
    let healthy = slo.objectives.iter().find(|o| o.id == "queue_wait_p99").unwrap();
    assert_eq!(healthy.bad, 0);
    assert!((healthy.budget_remaining - 1.0).abs() < 1e-12, "untouched budget");
}

/// The bit-exact ledger invariant, on a chaos campaign so retry waste is
/// non-zero: every entry's parts re-fold to its turnaround and cost with `==`,
/// turnaround agrees with the measured completion, and the attributed dollars
/// account for the whole bill.
#[test]
fn ledger_parts_refold_bit_exactly() {
    let (pipeline, ids) = fixture(10, 0.0);
    let mut cfg = base_config();
    cfg.faults = Some(FaultPlan {
        seed: 5,
        worker_crash_per_job: 0.4,
        duplicate_delivery: 0.2,
        ..FaultPlan::default()
    });
    cfg.max_receive_count = Some(20);
    cfg.slo = Some(healthy_slo());
    let report = run(&pipeline, &ids, cfg);
    assert!(report.fault_counters.worker_crashes > 0, "premise: retries actually happened");

    let slo = report.slo.as_ref().expect("slo configured");
    assert_eq!(slo.ledger.len(), report.completed.len(), "one entry per completed accession");
    assert!(slo.ledger.iter().any(|e| e.retry_waste_secs > 0.0), "waste attributed somewhere");
    for e in &slo.ledger {
        assert_eq!(
            AccessionLedgerEntry::fold(&e.latency_parts()),
            e.turnaround_secs,
            "latency parts must re-fold bit-exactly for {}",
            e.accession
        );
        assert_eq!(
            AccessionLedgerEntry::fold(&e.cost_parts()),
            e.cost_usd,
            "cost parts must re-fold bit-exactly for {}",
            e.accession
        );
        assert!(e.turnaround_secs > 0.0 && e.turnaround_secs <= report.makespan.as_secs() + 1e-9);
        for part in e.latency_parts() {
            assert!(part >= 0.0, "{}: negative part {:?}", e.accession, e);
        }
    }
    let totals = &slo.totals;
    assert_eq!(totals.accessions, report.completed.len());
    assert!(
        (totals.cost_usd - report.cost.total_usd).abs() <= 1e-9 * report.cost.total_usd,
        "attributed {} vs billed {}",
        totals.cost_usd,
        report.cost.total_usd
    );
    assert!(totals.retry_waste_secs > 0.0);
    assert!(totals.idle_amortized_usd > 0.0, "init/idle time exists in every campaign");

    // One sample path: whatever a signal's sketch took, its objective took —
    // crashes, redeliveries and duplicate completions included.
    let sketches = &report.telemetry.as_ref().unwrap().sketch_summaries;
    for (status, objective) in slo.objectives.iter().zip(&healthy_slo().registry.slos) {
        let sketch = objective.signal.sketch_name();
        let count = sketches.iter().find(|s| s.0 == sketch).map(|s| s.1);
        assert_eq!(Some(status.total), count, "{} vs sketch {sketch}", status.id);
        assert_eq!(status.total, report.completed.len() as u64, "{}", status.id);
    }
}

/// The sketches (and everything downstream of them) are deterministic: two runs
/// of the same seeded campaign export byte-identical OpenMetrics text,
/// including the summary quantiles — the mergeable-sketch state is a pure
/// function of the observation multiset.
#[test]
fn slo_openmetrics_is_deterministic_and_matches_golden() {
    let (pipeline, ids) = fixture(6, 0.0);
    let mk = || {
        let mut cfg = base_config();
        cfg.slo = Some(slo_config(1_000.0, 500.0, 0.05));
        cfg
    };
    let r1 = run(&pipeline, &ids, mk());
    let r2 = run(&pipeline, &ids, mk());
    let t1 = r1.telemetry.as_ref().unwrap();
    let t2 = r2.telemetry.as_ref().unwrap();
    assert_eq!(
        t1.openmetrics_text, t2.openmetrics_text,
        "sketches and budgets must replay byte-identically"
    );
    for name in
        ["slo_turnaround_secs", "slo_queue_wait_secs", "slo_cost_per_accession_usd"]
    {
        assert!(
            t1.openmetrics_text.contains(&format!("# TYPE {name} summary")),
            "sketch {name} exported as an OpenMetrics summary"
        );
    }
    assert!(t1.openmetrics_text.contains("slo_budget_remaining:accession_turnaround_p95"));
    assert!(t1.openmetrics_text.contains("slo_ledger_compute_usd"));
    assert_matches_golden("campaign_slo_openmetrics.txt", &t1.openmetrics_text);
}
