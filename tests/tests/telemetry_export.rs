//! Telemetry consumption layer end-to-end: golden-pinned Perfetto and
//! OpenMetrics exports of a fixed-seed mini-campaign, and the live monitor —
//! fault bursts, a planted straggler instance, and early-stop-eligible
//! accessions must fire their alerts *during* the campaign (online), while a
//! monitor-free run stays byte-identical.

use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use atlas_pipeline::experiments::Substrate;
use cloudsim::faults::FaultPlan;
use cloudsim::instance::InstanceType;
use cloudsim::ScalingPolicy;
use genomics::EnsemblParams;
use sra_sim::accession::{AccessionMeta, CatalogParams};
use sra_sim::SraRepository;
use std::sync::Arc;
use telemetry::MonitorConfig;

/// Deterministic mini-campaign substrate: modeled per-read align cost so every
/// clock is bit-reproducible, small catalog so the whole thing runs in
/// milliseconds.
fn fixture_with(
    n: usize,
    sc_fraction: f64,
    edit: impl FnOnce(&mut Vec<AccessionMeta>),
) -> (Arc<AtlasPipeline>, Vec<String>) {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let mut catalog = CatalogParams {
        seed: 2024,
        n_accessions: n,
        single_cell_fraction: sc_fraction,
        bulk_spots_median: 400,
        bulk_spots_sigma: 0.0,
        ..CatalogParams::default()
    }
    .generate()
    .unwrap();
    edit(&mut catalog);
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

fn fixture(n: usize, sc_fraction: f64) -> (Arc<AtlasPipeline>, Vec<String>) {
    fixture_with(n, sc_fraction, |_| {})
}

fn base_config() -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 4, target_backlog_per_instance: 4 };
    cfg.scale_tick = cloudsim::SimDuration::from_secs(10.0);
    cfg.poll_interval = cloudsim::SimDuration::from_secs(5.0);
    cfg
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

/// CI gate: the fixed-seed mini-campaign's Perfetto trace, OpenMetrics
/// exposition and `telemetry.json` summary (`CampaignTelemetry::to_json`, the
/// document README tells users to save) are byte-pinned: the serializers run.
#[test]
fn perfetto_and_openmetrics_exports_match_goldens() {
    let (pipeline, ids) = fixture(6, 0.0);
    let r1 = run(&pipeline, &ids, base_config());
    let r2 = run(&pipeline, &ids, base_config());
    let t1 = r1.telemetry.as_ref().expect("telemetry on by default");
    let t2 = r2.telemetry.as_ref().expect("telemetry on by default");
    assert_eq!(t1.perfetto_json, t2.perfetto_json, "Perfetto export must replay byte-identically");
    assert_eq!(t1.openmetrics_text, t2.openmetrics_text, "OpenMetrics must replay byte-identically");
    assert!(t1.perfetto_json.contains("\"traceEvents\""));
    assert!(t1.openmetrics_text.ends_with("# EOF\n"));
    assert_matches_golden("campaign_perfetto.json", &t1.perfetto_json);
    assert_matches_golden("campaign_openmetrics.txt", &t1.openmetrics_text);
    assert_eq!(t1.to_json(), t2.to_json(), "telemetry.json must replay byte-identically");
    assert_matches_golden("campaign_telemetry.json", &t1.to_json());
}

/// A seeded fault storm must trip the fault-burst rule while the campaign is
/// still running — the alert is streamed into the same event log, not derived
/// after the fact.
#[test]
fn fault_burst_alerts_fire_online() {
    let (pipeline, ids) = fixture(10, 0.0);
    let mut cfg = base_config();
    // A proper storm: every S3/SQS call fails ~30% of the time, so the burst
    // window fills well past the rule's minimum count.
    cfg.faults = Some(FaultPlan {
        seed: 7,
        s3_get_fail: 0.3,
        s3_put_fail: 0.3,
        sqs_receive_fail: 0.3,
        sqs_delete_fail: 0.3,
        sqs_extend_fail: 0.3,
        duplicate_delivery: 0.1,
        worker_crash_per_job: 0.1,
        spot_bursts: Vec::new(),
        ..FaultPlan::default()
    });
    cfg.max_receive_count = Some(6);
    cfg.monitor = Some(MonitorConfig { rules: vec![telemetry::AlertRule::fault_burst(300.0, 5)] });
    let report = run(&pipeline, &ids, cfg);
    assert!(report.fault_counters.total_faults() >= 5, "premise: chaos struck hard enough");

    let bursts: Vec<_> =
        report.alerts.iter().filter(|a| a.rule == "fault_burst").collect();
    assert!(!bursts.is_empty(), "a seeded fault storm must trip the burst rule");
    for a in &report.alerts {
        assert!(
            a.at_secs <= report.makespan.as_secs(),
            "alert at {} fired after campaign end {}",
            a.at_secs,
            report.makespan.as_secs()
        );
        assert!(a.latency_secs >= 0.0);
    }

    // Online, not post-hoc: alert lines are interleaved into the stream, with
    // campaign events still arriving after the first alert.
    let t = report.telemetry.as_ref().unwrap();
    let lines: Vec<&str> = t.event_log.lines().collect();
    let first_alert = lines
        .iter()
        .position(|l| l.contains("\"kind\":\"alert\""))
        .expect("alerts appear in the event log");
    assert!(
        lines[first_alert + 1..].iter().any(|l| !l.contains("\"kind\":\"alert\"")),
        "campaign events must keep flowing after the first alert"
    );
    assert!(lines[first_alert].contains("\"rule\":\"fault_burst\""), "{}", lines[first_alert]);
}

/// Plant one accession ~12× the (otherwise uniform) fleet workload: the
/// instance that draws it becomes a straggler — its job p99 exceeds 3× the
/// fleet median — and must be flagged exactly once.
#[test]
fn planted_straggler_instance_fires_exactly_one_alert() {
    let (pipeline, ids) = fixture_with(12, 0.0, |catalog| {
        catalog[0].spots *= 12;
    });
    let mut cfg = base_config();
    cfg.monitor = Some(MonitorConfig { rules: vec![telemetry::AlertRule::straggler_instances(3.0, 8)] });
    let report = run(&pipeline, &ids, cfg);
    assert_eq!(report.completed.len(), 12);

    let stragglers: Vec<_> =
        report.alerts.iter().filter(|a| a.rule == "straggler_instance").collect();
    assert_eq!(
        stragglers.len(),
        1,
        "exactly the one planted straggler fires (got {:?})",
        report.alerts
    );
    let a = stragglers[0];
    assert!(a.value > a.threshold, "p99 {} must exceed 3× fleet median {}", a.value, a.threshold);
    assert!(a.at_secs <= report.makespan.as_secs(), "flagged before the campaign ended");
    assert!(
        !a.subject.is_empty() && a.subject.chars().all(|c| c.is_ascii_digit()),
        "subject is an instance id: {:?}",
        a.subject
    );
}

/// The monitor spots early-stop-eligible accessions from the live
/// mapping-rate series before the early-stop policy's own decision event
/// lands in the log.
#[test]
fn early_stop_eligible_alerts_precede_the_decision() {
    let (pipeline, ids) = fixture(8, 0.25);
    let mut cfg = base_config();
    cfg.monitor = Some(MonitorConfig { rules: vec![telemetry::AlertRule::early_stop_eligible(0.30, 0.10)] });
    let report = run(&pipeline, &ids, cfg);
    let stopped: Vec<&str> = report
        .completed
        .iter()
        .filter(|r| r.early_stopped())
        .map(|r| r.accession.as_str())
        .collect();
    assert!(!stopped.is_empty(), "premise: single-cell accessions early-stop");

    for acc in &stopped {
        let alert = report
            .alerts
            .iter()
            .find(|a| a.rule == "early_stop_eligible" && a.subject == *acc)
            .unwrap_or_else(|| panic!("no alert for early-stopped {acc}: {:?}", report.alerts));
        // The policy's decision event is backdated to the moment the align
        // stage was cut; the streaming alert must not be later.
        let t = report.telemetry.as_ref().unwrap();
        let decided = t
            .event_log
            .lines()
            .find(|l| l.contains("\"kind\":\"early_stop\"") && l.contains(acc))
            .and_then(|l| l.strip_prefix("{\"t\":"))
            .and_then(|l| l.split(',').next())
            .and_then(|v| v.parse::<f64>().ok())
            .expect("early_stop event with a timestamp");
        assert!(
            alert.at_secs <= decided + 1e-9,
            "alert for {acc} at {} must precede the decision at {decided}",
            alert.at_secs
        );
    }
    // Alerts fire only for accessions that are actually eligible.
    for a in report.alerts.iter().filter(|a| a.rule == "early_stop_eligible") {
        assert!(stopped.contains(&a.subject.as_str()), "false positive on {}", a.subject);
    }
}

/// The monitor is a pure observer: enabling it adds `progress` and `alert`
/// records to the log but never perturbs the campaign, and with it off the
/// log carries no trace of it.
#[test]
fn monitor_is_a_pure_observer() {
    let (pipeline, ids) = fixture(8, 0.25);
    let off = run(&pipeline, &ids, base_config());
    let mut cfg = base_config();
    cfg.monitor = Some(MonitorConfig::standard());
    let on = run(&pipeline, &ids, cfg);

    assert_eq!(
        on.summary_digest(),
        off.summary_digest(),
        "watching the campaign must not change it"
    );
    assert!(off.alerts.is_empty(), "no monitor, no alerts");
    let off_log = &off.telemetry.as_ref().unwrap().event_log;
    assert!(!off_log.contains("\"kind\":\"progress\""), "progress events are monitor-gated");
    assert!(!off_log.contains("\"kind\":\"alert\""));
    let on_log = &on.telemetry.as_ref().unwrap().event_log;
    assert!(on_log.contains("\"kind\":\"progress\""), "monitor-on campaigns stream progress");

    // Stripping the monitor-only records recovers the monitor-off log exactly.
    let stripped: String = on_log
        .lines()
        .filter(|l| !l.contains("\"kind\":\"progress\"") && !l.contains("\"kind\":\"alert\""))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert_eq!(&stripped, off_log, "monitor-on log is the off log plus monitor records");
}
