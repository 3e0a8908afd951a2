//! Graceful spot degradation end-to-end: interruption notices, worker drain,
//! checkpoint/resume, and the waste accounting they change.
//!
//! The contracts beyond the unit suites:
//!
//! * **off-path purity** — with `recovery: None` the engine emits none of the
//!   recovery event kinds and replays bit-for-bit against itself (the committed
//!   Perfetto/OpenMetrics goldens in `telemetry_export.rs` pin the off path
//!   against pre-recovery builds byte for byte);
//! * **notice precedes reclaim** — every `spot_notice` lands before its
//!   instance's `spot_interruption`, never more than the plan's notice lead
//!   ahead of it;
//! * **waste reduction** — under the same seeded spot burst, checkpointing cuts
//!   the ledger's `retry_waste + idle_gap` total (the Fig. 4-style claim in
//!   EXPERIMENTS.md);
//! * **replay** — recovery campaigns reproduce digests and event logs byte for
//!   byte for the same `(workload, plan)` pair;
//! * **conservation** — drain + hand-back + resume never loses an accession,
//!   across randomized chaos schedules.

use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::{ModeledWorkload, RecoveryConfig};
use cloudsim::faults::{FaultPlan, SpotBurst};
use cloudsim::instance::InstanceType;
use cloudsim::{ScalingPolicy, SpotMarket};
use proptest::prelude::*;
use telemetry::{MonitorConfig, SloConfig};

/// Align-dominated modeled campaign: ~600 s jobs on an autoscaled spot fleet.
/// Recovery tests need jobs long enough that a two-minute notice window
/// regularly lands mid-align; the tiny real-pipeline fixtures finish aligning
/// in milliseconds and would never exercise the checkpoint path.
fn modeled_config(recovery: bool) -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 30_000_000_000);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 6, target_backlog_per_instance: 4 };
    cfg.spot_market = SpotMarket { price_factor: 0.35, interruptions_per_hour: 0.0, seed: 11 };
    cfg.slo = Some(SloConfig::default());
    if recovery {
        cfg.recovery = Some(RecoveryConfig::default());
    }
    cfg
}

/// A violent seeded reclaim storm mid-campaign, no transient faults.
fn burst_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        spot_bursts: vec![SpotBurst {
            start_secs: 300.0,
            duration_secs: 2400.0,
            rate_per_hour: 18.0,
        }],
        ..FaultPlan::default()
    }
}

fn run_modeled(cfg: CampaignConfig, n: usize) -> CampaignReport {
    let ids = ModeledWorkload::accessions(n);
    Orchestrator::with_workload(ModeledWorkload::default().into_workload(), cfg)
        .unwrap()
        .run(&ids)
        .unwrap()
}

/// Pull `(t, field:value...)` NDJSON lines of one kind out of the event log.
fn events_of<'a>(log: &'a str, kind: &str) -> Vec<&'a str> {
    let tag = format!("\"kind\":\"{kind}\"");
    log.lines().filter(|l| l.contains(&tag)).collect()
}

fn json_f64(line: &str, field: &str) -> f64 {
    let tag = format!("\"{field}\":");
    let rest = &line[line.find(&tag).unwrap_or_else(|| panic!("{field} in {line}")) + tag.len()..];
    let end = rest.find([',', '}']).unwrap();
    rest[..end].parse().unwrap_or_else(|e| panic!("parse {field} from {line}: {e}"))
}

#[test]
fn recovery_off_campaigns_never_speak_the_recovery_vocabulary() {
    let mut cfg = modeled_config(false);
    cfg.faults = Some(burst_plan(42));
    cfg.max_receive_count = Some(8);
    let report = run_modeled(cfg, 20);
    assert!(report.interruptions > 0, "premise: the burst must strike");

    let log = &report.telemetry.as_ref().unwrap().event_log;
    for kind in ["spot_notice", "drain", "checkpoint", "checkpoint_failed", "resume"] {
        assert!(
            events_of(log, kind).is_empty(),
            "recovery-off campaigns must not emit {kind} events"
        );
    }
    assert_eq!(report.salvaged_compute_secs, 0.0);
    for m in ["spot_notices", "drains", "checkpoints_written", "checkpoint_resumes"] {
        assert!(
            !report.telemetry.as_ref().unwrap().metrics_json.contains(m),
            "recovery-off metrics must not carry {m}"
        );
    }
}

#[test]
fn every_notice_precedes_its_reclaim_by_at_most_the_lead() {
    let mut cfg = modeled_config(true);
    let plan = burst_plan(42);
    let lead = plan.spot_notice_secs;
    cfg.faults = Some(plan);
    cfg.max_receive_count = Some(8);
    let report = run_modeled(cfg, 20);
    assert!(report.interruptions > 0, "premise: the burst must strike");

    let log = &report.telemetry.as_ref().unwrap().event_log;
    let notices = events_of(log, "spot_notice");
    assert!(!notices.is_empty(), "a reclaim storm must produce notices");
    let reclaims = events_of(log, "spot_interruption");
    for n in &notices {
        let t = json_f64(n, "t");
        let inst = json_f64(n, "instance");
        let l = json_f64(n, "lead_secs");
        assert!(l >= 0.0 && l <= lead + 1e-9, "notice lead {l} outside [0, {lead}]: {n}");
        // If the instance's reclaim landed (it can be pre-empted by a
        // scale-down or the campaign ending first), it fires exactly
        // lead_secs after the notice — never before it.
        for r in reclaims.iter().filter(|r| json_f64(r, "instance") == inst) {
            let rt = json_f64(r, "t");
            assert!(rt >= t - 1e-9, "reclaim at {rt} precedes its notice at {t}: {r}");
            assert!((rt - (t + l)).abs() < 1e-6, "reclaim not at notice + lead: {n} vs {r}");
        }
    }
    // Drains carry the story forward: every busy drain checkpoints or at least
    // hands its message back.
    let drains = events_of(log, "drain");
    assert!(!drains.is_empty());
    for d in drains.iter().filter(|d| d.contains("\"handed_back\":true")) {
        assert!(d.contains("\"accession\":"), "busy drains name their in-flight accession: {d}");
    }
}

#[test]
fn checkpointing_cuts_ledger_waste_under_the_same_seeded_burst() {
    let mut on_cfg = modeled_config(true);
    on_cfg.faults = Some(burst_plan(42));
    on_cfg.max_receive_count = Some(8);
    let mut off_cfg = modeled_config(false);
    off_cfg.faults = Some(burst_plan(42));
    off_cfg.max_receive_count = Some(8);

    let on = run_modeled(on_cfg, 20);
    let off = run_modeled(off_cfg, 20);
    assert!(on.interruptions > 0 && off.interruptions > 0, "premise: reclaims struck");
    assert!(on.salvaged_compute_secs > 0.0, "the storm must salvage something");

    let burned = |r: &CampaignReport| {
        let t = &r.slo.as_ref().unwrap().totals;
        t.retry_waste_secs + t.idle_gap_secs
    };
    assert!(
        burned(&on) < burned(&off),
        "checkpoint/resume must cut retry_waste + idle_gap: on {} vs off {}",
        burned(&on),
        burned(&off)
    );
    // The ledger labels the rescued part of the waste: salvaged seconds are
    // exactly the report's salvage total.
    let on_totals = &on.slo.as_ref().unwrap().totals;
    assert!((on_totals.salvaged_secs - on.salvaged_compute_secs).abs() < 1e-6);
    let off_totals = &off.slo.as_ref().unwrap().totals;
    assert_eq!(off_totals.salvaged_secs, 0.0);
}

#[test]
fn recovery_campaigns_replay_bit_for_bit_and_diverge_across_seeds() {
    let run = |seed: u64| {
        let mut cfg = modeled_config(true);
        cfg.faults = Some(burst_plan(seed));
        cfg.max_receive_count = Some(8);
        run_modeled(cfg, 16)
    };
    let a1 = run(7);
    let a2 = run(7);
    assert_eq!(a1.summary_digest(), a2.summary_digest(), "same seed must replay identically");
    assert_eq!(
        a1.telemetry.as_ref().unwrap().event_log,
        a2.telemetry.as_ref().unwrap().event_log,
        "recovery event logs must replay byte for byte"
    );
    assert_eq!(a1.salvaged_compute_secs.to_bits(), a2.salvaged_compute_secs.to_bits());

    let b = run(8);
    assert_ne!(a1.summary_digest(), b.summary_digest(), "a different seed must diverge");
}

/// Handles are submit positions and names are only labels, so nothing may lean
/// on the two orders agreeing (they do for every other campaign in the
/// repository): ids submitted in *reverse* name order, under chaos, a reclaim
/// storm and recovery, with a ledger reading every account.
#[test]
fn a_campaign_over_reverse_ordered_ids_conserves_and_replays() {
    let mut ids = ModeledWorkload::accessions(240);
    ids.reverse();
    let mut cfg = modeled_config(true);
    cfg.scaling.max_size = 24;
    let spot_bursts = burst_plan(42).spot_bursts;
    cfg.faults = Some(FaultPlan { spot_bursts, ..FaultPlan::chaos(42) });
    cfg.max_receive_count = Some(2);
    let cmp = atlas_integration_tests::run_differential(
        ModeledWorkload::default().into_workload(),
        &cfg,
        &ids,
    )
    .unwrap();
    cmp.assert_equivalent().unwrap_or_else(|d| panic!("replay diverged: {d}"));
    let report = &cmp.first;
    assert!(report.interruptions > 0 && report.salvaged_compute_secs > 0.0, "premise: drains");
    assert!(report.dead_lettered.len() >= 2, "premise: a dead-letter order to check");

    // Conserved: every id completed or dead-lettered, exactly once.
    let mut resolved: Vec<&str> = report
        .completed
        .iter()
        .map(|r| r.accession.as_str())
        .chain(report.dead_lettered.iter().map(|s| s.as_str()))
        .collect();
    resolved.sort_unstable();
    let mut expect: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    expect.sort_unstable();
    assert_eq!(resolved, expect);
    assert_eq!(report.slo.as_ref().unwrap().ledger.len(), report.completed.len());

    // `dead_lettered` is the queue's dead-letter order (the order the log saw
    // them), minus whatever an in-flight duplicate completed after all.
    let log = &report.telemetry.as_ref().unwrap().event_log;
    let logged: Vec<&str> = events_of(log, "dead_letter")
        .iter()
        .map(|l| {
            let rest = &l[l.find("\"accession\":\"").expect("accession field") + 13..];
            &rest[..rest.find('"').unwrap()]
        })
        .filter(|a| !report.completed.iter().any(|r| r.accession == *a))
        .collect();
    assert_eq!(logged, report.dead_lettered);
    let mut by_name = report.dead_lettered.clone();
    by_name.sort_unstable();
    assert_ne!(by_name, report.dead_lettered, "premise: queue order is not name order here");
}

/// The recovery vocabulary is pinned at the export layer too: a fixed-seed
/// recovery campaign's Perfetto trace and OpenMetrics exposition are
/// byte-pinned like the base-campaign goldens (which this PR leaves untouched —
/// the off path is byte-identical to pre-recovery builds).
#[test]
fn recovery_campaign_exports_match_goldens() {
    let run = || {
        let mut cfg = modeled_config(true);
        cfg.faults = Some(burst_plan(42));
        cfg.max_receive_count = Some(8);
        run_modeled(cfg, 12)
    };
    let r1 = run();
    let r2 = run();
    let t1 = r1.telemetry.as_ref().unwrap();
    let t2 = r2.telemetry.as_ref().unwrap();
    assert_eq!(t1.perfetto_json, t2.perfetto_json, "Perfetto export must replay byte-identically");
    assert_eq!(t1.openmetrics_text, t2.openmetrics_text, "OpenMetrics must replay byte-identically");
    for m in ["spot_notices_total", "drains_total", "checkpoints_written_total"] {
        assert!(t1.openmetrics_text.contains(m), "recovery counter {m} missing from OpenMetrics");
    }
    assert!(t1.openmetrics_text.contains("slo_ledger_salvaged_secs"));

    let golden = |name: &str, actual: &str| {
        let path = format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, actual).expect("rewrite golden");
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read golden {path}: {e} (rerun with UPDATE_GOLDEN=1)"));
        assert_eq!(actual, want, "{name} drifted; rerun with UPDATE_GOLDEN=1 if intended");
    };
    golden("recovery_perfetto.json", &t1.perfetto_json);
    golden("recovery_openmetrics.txt", &t1.openmetrics_text);
}

#[test]
fn interruption_storm_alert_fires_during_the_burst() {
    let mut cfg = modeled_config(true);
    cfg.faults = Some(burst_plan(42));
    cfg.max_receive_count = Some(8);
    cfg.monitor = Some(MonitorConfig { rules: vec![telemetry::AlertRule::interruption_storm(900.0, 3)] });
    let report = run_modeled(cfg, 20);
    assert!(report.interruptions >= 3, "premise: the storm must strike hard enough");
    let storms: Vec<_> =
        report.alerts.iter().filter(|a| a.rule == "interruption_storm").collect();
    assert!(!storms.is_empty(), "an interruption storm must trip the rule");
    for a in &storms {
        assert!(a.at_secs <= report.makespan.as_secs());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation under drain + checkpoint + resume: across randomized chaos
    /// schedules (burst shape, fault seed, notice lead, checkpoint-write
    /// failures) every accession completes or dead-letters — hand-back can
    /// reorder and duplicate work, never lose it — and drained compute is
    /// accounted exactly once (salvage never exceeds what interruptions could
    /// have stranded).
    #[test]
    fn drain_checkpoint_resume_conserves_accessions(
        seed in 0u64..1000,
        burst_start in 0.0f64..1200.0,
        burst_rate in 6.0f64..30.0,
        notice_lead in 30.0f64..300.0,
        ckpt_fail in 0.0f64..0.3,
    ) {
        let plan = FaultPlan {
            seed,
            spot_notice_secs: notice_lead,
            checkpoint_write_fail: ckpt_fail,
            spot_bursts: vec![SpotBurst {
                start_secs: burst_start,
                duration_secs: 1800.0,
                rate_per_hour: burst_rate,
            }],
            ..FaultPlan::default()
        };
        plan.validate().unwrap();
        let mut cfg = modeled_config(true);
        cfg.faults = Some(plan);
        cfg.max_receive_count = Some(10);
        let ids = ModeledWorkload::accessions(12);
        let report = Orchestrator::with_workload(
            ModeledWorkload::default().into_workload(), cfg,
        ).unwrap().run(&ids).unwrap();

        prop_assert_eq!(
            report.completed.len() + report.dead_lettered.len(),
            ids.len(),
            "every accession must resolve"
        );
        let mut resolved: Vec<&str> = report
            .completed
            .iter()
            .map(|r| r.accession.as_str())
            .chain(report.dead_lettered.iter().map(|s| s.as_str()))
            .collect();
        resolved.sort_unstable();
        let mut expect: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
        expect.sort_unstable();
        prop_assert_eq!(resolved, expect);
        prop_assert!(report.salvaged_compute_secs >= 0.0);
        let totals = &report.slo.as_ref().unwrap().totals;
        prop_assert!(totals.salvaged_secs >= 0.0 && totals.retry_waste_secs >= 0.0);
        prop_assert!((totals.salvaged_secs - report.salvaged_compute_secs).abs() < 1e-6);
    }

    /// The new fault-plan knobs validate exactly like the old ones: any lead
    /// and probability in range pass, anything outside is rejected.
    #[test]
    fn fault_plan_recovery_knobs_validate(
        lead in -100.0f64..1000.0,
        ckpt_fail in -0.5f64..1.5,
    ) {
        let plan = FaultPlan {
            spot_notice_secs: lead,
            checkpoint_write_fail: ckpt_fail,
            ..FaultPlan::default()
        };
        let ok = lead >= 0.0 && lead.is_finite() && (0.0..=1.0).contains(&ckpt_fail);
        prop_assert_eq!(plan.validate().is_ok(), ok);
        let nan = FaultPlan { spot_notice_secs: f64::NAN, ..FaultPlan::default() };
        prop_assert!(nan.validate().is_err());
        let inf = FaultPlan { spot_notice_secs: f64::INFINITY, ..FaultPlan::default() };
        prop_assert!(inf.validate().is_err());
    }
}
