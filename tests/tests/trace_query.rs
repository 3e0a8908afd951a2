//! Trace query engine + differential run attribution, end to end.
//!
//! Three layers of guarantees:
//!
//! * **Golden pin (CI gate).** The `trace_query`-style text output over the
//!   fixed-seed mini-campaign's event log — a group-by-kind census, a
//!   per-instance queue-wait table, and the chaos-vs-clean diff waterfall —
//!   is byte-pinned in `tests/golden/trace_query.txt`, next to the
//!   Perfetto/OpenMetrics pins. The test drives `Query::parse_args`, the same
//!   code path as the binary's CLI.
//! * **Exactness.** `diff(A, A)` is exactly empty; `diff(A, B)` deltas are
//!   bit-exact negations of `diff(B, A)`; each diff section's `total_delta`
//!   re-folds from its listed entries with `==`; and the category deltas of a
//!   chaos-vs-clean campaign diff equal the deltas of the two attribution
//!   ledgers' totals bit for bit.
//! * **Order-invariance (proptests).** Grouped aggregation renders
//!   byte-identically under arbitrary permutations of the log lines, and
//!   merging the per-group quantile sketches reproduces the whole-log sketch
//!   exactly (and the true quantile within the sketch's relative-error bound).

use atlas_integration_tests::run_differential;
use atlas_pipeline::experiments::Substrate;
use atlas_pipeline::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use atlas_pipeline::workload::ModeledWorkload;
use cloudsim::faults::FaultPlan;
use cloudsim::instance::InstanceType;
use cloudsim::ScalingPolicy;
use genomics::EnsemblParams;
use proptest::prelude::*;
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use std::sync::Arc;
use telemetry::{diff, BurnRateRule, Query, RunProfile, Slo, SloConfig, SloRegistry, SloSignal};

/// The same deterministic mini-campaign as the export goldens: modeled
/// per-read align cost, fixed catalog seed, everything bit-reproducible.
fn fixture(n: usize) -> (Arc<AtlasPipeline>, Vec<String>) {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let catalog = CatalogParams {
        seed: 2024,
        n_accessions: n,
        single_cell_fraction: 0.0,
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

/// Generous SLO thresholds: nothing burns, but the attribution ledger is built.
fn ledger_slo() -> SloConfig {
    SloConfig {
        registry: SloRegistry {
            slos: vec![Slo {
                id: "accession_turnaround_p95".into(),
                signal: SloSignal::AccessionTurnaround,
                threshold: 1e6,
                target: 0.95,
                windows: vec![BurnRateRule {
                    long_secs: 200.0,
                    short_secs: 20.0,
                    factor: 2.0,
                    min_count: 3,
                }],
            }],
        },
        ..SloConfig::default()
    }
}

fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        s3_get_fail: 0.2,
        s3_put_fail: 0.1,
        sqs_receive_fail: 0.1,
        sqs_delete_fail: 0.1,
        sqs_extend_fail: 0.1,
        duplicate_delivery: 0.05,
        worker_crash_per_job: 0.1,
        spot_bursts: Vec::new(),
        ..FaultPlan::default()
    }
}

fn run(pipeline: &Arc<AtlasPipeline>, ids: &[String], cfg: CampaignConfig) -> CampaignReport {
    Orchestrator::new(Arc::clone(pipeline), cfg).unwrap().run(ids).unwrap()
}

fn event_log(report: &CampaignReport) -> &str {
    &report.telemetry.as_ref().expect("telemetry on by default").event_log
}

fn query(log: &str, args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Query::parse_args(&args).unwrap().run(log).unwrap().render_text()
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

/// CI gate: representative trace_query outputs over the fixed-seed
/// mini-campaign — kind census, per-instance queue waits, and the
/// chaos-vs-clean diff — all byte-pinned in one golden.
#[test]
fn trace_query_text_matches_golden() {
    let (pipeline, ids) = fixture(6);
    let clean = run(&pipeline, &ids, base_config());
    let mut chaos_cfg = base_config();
    chaos_cfg.faults = Some(chaos_plan());
    chaos_cfg.max_receive_count = Some(6);
    let chaos = run(&pipeline, &ids, chaos_cfg);

    let mut out = String::new();
    out.push_str("$ trace_query query clean.ndjson --group-by kind\n");
    out.push_str(&query(event_log(&clean), &["--group-by", "kind"]));
    out.push_str(
        "\n$ trace_query query clean.ndjson --kind queue_wait --group-by instance \
         --agg count --agg sum:wait_secs --agg quantiles:wait_secs\n",
    );
    out.push_str(&query(
        event_log(&clean),
        &[
            "--kind",
            "queue_wait",
            "--group-by",
            "instance",
            "--agg",
            "count",
            "--agg",
            "sum:wait_secs",
            "--agg",
            "quantiles:wait_secs",
        ],
    ));
    out.push_str("\n$ trace_query diff clean.ndjson chaos.ndjson\n");
    let a = RunProfile::from_event_log("clean.ndjson", event_log(&clean)).unwrap();
    let b = RunProfile::from_event_log("chaos.ndjson", event_log(&chaos)).unwrap();
    out.push_str(&diff(&a, &b).render_text());

    // Same inputs, second pass: the whole surface must be deterministic before
    // it is worth pinning.
    let out2 = {
        let a2 = RunProfile::from_event_log("clean.ndjson", event_log(&clean)).unwrap();
        assert_eq!(a, a2, "profile extraction must be deterministic");
        query(event_log(&clean), &["--group-by", "kind"])
    };
    assert!(out.contains(&out2), "query rendering must be deterministic");

    assert_matches_golden("trace_query.txt", &out);
}

/// The acceptance-criteria exactness bundle, on real campaign reports:
/// chaos-vs-clean category deltas equal the ledger-total deltas bit for bit,
/// section totals re-fold exactly, self-diff is empty, and the reported cost
/// delta is exactly the difference of the two cost models' totals.
#[test]
fn chaos_attribution_matches_ledger_totals_bit_exactly() {
    let (pipeline, ids) = fixture(8);
    let mut clean_cfg = base_config();
    clean_cfg.slo = Some(ledger_slo());
    let clean = run(&pipeline, &ids, clean_cfg);
    let mut chaos_cfg = base_config();
    chaos_cfg.slo = Some(ledger_slo());
    chaos_cfg.faults = Some(chaos_plan());
    chaos_cfg.max_receive_count = Some(6);
    let chaos = run(&pipeline, &ids, chaos_cfg);
    assert!(chaos.fault_counters.total_faults() > 0, "premise: chaos struck");

    let a = clean.run_profile("clean");
    let b = chaos.run_profile("chaos");
    let d = diff(&a, &b);

    // Self-diff of a full report profile is exactly empty.
    assert!(diff(&a, &clean.run_profile("clean")).is_empty());

    // Reported scalar deltas are the bit-exact differences of the reports.
    assert_eq!(
        d.makespan_delta_secs.to_bits(),
        (chaos.makespan.as_secs() - clean.makespan.as_secs()).to_bits()
    );
    assert_eq!(
        d.cost_delta_usd.to_bits(),
        (chaos.cost.total_usd - clean.cost.total_usd).to_bits()
    );

    // Category deltas come straight from the two attribution ledgers.
    let (lt_a, lt_b) = (
        &clean.slo.as_ref().unwrap().totals,
        &chaos.slo.as_ref().unwrap().totals,
    );
    let latency = d
        .sections
        .iter()
        .find(|s| s.title.starts_with("latency"))
        .expect("chaos run must move latency categories");
    for e in &latency.entries {
        let (la, lb) = match e.name.as_str() {
            "queue_wait" => (lt_a.queue_wait_secs, lt_b.queue_wait_secs),
            "download" => (lt_a.download_secs, lt_b.download_secs),
            "align" => (lt_a.align_secs, lt_b.align_secs),
            "collect" => (lt_a.collect_secs, lt_b.collect_secs),
            "retry_waste" => (lt_a.retry_waste_secs, lt_b.retry_waste_secs),
            "idle_gap" => (lt_a.idle_gap_secs, lt_b.idle_gap_secs),
            other => panic!("unexpected latency category {other}"),
        };
        assert_eq!(e.a.to_bits(), la.to_bits(), "{}: A side must be the ledger total", e.name);
        assert_eq!(e.b.to_bits(), lb.to_bits(), "{}: B side must be the ledger total", e.name);
        assert_eq!(e.delta.to_bits(), (lb - la).to_bits(), "{}: delta bit-exact", e.name);
    }

    // Every section's reported total re-folds from its listed entries with ==.
    for s in &d.sections {
        let refold = s.entries.iter().fold(0.0, |acc, e| acc + e.delta);
        assert_eq!(refold.to_bits(), s.total_delta.to_bits(), "section {}", s.title);
    }

    // Antisymmetry on the real reports, not just synthetic profiles.
    let r = diff(&b, &a);
    assert_eq!(d.makespan_delta_secs.to_bits(), (-r.makespan_delta_secs).to_bits());
    for (s, rs) in d.sections.iter().zip(&r.sections) {
        assert_eq!(s.total_delta.to_bits(), (-rs.total_delta).to_bits(), "{}", s.title);
    }

    // The waterfall is not vacuous: chaos must show up as retry waste.
    assert!(
        latency.entries.iter().any(|e| e.name == "retry_waste" && e.delta > 0.0),
        "chaos campaign must attribute added retry waste: {}",
        d.render_text()
    );
}

/// A replayed campaign's attribution is empty — `run_differential` comparisons
/// now print *where* runs drift, and for a true replay there is nothing to
/// print. Also proves the query layer is a pure observer: it reads the saved
/// log, so digest and stripped log equality is untouched by construction.
#[test]
fn replay_attribution_is_empty() {
    let workload = ModeledWorkload { seed: 99, ..ModeledWorkload::default() }.into_workload();
    let cfg = base_config();
    let ids = ModeledWorkload::accessions(8);
    let cmp = run_differential(workload, &cfg, &ids).unwrap();
    cmp.assert_equivalent().expect("replay must be byte-equivalent");
    let attribution = cmp.attribution();
    assert!(attribution.is_empty(), "replay attribution:\n{}", attribution.render_text());
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// One synthetic event: (t, kind index, instance, value).
type Ev = (u32, u8, u8, f64);

fn render_log(events: &[Ev]) -> String {
    events
        .iter()
        .map(|(t, kind, inst, v)| {
            format!(
                "{{\"t\":{t},\"kind\":\"k{}\",\"instance\":{inst},\"v\":{}}}\n",
                kind % 3,
                telemetry::json::fmt_f64(*v)
            )
        })
        .collect()
}

fn arb_events() -> impl Strategy<Value = Vec<Ev>> {
    prop::collection::vec(
        (0u32..1000, any::<u8>(), 0u8..6, 0.0f64..1e6),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Grouped aggregation is a pure function of the event *multiset*: any
    /// permutation of the log lines renders byte-identically.
    #[test]
    fn grouped_aggregation_is_order_invariant(
        events in arb_events(),
        seed in any::<u64>(),
    ) {
        let args: Vec<String> = [
            "--group-by", "kind,instance",
            "--agg", "count",
            "--agg", "sum:v",
            "--agg", "min:v",
            "--agg", "max:v",
            "--agg", "quantiles:v",
        ].iter().map(|s| s.to_string()).collect();
        let q = Query::parse_args(&args).unwrap();
        let base = q.run(&render_log(&events)).unwrap().render_text();

        // Deterministic Fisher–Yates driven by a splitmix-style walk.
        let mut shuffled = events.clone();
        let mut s = seed | 1;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(0x9E3779B97F4A7C15);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let permuted = q.run(&render_log(&shuffled)).unwrap().render_text();
        prop_assert_eq!(base, permuted);
    }

    /// Merging the per-group sketches reconstructs the whole-log sketch
    /// exactly, and its quantiles sit within the sketch's relative-error
    /// bound of the true empirical quantile.
    #[test]
    fn group_sketch_merge_matches_whole_log(events in arb_events()) {
        let grouped = Query::parse_args(
            &["--group-by", "instance", "--agg", "quantiles:v"].map(String::from),
        ).unwrap().run(&render_log(&events)).unwrap();
        let whole = Query::parse_args(
            &["--agg", "quantiles:v"].map(String::from),
        ).unwrap().run(&render_log(&events)).unwrap();

        let merged = grouped.merged_sketch(0).expect("at least one group");
        let direct = whole.merged_sketch(0).expect("one global group");
        prop_assert_eq!(merged.count(), direct.count());

        let mut values: Vec<f64> = events.iter().map(|e| e.3).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.95, 0.99] {
            let m = merged.quantile(q);
            let d = direct.quantile(q);
            prop_assert_eq!(m.to_bits(), d.to_bits(), "merge must be exact at q={}", q);
            // DDSketch bound: relative error <= alpha against the true value,
            // at the sketch's own order statistic (0-based floor(q*(n-1))).
            let rank = (q * (values.len() - 1) as f64).floor() as usize;
            let exact = values[rank];
            let bound = telemetry::query::QUERY_SKETCH_ALPHA * exact.abs() + 1e-9;
            prop_assert!(
                (m - exact).abs() <= bound * 1.0001 + f64::EPSILON * exact.abs(),
                "q={} est={} exact={}", q, m, exact
            );
        }
    }

    /// diff(A, A) is exactly empty for arbitrary profiles.
    #[test]
    fn self_diff_is_empty(
        makespan in 0.0f64..1e7,
        cost in 0.0f64..1e4,
        cats in prop::collection::vec((0u8..8, 0.0f64..1e5), 0..8),
    ) {
        let profile = RunProfile {
            label: "a".into(),
            makespan_secs: makespan,
            cost_usd: cost,
            latency_categories: cats.iter()
                .map(|(k, v)| (format!("c{k}"), *v)).collect(),
            ..RunProfile::default()
        };
        prop_assert!(diff(&profile, &profile).is_empty());
    }

    /// diff(A, B) deltas are bit-exact negations of diff(B, A), including the
    /// section total folds.
    #[test]
    fn swapped_diff_negates(
        a_vals in prop::collection::vec(0.0f64..1e5, 4),
        b_vals in prop::collection::vec(0.0f64..1e5, 4),
        a_scalar in 0.0f64..1e6,
        b_scalar in 0.0f64..1e6,
    ) {
        let mk = |label: &str, scalar: f64, vals: &[f64]| RunProfile {
            label: label.into(),
            makespan_secs: scalar,
            cost_usd: scalar / 100.0,
            latency_categories: vals.iter().enumerate()
                .map(|(i, v)| (format!("c{i}"), *v)).collect(),
            per_accession_secs: vals.iter().enumerate()
                .map(|(i, v)| (format!("SRR{i}"), v * 2.0)).collect(),
            ..RunProfile::default()
        };
        let (a, b) = (mk("a", a_scalar, &a_vals), mk("b", b_scalar, &b_vals));
        let (ab, ba) = (diff(&a, &b), diff(&b, &a));
        prop_assert_eq!(ab.makespan_delta_secs.to_bits(), (-ba.makespan_delta_secs).to_bits());
        prop_assert_eq!(ab.cost_delta_usd.to_bits(), (-ba.cost_delta_usd).to_bits());
        prop_assert_eq!(ab.sections.len(), ba.sections.len());
        for (sa, sb) in ab.sections.iter().zip(&ba.sections) {
            prop_assert_eq!(sa.total_delta.to_bits(), (-sb.total_delta).to_bits());
            prop_assert_eq!(sa.entries.len(), sb.entries.len());
            for (ea, eb) in sa.entries.iter().zip(&sb.entries) {
                prop_assert_eq!(&ea.name, &eb.name);
                prop_assert_eq!(ea.delta.to_bits(), (-eb.delta).to_bits());
            }
        }
    }
}
