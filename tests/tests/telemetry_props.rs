//! Property-based tests for the telemetry crate: span-tree invariants under
//! arbitrary open/close interleavings, critical-path summary invariants over
//! random campaigns, histogram quantile laws, and `TimeSeries` extrema versus a
//! naive fold (including the all-negative regression).

use proptest::prelude::*;
use telemetry::{summarize, Histogram, Recorder, SpanId, TimeSeries, SECS_BUCKETS};

const STAGES: [&str; 4] = ["prefetch", "fasterq-dump", "align", "collect"];

/// Strategy: a random campaign of jobs — `(completed ok, four stage durations)`.
fn jobs() -> impl Strategy<Value = Vec<(bool, [f64; 4])>> {
    let durs = (0.001f64..50.0, 0.001f64..50.0, 0.001f64..50.0, 0.001f64..50.0)
        .prop_map(|(a, b, c, d)| [a, b, c, d]);
    prop::collection::vec((any::<bool>(), durs), 1..20)
}

/// Drive a `Recorder` the way the orchestrator does: one instance span holding
/// sequential jobs, each ok job carrying the four pipeline-stage child spans.
fn record_campaign(jobs: &[(bool, [f64; 4])]) -> Recorder {
    let rec = Recorder::new();
    let root = rec.span_start("campaign", SpanId::NONE, 0.0);
    let inst = rec.span_start("instance", root, 0.0);
    let mut now = 0.0;
    for (i, (ok, durs)) in jobs.iter().enumerate() {
        let start = now;
        let total: f64 = durs.iter().sum();
        now += total;
        let outcome = if *ok { "ok" } else { "crashed" };
        let job = rec.span_closed(
            "job",
            inst,
            start,
            now,
            &[("accession", format!("SRR{i:04}")), ("outcome", outcome.to_string())],
        );
        if *ok {
            let mut t = start;
            for (name, d) in STAGES.iter().zip(durs) {
                rec.span_closed(name, job, t, t + d, &[]);
                t += d;
            }
        }
    }
    rec.span_end(inst, now);
    rec.span_end(root, now);
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn span_tree_is_well_formed_under_any_interleaving(
        ops in prop::collection::vec((any::<bool>(), 0usize..8, 0.0f64..5.0), 1..60)
    ) {
        let rec = Recorder::new();
        let mut now = 0.0;
        let mut open: Vec<SpanId> = vec![rec.span_start("campaign", SpanId::NONE, now)];
        for (close, sel, dt) in ops {
            now += dt;
            if close && open.len() > 1 {
                // Close a random non-root span (the tree allows out-of-order ends).
                let id = open.remove(1 + sel % (open.len() - 1));
                rec.span_end(id, now);
            } else {
                let parent = open[sel % open.len()];
                open.push(rec.span_start("work", parent, now));
            }
        }
        for id in open.into_iter().rev() {
            rec.span_end(id, now);
        }

        let spans = rec.read(|spans, _, _| spans.to_vec());
        let mut start_of = std::collections::BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            // Ids are 1-based, dense, in emission order.
            prop_assert_eq!(s.id, i as u64 + 1);
            // Parents precede children (or are the root sentinel 0).
            prop_assert!(s.parent < s.id, "span {} parented to {}", s.id, s.parent);
            let end = s.end_secs.expect("all spans closed");
            prop_assert!(end >= s.start_secs);
            prop_assert!(s.duration_secs() >= 0.0);
            if s.parent != 0 {
                // A child starts no earlier than its (then-open) parent.
                let parent_start: f64 = start_of[&s.parent];
                prop_assert!(s.start_secs >= parent_start);
            }
            start_of.insert(s.id, s.start_secs);
        }
    }

    #[test]
    fn campaign_summary_invariants_hold_for_random_job_mixes(jobs in jobs()) {
        let t = summarize(&record_campaign(&jobs));
        let n_ok = jobs.iter().filter(|(ok, _)| *ok).count();

        // Exactly the ok jobs make it onto the critical path.
        prop_assert_eq!(t.critical_path.per_accession.len(), n_ok);
        for s in &t.stage_stats {
            prop_assert_eq!(s.count as usize, n_ok, "stage {}", s.stage);
            prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "{} quantiles out of order", s.stage);
            prop_assert!(s.total_secs >= 0.0);
        }
        if n_ok > 0 {
            prop_assert_eq!(t.stage_stats.len(), STAGES.len());
            // Stage shares partition pipeline time.
            let sum: f64 = t.critical_path.stage_share.iter().map(|(_, v)| v).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
            // The dominant stage carries the largest total and dominates exactly
            // the accessions whose own dominant stage it is.
            let max_total =
                t.stage_stats.iter().map(|s| s.total_secs).fold(f64::NEG_INFINITY, f64::max);
            let dom =
                t.stage_stats.iter().find(|s| s.stage == t.critical_path.dominant_stage).unwrap();
            prop_assert!(dom.total_secs >= max_total - 1e-12);
            let dominated = t
                .critical_path
                .per_accession
                .iter()
                .filter(|a| a.dominant_stage == t.critical_path.dominant_stage)
                .count();
            prop_assert_eq!(t.critical_path.dominant_accessions, dominated);
            for a in &t.critical_path.per_accession {
                prop_assert!(a.dominant_secs <= a.total_secs + 1e-12);
            }
        }

        // Busy time counts every job (any outcome); jobs run inside the instance
        // span, so the fleet can never be busier than it is up.
        let busy: f64 = jobs.iter().map(|(_, d)| d.iter().sum::<f64>()).sum();
        prop_assert!((t.critical_path.fleet_busy_secs - busy).abs() < 1e-6);
        prop_assert!(
            t.critical_path.fleet_busy_secs <= t.critical_path.fleet_uptime_secs + 1e-9
        );
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        obs in prop::collection::vec(0.0f64..5000.0, 1..200)
    ) {
        let mut h = Histogram::new(SECS_BUCKETS);
        for &v in &obs {
            h.observe(v);
        }
        let lo = obs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = obs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.count(), obs.len() as u64);
        prop_assert!((h.sum() - obs.iter().sum::<f64>()).abs() < 1e-6);
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev - 1e-12, "quantile not monotone at {i}");
            prop_assert!(q >= lo - 1e-12 && q <= hi + 1e-12, "quantile {q} outside [{lo}, {hi}]");
            prev = q;
        }
    }

    #[test]
    fn time_series_extrema_match_a_naive_fold(
        values in prop::collection::vec(-100.0f64..100.0, 1..50),
        offset in -200.0f64..0.0,
    ) {
        // `offset` can push the whole series negative — the `peak()` regression case.
        let mut s = TimeSeries::new();
        for (i, v) in values.iter().enumerate() {
            s.record(i as f64, v + offset);
        }
        let naive_max =
            values.iter().map(|v| v + offset).fold(f64::NEG_INFINITY, f64::max);
        let naive_min = values.iter().map(|v| v + offset).fold(f64::INFINITY, f64::min);
        prop_assert_eq!(s.peak(), naive_max);
        prop_assert_eq!(s.min(), naive_min);
        prop_assert_eq!(s.len(), values.len());
    }
}
