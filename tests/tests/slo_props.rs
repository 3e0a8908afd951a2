//! Property tests for the SLO engine's two primitives:
//!
//! * the streaming quantile sketch — DDSketch-style relative-error guarantee
//!   against the exact sample quantile, and a merge that is *byte*-associative
//!   and order-independent (serialized state identical, not approximately
//!   equal), which is what makes per-shard sketches safely combinable;
//! * the multi-window burn-rate evaluator — one alert per burn episode on
//!   saturated error traffic, exactly one clear on recovery, and silence on
//!   healthy streams, and — on any stream the kernel clock could produce —
//!   exactly what a plain double scan of the window computes.

use proptest::prelude::*;
use telemetry::slo::{SloState, BURN_ALERT_RULE};
use telemetry::{
    AlertEvent, BurnRateRule, EventRecord, JsonValue, QuantileSketch, Slo, SloSignal, SloStatus,
};

/// The exact sample quantile at the same rank convention the sketch uses
/// (`floor(q · (n − 1))` into the sorted multiset).
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn sketch_of(alpha: f64, vals: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new(alpha);
    for &v in vals {
        s.observe(v);
    }
    s
}

fn turnaround_slo(windows: Vec<BurnRateRule>) -> Slo {
    Slo {
        id: "turnaround_p95".into(),
        signal: SloSignal::AccessionTurnaround,
        threshold: 100.0,
        target: 0.95,
        windows,
    }
}

/// The burn-rate evaluator as first written, kept as the reference for
/// [`SloState`]: every sample re-walks the whole kept window once per rule to
/// count both windows and find the short window's first bad sample.
struct DoubleScan {
    samples: Vec<(f64, bool)>,
    total: u64,
    bad: u64,
    firing: Vec<bool>,
    fired: u64,
    last_budget_pct: Option<i64>,
}

impl DoubleScan {
    fn new(slo: &Slo) -> DoubleScan {
        DoubleScan {
            samples: Vec::new(),
            total: 0,
            bad: 0,
            firing: vec![false; slo.windows.len()],
            fired: 0,
            last_budget_pct: None,
        }
    }

    fn budget_remaining(&self, slo: &Slo) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        1.0 - (self.bad as f64 / self.total as f64) / (1.0 - slo.target)
    }

    fn sample(&mut self, slo: &Slo, t: f64, value: f64) -> (Vec<AlertEvent>, Vec<EventRecord>) {
        let is_bad = value > slo.threshold;
        self.total += 1;
        self.bad += u64::from(is_bad);
        self.samples.push((t, is_bad));
        let horizon = slo.windows.iter().map(|w| w.long_secs).fold(0.0, f64::max);
        self.samples.retain(|&(t0, _)| t0 >= t - horizon);
        let (mut alerts, mut extra) = (Vec::new(), Vec::new());
        for (i, w) in slo.windows.iter().enumerate() {
            let (mut long, mut short) = ((0u64, 0u64), (0u64, 0u64));
            let mut first_bad_short = None;
            for &(ts, b) in &self.samples {
                if ts >= t - w.long_secs {
                    long.0 += 1;
                    long.1 += u64::from(b);
                }
                if ts >= t - w.short_secs {
                    short.0 += 1;
                    short.1 += u64::from(b);
                    if b && first_bad_short.is_none() {
                        first_bad_short = Some(ts);
                    }
                }
            }
            let burn = |(n, b): (u64, u64)| {
                if n == 0 {
                    0.0
                } else {
                    (b as f64 / n as f64) / (1.0 - slo.target)
                }
            };
            let (burn_long, burn_short) = (burn(long), burn(short));
            if !self.firing[i] {
                if long.0 >= w.min_count as u64 && burn_long >= w.factor && burn_short >= w.factor {
                    self.firing[i] = true;
                    self.fired += 1;
                    alerts.push(AlertEvent {
                        rule: BURN_ALERT_RULE.into(),
                        subject: format!("{}:{}s", slo.id, w.long_secs),
                        at_secs: t,
                        value: burn_short,
                        threshold: w.factor,
                        latency_secs: first_bad_short.map_or(0.0, |t0| t - t0),
                    });
                }
            } else if burn_short < w.factor {
                self.firing[i] = false;
                extra.push(EventRecord {
                    at_secs: t,
                    kind: "slo_clear",
                    fields: vec![
                        ("slo", JsonValue::from(slo.id.as_str())),
                        ("window_secs", JsonValue::from(w.long_secs)),
                        ("burn", JsonValue::from(burn_short)),
                    ],
                });
            }
        }
        let remaining = self.budget_remaining(slo);
        let pct = (remaining * 100.0).floor() as i64;
        if self.last_budget_pct != Some(pct) {
            self.last_budget_pct = Some(pct);
            extra.push(EventRecord {
                at_secs: t,
                kind: "slo_budget",
                fields: vec![
                    ("slo", JsonValue::from(slo.id.as_str())),
                    ("remaining", JsonValue::from(remaining)),
                ],
            });
        }
        (alerts, extra)
    }

    fn status(&self, slo: &Slo) -> SloStatus {
        let good = (self.total - self.bad) as f64;
        SloStatus {
            id: slo.id.clone(),
            target: slo.target,
            threshold: slo.threshold,
            total: self.total,
            bad: self.bad,
            attained: if self.total == 0 { 1.0 } else { good / self.total as f64 },
            budget_remaining: self.budget_remaining(slo),
            burn_alerts: self.fired,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The prefix-tally evaluator and the double scan agree on every alert,
    /// event and status, on any non-decreasing sample stream: ties, bursts of
    /// bad samples, and gaps long enough to empty a rule's windows of all but
    /// the newest sample.
    #[test]
    fn prefix_tally_matches_the_double_scan(
        stream in prop::collection::vec((0u8..8, 0.0f64..40.0, 0u8..3), 1..400),
        factor in 0.5f64..8.0,
    ) {
        let slo = Slo {
            target: 0.9,
            windows: vec![
                BurnRateRule { long_secs: 600.0, short_secs: 60.0, factor, min_count: 5 },
                BurnRateRule { long_secs: 120.0, short_secs: 15.0, factor: 2.0 * factor, min_count: 1 },
                BurnRateRule { long_secs: 3_000.0, short_secs: 600.0, factor: 1.0, min_count: 20 },
            ],
            ..turnaround_slo(Vec::new())
        };
        let (mut tally, mut scan) = (SloState::new(&slo), DoubleScan::new(&slo));
        let (mut t, mut fired) = (0.0, 0usize);
        for (gap, dt, badness) in stream {
            // 0: a tie with the previous sample; 7: a gap past the longest
            // window; otherwise an ordinary step.
            t += match gap { 0 => 0.0, 7 => 3_000.0 + 100.0 * dt, _ => dt };
            let value = if badness == 0 { 200.0 } else { 1.0 };
            let got = tally.sample(&slo, t, value);
            prop_assert_eq!(&got, &scan.sample(&slo, t, value), "at t = {}", t);
            fired += got.0.len();
            prop_assert_eq!(tally.status(&slo), scan.status(&slo));
        }
        prop_assert_eq!(fired as u64, tally.status(&slo).burn_alerts);
    }

    /// Every estimated quantile is within relative error `alpha` of the exact
    /// sample quantile (the DDSketch guarantee the engine's percentiles rest on).
    #[test]
    fn sketch_quantiles_stay_within_relative_error(
        values in prop::collection::vec(0.0f64..1e6, 1..400),
        alpha_pct in 1u32..10,
    ) {
        let alpha = alpha_pct as f64 / 100.0;
        let sk = sketch_of(alpha, &values);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = sk.quantile(q);
            prop_assert!(
                (est - exact).abs() <= alpha * exact + 1e-9,
                "q{}: est {} vs exact {} (alpha {})", q, est, exact, alpha
            );
        }
    }

    /// Merging is bucket-count addition, so any grouping of sub-streams yields
    /// a serialized state byte-identical to the single-stream sketch —
    /// associativity and order-independence hold exactly, not approximately.
    #[test]
    fn sketch_merge_is_byte_associative_and_order_independent(
        a in prop::collection::vec(0.0f64..1e6, 0..120),
        b in prop::collection::vec(0.0f64..1e6, 0..120),
        c in prop::collection::vec(0.0f64..1e6, 0..120),
    ) {
        const ALPHA: f64 = 0.02;
        // ((a ∪ b) ∪ c)
        let mut left = sketch_of(ALPHA, &a);
        left.merge(&sketch_of(ALPHA, &b));
        left.merge(&sketch_of(ALPHA, &c));
        // (a ∪ (b ∪ c))
        let mut tail = sketch_of(ALPHA, &b);
        tail.merge(&sketch_of(ALPHA, &c));
        let mut right = sketch_of(ALPHA, &a);
        right.merge(&tail);
        // the single stream, and the single stream reversed
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        let single = sketch_of(ALPHA, &all);
        all.reverse();
        let reversed = sketch_of(ALPHA, &all);

        let want = single.to_json().render();
        prop_assert_eq!(left.to_json().render(), want.clone());
        prop_assert_eq!(right.to_json().render(), want.clone());
        prop_assert_eq!(reversed.to_json().render(), want);
    }

    /// Healthy traffic (every sample under threshold) never fires a burn alert,
    /// never emits a clear, and leaves the full error budget.
    #[test]
    fn healthy_streams_never_burn(
        n in 1usize..200,
        step in 1.0f64..120.0,
    ) {
        let slo = turnaround_slo(vec![BurnRateRule::fast(), BurnRateRule::slow()]);
        let mut st = SloState::new(&slo);
        let mut t = 0.0;
        for _ in 0..n {
            t += step;
            let (alerts, extra) = st.sample(&slo, t, 1.0);
            prop_assert!(alerts.is_empty(), "healthy sample fired {:?}", alerts);
            prop_assert!(
                !extra.iter().any(|e| e.kind == "slo_clear"),
                "nothing to clear on a healthy stream"
            );
        }
        prop_assert!((st.budget_remaining(&slo) - 1.0).abs() < 1e-12);
    }

    /// Saturated error traffic fires exactly one alert per window (hysteresis:
    /// one per burn episode), and recovery emits exactly one matching clear.
    #[test]
    fn burn_fires_once_per_episode_and_clears_on_recovery(
        n_bad in 20usize..120,
        step in 1.0f64..30.0,
    ) {
        let slo = turnaround_slo(vec![BurnRateRule::fast()]);
        let mut st = SloState::new(&slo);
        let mut t = 0.0;
        let mut fired = 0usize;
        let mut cleared = 0usize;
        for _ in 0..n_bad {
            t += step;
            let (alerts, extra) = st.sample(&slo, t, 200.0);
            fired += alerts.len();
            cleared += extra.iter().filter(|e| e.kind == "slo_clear").count();
        }
        prop_assert_eq!(fired, 1, "one alert per burn episode (hysteresis)");
        prop_assert_eq!(cleared, 0, "no clear while still burning");
        // Recovery: good samples long enough to drain the short window.
        for _ in 0..400 {
            t += step;
            let (alerts, extra) = st.sample(&slo, t, 1.0);
            fired += alerts.len();
            cleared += extra.iter().filter(|e| e.kind == "slo_clear").count();
        }
        prop_assert_eq!(fired, 1, "no re-fire during recovery");
        prop_assert_eq!(cleared, 1, "exactly one clear ends the episode");
        prop_assert!(st.budget_remaining(&slo) < 1.0, "bad samples spent budget");
    }
}
