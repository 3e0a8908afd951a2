//! Named counters, gauges, and fixed-bucket histograms.
//!
//! Registries are `BTreeMap`-keyed so serialization order is the sorted metric
//! name — one of the pieces of the crate-wide determinism contract. Histograms use
//! fixed, caller-supplied bucket bounds (Prometheus-style cumulative-free layout):
//! quantiles are estimated by linear interpolation inside the covering bucket and
//! clamped to the observed `[min, max]`, which keeps them pure functions of the
//! observation multiset.

use crate::json::JsonValue;
use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;

/// Default bucket bounds for duration-valued histograms, in seconds. Spans the
/// sub-second retry backoffs up to multi-hour campaign makespans.
pub const SECS_BUCKETS: &[f64] = &[
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
    3600.0, 7200.0, 14400.0,
];

/// Default bucket bounds for rate/fraction-valued histograms in `[0, 1]`
/// (e.g. mapping rate at the early-stop decision point).
pub const RATE_BUCKETS: &[f64] = &[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0];

/// A fixed-bucket histogram.
///
/// `bounds` are strictly increasing inclusive upper bounds; an implicit overflow
/// bucket catches everything above the last bound.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with the given upper bounds (must be finite, strictly
    /// increasing, and non-empty).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly increasing");
        }
        assert!(bounds.iter().all(|b| b.is_finite()), "histogram bounds must be finite");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation (must be finite).
    pub fn observe(&mut self, v: f64) {
        assert!(v.is_finite(), "histogram observations must be finite, got {v}");
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The inclusive upper bounds this histogram was created with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; `len(bounds) + 1`, last is overflow.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimated quantile `q` in `[0, 1]`: linear interpolation inside the covering
    /// bucket, clamped to the observed `[min, max]`.
    ///
    /// **Empty-histogram contract (define, not assert):** with zero observations
    /// every quantile is 0.0, matching [`Histogram::min`]/[`Histogram::max`] and
    /// [`crate::sketch::QuantileSketch::quantile`]. Callers that must distinguish
    /// "no data" from "all zeros" check [`Histogram::count`] first; report
    /// renderers rely on the total-function behavior to stay panic-free on
    /// campaigns where a stage never ran.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1], got {q}");
        if self.count == 0 {
            return 0.0;
        }
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum as f64;
            cum += c;
            if c > 0 && cum as f64 >= target {
                let lo = if i == 0 { self.min } else { self.bounds[i - 1].max(self.min) };
                let hi = if i < self.bounds.len() { self.bounds[i].min(self.max) } else { self.max };
                let hi = hi.max(lo);
                let frac = ((target - prev) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Serialize to the stable JSON shape (`bounds`, `counts`, `count`, `sum`,
    /// `min`, `max`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("bounds", JsonValue::Arr(self.bounds.iter().map(|&b| JsonValue::from(b)).collect())),
            ("counts", JsonValue::Arr(self.counts.iter().map(|&c| JsonValue::from(c)).collect())),
            ("count", JsonValue::from(self.count)),
            ("sum", JsonValue::from(self.sum)),
            ("min", JsonValue::from(self.min())),
            ("max", JsonValue::from(self.max())),
        ])
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Keys live in `BTreeMap`s so iteration (and hence serialization) order is the
/// sorted name — stable across runs by construction.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    sketches: BTreeMap<String, QuantileSketch>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to counter `name` (created at zero on first touch).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Record `v` into histogram `name`, creating it with `bounds` on first touch.
    /// Later calls ignore `bounds` — a histogram's buckets are fixed at creation.
    pub fn observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        self.histograms.entry(name.to_string()).or_insert_with(|| Histogram::new(bounds)).observe(v);
    }

    /// Record `v` into quantile sketch `name`, creating it with relative error
    /// bound `alpha` on first touch. Later calls ignore `alpha` — a sketch's
    /// resolution is fixed at creation, like histogram bounds.
    pub fn sketch_observe(&mut self, name: &str, alpha: f64, v: f64) {
        self.sketches
            .entry(name.to_string())
            .or_insert_with(|| QuantileSketch::new(alpha))
            .observe(v);
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if any observation landed in it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in sorted-name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Quantile sketch by name, if any observation landed in it.
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.get(name)
    }

    /// All quantile sketches in sorted-name order.
    pub fn sketches(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
        self.sketches.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serialize the whole registry to the stable JSON shape.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "counters",
                JsonValue::Obj(
                    self.counters.iter().map(|(k, &v)| (k.clone(), JsonValue::from(v))).collect(),
                ),
            ),
            (
                "gauges",
                JsonValue::Obj(
                    self.gauges.iter().map(|(k, &v)| (k.clone(), JsonValue::from(v))).collect(),
                ),
            ),
            (
                "histograms",
                JsonValue::Obj(
                    self.histograms.iter().map(|(k, v)| (k.clone(), v.to_json())).collect(),
                ),
            ),
            (
                "sketches",
                JsonValue::Obj(
                    self.sketches.iter().map(|(k, v)| (k.clone(), v.to_json())).collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_moments() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 16.5).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 10.0);
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = Histogram::new(SECS_BUCKETS);
        for i in 0..100 {
            h.observe(0.1 + 0.01 * i as f64);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 >= h.min() && p99 <= h.max());
        // Roughly the median of a uniform [0.1, 1.09] sweep.
        assert!((0.3..0.9).contains(&p50), "{p50}");
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    /// The empty-quantile edge is *defined*, not asserted: every quantile of an
    /// empty histogram is 0.0 — the whole `[0, 1]` domain, not just p50.
    #[test]
    fn empty_histogram_quantile_is_total_and_zero() {
        let h = Histogram::new(SECS_BUCKETS);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "empty quantile({q}) must be 0.0");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_observation_panics() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
    }

    #[test]
    fn registry_orders_names_deterministically() {
        let mut r = MetricsRegistry::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 2);
        r.gauge_set("mid", 0.5);
        r.observe("lat", &[1.0], 0.3);
        let json = r.to_json().render();
        let alpha = json.find("\"alpha\"").unwrap();
        let zeta = json.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counters must serialize in sorted order: {json}");
        assert_eq!(r.counter("alpha"), 2);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("mid"), Some(0.5));
        assert_eq!(r.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn repeated_observe_ignores_new_bounds() {
        let mut r = MetricsRegistry::new();
        r.observe("h", &[1.0, 2.0], 0.5);
        r.observe("h", &[99.0], 1.5);
        let h = r.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.to_json().render().matches("bounds").count(), 1);
    }
}
