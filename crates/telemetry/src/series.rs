//! Timestamped gauge series (migrated from `cloudsim::metrics`).
//!
//! A [`TimeSeries`] records `(time, value)` samples — fleet size, queue depth, busy
//! workers — and computes the summary statistics campaign reports quote:
//! time-weighted mean (the right mean for step functions sampled at irregular
//! ticks), peak, min, and the integral (e.g. instance-seconds). Timestamps are raw
//! simulated seconds so the series stays usable from any crate without a dependency
//! on `cloudsim`'s `SimTime`; `cloudsim` re-exports this type for compatibility.

/// An append-only series of timestamped gauge samples.
///
/// Samples must be appended in non-decreasing time order; the value is treated as a
/// step function (it holds from its sample time until the next sample).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    samples: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Append a sample at `at_secs` (simulated seconds). Panics on out-of-order
    /// timestamps (a simulation bug).
    pub fn record(&mut self, at_secs: f64, value: f64) {
        if let Some(&(prev, _)) = self.samples.last() {
            assert!(at_secs >= prev, "samples must be time-ordered: {at_secs} < {prev}");
        }
        self.samples.push((at_secs, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Largest sampled value (0 for an empty series).
    ///
    /// Folds from `-inf`, not `0.0`, so an all-negative series reports its true
    /// maximum instead of a phantom zero.
    pub fn peak(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest sampled value (0 for an empty series).
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min)
    }

    /// Integral of the step function over `[first_sample, until_secs]` — e.g. a
    /// fleet-size series integrates to instance-seconds.
    pub fn integral_until(&self, until_secs: f64) -> f64 {
        let end = until_secs;
        let mut total = 0.0;
        for w in self.samples.windows(2) {
            let (t0, v0) = w[0];
            let t1 = w[1].0.min(end);
            if t1 > t0 {
                total += v0 * (t1 - t0);
            }
        }
        if let Some(&(t_last, v_last)) = self.samples.last() {
            if end > t_last {
                total += v_last * (end - t_last);
            }
        }
        total
    }

    /// Time-weighted mean over `[first_sample, until_secs]` (0 for empty/zero-length
    /// spans).
    pub fn time_weighted_mean(&self, until_secs: f64) -> f64 {
        let Some(&(t0, _)) = self.samples.first() else { return 0.0 };
        let span = until_secs - t0;
        if span <= 0.0 {
            return 0.0;
        }
        self.integral_until(until_secs) / span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_function_integral() {
        let mut s = TimeSeries::new();
        s.record(0.0, 2.0); // 2 for 10s = 20
        s.record(10.0, 4.0); // 4 for 5s = 20
        s.record(15.0, 0.0); // 0 for 5s = 0
        assert!((s.integral_until(20.0) - 40.0).abs() < 1e-12);
        assert!((s.time_weighted_mean(20.0) - 2.0).abs() < 1e-12);
        assert_eq!(s.peak(), 4.0);
        assert_eq!(s.min(), 0.0);
    }

    #[test]
    fn integral_clamps_to_until() {
        let mut s = TimeSeries::new();
        s.record(0.0, 3.0);
        s.record(10.0, 5.0);
        // Until inside the first segment.
        assert!((s.integral_until(4.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn tail_extends_to_until() {
        let mut s = TimeSeries::new();
        s.record(5.0, 1.0);
        assert!((s.integral_until(15.0) - 10.0).abs() < 1e-12);
        assert!((s.time_weighted_mean(15.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_zero() {
        let s = TimeSeries::new();
        assert_eq!(s.integral_until(100.0), 0.0);
        assert_eq!(s.time_weighted_mean(100.0), 0.0);
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn peak_and_min_handle_all_negative_series() {
        // Regression: `peak()` used to fold from 0.0 and report a phantom zero.
        let mut s = TimeSeries::new();
        s.record(0.0, -5.0);
        s.record(1.0, -2.0);
        s.record(2.0, -9.0);
        assert_eq!(s.peak(), -2.0);
        assert_eq!(s.min(), -9.0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_samples_panic() {
        let mut s = TimeSeries::new();
        s.record(10.0, 1.0);
        s.record(5.0, 2.0);
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        // A step can change twice at one tick (scale-out then sample).
        let mut s = TimeSeries::new();
        s.record(1.0, 1.0);
        s.record(1.0, 3.0);
        s.record(2.0, 0.0);
        assert!((s.integral_until(2.0) - 3.0).abs() < 1e-12);
    }
}
