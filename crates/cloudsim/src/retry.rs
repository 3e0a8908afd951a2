//! Retry policy: capped exponential backoff with deterministic jitter.
//!
//! The paper's architecture leans on AWS SDK retry behavior for every S3/SQS call;
//! this module reproduces that machinery for the simulator. The policy itself is
//! pure arithmetic — callers supply a uniform `[0, 1)` jitter unit (drawn from the
//! fault injector's hash stream) so a chaos run replays bit-for-bit.

use crate::time::SimDuration;
use crate::CloudError;

/// Capped exponential backoff: attempt `k` (1-based) sleeps
/// `min(base * multiplier^(k-1), cap) * (1 - jitter * u)` seconds, with `u` uniform
/// in `[0, 1)` supplied by the caller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be >= 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt, seconds.
    pub base_delay_secs: f64,
    /// Backoff ceiling, seconds.
    pub max_delay_secs: f64,
    /// Geometric growth factor per attempt.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by `1 - jitter * u`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// AWS-SDK-ish defaults: 4 attempts, 200 ms base, 10 s cap, doubling, 10% jitter.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_secs: 0.2,
            max_delay_secs: 10.0,
            multiplier: 2.0,
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no backoff).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay_secs: 0.0,
            max_delay_secs: 0.0,
            multiplier: 1.0,
            jitter: 0.0,
        }
    }

    /// Validate the policy parameters.
    pub fn validate(&self) -> Result<(), CloudError> {
        if self.max_attempts == 0 {
            return Err(CloudError::InvalidParams("retry max_attempts must be >= 1".into()));
        }
        // Written so a NaN fails; an infinite delay or multiplier would pass a plain
        // bound and then panic the backoff histogram at the first retry.
        let delays = [self.base_delay_secs, self.max_delay_secs];
        if !delays.iter().all(|d| d.is_finite() && *d >= 0.0) {
            return Err(CloudError::InvalidParams("retry delays must be finite and >= 0".into()));
        }
        if !(self.multiplier.is_finite() && self.multiplier >= 1.0) {
            return Err(CloudError::InvalidParams("retry multiplier must be finite and >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(CloudError::InvalidParams("retry jitter must be in [0, 1]".into()));
        }
        Ok(())
    }

    /// Backoff slept *after* failed attempt `attempt` (1-based), given a uniform
    /// jitter unit `u` in `[0, 1)`.
    pub fn backoff_after(&self, attempt: u32, u: f64) -> SimDuration {
        debug_assert!((0.0..1.0).contains(&u) || u == 0.0);
        let exp = self.base_delay_secs * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let capped = exp.min(self.max_delay_secs);
        SimDuration::from_secs(capped * (1.0 - self.jitter * u))
    }

    /// Histogram bucket bounds matched to this policy's backoff ladder: the exact
    /// geometric rungs `base * multiplier^k` capped at `max_delay_secs`. Jitter only
    /// shrinks a sleep, so every observed backoff lands at or below its rung —
    /// buckets line up with attempt numbers instead of smearing across generic
    /// latency buckets.
    pub fn backoff_histogram_bounds(&self) -> Vec<f64> {
        let base = self.base_delay_secs.max(1e-3);
        let cap = self.max_delay_secs.max(base);
        let mut bounds = vec![base];
        if self.multiplier > 1.0 {
            let mut b = base * self.multiplier;
            while b < cap && bounds.len() < 16 {
                bounds.push(b);
                b *= self.multiplier;
            }
        }
        if cap > *bounds.last().expect("bounds start non-empty") {
            bounds.push(cap);
        }
        bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically_and_caps() {
        let p = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        assert!((p.backoff_after(1, 0.0).as_secs() - 0.2).abs() < 1e-12);
        assert!((p.backoff_after(2, 0.0).as_secs() - 0.4).abs() < 1e-12);
        assert!((p.backoff_after(3, 0.0).as_secs() - 0.8).abs() < 1e-12);
        // Far past the cap.
        assert!((p.backoff_after(20, 0.0).as_secs() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn jitter_shrinks_the_sleep_deterministically() {
        let p = RetryPolicy { jitter: 0.5, ..RetryPolicy::default() };
        let full = p.backoff_after(2, 0.0).as_secs();
        let jittered = p.backoff_after(2, 0.9999).as_secs();
        assert!(jittered < full);
        assert!(jittered > full * 0.5 - 1e-9, "jitter removes at most `jitter` fraction");
        assert_eq!(p.backoff_after(2, 0.25), p.backoff_after(2, 0.25));
    }

    #[test]
    fn histogram_bounds_follow_the_backoff_ladder() {
        let p = RetryPolicy::default();
        let bounds = p.backoff_histogram_bounds();
        // 0.2, 0.4, ..., up to the 10 s cap; strictly increasing.
        assert_eq!(bounds.first().copied(), Some(0.2));
        assert_eq!(bounds.last().copied(), Some(10.0));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        // Degenerate policies still yield a valid (strictly increasing) set.
        let none = RetryPolicy::none().backoff_histogram_bounds();
        assert!(!none.is_empty());
        assert!(none.windows(2).all(|w| w[0] < w[1]), "{none:?}");
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy::none().validate().is_ok());
        let bad = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert!(bad.validate().is_err());
        let bad = RetryPolicy { multiplier: 0.5, ..RetryPolicy::default() };
        assert!(bad.validate().is_err());
        let bad = RetryPolicy { jitter: 1.5, ..RetryPolicy::default() };
        assert!(bad.validate().is_err());
        let bad = RetryPolicy { base_delay_secs: -1.0, ..RetryPolicy::default() };
        assert!(bad.validate().is_err());
        // Non-finite values: an infinite delay or multiplier used to validate and
        // then panic the backoff histogram at the first retry.
        let ok = RetryPolicy::default();
        for bad in [
            RetryPolicy { base_delay_secs: f64::INFINITY, ..ok },
            RetryPolicy { base_delay_secs: f64::NAN, ..ok },
            RetryPolicy { max_delay_secs: f64::INFINITY, ..ok },
            RetryPolicy { max_delay_secs: f64::NAN, ..ok },
            RetryPolicy { multiplier: f64::INFINITY, ..ok },
            RetryPolicy { multiplier: f64::NAN, ..ok },
            RetryPolicy { jitter: f64::NAN, ..ok },
        ] {
            assert!(matches!(bad.validate(), Err(CloudError::InvalidParams(_))), "{bad:?}");
        }
    }
}
