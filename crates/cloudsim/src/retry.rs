//! Retry: capped exponential backoff with deterministic jitter.
//!
//! The paper's architecture leans on AWS SDK retry behavior for every S3/SQS call;
//! this module reproduces that machinery for the simulator, with the SDK-ish
//! settings as constants: 4 attempts, 200 ms base, doubling, 10 s cap, 10% jitter.
//! The backoff is pure arithmetic — callers supply a uniform `[0, 1)` jitter unit
//! (drawn from the fault injector's hash stream) so a chaos run replays bit-for-bit.

use crate::time::SimDuration;

/// Total attempts per call, including the first.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the second attempt, seconds.
pub const BASE_DELAY_SECS: f64 = 0.2;
/// Backoff ceiling, seconds.
pub const MAX_DELAY_SECS: f64 = 10.0;
/// Geometric growth factor per attempt.
pub const MULTIPLIER: f64 = 2.0;
/// Jitter fraction: each sleep is scaled by `1 - JITTER * u`.
pub const JITTER: f64 = 0.1;

/// Histogram bucket bounds matched to the backoff ladder: the geometric rungs
/// `BASE_DELAY_SECS * MULTIPLIER^k` below the cap, then the cap. Jitter only
/// shrinks a sleep, so every observed backoff lands at or below its rung —
/// buckets line up with attempt numbers instead of smearing across generic
/// latency buckets.
pub const BACKOFF_BUCKETS: &[f64] = &[0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 10.0];

/// Backoff slept *after* failed attempt `attempt` (1-based), given a uniform
/// jitter unit `u` in `[0, 1)`:
/// `min(BASE_DELAY_SECS * MULTIPLIER^(attempt-1), MAX_DELAY_SECS) * (1 - JITTER * u)`.
pub fn backoff_after(attempt: u32, u: f64) -> SimDuration {
    debug_assert!((0.0..1.0).contains(&u) || u == 0.0);
    let exp = BASE_DELAY_SECS * MULTIPLIER.powi(attempt.saturating_sub(1) as i32);
    let capped = exp.min(MAX_DELAY_SECS);
    SimDuration::from_secs(capped * (1.0 - JITTER * u))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically_and_caps() {
        assert!((backoff_after(1, 0.0).as_secs() - 0.2).abs() < 1e-12);
        assert!((backoff_after(2, 0.0).as_secs() - 0.4).abs() < 1e-12);
        assert!((backoff_after(3, 0.0).as_secs() - 0.8).abs() < 1e-12);
        // Far past the cap.
        assert!((backoff_after(20, 0.0).as_secs() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn jitter_shrinks_the_sleep_deterministically() {
        let full = backoff_after(2, 0.0).as_secs();
        let jittered = backoff_after(2, 0.9999).as_secs();
        assert!(jittered < full);
        assert!(jittered > full * (1.0 - JITTER) - 1e-9, "jitter removes at most JITTER");
        assert_eq!(backoff_after(2, 0.25), backoff_after(2, 0.25));
    }

    #[test]
    fn histogram_bounds_follow_the_backoff_ladder() {
        // The rungs multiplied out from the constants: each literal must be that
        // product exactly.
        let mut ladder = vec![BASE_DELAY_SECS];
        let mut b = BASE_DELAY_SECS * MULTIPLIER;
        while b < MAX_DELAY_SECS {
            ladder.push(b);
            b *= MULTIPLIER;
        }
        ladder.push(MAX_DELAY_SECS);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(BACKOFF_BUCKETS), bits(&ladder));
        // Every sleep a call can take lands in a bucket at or below its rung.
        for attempt in 1..MAX_ATTEMPTS {
            let sleep = backoff_after(attempt, 0.0).as_secs();
            assert_eq!(sleep.to_bits(), BACKOFF_BUCKETS[attempt as usize - 1].to_bits());
        }
    }
}
