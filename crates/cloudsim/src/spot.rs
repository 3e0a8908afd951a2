//! Spot market model: discounted pricing and Poisson interruptions.
//!
//! The paper's architecture runs the AutoScalingGroup "in spot mode for cheaper
//! processing"; the SQS visibility timeout makes interrupted work re-deliverable.
//! [`SpotMarket`] provides the two knobs that matter: a price discount factor and a
//! memoryless interruption process (exponential inter-arrival per instance).

use crate::time::{SimDuration, SimTime};
use crate::CloudError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spot market parameters.
#[derive(Clone, Copy, Debug)]
pub struct SpotMarket {
    /// Spot price as a fraction of on-demand (AWS spot typically 0.3–0.4 for r6a).
    pub price_factor: f64,
    /// Mean interruptions per instance-hour (0 disables interruptions).
    pub interruptions_per_hour: f64,
    /// Seed for the interruption process.
    pub seed: u64,
}

impl Default for SpotMarket {
    fn default() -> Self {
        SpotMarket { price_factor: 0.35, interruptions_per_hour: 0.0, seed: 7 }
    }
}

/// Deterministic exponential waiting time (hours) at `rate_per_hour`, addressed by
/// `(seed, stream)`. The seeded sampler behind [`SpotMarket::sample_interruption`],
/// exposed so fault-injection layers (burst windows) draw from the same process.
pub fn exponential_hours(seed: u64, stream: u64, rate_per_hour: f64) -> f64 {
    assert!(rate_per_hour > 0.0);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream));
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() / rate_per_hour
}

/// Which process produced a reclaim: the market's base Poisson stream or a
/// fault-plan [`crate::faults::SpotBurst`] window. Both flow through the same
/// schedule ([`crate::faults::FaultInjector::reclaim_schedule`]) so interruption
/// *notices* cannot diverge between the two sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReclaimSource {
    /// Base spot-market interruption ([`SpotMarket::sample_interruption`]).
    Market,
    /// Elevated-pressure burst window from the fault plan.
    Burst,
}

impl ReclaimSource {
    /// Stable snake_case name, used in telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            ReclaimSource::Market => "market",
            ReclaimSource::Burst => "burst",
        }
    }
}

/// One scheduled spot reclaim for an instance: the instant capacity is taken
/// back, tagged with the process that sampled it. AWS precedes the reclaim with
/// a two-minute interruption notice; the simulation derives the notice instant
/// from `at` minus the plan's notice lead time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reclaim {
    /// When the instance is reclaimed.
    pub at: SimTime,
    /// Which sampling process produced it.
    pub source: ReclaimSource,
}

impl SpotMarket {
    /// Validate the market: a NaN or infinite price factor would price every
    /// spot hour at NaN, and a NaN rate passes the `<= 0` "disabled" check only
    /// to panic the sampler at the first launch.
    pub fn validate(&self) -> Result<(), CloudError> {
        let knobs = [
            ("price_factor", self.price_factor),
            ("interruptions_per_hour", self.interruptions_per_hour),
        ];
        if let Some((name, _)) = knobs.iter().find(|(_, v)| !(v.is_finite() && *v >= 0.0)) {
            return Err(CloudError::InvalidParams(format!(
                "spot market {name} must be finite and >= 0"
            )));
        }
        Ok(())
    }

    /// Spot USD/hour for an instance type.
    pub fn hourly_price(&self, on_demand_hourly_usd: f64) -> f64 {
        on_demand_hourly_usd * self.price_factor
    }

    /// Sample the interruption time for an instance launched at `launched_at`.
    /// Returns `None` when interruptions are disabled. Deterministic per
    /// `(seed, instance_serial)`.
    pub fn sample_interruption(&self, launched_at: SimTime, instance_serial: u64) -> Option<SimTime> {
        if self.interruptions_per_hour <= 0.0 {
            return None;
        }
        let hours = exponential_hours(self.seed, instance_serial, self.interruptions_per_hour);
        Some(launched_at + SimDuration::from_hours(hours))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spot_price_is_discounted() {
        let m = SpotMarket { price_factor: 0.35, ..SpotMarket::default() };
        assert!((m.hourly_price(1.0) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_non_finite_and_negative_knobs() {
        let ok = SpotMarket::default();
        assert!(ok.validate().is_ok());
        for bad in [
            SpotMarket { price_factor: f64::NAN, ..ok },
            SpotMarket { price_factor: f64::INFINITY, ..ok },
            SpotMarket { price_factor: -0.1, ..ok },
            SpotMarket { interruptions_per_hour: f64::NAN, ..ok },
            SpotMarket { interruptions_per_hour: f64::INFINITY, ..ok },
            SpotMarket { interruptions_per_hour: -1.0, ..ok },
        ] {
            assert!(matches!(bad.validate(), Err(CloudError::InvalidParams(_))), "{bad:?}");
        }
    }

    #[test]
    fn zero_rate_disables_interruptions() {
        let m = SpotMarket::default();
        assert!(m.sample_interruption(SimTime::ZERO, 1).is_none());
    }

    #[test]
    fn interruptions_are_deterministic_per_instance() {
        let m = SpotMarket { interruptions_per_hour: 0.5, ..SpotMarket::default() };
        let a = m.sample_interruption(SimTime::ZERO, 42).unwrap();
        let b = m.sample_interruption(SimTime::ZERO, 42).unwrap();
        assert_eq!(a, b);
        let c = m.sample_interruption(SimTime::ZERO, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn mean_interruption_time_tracks_rate() {
        let m = SpotMarket { interruptions_per_hour: 2.0, ..SpotMarket::default() };
        let n = 2000;
        let mean_hours: f64 = (0..n)
            .map(|i| m.sample_interruption(SimTime::ZERO, i).unwrap().as_hours())
            .sum::<f64>()
            / n as f64;
        // Exponential with λ=2/h → mean 0.5 h.
        assert!((mean_hours - 0.5).abs() < 0.05, "mean {mean_hours}");
    }

    #[test]
    fn interruption_is_after_launch() {
        let m = SpotMarket { interruptions_per_hour: 1.0, ..SpotMarket::default() };
        let launch = SimTime::from_secs(5000.0);
        for i in 0..100 {
            assert!(m.sample_interruption(launch, i).unwrap() > launch);
        }
    }
}
