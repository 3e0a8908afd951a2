//! Simulated time.
//!
//! `SimTime` is seconds since simulation start as an `f64` wrapped with total
//! ordering (no NaNs by construction: all arithmetic goes through checked
//! constructors that assert finiteness). The constructors also fold −0.0 into
//! +0.0, so a time is a finite, non-negative `f64` with the sign bit clear and
//! orders like its bit pattern, which is the key the event heaps compare.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (seconds since start).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span of simulated time in seconds (non-negative).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds. Panics on NaN/∞ or negative values; −0.0 is
    /// stored as +0.0.
    pub fn from_secs(secs: f64) -> SimTime {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs + 0.0)
    }

    /// An integer key that orders exactly like the time: a finite `f64` with
    /// the sign bit clear orders like its bits.
    pub(crate) fn to_key(self) -> u64 {
        self.0.to_bits()
    }

    /// The time [`SimTime::to_key`] was taken from.
    pub(crate) fn from_key(key: u64) -> SimTime {
        SimTime(f64::from_bits(key))
    }

    /// Seconds since simulation start.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// Hours since simulation start.
    pub fn as_hours(&self) -> f64 {
        self.0 / 3600.0
    }

    /// Duration since an earlier instant. Panics if `earlier` is later.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds. Panics on NaN/∞ or negative values; −0.0 is
    /// stored as +0.0.
    pub fn from_secs(secs: f64) -> SimDuration {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimDuration: {secs}");
        SimDuration(secs + 0.0)
    }

    /// Construct from hours.
    pub fn from_hours(hours: f64) -> SimDuration {
        SimDuration::from_secs(hours * 3600.0)
    }

    /// Seconds.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// Hours.
    pub fn as_hours(&self) -> f64 {
        self.0 / 3600.0
    }
}

// SimTime has no NaN by construction, so Eq/Ord are sound.
impl Eq for SimTime {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}
impl Eq for SimDuration {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("SimDuration is never NaN")
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600.0 {
            write!(f, "{:.2}h", self.as_hours())
        } else {
            write!(f, "{:.1}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_works() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t.as_secs(), 15.0);
        assert_eq!((t - SimTime::from_secs(5.0)).as_secs(), 10.0);
        let mut d = SimDuration::from_secs(1.0);
        d += SimDuration::from_hours(1.0);
        assert_eq!(d.as_secs(), 3601.0);
        assert!((d.as_hours() - 3601.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn series_takes_sim_seconds() {
        // The series lives in `telemetry`; callers pass `SimTime::as_secs()`.
        let mut s = telemetry::TimeSeries::new();
        s.record(SimTime::from_secs(0.0).as_secs(), 2.0);
        s.record(SimTime::from_secs(10.0).as_secs(), 4.0);
        assert!((s.integral_until(SimTime::from_secs(15.0).as_secs()) - 40.0).abs() < 1e-12);
        assert_eq!(s.peak(), 4.0);
        assert_eq!(s.min(), 2.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime::from_secs(3.0), SimTime::ZERO, SimTime::from_secs(1.5)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2].as_secs(), 3.0);
    }

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        assert_eq!(SimTime::from_secs(-0.0).as_secs().to_bits(), 0);
        assert_eq!(SimDuration::from_secs(-0.0).as_secs().to_bits(), 0);
        assert_eq!(SimTime::from_secs(-0.0).to_key(), SimTime::ZERO.to_key());
    }

    #[test]
    fn keys_order_like_times_and_round_trip() {
        let secs = [0.0, 1e-310, f64::MIN_POSITIVE, 1e-9, 0.5, 1.0, 120.0, 1e12, f64::MAX];
        for w in secs.windows(2) {
            let (a, b) = (SimTime::from_secs(w[0]), SimTime::from_secs(w[1]));
            assert!(a < b && a.to_key() < b.to_key(), "{a:?} vs {b:?}");
        }
        for s in secs {
            let t = SimTime::from_secs(s);
            assert_eq!(SimTime::from_key(t.to_key()).as_secs().to_bits(), s.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "invalid SimTime")]
    fn rejects_negative_time() {
        SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid SimDuration")]
    fn rejects_nan_duration() {
        SimDuration::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn since_panics_when_earlier_is_later() {
        let _ = SimTime::from_secs(1.0).since(SimTime::from_secs(2.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(30.0).to_string(), "30.0s");
        assert_eq!(SimDuration::from_hours(2.0).to_string(), "2.00h");
        assert_eq!(SimTime::from_secs(12.34).to_string(), "12.3s");
    }
}
