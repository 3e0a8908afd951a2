//! S3 as a transfer-cost model.
//!
//! Instances GET the index manifest at init and PUT their results on success. No
//! campaign reads an object's bytes back, so nothing is stored: an S3 call is its
//! modeled duration (`latency + bytes / bandwidth`, plus the latency of each failed
//! attempt and the backoff between attempts) and the attempts it took.

use crate::faults::{FaultInjector, FaultOp, Retried};
use crate::time::SimDuration;

/// Sustained in-region S3 throughput to a large instance, bytes/second.
const BANDWIDTH_BYTES_PER_SEC: f64 = 400e6;
/// Fixed per-request latency, seconds.
const LATENCY_SECS: f64 = 0.05;

/// Modeled duration of one successful request moving `bytes`.
fn transfer_time(bytes: u64) -> SimDuration {
    SimDuration::from_secs(LATENCY_SECS + bytes as f64 / BANDWIDTH_BYTES_PER_SEC)
}

/// One request for `bytes` driven through a fault injector: on success the
/// duration, each failed attempt's latency and the backoff slept between attempts
/// included, so injected faults slow the simulated clock the way real 503s slow
/// a worker.
fn transfer_retrying(
    op: FaultOp,
    bytes: u64,
    faults: &mut FaultInjector,
    serial: u64,
) -> Retried<SimDuration> {
    let mut r = faults.with_retry(serial, op, || Ok(transfer_time(bytes)));
    let overhead = SimDuration::from_secs((r.attempts - 1) as f64 * LATENCY_SECS) + r.backoff;
    r.outcome = r.outcome.map(|d| d + overhead);
    r
}

/// A GET of `bytes` bytes by instance `serial`; see the module docs for the
/// duration.
pub fn get_retrying(bytes: u64, faults: &mut FaultInjector, serial: u64) -> Retried<SimDuration> {
    transfer_retrying(FaultOp::S3Get, bytes, faults, serial)
}

/// A PUT of `bytes` bytes by instance `serial`, priced like [`get_retrying`].
pub fn upload_retrying(
    bytes: u64,
    faults: &mut FaultInjector,
    serial: u64,
) -> Retried<SimDuration> {
    transfer_retrying(FaultOp::S3Put, bytes, faults, serial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::CloudError;

    #[test]
    fn put_get_round_trip_with_accounting() {
        // Fault-free: one attempt each way, latency plus bytes over bandwidth.
        let mut clean = FaultInjector::new(FaultPlan::default());
        let up = upload_retrying(400_000_000, &mut clean, 0);
        assert_eq!((up.attempts, up.failures().len()), (1, 0));
        assert!((up.outcome.unwrap().as_secs() - 1.05).abs() < 1e-12);
        let d_down = get_retrying(400_000_000, &mut clean, 0).outcome.unwrap();
        assert!((d_down.as_secs() - 1.05).abs() < 1e-12, "{d_down}");
        let d_small = upload_retrying(100, &mut clean, 0).outcome.unwrap();
        assert_eq!(d_small, transfer_time(100));
        assert_eq!(clean.tallies().retries_exhausted, 0);
    }

    #[test]
    fn retrying_ops_charge_failed_attempts_and_backoff() {
        // Always-failing S3 GET and PUT exhaust their attempts.
        let mut inj = FaultInjector::new(FaultPlan { s3_get_fail: 1.0, seed: 1, ..FaultPlan::default() });
        let err = get_retrying(100, &mut inj, 0).outcome.unwrap_err();
        assert!(matches!(err, CloudError::RetriesExhausted(_)));
        let mut inj = FaultInjector::new(FaultPlan { s3_put_fail: 1.0, seed: 1, ..FaultPlan::default() });
        let err = upload_retrying(100, &mut inj, 0).outcome.unwrap_err();
        assert!(matches!(err, CloudError::RetriesExhausted(_)));
        assert_eq!(inj.tallies().retries_exhausted, 1);
        // Half the attempts fail: each failed attempt adds its latency and its backoff.
        let plan = FaultPlan { s3_get_fail: 0.5, seed: 3, ..FaultPlan::default() };
        let (mut inj, mut twin) = (FaultInjector::new(plan.clone()), FaultInjector::new(plan));
        let mut retried = 0;
        for serial in 0..32 {
            let got = get_retrying(100, &mut inj, serial);
            let r = twin.with_retry(serial, FaultOp::S3Get, || Ok(()));
            assert_eq!((got.attempts, got.failures()), (r.attempts, r.failures()), "serial {serial}");
            let Ok(d) = got.outcome else { continue };
            let overhead = SimDuration::from_secs((r.attempts - 1) as f64 * LATENCY_SECS) + r.backoff;
            assert_eq!(d, transfer_time(100) + overhead, "serial {serial}");
            retried += u32::from(r.attempts > 1);
        }
        assert!(retried > 0, "premise: some GET needed a retry");
    }
}
