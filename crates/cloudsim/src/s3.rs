//! S3 as a transfer-cost model.
//!
//! Instances GET the index manifest at init and PUT their results on success. No
//! campaign reads an object's bytes back, so nothing is stored: an S3 call is its
//! modeled duration (`latency + bytes / bandwidth`, plus the latency of each failed
//! attempt and the backoff between attempts) and, for an attached recorder, an
//! `s3_get` / `s3_put` event.

use crate::faults::{FaultInjector, FaultOp};
use crate::retry::RetryPolicy;
use crate::time::SimDuration;
use crate::CloudError;
use std::fmt;
use telemetry::JsonValue;

/// Sustained in-region S3 throughput to a large instance, bytes/second.
const BANDWIDTH_BYTES_PER_SEC: f64 = 400e6;
/// Fixed per-request latency, seconds.
const LATENCY_SECS: f64 = 0.05;

/// Modeled duration of one successful request moving `bytes`.
fn transfer_time(bytes: u64) -> SimDuration {
    SimDuration::from_secs(LATENCY_SECS + bytes as f64 / BANDWIDTH_BYTES_PER_SEC)
}

/// One request for `bytes` driven through a fault injector and retry policy:
/// the duration (each failed attempt's latency and the backoff slept between
/// attempts included, so injected faults slow the simulated clock the way real
/// 503s slow a worker) and the attempts it took.
fn transfer_retrying(
    op: FaultOp,
    bytes: u64,
    faults: &mut FaultInjector,
    serial: u64,
    retry: &RetryPolicy,
) -> Result<(SimDuration, u32), CloudError> {
    let r = faults.with_retry(serial, op, retry, || Ok(transfer_time(bytes)));
    let overhead = SimDuration::from_secs((r.attempts - 1) as f64 * LATENCY_SECS) + r.backoff;
    r.outcome.map(|d| (d + overhead, r.attempts))
}

/// A GET of `bytes` bytes under `key` by instance `serial`; see the module docs
/// for the duration.
pub fn get_retrying(
    key: &str,
    bytes: u64,
    faults: &mut FaultInjector,
    serial: u64,
    retry: &RetryPolicy,
) -> Result<SimDuration, CloudError> {
    let (d, attempts) = transfer_retrying(FaultOp::S3Get, bytes, faults, serial, retry)?;
    faults.emit("s3_get", || {
        vec![
            ("key", JsonValue::from(key)),
            ("instance", JsonValue::from(serial)),
            ("attempts", JsonValue::from(attempts)),
        ]
    });
    Ok(d)
}

/// A PUT of `bytes` bytes under `key` by instance `serial`, priced like
/// [`get_retrying`]. `key` is formatted only for the `s3_put` event of an attached
/// recorder.
pub fn upload_retrying(
    key: fmt::Arguments<'_>,
    bytes: u64,
    faults: &mut FaultInjector,
    serial: u64,
    retry: &RetryPolicy,
) -> Result<SimDuration, CloudError> {
    let (d, attempts) = transfer_retrying(FaultOp::S3Put, bytes, faults, serial, retry)?;
    faults.emit("s3_put", || {
        vec![
            ("key", JsonValue::from(key.to_string())),
            ("instance", JsonValue::from(serial)),
            ("attempts", JsonValue::from(attempts)),
            ("bytes", JsonValue::from(bytes)),
        ]
    });
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use std::sync::Arc;
    use telemetry::Recorder;

    #[test]
    fn put_get_round_trip_with_accounting() {
        // Fault-free: one attempt each way, latency plus bytes over bandwidth.
        let policy = RetryPolicy::default();
        let mut clean = FaultInjector::new(FaultPlan::default());
        let d_up = upload_retrying(format_args!("bucket/index.bin"), 400_000_000, &mut clean, 0, &policy);
        assert!((d_up.unwrap().as_secs() - 1.05).abs() < 1e-12);
        let d_down = get_retrying("bucket/index.bin", 400_000_000, &mut clean, 0, &policy).unwrap();
        assert!((d_down.as_secs() - 1.05).abs() < 1e-12, "{d_down}");
        let d_small = upload_retrying(format_args!("k2"), 100, &mut clean, 0, &policy).unwrap();
        assert_eq!(d_small, transfer_time(100));
        assert_eq!(clean.tallies().retries_exhausted, 0);
    }

    #[test]
    fn retrying_ops_charge_failed_attempts_and_backoff() {
        let policy = RetryPolicy::default();
        // Always-failing S3 GET and PUT exhaust the policy.
        let mut inj = FaultInjector::new(FaultPlan { s3_get_fail: 1.0, seed: 1, ..FaultPlan::default() });
        let err = get_retrying("k", 100, &mut inj, 0, &policy).unwrap_err();
        assert!(matches!(err, CloudError::RetriesExhausted(_)));
        let mut inj = FaultInjector::new(FaultPlan { s3_put_fail: 1.0, seed: 1, ..FaultPlan::default() });
        let err = upload_retrying(format_args!("k"), 100, &mut inj, 0, &policy).unwrap_err();
        assert!(matches!(err, CloudError::RetriesExhausted(_)));
        assert_eq!(inj.tallies().retries_exhausted, 1);
        // Half the attempts fail: each failed attempt adds its latency and its backoff.
        let plan = FaultPlan { s3_get_fail: 0.5, seed: 3, ..FaultPlan::default() };
        let (mut inj, mut twin) = (FaultInjector::new(plan.clone()), FaultInjector::new(plan));
        let mut retried = 0;
        for serial in 0..32 {
            let got = get_retrying("k", 100, &mut inj, serial, &policy);
            let r = twin.with_retry(serial, FaultOp::S3Get, &policy, || Ok(()));
            let Ok(d) = got else { continue };
            let overhead = SimDuration::from_secs((r.attempts - 1) as f64 * LATENCY_SECS) + r.backoff;
            assert_eq!(d, transfer_time(100) + overhead, "serial {serial}");
            retried += u32::from(r.attempts > 1);
        }
        assert!(retried > 0, "premise: some GET needed a retry");
    }

    #[test]
    fn an_upload_formats_its_key_only_for_an_enabled_recorder() {
        let policy = RetryPolicy::default();
        let rec = Arc::new(Recorder::new());
        let mut inj = FaultInjector::new(FaultPlan::default());
        inj.attach_recorder(Arc::clone(&rec));
        for serial in 0..8 {
            let name = format!("SRR{serial}");
            let bytes = name.len() as u64;
            let d = upload_retrying(format_args!("results/{name}"), bytes, &mut inj, serial, &policy);
            assert_eq!(d.unwrap(), transfer_time(bytes));
        }
        get_retrying("index/manifest", 19, &mut inj, 9, &policy).unwrap();
        let log = rec.events_ndjson();
        let put = "\"kind\":\"s3_put\",\"key\":\"results/SRR7\",\"instance\":7,\"attempts\":1,\"bytes\":4";
        assert!(log.contains(put), "{log}");
        let get = "\"kind\":\"s3_get\",\"key\":\"index/manifest\",\"instance\":9,\"attempts\":1";
        assert!(log.contains(get), "{log}");
        // A disabled recorder is never kept, so nothing is formatted for it.
        let mut quiet = FaultInjector::new(FaultPlan::default());
        quiet.attach_recorder(Arc::new(Recorder::disabled()));
        let d = upload_retrying(format_args!("{}", Unformattable), 1, &mut quiet, 0, &policy);
        assert!(d.is_ok());
    }

    /// A key that fails the test if anything formats it.
    struct Unformattable;

    impl fmt::Display for Unformattable {
        fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
            panic!("formatted a key for a recorder that records nothing")
        }
    }
}
