//! S3-style object store.
//!
//! Holds the pre-built STAR index that instances download at init and the pipeline
//! results they upload on success. Transfer durations are modeled
//! (`bytes / bandwidth + latency`) for the cloud clock; contents are real bytes so
//! integration tests can round-trip archives and indices through it.

use crate::faults::{FaultInjector, FaultOp};
use crate::retry::RetryPolicy;
use crate::time::SimDuration;
use crate::CloudError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use telemetry::JsonValue;

/// Transfer cost model for the store.
#[derive(Clone, Copy, Debug)]
pub struct TransferModel {
    /// Sustained throughput in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-request latency in seconds.
    pub latency_secs: f64,
}

impl Default for TransferModel {
    /// ~400 MB/s in-region S3 to a large instance, 50 ms request latency.
    fn default() -> Self {
        TransferModel { bandwidth_bytes_per_sec: 400e6, latency_secs: 0.05 }
    }
}

impl TransferModel {
    /// Modeled duration to move `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        assert!(self.bandwidth_bytes_per_sec > 0.0);
        SimDuration::from_secs(self.latency_secs + bytes as f64 / self.bandwidth_bytes_per_sec)
    }
}

/// The object store: key → bytes, with transfer accounting.
#[derive(Debug, Default)]
pub struct ObjectStore {
    objects: BTreeMap<String, Arc<[u8]>>,
    transfer: TransferModel,
    bytes_in: u64,
    bytes_out: u64,
}

impl ObjectStore {
    /// An empty store with the default transfer model.
    pub fn new() -> ObjectStore {
        ObjectStore::with_model(TransferModel::default())
    }

    /// An empty store with a custom transfer model.
    pub fn with_model(transfer: TransferModel) -> ObjectStore {
        ObjectStore { objects: BTreeMap::new(), transfer, bytes_in: 0, bytes_out: 0 }
    }

    /// Upload an object; returns the modeled transfer duration.
    pub fn put(&mut self, key: &str, data: Arc<[u8]>) -> SimDuration {
        let d = self.charge_upload(data.len() as u64);
        self.objects.insert(key.to_string(), data);
        d
    }

    /// Count `bytes` uploaded; returns their modeled transfer duration.
    fn charge_upload(&mut self, bytes: u64) -> SimDuration {
        self.bytes_in += bytes;
        self.transfer.transfer_time(bytes)
    }

    /// Download an object; returns the data and the modeled transfer duration.
    pub fn get(&mut self, key: &str) -> Result<(Arc<[u8]>, SimDuration), CloudError> {
        let data =
            self.objects.get(key).cloned().ok_or_else(|| CloudError::NoSuchKey(key.to_string()))?;
        self.bytes_out += data.len() as u64;
        let d = self.transfer.transfer_time(data.len() as u64);
        Ok((data, d))
    }

    /// Object size without transferring.
    pub fn head(&self, key: &str) -> Result<u64, CloudError> {
        self.objects
            .get(key)
            .map(|d| d.len() as u64)
            .ok_or_else(|| CloudError::NoSuchKey(key.to_string()))
    }

    /// Delete an object (idempotent, like S3).
    pub fn delete(&mut self, key: &str) {
        self.objects.remove(key);
    }

    /// Keys under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.objects.keys().filter(|k| k.starts_with(prefix)).cloned().collect()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total bytes uploaded / downloaded so far.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_in, self.bytes_out)
    }

    /// [`Self::get`] driven through a fault injector and retry policy. The returned
    /// duration charges each failed attempt's request latency plus the backoff slept
    /// between attempts, so injected faults slow the simulated clock the way real
    /// 503s slow a worker.
    pub fn get_retrying(
        &mut self,
        key: &str,
        faults: &mut FaultInjector,
        serial: u64,
        retry: &RetryPolicy,
    ) -> Result<(Arc<[u8]>, SimDuration), CloudError> {
        let latency = self.transfer.latency_secs;
        let r = faults.with_retry(serial, FaultOp::S3Get, retry, || self.get(key));
        let overhead =
            SimDuration::from_secs((r.attempts - 1) as f64 * latency) + r.backoff;
        if r.outcome.is_ok() {
            faults.emit("s3_get", || {
                vec![
                    ("key", JsonValue::from(key)),
                    ("instance", JsonValue::from(serial)),
                    ("attempts", JsonValue::from(r.attempts)),
                ]
            });
        }
        r.outcome.map(|(data, d)| (data, d + overhead))
    }

    /// A PUT of `bytes` bytes under `key` that nothing reads back (a campaign's
    /// per-accession results), driven through a fault injector and retry policy;
    /// see [`Self::get_retrying`] for the duration accounting. Charged like
    /// [`Self::put`] — transfer time and traffic — but the store keeps no copy, so
    /// write-only outputs do not grow it. `key` is formatted only for the `s3_put`
    /// event of an attached recorder.
    pub fn upload_retrying(
        &mut self,
        key: fmt::Arguments<'_>,
        bytes: u64,
        faults: &mut FaultInjector,
        serial: u64,
        retry: &RetryPolicy,
    ) -> Result<SimDuration, CloudError> {
        let latency = self.transfer.latency_secs;
        let r = faults.with_retry(serial, FaultOp::S3Put, retry, || Ok(self.charge_upload(bytes)));
        let overhead =
            SimDuration::from_secs((r.attempts - 1) as f64 * latency) + r.backoff;
        if r.outcome.is_ok() {
            faults.emit("s3_put", || {
                vec![
                    ("key", JsonValue::from(key.to_string())),
                    ("instance", JsonValue::from(serial)),
                    ("attempts", JsonValue::from(r.attempts)),
                    ("bytes", JsonValue::from(bytes)),
                ]
            });
        }
        r.outcome.map(|d| d + overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip_with_accounting() {
        let mut s = ObjectStore::with_model(TransferModel {
            bandwidth_bytes_per_sec: 100.0,
            latency_secs: 1.0,
        });
        let d_up = s.put("bucket/index.bin", Arc::from(vec![1u8; 500]));
        assert!((d_up.as_secs() - 6.0).abs() < 1e-9);
        let (data, d_down) = s.get("bucket/index.bin").unwrap();
        assert_eq!(data.len(), 500);
        assert!((d_down.as_secs() - 6.0).abs() < 1e-9);
        assert_eq!(s.traffic(), (500, 500));
    }

    #[test]
    fn missing_keys_error() {
        let mut s = ObjectStore::new();
        assert!(matches!(s.get("nope"), Err(CloudError::NoSuchKey(_))));
        assert!(s.head("nope").is_err());
    }

    #[test]
    fn list_filters_by_prefix_sorted() {
        let mut s = ObjectStore::new();
        s.put("results/SRR2", Arc::from(&b"x"[..]));
        s.put("results/SRR1", Arc::from(&b"y"[..]));
        s.put("index/r111", Arc::from(&b"z"[..]));
        assert_eq!(s.list("results/"), vec!["results/SRR1".to_string(), "results/SRR2".to_string()]);
        assert_eq!(s.list("").len(), 3);
    }

    #[test]
    fn delete_is_idempotent() {
        let mut s = ObjectStore::new();
        s.put("k", Arc::from(&b"v"[..]));
        s.delete("k");
        s.delete("k");
        assert!(s.is_empty());
    }

    #[test]
    fn head_does_not_count_traffic() {
        let mut s = ObjectStore::new();
        s.put("k", Arc::from(vec![0u8; 100]));
        let (in0, out0) = s.traffic();
        assert_eq!(s.head("k").unwrap(), 100);
        assert_eq!(s.traffic(), (in0, out0));
    }

    #[test]
    fn retrying_ops_charge_failed_attempts_and_backoff() {
        use crate::faults::FaultPlan;
        let mut s = ObjectStore::with_model(TransferModel {
            bandwidth_bytes_per_sec: 100.0,
            latency_secs: 1.0,
        });
        s.put("k", Arc::from(vec![0u8; 100]));
        // Always-failing S3 GET exhausts the policy.
        let mut inj = FaultInjector::new(FaultPlan { s3_get_fail: 1.0, seed: 1, ..FaultPlan::default() });
        let policy = RetryPolicy::default();
        let err = s.get_retrying("k", &mut inj, 0, &policy).unwrap_err();
        assert!(matches!(err, CloudError::RetriesExhausted(_)));
        assert_eq!(inj.tallies().retries_exhausted, 1);
        // Fault-free path matches the plain op's duration.
        let mut clean = FaultInjector::new(FaultPlan::default());
        let (data, d) = s.get_retrying("k", &mut clean, 0, &policy).unwrap();
        assert_eq!(data.len(), 100);
        assert!((d.as_secs() - 2.0).abs() < 1e-9, "one attempt, no overhead: {d}");
        let traffic = s.traffic();
        let d_up = s.upload_retrying(format_args!("k2"), 100, &mut clean, 0, &policy).unwrap();
        assert!((d_up.as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(s.traffic(), (traffic.0 + 100, traffic.1), "the upload is counted");
        assert!(s.head("k2").is_err(), "and not kept");
        // Always-failing S3 PUT: the call errs and no attempt counts as traffic.
        let mut inj = FaultInjector::new(FaultPlan { s3_put_fail: 1.0, seed: 1, ..FaultPlan::default() });
        let err = s.upload_retrying(format_args!("k3"), 100, &mut inj, 0, &policy).unwrap_err();
        assert!(matches!(err, CloudError::RetriesExhausted(_)));
        assert_eq!(s.traffic(), (traffic.0 + 100, traffic.1), "a failed upload moves nothing");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn an_upload_is_a_put_without_the_copy() {
        // Same duration, traffic and s3_put event as a retained put of the same
        // bytes; the event's key is formatted only for an enabled recorder.
        use crate::faults::FaultPlan;
        use telemetry::Recorder;
        let policy = RetryPolicy::default();
        let (mut kept, mut uploads) = (ObjectStore::new(), ObjectStore::new());
        let rec = Arc::new(Recorder::new());
        let mut inj = FaultInjector::new(FaultPlan::default());
        inj.attach_recorder(Arc::clone(&rec));
        for serial in 0..8 {
            let name = format!("SRR{serial}");
            let bytes = name.len() as u64;
            let d = uploads.upload_retrying(format_args!("results/{name}"), bytes, &mut inj, serial, &policy);
            assert_eq!(d.unwrap(), kept.put(&format!("results/{name}"), Arc::from(name.as_bytes())));
        }
        assert_eq!(uploads.traffic(), kept.traffic());
        assert!(uploads.is_empty());
        let log = rec.events_ndjson();
        let put = "\"kind\":\"s3_put\",\"key\":\"results/SRR7\",\"instance\":7,\"attempts\":1,\"bytes\":4";
        assert!(log.contains(put), "{log}");
        // A disabled recorder is never kept, so nothing is formatted for it.
        let mut quiet = FaultInjector::new(FaultPlan::default());
        quiet.attach_recorder(Arc::new(Recorder::disabled()));
        let d = uploads.upload_retrying(format_args!("{}", Unformattable), 1, &mut quiet, 0, &policy);
        assert!(d.is_ok());
    }

    /// A key that fails the test if anything formats it.
    struct Unformattable;

    impl fmt::Display for Unformattable {
        fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
            panic!("formatted a key for a recorder that records nothing")
        }
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut s = ObjectStore::new();
        s.put("k", Arc::from(&b"old"[..]));
        s.put("k", Arc::from(&b"newer"[..]));
        assert_eq!(s.head("k").unwrap(), 5);
        assert_eq!(s.len(), 1);
    }
}
