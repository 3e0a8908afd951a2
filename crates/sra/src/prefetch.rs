//! `prefetch` time model — pipeline step 1.
//!
//! The archive itself comes from [`crate::SraRepository::fetch`]. The real tool's
//! cost is network transfer; [`NetworkModel`] charges `latency + bytes/bandwidth`
//! seconds of *modeled* time (nothing sleeps — the cloud simulator advances its own
//! clock by the returned durations). The pipeline charges the catalog size of the
//! accession, so a spot-capped fetch still costs what the full download would.

use crate::SraError;

/// Simple network cost model.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Sustained throughput in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-transfer latency in seconds (connection + object lookup).
    pub latency_secs: f64,
}

impl Default for NetworkModel {
    /// ~200 MB/s sustained (EC2-to-S3/SRA mirror within region) with 200 ms setup.
    fn default() -> Self {
        NetworkModel { bandwidth_bytes_per_sec: 200e6, latency_secs: 0.2 }
    }
}

impl NetworkModel {
    /// Check that every transfer gets a finite, non-negative duration: a finite,
    /// positive bandwidth and a finite, non-negative latency.
    pub fn validate(&self) -> Result<(), SraError> {
        let rate = self.bandwidth_bytes_per_sec;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SraError::InvalidParams(format!(
                "bandwidth_bytes_per_sec must be finite and positive, got {rate}"
            )));
        }
        if !(self.latency_secs.is_finite() && self.latency_secs >= 0.0) {
            return Err(SraError::InvalidParams(format!(
                "latency_secs must be finite and non-negative, got {}",
                self.latency_secs
            )));
        }
        Ok(())
    }

    /// Modeled seconds to move `bytes`.
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        assert!(self.bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        self.latency_secs + bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accession::CatalogParams;
    use crate::SraRepository;
    use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
    use std::sync::Arc;

    fn repo() -> SraRepository {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = Arc::new(g.generate(Release::R111));
        let ann =
            Arc::new(Annotation::simulate(&asm, &g).unwrap());
        let mut params = CatalogParams::default();
        params.n_accessions = 5;
        params.bulk_spots_median = 300;
        SraRepository::new(asm, ann, params.generate().unwrap())
    }

    #[test]
    fn transfer_time_is_latency_plus_linear() {
        let n = NetworkModel { bandwidth_bytes_per_sec: 100.0, latency_secs: 1.0 };
        assert!((n.transfer_secs(0) - 1.0).abs() < 1e-12);
        assert!((n.transfer_secs(1000) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_returns_archive_with_accounting() {
        let r = repo();
        let id = r.ids()[0].clone();
        let archive = r.fetch(&id).unwrap();
        assert_eq!(archive.accession, id);
        let n = NetworkModel { bandwidth_bytes_per_sec: 1e6, latency_secs: 0.5 };
        let expect = 0.5 + archive.size_bytes() as f64 / 1e6;
        assert!((n.transfer_secs(archive.size_bytes()) - expect).abs() < 1e-9);
    }

    #[test]
    fn bigger_accessions_cost_more_time() {
        let r = repo();
        let n = NetworkModel::default();
        let mut costs: Vec<(u64, f64)> = r
            .ids()
            .iter()
            .map(|id| {
                let bytes = r.fetch(id).unwrap().size_bytes();
                (bytes, n.transfer_secs(bytes))
            })
            .collect();
        costs.sort_by_key(|&(b, _)| b);
        assert!(costs.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(costs[0].0 < costs[costs.len() - 1].0, "premise: the accessions differ in size");
    }

    #[test]
    fn unknown_accession_propagates() {
        assert!(matches!(repo().fetch("SRRNOPE"), Err(SraError::UnknownAccession(_))));
    }
}
