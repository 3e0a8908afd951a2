//! `prefetch` tool model — pipeline step 1.
//!
//! Downloads an accession's `.sra` from the repository. The real tool's cost is
//! network transfer; [`NetworkModel`] charges `latency + bytes/bandwidth` seconds of
//! *modeled* time (nothing sleeps — the cloud simulator advances its own clock by the
//! returned durations).

use crate::repository::SraRepository;
use crate::{SraArchive, SraError};

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

/// Result of a prefetch: the archive plus accounting.
#[derive(Clone, Debug)]
pub struct PrefetchOutput {
    /// The downloaded archive.
    pub archive: SraArchive,
    /// Bytes transferred.
    pub bytes: u64,
    /// Modeled transfer time in seconds.
    pub modeled_secs: f64,
}

/// The `prefetch` tool bound to a network model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Prefetch {
    /// Network cost model used for time accounting.
    pub network: NetworkModel,
}

impl Prefetch {
    /// Create with a given network model.
    pub fn new(network: NetworkModel) -> Prefetch {
        Prefetch { network }
    }

    /// Download `accession` from `repo`.
    pub fn run(&self, repo: &SraRepository, accession: &str) -> Result<PrefetchOutput, SraError> {
        let archive = repo.fetch(accession)?;
        let bytes = archive.size_bytes();
        Ok(PrefetchOutput { archive, bytes, modeled_secs: self.network.transfer_secs(bytes) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accession::CatalogParams;
    use genomics::annotation::AnnotationParams;
    use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
    use std::sync::Arc;

    fn repo() -> SraRepository {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = Arc::new(g.generate(Release::R111));
        let ann =
            Arc::new(Annotation::simulate(&asm, &g, &AnnotationParams::default()).unwrap());
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
        let p = Prefetch::new(NetworkModel { bandwidth_bytes_per_sec: 1e6, latency_secs: 0.5 });
        let out = p.run(&r, &id).unwrap();
        assert_eq!(out.bytes, out.archive.size_bytes());
        let expect = 0.5 + out.bytes as f64 / 1e6;
        assert!((out.modeled_secs - expect).abs() < 1e-9);
        assert_eq!(out.archive.accession, id);
    }

    #[test]
    fn bigger_accessions_cost_more_time() {
        let r = repo();
        let p = Prefetch::default();
        let mut costs: Vec<(u64, f64)> = r
            .ids()
            .iter()
            .map(|id| {
                let out = p.run(&r, id).unwrap();
                (out.bytes, out.modeled_secs)
            })
            .collect();
        costs.sort_by_key(|&(b, _)| b);
        assert!(costs.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn unknown_accession_propagates() {
        let r = repo();
        assert!(Prefetch::default().run(&r, "SRRNOPE").is_err());
    }
}
