//! `prefetch` time model — pipeline step 1.
//!
//! The archive itself comes from [`crate::SraRepository::fetch`]. The real tool's
//! cost is network transfer; [`transfer_secs`] charges `latency + bytes/bandwidth`
//! seconds of *modeled* time (nothing sleeps — the cloud simulator advances its own
//! clock by the returned durations). The pipeline charges the catalog size of the
//! accession, so a spot-capped fetch still costs what the full download would.

/// Sustained throughput, bytes/second: ~200 MB/s, EC2 to an S3/SRA mirror within
/// the region.
pub const BANDWIDTH_BYTES_PER_SEC: f64 = 200e6;
/// Fixed per-transfer latency, seconds (connection + object lookup).
pub const LATENCY_SECS: f64 = 0.2;

/// Modeled seconds to move `bytes`.
pub fn transfer_secs(bytes: u64) -> f64 {
    LATENCY_SECS + bytes as f64 / BANDWIDTH_BYTES_PER_SEC
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accession::CatalogParams;
    use crate::{SraError, SraRepository};
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
        assert!((transfer_secs(0) - 0.2).abs() < 1e-12);
        assert!((transfer_secs(2_000_000_000) - 10.2).abs() < 1e-12);
    }

    #[test]
    fn prefetch_returns_archive_with_accounting() {
        let r = repo();
        let id = r.ids()[0].clone();
        let archive = r.fetch(&id).unwrap();
        assert_eq!(archive.accession, id);
        let expect = LATENCY_SECS + archive.size_bytes() as f64 / BANDWIDTH_BYTES_PER_SEC;
        assert!((transfer_secs(archive.size_bytes()) - expect).abs() < 1e-9);
    }

    #[test]
    fn bigger_accessions_cost_more_time() {
        let r = repo();
        let mut costs: Vec<(u64, f64)> = r
            .ids()
            .iter()
            .map(|id| {
                let bytes = r.fetch(id).unwrap().size_bytes();
                (bytes, transfer_secs(bytes))
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
