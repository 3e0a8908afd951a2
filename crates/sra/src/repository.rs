//! Deterministic SRA repository.
//!
//! Binds a catalog of accessions to a reference assembly + annotation: fetching an
//! accession simulates its reads (seeded by the accession id, so content is stable
//! across fetches and processes) and packs them into an [`SraArchive`]. Bulk
//! accessions use the high-mappability bulk simulator; single-cell accessions use the
//! low-mappability single-cell simulator — the ground truth behind Fig. 4's early
//! stops.

use std::collections::HashMap;
use std::sync::Arc;

use crate::accession::{AccessionMeta, LibraryLayout};
use crate::archive::{ArchiveWriter, SraArchive};
use crate::SraError;
use genomics::{Annotation, Assembly, ReadSimulator, SimulatorParams};

/// The repository: catalog + content generators.
pub struct SraRepository {
    assembly: Arc<Assembly>,
    annotation: Arc<Annotation>,
    catalog: HashMap<String, AccessionMeta>,
    /// Optional cap applied to spot counts at fetch time (scale experiments down
    /// without changing the catalog's size *metadata*).
    spot_cap: Option<u64>,
}

impl SraRepository {
    /// Create a repository serving `catalog` with reads simulated from
    /// `assembly`/`annotation`.
    pub fn new(
        assembly: Arc<Assembly>,
        annotation: Arc<Annotation>,
        catalog: Vec<AccessionMeta>,
    ) -> SraRepository {
        SraRepository {
            assembly,
            annotation,
            catalog: catalog.into_iter().map(|m| (m.id.clone(), m)).collect(),
            spot_cap: None,
        }
    }

    /// Cap the number of reads actually generated per fetch (experiment scaling).
    /// Metadata (`spots`, sizes) is unaffected.
    pub fn with_spot_cap(mut self, cap: u64) -> SraRepository {
        self.spot_cap = Some(cap);
        self
    }

    /// Number of accessions in the catalog.
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.catalog.is_empty()
    }

    /// Catalog metadata for an accession.
    pub fn meta(&self, id: &str) -> Result<&AccessionMeta, SraError> {
        self.catalog.get(id).ok_or_else(|| SraError::UnknownAccession(id.to_string()))
    }

    /// All accession ids, sorted (stable iteration order for experiments).
    pub fn ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.catalog.keys().cloned().collect();
        v.sort();
        v
    }

    /// Materialize an accession's archive (the repository side of `prefetch`). Every
    /// fetch simulates every read, and packs its bases straight into the archive.
    pub fn fetch(&self, id: &str) -> Result<SraArchive, SraError> {
        let meta = self.meta(id)?;
        let spots = self.spot_cap.map_or(meta.spots, |cap| meta.spots.min(cap)) as usize;
        let mut params = SimulatorParams::for_library(meta.strategy.library_type());
        params.read_len = meta.read_len as usize;
        let mut sim =
            ReadSimulator::new(&self.assembly, &self.annotation, params, meta.content_seed())?;
        let quality = sim.quality();
        let n_reads = spots * meta.reads_per_spot() as usize;
        let mut archive = ArchiveWriter::new(
            &meta.id,
            meta.strategy,
            meta.layout,
            meta.read_len as usize,
            n_reads,
        )?;
        match meta.layout {
            LibraryLayout::Single => sim.simulate_codes(spots, |read| archive.push(read, quality)),
            LibraryLayout::Paired => sim.simulate_pair_codes(spots, |r1, r2| {
                archive.push(r1, quality);
                archive.push(r2, quality);
            }),
        }
        Ok(archive.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accession::{CatalogParams, LibraryStrategy};
    use genomics::{EnsemblGenerator, EnsemblParams, Release};

    fn repo() -> SraRepository {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = Arc::new(g.generate(Release::R111));
        let ann =
            Arc::new(Annotation::simulate(&asm, &g).unwrap());
        let mut params = CatalogParams::default();
        params.n_accessions = 20;
        params.bulk_spots_median = 200;
        params.single_cell_fraction = 0.2;
        SraRepository::new(asm, ann, params.generate().unwrap())
    }

    #[test]
    fn fetch_is_deterministic() {
        let r = repo();
        let id = &r.ids()[0];
        let a = r.fetch(id).unwrap();
        let b = r.fetch(id).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_accessions_have_different_content() {
        let r = repo();
        let ids = r.ids();
        let a = r.fetch(&ids[0]).unwrap();
        let b = r.fetch(&ids[1]).unwrap();
        assert_ne!(a.bytes(), b.bytes());
    }

    #[test]
    fn archive_matches_catalog_metadata() {
        let r = repo();
        for id in r.ids().iter().take(5) {
            let meta = r.meta(id).unwrap().clone();
            let arc = r.fetch(id).unwrap();
            assert_eq!(arc.spots(), meta.spots);
            assert_eq!(arc.read_len, meta.read_len);
            assert_eq!(arc.strategy, meta.strategy);
            assert_eq!(arc.accession, meta.id);
        }
    }

    #[test]
    fn spot_cap_limits_generated_reads_only() {
        let r = repo().with_spot_cap(50);
        let id = r.ids()[0].clone();
        let meta_spots = r.meta(&id).unwrap().spots;
        assert!(meta_spots > 50, "test premise: accession larger than cap");
        let arc = r.fetch(&id).unwrap();
        assert_eq!(arc.spots(), 50);
        assert_eq!(r.meta(&id).unwrap().spots, meta_spots, "metadata unchanged");
    }

    #[test]
    fn paired_accessions_yield_paired_archives() {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = Arc::new(g.generate(Release::R111));
        let ann =
            Arc::new(Annotation::simulate(&asm, &g).unwrap());
        let mut params = CatalogParams::default();
        params.n_accessions = 10;
        params.bulk_spots_median = 150;
        params.single_cell_fraction = 0.0;
        params.paired_fraction = 1.0;
        let repo = SraRepository::new(asm, ann, params.generate().unwrap());
        let id = repo.ids()[0].clone();
        let meta = repo.meta(&id).unwrap().clone();
        assert_eq!(meta.layout, crate::accession::LibraryLayout::Paired);
        let arc = repo.fetch(&id).unwrap();
        assert_eq!(arc.layout, crate::accession::LibraryLayout::Paired);
        assert_eq!(arc.spots(), meta.spots);
        assert_eq!(arc.n_reads(), meta.spots * 2);
        let pairs = arc.decode_all_pairs().unwrap();
        assert_eq!(pairs.len() as u64, meta.spots);
    }

    #[test]
    fn unknown_accession_errors() {
        let r = repo();
        assert!(matches!(r.fetch("SRR404"), Err(SraError::UnknownAccession(_))));
        assert!(r.meta("SRR404").is_err());
    }

    #[test]
    fn single_cell_archives_decode_with_matching_strategy() {
        let r = repo();
        let sc_id = r
            .ids()
            .into_iter()
            .find(|id| r.meta(id).unwrap().strategy == LibraryStrategy::SingleCell)
            .expect("catalog has single-cell accessions");
        let arc = r.fetch(&sc_id).unwrap();
        assert_eq!(arc.strategy, LibraryStrategy::SingleCell);
        let reads = arc.decode_all().unwrap();
        assert_eq!(reads.len() as u64, arc.spots());
    }
}
