//! Accession metadata and workload catalog generation.
//!
//! The paper processes a curated subset of the SRA: human RNA-seq accessions selected
//! by tissue and technical parameters (7216 files, 17 TB). The catalog generator
//! reproduces the *distributional shape* that drives both experiments:
//!
//! * log-normal spot counts (file sizes spread over an order of magnitude — Fig. 3's
//!   49 files average 15.9 GiB with wide variance);
//! * a small fraction of single-cell libraries (the paper found 38/1000 ≈ 3.8 %)
//!   whose spot counts run ~10× a bulk library — that multiplier is what lets 3.8 %
//!   of runs carry 19.5 % of total STAR time in Fig. 4.

use crate::SraError;
use genomics::fnv;
use genomics::simulate::lognormal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Library strategy recorded in SRA metadata (the subset we model).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LibraryStrategy {
    /// Bulk poly-A RNA-seq.
    RnaSeqBulk,
    /// Single-cell 3' RNA-seq.
    SingleCell,
}

/// Library layout recorded in SRA metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LibraryLayout {
    /// One read per spot.
    Single,
    /// Two mates per spot (`fasterq-dump --split-files` territory).
    Paired,
}

impl LibraryStrategy {
    /// The corresponding read-simulator library type.
    pub fn library_type(self) -> genomics::LibraryType {
        match self {
            LibraryStrategy::RnaSeqBulk => genomics::LibraryType::BulkPolyA,
            LibraryStrategy::SingleCell => genomics::LibraryType::SingleCell3Prime,
        }
    }
}

/// Tissues used for catalog metadata (cosmetic but keeps records realistic).
const TISSUES: &[&str] =
    &["lung", "liver", "brain", "heart", "kidney", "muscle", "skin", "blood", "colon", "breast"];

/// Metadata for one SRA accession.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessionMeta {
    /// Accession id, e.g. `"SRR1000042"`.
    pub id: String,
    /// Library strategy.
    pub strategy: LibraryStrategy,
    /// Number of spots (a spot is one read for single layout, a mate pair for
    /// paired layout).
    pub spots: u64,
    /// Read length in bases (per mate).
    pub read_len: u32,
    /// Library layout.
    pub layout: LibraryLayout,
    /// Source tissue label.
    pub tissue: String,
}

impl AccessionMeta {
    /// Reads per spot for this layout.
    pub fn reads_per_spot(&self) -> u64 {
        match self.layout {
            LibraryLayout::Single => 1,
            LibraryLayout::Paired => 2,
        }
    }

    /// Size of the `.sra` file in bytes under the SRA-lite container format
    /// (2 bits/base + 1 quality byte per read + fixed header).
    pub fn sra_size_bytes(&self) -> u64 {
        let reads = self.spots * self.reads_per_spot();
        let packed = (reads * self.read_len as u64).div_ceil(4);
        packed + reads + crate::archive::HEADER_SIZE as u64
    }

    /// Size of the FASTQ output in bytes after `fasterq-dump`
    /// (4 text lines per read: `@id`, bases, `+`, qualities; both mate files for
    /// paired layout).
    pub fn fastq_size_bytes(&self) -> u64 {
        let per_read = (self.id.len() as u64 + 8) + self.read_len as u64 + 2 + self.read_len as u64 + 4;
        self.spots * self.reads_per_spot() * per_read
    }

    /// Deterministic per-accession RNG seed (stable hash of the id).
    pub fn content_seed(&self) -> u64 {
        fnv::fnv1a_with_prime(fnv::OFFSET, CONTENT_SEED_PRIME, self.id.as_bytes())
    }
}

/// The multiplier of [`AccessionMeta::content_seed`]'s FNV-1a: `0x1000_0000_01b3`,
/// not FNV's `0x100_0000_01b3`. Every simulated read of an accession follows from
/// its seed, and `tests/content_pin.rs` pins those reads, so it stays as it was
/// (the archive byte pin hashes with it too).
pub(crate) const CONTENT_SEED_PRIME: u64 = 0x1000_0000_01b3;

/// Spot multiplier of a single-cell accession: they are ~10× larger than bulk.
pub const SINGLE_CELL_SPOT_FACTOR: f64 = 10.0;

/// Parameters of the synthetic workload catalog.
#[derive(Clone, Debug)]
pub struct CatalogParams {
    /// Seed for metadata generation.
    pub seed: u64,
    /// Number of accessions.
    pub n_accessions: usize,
    /// Fraction of accessions that are single-cell (paper: 38/1000 = 0.038).
    pub single_cell_fraction: f64,
    /// Median spot count of a bulk accession.
    pub bulk_spots_median: u64,
    /// Log-normal σ of bulk spot counts.
    pub bulk_spots_sigma: f64,
    /// Read length.
    pub read_len: u32,
    /// Fraction of *bulk* accessions with paired layout (single-cell 3' libraries
    /// are modeled single-end: their biological mate is a barcode read). 0 keeps a
    /// pure single-end catalog.
    pub paired_fraction: f64,
}

impl Default for CatalogParams {
    fn default() -> Self {
        CatalogParams {
            seed: 2024,
            n_accessions: 1000,
            single_cell_fraction: 0.038,
            bulk_spots_median: 4_000,
            bulk_spots_sigma: 0.6,
            read_len: 100,
            paired_fraction: 0.0,
        }
    }
}

impl CatalogParams {
    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), SraError> {
        if self.n_accessions == 0 {
            return Err(SraError::InvalidParams("n_accessions must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.single_cell_fraction) {
            return Err(SraError::InvalidParams("single_cell_fraction must be in [0,1]".into()));
        }
        if self.bulk_spots_median == 0 || self.read_len == 0 {
            return Err(SraError::InvalidParams("spot counts and read length must be positive".into()));
        }
        if !(0.0..=1.0).contains(&self.paired_fraction) {
            return Err(SraError::InvalidParams("paired_fraction must be in [0,1]".into()));
        }
        Ok(())
    }

    /// Generate the catalog. The single-cell count is `round(fraction × n)` placed at
    /// deterministic pseudo-random positions, so the paper's 38/1000 mix is exact.
    pub fn generate(&self) -> Result<Vec<AccessionMeta>, SraError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let n = self.n_accessions;
        let n_sc = (self.single_cell_fraction * n as f64).round() as usize;
        // Choose single-cell positions by partial Fisher-Yates over indices.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..n_sc.min(n) {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let sc_set: std::collections::HashSet<usize> = idx[..n_sc.min(n)].iter().copied().collect();

        let mut catalog = Vec::with_capacity(n);
        for i in 0..n {
            let strategy =
                if sc_set.contains(&i) { LibraryStrategy::SingleCell } else { LibraryStrategy::RnaSeqBulk };
            let mut spots =
                lognormal(&mut rng, self.bulk_spots_median as f64, self.bulk_spots_sigma).max(100.0);
            if strategy == LibraryStrategy::SingleCell {
                spots *= SINGLE_CELL_SPOT_FACTOR;
            }
            let layout = if strategy == LibraryStrategy::RnaSeqBulk
                && rng.gen_bool(self.paired_fraction)
            {
                LibraryLayout::Paired
            } else {
                LibraryLayout::Single
            };
            catalog.push(AccessionMeta {
                id: format!("SRR{:07}", 1_000_000 + i as u64),
                strategy,
                spots: spots as u64,
                read_len: self.read_len,
                layout,
                tissue: TISSUES[rng.gen_range(0..TISSUES.len())].to_string(),
            });
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_catalog_matches_paper_mix() {
        let catalog = CatalogParams::default().generate().unwrap();
        assert_eq!(catalog.len(), 1000);
        let sc = catalog.iter().filter(|a| a.strategy == LibraryStrategy::SingleCell).count();
        assert_eq!(sc, 38, "paper: 38 of 1000 accessions are single-cell");
    }

    #[test]
    fn single_cell_accessions_are_much_larger() {
        let catalog = CatalogParams::default().generate().unwrap();
        let mean = |strategy| {
            let v: Vec<u64> =
                catalog.iter().filter(|a| a.strategy == strategy).map(|a| a.spots).collect();
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        let ratio = mean(LibraryStrategy::SingleCell) / mean(LibraryStrategy::RnaSeqBulk);
        assert!((5.0..20.0).contains(&ratio), "single-cell/bulk spot ratio {ratio}");
    }

    #[test]
    fn catalog_is_deterministic_and_ids_unique() {
        let a = CatalogParams::default().generate().unwrap();
        let b = CatalogParams::default().generate().unwrap();
        assert_eq!(a, b);
        let ids: std::collections::HashSet<_> = a.iter().map(|m| &m.id).collect();
        assert_eq!(ids.len(), a.len());
    }

    #[test]
    fn sizes_scale_with_spots() {
        let m = AccessionMeta {
            id: "SRR1".into(),
            strategy: LibraryStrategy::RnaSeqBulk,
            spots: 1000,
            read_len: 100,
            layout: LibraryLayout::Single,
            tissue: "lung".into(),
        };
        // 2 bits/base: 1000*100/4 = 25_000 + 1000 qual + header.
        assert!(m.sra_size_bytes() > 26_000);
        assert!(m.sra_size_bytes() < 27_000);
        // FASTQ is text: > 2 bytes/base.
        assert!(m.fastq_size_bytes() > 200_000);
        // FASTQ blows up vs SRA, like real life.
        assert!(m.fastq_size_bytes() > 5 * m.sra_size_bytes());
    }

    #[test]
    fn content_seed_is_stable_and_id_sensitive() {
        let mk = |id: &str| AccessionMeta {
            id: id.into(),
            strategy: LibraryStrategy::RnaSeqBulk,
            spots: 1,
            read_len: 100,
            layout: LibraryLayout::Single,
            tissue: "lung".into(),
        };
        assert_eq!(mk("SRR7").content_seed(), mk("SRR7").content_seed());
        assert_ne!(mk("SRR7").content_seed(), mk("SRR8").content_seed());
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = CatalogParams::default();
        p.n_accessions = 0;
        assert!(p.generate().is_err());
        let mut p = CatalogParams::default();
        p.single_cell_fraction = 1.2;
        assert!(p.generate().is_err());
    }

    #[test]
    fn paired_fraction_marks_bulk_accessions_only() {
        let mut p = CatalogParams::default();
        p.n_accessions = 200;
        p.paired_fraction = 1.0;
        let catalog = p.generate().unwrap();
        for a in &catalog {
            match a.strategy {
                LibraryStrategy::RnaSeqBulk => assert_eq!(a.layout, LibraryLayout::Paired),
                LibraryStrategy::SingleCell => assert_eq!(a.layout, LibraryLayout::Single),
            }
        }
        // Paired doubles the byte sizes.
        let paired = catalog.iter().find(|a| a.layout == LibraryLayout::Paired).unwrap();
        let mut single = paired.clone();
        single.layout = LibraryLayout::Single;
        assert!(paired.fastq_size_bytes() == 2 * single.fastq_size_bytes());
        assert!(paired.sra_size_bytes() > 2 * single.sra_size_bytes() - 64);
    }

    #[test]
    fn zero_single_cell_fraction_gives_pure_bulk() {
        let mut p = CatalogParams::default();
        p.single_cell_fraction = 0.0;
        p.n_accessions = 50;
        let catalog = p.generate().unwrap();
        assert!(catalog.iter().all(|a| a.strategy == LibraryStrategy::RnaSeqBulk));
    }
}
