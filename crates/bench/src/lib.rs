//! Shared fixtures for the benchmark harness.
//!
//! Criterion benches must not rebuild multi-second substrates per iteration; this
//! crate centralizes the scaled-down fixture configurations used by every bench and
//! by the `experiments` binary's `--scale test` mode.

use atlas_pipeline::experiments::{Fig3Config, Fig4Config};
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;

/// Scale presets for the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast CI scale.
    Test,
    /// The default scale used for EXPERIMENTS.md numbers (a couple of minutes).
    Paper,
}

impl Scale {
    /// Parse from a CLI word.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" => Some(Scale::Test),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Ensembl generator parameters for a scale.
pub fn ensembl_params(scale: Scale) -> EnsemblParams {
    match scale {
        Scale::Test => EnsemblParams { chromosome_len: 60_000, ..EnsemblParams::default() },
        Scale::Paper => EnsemblParams::default(),
    }
}

/// Fig. 3 configuration for a scale (paper: 49 FASTQ files).
pub fn fig3_config(scale: Scale) -> Fig3Config {
    match scale {
        Scale::Test => Fig3Config {
            ensembl: ensembl_params(scale),
            n_files: 6,
            reads_median: 1_000,
            reads_sigma: 0.4,
            ..Fig3Config::default()
        },
        Scale::Paper => Fig3Config { ensembl: ensembl_params(scale), ..Fig3Config::default() },
    }
}

/// Fig. 4 configuration for a scale (paper: 1000 accessions, 38 single-cell).
pub fn fig4_config(scale: Scale) -> Fig4Config {
    match scale {
        Scale::Test => Fig4Config {
            ensembl: ensembl_params(scale),
            catalog: CatalogParams {
                n_accessions: 50,
                bulk_spots_median: 600,
                ..CatalogParams::default()
            },
            spot_cap: Some(1_000),
            threads: 4,
            ..Fig4Config::default()
        },
        Scale::Paper => Fig4Config {
            ensembl: ensembl_params(scale),
            catalog: CatalogParams::default(),
            spot_cap: Some(3_000),
            threads: 4,
            ..Fig4Config::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("test"), Some(Scale::Test));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn paper_fig4_matches_paper_catalog() {
        let c = fig4_config(Scale::Paper);
        assert_eq!(c.catalog.n_accessions, 1000);
        assert!((c.catalog.single_cell_fraction - 0.038).abs() < 1e-12);
    }

    #[test]
    fn test_scale_is_smaller() {
        assert!(fig3_config(Scale::Test).n_files < fig3_config(Scale::Paper).n_files);
        assert!(
            fig4_config(Scale::Test).catalog.n_accessions
                < fig4_config(Scale::Paper).catalog.n_accessions
        );
    }
}
