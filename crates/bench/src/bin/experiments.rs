//! Regenerate the paper's figures and tables.
//!
//! ```text
//! experiments [--scale test|paper] <experiment>... (default: all)
//! ```
//!
//! Each subcommand prints the table corresponding to one paper artifact; see
//! DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured records.
//! Every named experiment runs even when an earlier one fails; the exit code is 1
//! if any failed, and 2 on a usage error, which is found before anything runs.

use atlas_pipeline::experiments::{
    checkpoint_analysis, cloud_campaign, fig3_genome_release, fig4_early_stopping,
    index_comparison, pseudo_early_stopping, right_size_comparison, spot_recovery,
    CampaignExperimentConfig, CheckpointAnalysisConfig, Fig3Config, Fig4Config, PseudoStudyConfig,
};
use atlas_pipeline::{report, AtlasError};
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;

const USAGE: &str = "usage: experiments [--scale test|paper] <fig3|index-table|fig4|checkpoint-analysis|cloud-campaign|right-size|spot-recovery|pseudo-early-stop|all>";

type Experiment = fn(Scale) -> Result<(), AtlasError>;

/// Every experiment by subcommand name, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("fig3", run_fig3),
    ("index-table", run_index_table),
    ("fig4", run_fig4),
    ("checkpoint-analysis", run_checkpoint_analysis),
    ("cloud-campaign", run_campaign),
    ("right-size", run_right_size),
    ("spot-recovery", run_spot_recovery),
    ("pseudo-early-stop", run_pseudo_study),
];

/// Scale presets for the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scale {
    /// Seconds-fast CI scale.
    Test,
    /// The default scale used for EXPERIMENTS.md numbers (a couple of minutes).
    Paper,
}

impl Scale {
    /// Parse from a CLI word.
    fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" => Some(Scale::Test),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

fn usage_error(reason: &str) -> ! {
    eprintln!("{reason}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Paper;
    let mut selected: Vec<(&str, Experiment)> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage_error("--scale needs a value"));
                scale = Scale::parse(&v)
                    .unwrap_or_else(|| usage_error(&format!("unknown scale {v:?}; use test|paper")));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "all" => selected.extend(EXPERIMENTS),
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some(&experiment) => selected.push(experiment),
                None => usage_error(&format!("unknown experiment {name:?}")),
            },
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }
    if run_each(scale, &selected) > 0 {
        std::process::exit(1);
    }
}

/// Run `experiments` in order, reporting each failure and going on to the next;
/// returns how many failed.
fn run_each(scale: Scale, experiments: &[(&str, Experiment)]) -> usize {
    let mut failed = 0;
    for (name, run) in experiments {
        if let Err(e) = run(scale) {
            eprintln!("{name} failed: {e}");
            failed += 1;
        }
    }
    failed
}

/// Ensembl generator parameters for a scale.
fn ensembl_params(scale: Scale) -> EnsemblParams {
    match scale {
        Scale::Test => EnsemblParams { chromosome_len: 60_000, ..EnsemblParams::default() },
        Scale::Paper => EnsemblParams::default(),
    }
}

/// Fig. 3 configuration for a scale (paper: 49 FASTQ files).
fn fig3_config(scale: Scale) -> Fig3Config {
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
fn fig4_config(scale: Scale) -> Fig4Config {
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
        },
        Scale::Paper => Fig4Config {
            ensembl: ensembl_params(scale),
            catalog: CatalogParams::default(),
            spot_cap: Some(3_000),
            threads: 4,
        },
    }
}

fn banner(name: &str) {
    println!("\n==========================================================");
    println!("== {name}");
    println!("==========================================================");
}

fn run_fig3(scale: Scale) -> Result<(), AtlasError> {
    banner("E1 / Fig. 3 — genome release 108 vs 111");
    print!("{}", report::render_fig3(&fig3_genome_release(&fig3_config(scale))?));
    Ok(())
}

fn run_index_table(scale: Scale) -> Result<(), AtlasError> {
    banner("E2 / §III-A — index comparison table");
    print!("{}", report::render_index_table(&index_comparison(ensembl_params(scale))?));
    Ok(())
}

fn run_fig4(scale: Scale) -> Result<(), AtlasError> {
    banner("E3 / Fig. 4 — early stopping savings");
    print!("{}", report::render_fig4(&fig4_early_stopping(&fig4_config(scale))?));
    Ok(())
}

fn run_checkpoint_analysis(scale: Scale) -> Result<(), AtlasError> {
    banner("E3b — checkpoint analysis (\"10% of reads is enough\")");
    let cfg = match scale {
        Scale::Test => CheckpointAnalysisConfig {
            ensembl: ensembl_params(scale),
            catalog: CatalogParams {
                n_accessions: 40,
                bulk_spots_median: 800,
                ..CatalogParams::default()
            },
            spot_cap: Some(1_000),
        },
        Scale::Paper => CheckpointAnalysisConfig { ensembl: ensembl_params(scale), ..CheckpointAnalysisConfig::default() },
    };
    print!("{}", report::render_checkpoint_analysis(&checkpoint_analysis(&cfg)?));
    Ok(())
}

fn campaign_config(scale: Scale) -> CampaignExperimentConfig {
    match scale {
        Scale::Test => CampaignExperimentConfig {
            ensembl: ensembl_params(scale),
            catalog: CatalogParams { n_accessions: 30, bulk_spots_median: 600, ..CatalogParams::default() },
            spot_cap: Some(800),
            ..CampaignExperimentConfig::default()
        },
        Scale::Paper => CampaignExperimentConfig {
            ensembl: ensembl_params(scale),
            catalog: CatalogParams { n_accessions: 200, ..CatalogParams::default() },
            spot_cap: Some(2_000),
            ..CampaignExperimentConfig::default()
        },
    }
}

fn run_campaign(scale: Scale) -> Result<(), AtlasError> {
    banner("E4 — end-to-end cloud campaign (Fig. 1 + Fig. 2)");
    let (r, instance) = cloud_campaign(&campaign_config(scale))?;
    print!("{}", report::render_campaign(&r, &instance));
    Ok(())
}

fn run_spot_recovery(scale: Scale) -> Result<(), AtlasError> {
    banner("E7 — graceful spot degradation: checkpointing under a reclaim storm");
    // The study runs on the modeled workload (align-dominated ~10-minute jobs),
    // so the storm shape is scale-free; test scale just trims the catalog.
    let n_accessions = match scale {
        Scale::Test => 24,
        Scale::Paper => 60,
    };
    print!("{}", report::render_spot_recovery(&spot_recovery(n_accessions)?));
    Ok(())
}

fn run_pseudo_study(scale: Scale) -> Result<(), AtlasError> {
    banner("E6 — future work: early stopping on a pseudoaligner");
    let cfg = match scale {
        Scale::Test => PseudoStudyConfig {
            ensembl: ensembl_params(scale),
            catalog: CatalogParams {
                n_accessions: 30,
                bulk_spots_median: 800,
                single_cell_fraction: 0.1,
                ..CatalogParams::default()
            },
            spot_cap: Some(1_000),
            ..PseudoStudyConfig::default()
        },
        Scale::Paper => PseudoStudyConfig { ensembl: ensembl_params(scale), ..PseudoStudyConfig::default() },
    };
    print!("{}", report::render_pseudo_study(&pseudo_early_stopping(&cfg)?));
    Ok(())
}

fn run_right_size(scale: Scale) -> Result<(), AtlasError> {
    banner("E5 — right-sizing: 108-sized fleet vs 111-sized fleet");
    let mut cfg = campaign_config(scale);
    // Right-sizing compares steady fleets; interruptions add noise.
    cfg.interruptions_per_hour = 0.0;
    print!("{}", report::render_right_size(&right_size_comparison(&cfg)?));
    Ok(())
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

    #[test]
    fn a_failed_experiment_is_counted_and_the_rest_still_run() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        static RAN: AtomicUsize = AtomicUsize::new(0);
        fn fails(_: Scale) -> Result<(), AtlasError> {
            RAN.fetch_add(1, Relaxed);
            Err(AtlasError::InvalidParams("stub".into()))
        }
        fn passes(_: Scale) -> Result<(), AtlasError> {
            RAN.fetch_add(1, Relaxed);
            Ok(())
        }
        assert_eq!(run_each(Scale::Test, &[("a", fails), ("b", passes), ("c", fails)]), 2);
        assert_eq!(RAN.load(Relaxed), 3);
    }
}
