//! Regenerate the paper's figures and tables.
//!
//! ```text
//! experiments [--scale test|paper] <experiment>... (default: all)
//! ```
//!
//! Each subcommand prints the table corresponding to one paper artifact; see
//! DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured records.
//! Every named experiment runs even when an earlier one fails; the exit code is 1
//! if any failed, and 2 on a usage error, which is found before anything runs. A run
//! builds one [`Substrate`] (both assemblies and indexes), the first time a selected
//! experiment reads it; `spot-recovery` alone builds none. Paper scale is each
//! experiment config's `Default`.

use std::cell::OnceCell;

use atlas_pipeline::experiments::{
    checkpoint_analysis, cloud_campaign, fig3_genome_release, fig4_early_stopping,
    index_comparison, pseudo_early_stopping, right_size_comparison, spot_recovery,
    CampaignExperimentConfig, CheckpointAnalysisConfig, Fig3Config, Fig4Config, PseudoStudyConfig,
    Substrate,
};
use atlas_pipeline::{report, AtlasError};
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;

const USAGE: &str = "usage: experiments [--scale test|paper] <fig3|index-table|fig4|checkpoint-analysis|cloud-campaign|right-size|spot-recovery|pseudo-early-stop|all>";

type Experiment = fn(&Run) -> Result<(), AtlasError>;

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

/// One invocation: its scale and the substrate every experiment of it shares.
struct Run {
    scale: Scale,
    substrate: OnceCell<Substrate>,
}

impl Run {
    fn new(scale: Scale) -> Run {
        Run { scale, substrate: OnceCell::new() }
    }

    /// The run's substrate, built on the first call.
    fn substrate(&self) -> Result<&Substrate, AtlasError> {
        if let Some(sub) = self.substrate.get() {
            return Ok(sub);
        }
        let sub = Substrate::build(match self.scale {
            Scale::Test => EnsemblParams { chromosome_len: 60_000, ..EnsemblParams::default() },
            Scale::Paper => EnsemblParams::default(),
        })?;
        Ok(self.substrate.get_or_init(|| sub))
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
    if run_each(&Run::new(scale), &selected) > 0 {
        std::process::exit(1);
    }
}

/// Run `experiments` in order, reporting each failure and going on to the next;
/// returns how many failed.
fn run_each(run: &Run, experiments: &[(&str, Experiment)]) -> usize {
    let mut failed = 0;
    for (name, experiment) in experiments {
        if let Err(e) = experiment(run) {
            eprintln!("{name} failed: {e}");
            failed += 1;
        }
    }
    failed
}

/// Fig. 3 configuration for a scale (paper: 49 FASTQ files).
fn fig3_config(scale: Scale) -> Fig3Config {
    match scale {
        Scale::Test => Fig3Config {
            n_files: 6,
            reads_median: 1_000,
            reads_sigma: 0.4,
            ..Fig3Config::default()
        },
        Scale::Paper => Fig3Config::default(),
    }
}

/// Fig. 4 configuration for a scale (paper: 1000 accessions, 38 single-cell).
fn fig4_config(scale: Scale) -> Fig4Config {
    match scale {
        Scale::Test => Fig4Config {
            catalog: CatalogParams {
                n_accessions: 50,
                bulk_spots_median: 600,
                ..CatalogParams::default()
            },
            spot_cap: Some(1_000),
            ..Fig4Config::default()
        },
        Scale::Paper => Fig4Config::default(),
    }
}

fn banner(name: &str) {
    println!("\n==========================================================");
    println!("== {name}");
    println!("==========================================================");
}

fn run_fig3(run: &Run) -> Result<(), AtlasError> {
    banner("E1 / Fig. 3 — genome release 108 vs 111");
    let r = fig3_genome_release(run.substrate()?, &fig3_config(run.scale))?;
    print!("{}", report::render_fig3(&r));
    Ok(())
}

fn run_index_table(run: &Run) -> Result<(), AtlasError> {
    banner("E2 / §III-A — index comparison table");
    print!("{}", report::render_index_table(&index_comparison(run.substrate()?)?));
    Ok(())
}

fn run_fig4(run: &Run) -> Result<(), AtlasError> {
    banner("E3 / Fig. 4 — early stopping savings");
    let r = fig4_early_stopping(run.substrate()?, &fig4_config(run.scale))?;
    print!("{}", report::render_fig4(&r));
    Ok(())
}

fn run_checkpoint_analysis(run: &Run) -> Result<(), AtlasError> {
    banner("E3b — checkpoint analysis (\"10% of reads is enough\")");
    let cfg = match run.scale {
        Scale::Test => CheckpointAnalysisConfig {
            catalog: CatalogParams {
                n_accessions: 40,
                bulk_spots_median: 800,
                ..CatalogParams::default()
            },
            spot_cap: Some(1_000),
        },
        Scale::Paper => CheckpointAnalysisConfig::default(),
    };
    print!("{}", report::render_checkpoint_analysis(&checkpoint_analysis(run.substrate()?, &cfg)?));
    Ok(())
}

fn campaign_config(scale: Scale) -> CampaignExperimentConfig {
    match scale {
        Scale::Test => CampaignExperimentConfig {
            catalog: CatalogParams { n_accessions: 30, bulk_spots_median: 600, ..CatalogParams::default() },
            spot_cap: Some(800),
            ..CampaignExperimentConfig::default()
        },
        Scale::Paper => CampaignExperimentConfig::default(),
    }
}

fn run_campaign(run: &Run) -> Result<(), AtlasError> {
    banner("E4 — end-to-end cloud campaign (Fig. 1 + Fig. 2)");
    let (r, instance) = cloud_campaign(run.substrate()?, &campaign_config(run.scale))?;
    print!("{}", report::render_campaign(&r, &instance));
    Ok(())
}

fn run_spot_recovery(run: &Run) -> Result<(), AtlasError> {
    banner("E7 — graceful spot degradation: checkpointing under a reclaim storm");
    // The study runs on the modeled workload (align-dominated ~10-minute jobs),
    // so the storm shape is scale-free; test scale just trims the catalog.
    let n_accessions = match run.scale {
        Scale::Test => 24,
        Scale::Paper => 60,
    };
    print!("{}", report::render_spot_recovery(&spot_recovery(n_accessions)?));
    Ok(())
}

fn run_pseudo_study(run: &Run) -> Result<(), AtlasError> {
    banner("E6 — future work: early stopping on a pseudoaligner");
    let cfg = match run.scale {
        Scale::Test => PseudoStudyConfig {
            catalog: CatalogParams {
                n_accessions: 30,
                bulk_spots_median: 800,
                single_cell_fraction: 0.1,
                ..CatalogParams::default()
            },
            spot_cap: Some(1_000),
            ..PseudoStudyConfig::default()
        },
        Scale::Paper => PseudoStudyConfig::default(),
    };
    print!("{}", report::render_pseudo_study(&pseudo_early_stopping(run.substrate()?, &cfg)?));
    Ok(())
}

fn run_right_size(run: &Run) -> Result<(), AtlasError> {
    banner("E5 — right-sizing: 108-sized fleet vs 111-sized fleet");
    let mut cfg = campaign_config(run.scale);
    // Right-sizing compares steady fleets; interruptions add noise.
    cfg.interruptions_per_hour = 0.0;
    print!("{}", report::render_right_size(&right_size_comparison(run.substrate()?, &cfg)?));
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
        fn fails(_: &Run) -> Result<(), AtlasError> {
            RAN.fetch_add(1, Relaxed);
            Err(AtlasError::InvalidParams("stub".into()))
        }
        fn passes(_: &Run) -> Result<(), AtlasError> {
            RAN.fetch_add(1, Relaxed);
            Ok(())
        }
        let run = Run::new(Scale::Test);
        assert_eq!(run_each(&run, &[("a", fails), ("b", passes), ("c", fails)]), 2);
        assert_eq!(RAN.load(Relaxed), 3);
    }

    #[test]
    fn spot_recovery_alone_builds_no_substrate() {
        let run = Run::new(Scale::Test);
        assert_eq!(run_each(&run, &[("spot-recovery", run_spot_recovery)]), 0);
        assert!(run.substrate.get().is_none());
    }
}
