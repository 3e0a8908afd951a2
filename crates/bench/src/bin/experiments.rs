//! Regenerate the paper's figures and tables.
//!
//! ```text
//! experiments [--scale test|paper] <fig3|index-table|fig4|cloud-campaign|right-size|all>
//! ```
//!
//! Each subcommand prints the table corresponding to one paper artifact; see
//! DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured records.

use atlas_bench::{ensembl_params, fig3_config, fig4_config, Scale};
use atlas_pipeline::experiments::{
    checkpoint_analysis, cloud_campaign, fig3_genome_release, fig4_early_stopping,
    index_comparison, pseudo_early_stopping, right_size_comparison, spot_recovery,
    CampaignExperimentConfig, CheckpointAnalysisConfig, PseudoStudyConfig, SpotRecoveryConfig,
};
use atlas_pipeline::report;
use sra_sim::accession::CatalogParams;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = match Scale::parse(&v) {
                    Some(s) => s,
                    None => {
                        eprintln!("unknown scale {v:?}; use test|paper");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--scale test|paper] <fig3|index-table|fig4|checkpoint-analysis|cloud-campaign|right-size|spot-recovery|pseudo-early-stop|all>"
                );
                return;
            }
            other => commands.push(other.to_string()),
        }
    }
    if commands.is_empty() {
        commands.push("all".into());
    }

    for cmd in &commands {
        match cmd.as_str() {
            "fig3" => run_fig3(scale),
            "index-table" => run_index_table(scale),
            "fig4" => run_fig4(scale),
            "checkpoint-analysis" => run_checkpoint_analysis(scale),
            "cloud-campaign" => run_campaign(scale),
            "right-size" => run_right_size(scale),
            "spot-recovery" => run_spot_recovery(scale),
            "pseudo-early-stop" => run_pseudo_study(scale),
            "all" => {
                run_fig3(scale);
                run_index_table(scale);
                run_fig4(scale);
                run_checkpoint_analysis(scale);
                run_campaign(scale);
                run_right_size(scale);
                run_spot_recovery(scale);
                run_pseudo_study(scale);
            }
            other => {
                eprintln!("unknown experiment {other:?}");
                std::process::exit(2);
            }
        }
    }
}

fn banner(name: &str) {
    println!("\n==========================================================");
    println!("== {name}");
    println!("==========================================================");
}

fn run_fig3(scale: Scale) {
    banner("E1 / Fig. 3 — genome release 108 vs 111");
    let cfg = fig3_config(scale);
    match fig3_genome_release(&cfg) {
        Ok(r) => print!("{}", report::render_fig3(&r)),
        Err(e) => eprintln!("fig3 failed: {e}"),
    }
}

fn run_index_table(scale: Scale) {
    banner("E2 / §III-A — index comparison table");
    match index_comparison(ensembl_params(scale)) {
        Ok(c) => print!("{}", report::render_index_table(&c)),
        Err(e) => eprintln!("index-table failed: {e}"),
    }
}

fn run_fig4(scale: Scale) {
    banner("E3 / Fig. 4 — early stopping savings");
    let cfg = fig4_config(scale);
    match fig4_early_stopping(&cfg) {
        Ok(r) => print!("{}", report::render_fig4(&r)),
        Err(e) => eprintln!("fig4 failed: {e}"),
    }
}

fn run_checkpoint_analysis(scale: Scale) {
    banner("E3b — checkpoint analysis (\"10% of reads is enough\")");
    let cfg = match scale {
        Scale::Test => CheckpointAnalysisConfig {
            ensembl: ensembl_params(scale),
            catalog: sra_sim::accession::CatalogParams {
                n_accessions: 40,
                bulk_spots_median: 800,
                ..sra_sim::accession::CatalogParams::default()
            },
            spot_cap: Some(1_000),
            ..CheckpointAnalysisConfig::default()
        },
        Scale::Paper => CheckpointAnalysisConfig { ensembl: ensembl_params(scale), ..CheckpointAnalysisConfig::default() },
    };
    match checkpoint_analysis(&cfg) {
        Ok(a) => print!("{}", report::render_checkpoint_analysis(&a)),
        Err(e) => eprintln!("checkpoint-analysis failed: {e}"),
    }
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

fn run_campaign(scale: Scale) {
    banner("E4 — end-to-end cloud campaign (Fig. 1 + Fig. 2)");
    match cloud_campaign(&campaign_config(scale)) {
        Ok((r, instance)) => print!("{}", report::render_campaign(&r, &instance)),
        Err(e) => eprintln!("cloud-campaign failed: {e}"),
    }
}

fn run_spot_recovery(scale: Scale) {
    banner("E7 — graceful spot degradation: checkpointing under a reclaim storm");
    // The study runs on the modeled workload (align-dominated ~10-minute jobs),
    // so the storm shape is scale-free; test scale just trims the catalog.
    let cfg = match scale {
        Scale::Test => SpotRecoveryConfig { n_accessions: 24, ..SpotRecoveryConfig::default() },
        Scale::Paper => SpotRecoveryConfig::default(),
    };
    match spot_recovery(&cfg) {
        Ok(r) => print!("{}", report::render_spot_recovery(&r)),
        Err(e) => eprintln!("spot-recovery failed: {e}"),
    }
}

fn run_pseudo_study(scale: Scale) {
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
    match pseudo_early_stopping(&cfg) {
        Ok(r) => print!("{}", report::render_pseudo_study(&r)),
        Err(e) => eprintln!("pseudo-early-stop failed: {e}"),
    }
}

fn run_right_size(scale: Scale) {
    banner("E5 — right-sizing: 108-sized fleet vs 111-sized fleet");
    let mut cfg = campaign_config(scale);
    // Right-sizing compares steady fleets; interruptions add noise.
    cfg.interruptions_per_hour = 0.0;
    match right_size_comparison(&cfg) {
        Ok(c) => print!("{}", report::render_right_size(&c)),
        Err(e) => eprintln!("right-size failed: {e}"),
    }
}
