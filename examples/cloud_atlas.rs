//! The full architecture of Fig. 2, end to end: an SQS-fed, autoscaled, spot-priced
//! EC2 fleet processes an accession catalog through the four-stage pipeline on the
//! discrete-event cloud simulator, with early stopping on and spot interruptions
//! striking mid-campaign. Pipelines really align reads; only time and money are
//! simulated.
//!
//! ```text
//! cargo run --release -p atlas-examples --bin cloud_atlas
//! cargo run --release -p atlas-examples --bin cloud_atlas -- --trace-out trace.json
//! cargo run --release -p atlas-examples --bin cloud_atlas -- --metrics-out metrics.prom
//! ```
//!
//! `--trace-out <path>` writes the campaign's span tree as Chrome/Perfetto
//! trace-event JSON — open it at <https://ui.perfetto.dev>.
//!
//! `--metrics-out <path>` writes the campaign's final metrics snapshot
//! (counters, gauges, histograms, SLO quantile-sketch summaries) as an
//! OpenMetrics text exposition — point `promtool` or any Prometheus scraper
//! tooling at it.
//!
//! `--log-out <path>` writes the raw NDJSON event log — feed it to the
//! `trace_query` bin to ask questions about the run, or save logs from two
//! seeds (`--seed <n>` perturbs the spot market) and `trace_query diff` them
//! to see where the seconds moved.
//!
//! A usage error (an unknown flag, a flag without its value, a `--seed` that is not
//! an integer) exits 2 with the usage on stderr before anything runs; a failed run
//! exits 1.

use atlas_pipeline::experiments::{paper_scale_sizer, Substrate};
use atlas_pipeline::orchestrator::{CampaignConfig, Orchestrator};
use atlas_pipeline::pipeline::{AtlasPipeline, PipelineConfig};
use atlas_pipeline::report::render_campaign;
use cloudsim::{ScalingPolicy, SpotMarket};
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;
use sra_sim::SraRepository;
use std::sync::Arc;
use telemetry::{MonitorConfig, SloConfig, SloRegistry};

const USAGE: &str =
    "usage: cloud_atlas [--trace-out <path>] [--metrics-out <path>] [--log-out <path>] [--seed <n>]";

fn usage_error(reason: &str) -> ! {
    eprintln!("cloud_atlas: {reason}\n{USAGE}");
    std::process::exit(2);
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut log_out: Option<String> = None;
    let mut spot_seed: u64 = 11;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| usage_error(&format!("{arg} needs {what} argument")))
        };
        match arg.as_str() {
            "--trace-out" => trace_out = Some(value("a file path")),
            "--metrics-out" => metrics_out = Some(value("a file path")),
            "--log-out" => log_out = Some(value("a file path")),
            "--seed" => {
                spot_seed = value("an integer")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an integer argument"));
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    let substrate = Substrate::build(EnsemblParams { chromosome_len: 100_000, ..EnsemblParams::default() })?;

    // 40 accessions with the paper's library mix shape.
    let catalog = CatalogParams {
        n_accessions: 40,
        single_cell_fraction: 0.1,
        bulk_spots_median: 2_000,
        ..CatalogParams::default()
    }
    .generate()?;
    let repo = Arc::new(
        SraRepository::new(Arc::clone(&substrate.asm_111), Arc::clone(&substrate.annotation), catalog)
            .with_spot_cap(2_000),
    );
    let pipeline = Arc::new(AtlasPipeline::new(
        repo,
        Arc::clone(&substrate.index_111),
        Arc::clone(&substrate.annotation),
        PipelineConfig::default(),
    )?);

    // Right-size the fleet from the index footprint, paper-scale.
    let sizer = paper_scale_sizer(&substrate.index_111.stats(), substrate.human_scale());
    let instance = sizer.choose().expect("an instance type fits the release-111 index");
    println!(
        "right-sizing: release-111 index ≈ {:.1} GiB (human scale) → {} ({} vCPU / {} GiB, ${:.4}/h)\n",
        sizer.index_gib, instance.name, instance.vcpus, instance.memory_gib, instance.on_demand_hourly_usd
    );

    // Paper-scale index bytes drive instance-init time (download + shm load).
    let index_bytes = (sizer.index_gib * (1u64 << 30) as f64) as u64;
    let mut config = CampaignConfig::new(instance, index_bytes);
    config.spot = true;
    config.spot_market =
        SpotMarket { price_factor: 0.35, interruptions_per_hour: 0.5, seed: spot_seed };
    config.scaling = ScalingPolicy { min_size: 0, max_size: 6, target_backlog_per_instance: 4 };
    // Watch the campaign live: stragglers, backlog growth, fault bursts, and
    // early-stop-eligible accessions fire alerts into the report.
    config.monitor = Some(MonitorConfig::standard());
    // Evaluate SLOs over the same stream (turnaround p95, queue-wait p99,
    // cost-per-accession cap) and build the per-accession attribution ledger.
    config.slo = Some(SloConfig { registry: SloRegistry::standard(4.0 * 3600.0, 3600.0, 0.25) });

    let orchestrator = Orchestrator::new(pipeline, config)?;
    let ids: Vec<String> = {
        let mut v: Vec<String> = (0..40).map(|i| format!("SRR{:07}", 1_000_000 + i)).collect();
        v.sort();
        v
    };
    println!("launching campaign over {} accessions…\n", ids.len());
    let report = orchestrator.run(&ids)?;
    print!("{}", render_campaign(&report, instance.name));

    if let Some(path) = trace_out {
        let t = report.telemetry.as_ref().ok_or("--trace-out requires telemetry enabled")?;
        std::fs::write(&path, &t.perfetto_json)?;
        println!("\nwrote Perfetto trace to {path} — open it at https://ui.perfetto.dev");
    }

    if let Some(path) = metrics_out {
        let t = report.telemetry.as_ref().ok_or("--metrics-out requires telemetry enabled")?;
        std::fs::write(&path, &t.openmetrics_text)?;
        println!("\nwrote OpenMetrics exposition to {path}");
    }

    if let Some(path) = log_out {
        let t = report.telemetry.as_ref().ok_or("--log-out requires telemetry enabled")?;
        std::fs::write(&path, &t.event_log)?;
        println!("\nwrote NDJSON event log to {path} — query it with the trace_query bin");
    }

    println!("\nfleet over time (active instances | pending messages):");
    for sample in report.fleet_timeline.iter().take(20) {
        println!(
            "  t={:>7.0}s  {:>2} instances  {:>3} pending  {}",
            sample.at_secs,
            sample.active_instances,
            sample.pending_messages,
            "█".repeat(sample.active_instances)
        );
    }
    Ok(())
}
