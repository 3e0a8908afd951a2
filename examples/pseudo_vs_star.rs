//! The paper's future work, hands-on: run the same accessions through STAR and
//! through a kallisto/Salmon-style pseudoaligner, and show that the early-stopping
//! optimization transfers — but only when the pseudoaligner exposes the running
//! mapping rate ("e.g. Salmon does not").
//!
//! ```text
//! cargo run --release -p atlas-examples --bin pseudo_vs_star
//! ```

use atlas_pipeline::early_stop::EarlyStopPolicy;
use atlas_pipeline::experiments::Substrate;
use genomics::{EnsemblParams, FastqRecord, LibraryType, ReadSimulator, SimulatorParams};
use pseudo_aligner::{PseudoIndex, PseudoIndexParams, PseudoRunConfig, PseudoRunner};
use star_aligner::runner::{RunConfig, RunMonitor, RunStatus, Runner};
use star_aligner::AlignParams;
use std::time::Instant;

fn reads(sub: &Substrate, library: LibraryType, n: usize, seed: u64) -> Vec<FastqRecord> {
    ReadSimulator::new(&sub.asm_111, &sub.annotation, SimulatorParams::for_library(library), seed)
        .unwrap()
        .simulate(n, "X")
        .into_iter()
        .map(|r| r.fastq)
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let substrate = Substrate::build(EnsemblParams { chromosome_len: 100_000, ..EnsemblParams::default() })?;
    let pseudo_index =
        PseudoIndex::build(&substrate.asm_111, &substrate.annotation, &PseudoIndexParams { k: 21 })?;
    println!(
        "indices: STAR {} bytes (whole genome) vs pseudo {} bytes (transcriptome k-mers)\n",
        substrate.index_111.stats().total_bytes(),
        pseudo_index.byte_size()
    );

    let bulk = reads(&substrate, LibraryType::BulkPolyA, 20_000, 5);
    let sc = reads(&substrate, LibraryType::SingleCell3Prime, 20_000, 6);
    let policy = EarlyStopPolicy::default();

    // STAR side.
    let star_runner = Runner::new(
        &substrate.index_111,
        AlignParams::default(),
        RunConfig { threads: 4, batch_size: 1_000, quant: false, ..RunConfig::default() },
    )?;
    println!("{:<34} {:>9} {:>9} {:>12}", "run", "map%", "secs", "outcome");
    for (label, reads) in [("STAR bulk", &bulk), ("STAR single-cell + policy", &sc)] {
        let t = Instant::now();
        let out = star_runner.run(reads, None, Some(&policy as &dyn RunMonitor), None)?;
        println!(
            "{:<34} {:>8.1}% {:>9.2} {:>12}",
            label,
            out.mapped_fraction() * 100.0,
            t.elapsed().as_secs_f64(),
            match out.status {
                RunStatus::EarlyStopped { .. } => "ABORTED",
                _ => "completed",
            }
        );
    }

    // Pseudoaligner side: with and without the progress stream.
    for (label, report_progress, reads) in [
        ("pseudo bulk (progress on)", true, &bulk),
        ("pseudo single-cell (progress on)", true, &sc),
        ("pseudo single-cell (stock mode)", false, &sc),
    ] {
        let runner = PseudoRunner::new(
            &pseudo_index,
            PseudoRunConfig { threads: 4, batch_size: 1_000, report_progress },
        )?;
        let t = Instant::now();
        let out = runner.run(reads, Some(&policy as &dyn RunMonitor))?;
        println!(
            "{:<34} {:>8.1}% {:>9.2} {:>12}",
            label,
            out.mapped_fraction() * 100.0,
            t.elapsed().as_secs_f64(),
            match out.status {
                RunStatus::EarlyStopped { .. } => "ABORTED",
                _ => "completed",
            }
        );
    }
    println!(
        "\nthe stock-mode run processed every read of a hopeless library — the paper's point:\n\
         \"other (pseudo)aligners should also provide the current mapping rate value\""
    );
    Ok(())
}
