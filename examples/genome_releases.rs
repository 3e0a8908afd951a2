//! The paper's §III-A optimization, hands-on: align the same FASTQ against indices
//! built from Ensembl releases 108 and 111 and watch the execution-time gap with
//! near-identical mapping rates.
//!
//! ```text
//! cargo run --release -p atlas-examples --bin genome_releases
//! ```

use atlas_pipeline::experiments::{paper_scale_sizer, Substrate};
use atlas_pipeline::PipelineConfig;
use genomics::{EnsemblParams, LibraryType, ReadSimulator, Release, SimulatorParams};
use star_aligner::runner::{RunConfig, Runner};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("building release-108 and release-111 assemblies + indices…");
    let substrate = Substrate::build(EnsemblParams { chromosome_len: 200_000, ..EnsemblParams::default() })?;

    for (release, assembly, index) in [
        (Release::R108, &substrate.asm_108, &substrate.index_108),
        (Release::R111, &substrate.asm_111, &substrate.index_111),
    ] {
        let stats = index.stats();
        let sizer = paper_scale_sizer(&stats, substrate.human_scale());
        println!(
            "release {}: {} contigs, {} bases, index {} bytes (human-scale ≈ {:.1} GiB → {})",
            release.number(),
            assembly.contigs.len(),
            assembly.total_len(),
            stats.total_bytes(),
            sizer.index_gib,
            sizer.choose().map(|t| t.name).unwrap_or("n/a"),
        );
    }

    // One bulk RNA-seq FASTQ, aligned against both indices.
    let mut simulator = ReadSimulator::new(
        &substrate.asm_111,
        &substrate.annotation,
        SimulatorParams::for_library(LibraryType::BulkPolyA),
        77,
    )?;
    let reads: Vec<_> = simulator.simulate(40_000, "SRR0000042").into_iter().map(|r| r.fastq).collect();
    println!("\naligning {} reads against both indices…", reads.len());

    // Toplevel assemblies multimap more: use the Atlas's align parameters (its
    // ENCODE-style multimap cap).
    let align_params = PipelineConfig::default().align_params;
    let run_config = RunConfig { threads: 4, quant: false, ..RunConfig::default() };

    let mut times = Vec::new();
    for (release, index) in [(108u32, &substrate.index_108), (111, &substrate.index_111)] {
        let runner = Runner::new(index, align_params.clone(), run_config.clone())?;
        let started = Instant::now();
        let output = runner.run(&reads, None, None, None)?;
        let secs = started.elapsed().as_secs_f64();
        times.push(secs);
        println!(
            "release {release}: {:>6.2}s  ({:>8.0} reads/s, mapped {:.2}%)",
            secs,
            reads.len() as f64 / secs,
            output.mapped_fraction() * 100.0
        );
    }
    println!(
        "\nrelease-111 speedup: {:.1}x  (paper measured >12x at full human scale;\n\
         the shape — newer release wins on every file at equal mapping rate — holds)",
        times[0] / times[1]
    );
    Ok(())
}
