//! Quickstart: build a genome index, align reads, quantify genes.
//!
//! The 60-second tour of the aligner substrate: generate a synthetic Ensembl-style
//! assembly, annotate it, build the STAR-style index, simulate an RNA-seq library,
//! run the multi-threaded aligner with `--quantMode GeneCounts`, and print the
//! `Log.final.out` summary plus the top of ReadsPerGene.out.tab.
//!
//! ```text
//! cargo run --release -p atlas-examples --bin quickstart
//! ```
use genomics::{
    Annotation, EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator, Release,
    SimulatorParams,
};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::runner::{RunConfig, Runner};
use star_aligner::AlignParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A reference genome: the Ensembl release-111 toplevel assembly (synthetic,
    //    deterministic — same seed, same genome).
    let params = EnsemblParams { chromosome_len: 100_000, ..EnsemblParams::default() };
    let generator = EnsemblGenerator::new(params)?;
    let assembly = generator.generate(Release::R111);
    println!(
        "assembly: {} release {} — {} contigs, {} bases",
        assembly.name,
        assembly.release,
        assembly.contigs.len(),
        assembly.total_len()
    );

    // 2. A gene annotation (GTF-lite) for GeneCounts.
    let annotation = Annotation::simulate(&assembly, &generator)?;
    println!("annotation: {} genes", annotation.len());

    // 3. Build the index ("STAR --runMode genomeGenerate").
    let index = StarIndex::build(&assembly, &annotation, &IndexParams::default())?;
    let stats = index.stats();
    println!(
        "index: {} bytes total (genome {} + SA {} + SAindex {} + sjdb {})",
        stats.total_bytes(),
        stats.genome_bytes,
        stats.sa_bytes,
        stats.prefix_bytes,
        stats.sjdb_bytes
    );

    // 4. An RNA-seq library: 20k bulk poly-A reads.
    let mut simulator = ReadSimulator::new(
        &assembly,
        &annotation,
        SimulatorParams::for_library(LibraryType::BulkPolyA),
        1234,
    )?;
    let reads: Vec<_> = simulator.simulate(20_000, "SRR0000001").into_iter().map(|r| r.fastq).collect();

    // 5. Align with 4 threads and gene counting ("STAR --runThreadN 4 --quantMode
    //    GeneCounts").
    let run_config = RunConfig { threads: 4, quant: true, ..RunConfig::default() };
    let runner = Runner::new(&index, AlignParams::default(), run_config)?;
    let output = runner.run(&reads, Some(&annotation), None, None)?;

    // 6. Log.final.out.
    println!("\n--- Log.final.out ---\n{}", output.final_log());

    // 7. ReadsPerGene.out.tab (header rows + five most expressed genes).
    let counts = output.gene_counts.expect("quant was enabled");
    let mut expressed: Vec<(&String, u64)> =
        counts.gene_ids.iter().zip(counts.counts.iter().map(|c| c[0])).collect();
    expressed.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("\n--- ReadsPerGene.out.tab (top 5 genes) ---");
    print!(
        "{}",
        counts
            .to_tsv()
            .lines()
            .take(4)
            .map(|l| format!("{l}\n"))
            .collect::<String>()
    );
    for (gene, n) in expressed.iter().take(5) {
        println!("{gene}\t{n}");
    }
    Ok(())
}
