//! Runs reuse pool threads instead of spawning new ones.
//!
//! One test on purpose: `workers_spawned` counts for the whole process, and
//! each file under `tests/tests/` is a process of its own, so nothing else can move
//! the counter between two readings.
use genomics::pool::workers_spawned;
use genomics::{
    Annotation, EnsemblGenerator, EnsemblParams, FastqRecord, LibraryType, ReadSimulator, Release,
    SimulatorParams,
};
use pseudo_aligner::index::PseudoIndexParams;
use pseudo_aligner::runner::{PseudoRunConfig, PseudoRunner};
use pseudo_aligner::PseudoIndex;
use sra_sim::accession::LibraryStrategy;
use sra_sim::{FasterqDump, SraArchive};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::runner::{RunConfig, Runner};
use star_aligner::AlignParams;

#[test]
fn runners_and_two_pass_mode_reuse_the_pool_workers() {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R111);
    let annotation =
        Annotation::simulate(&assembly, &generator).unwrap();
    // The index knows no junctions, so the reads' junctions are novel and two-pass
    // mode really builds a second-pass index.
    let index =
        StarIndex::build(&assembly, &Annotation::default(), &IndexParams::default()).unwrap();
    let reads: Vec<FastqRecord> = ReadSimulator::new(
        &assembly,
        &annotation,
        SimulatorParams::for_library(LibraryType::BulkPolyA),
        3,
    )
    .unwrap()
    .simulate(3_000, "PR")
    .into_iter()
    .map(|r| r.fastq)
    .collect();

    // The dump and a runner at the host's thread count share one pool.
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let start = workers_spawned();
    let archive = SraArchive::encode("SRRPR", LibraryStrategy::RnaSeqBulk, &reads).unwrap();
    FasterqDump::default().run(&archive).unwrap();
    let host = RunConfig {
        threads: available,
        batch_size: 500,
        quant: false,
        ..RunConfig::default()
    };
    Runner::new(&index, AlignParams::default(), host)
        .unwrap()
        .run(&reads, None, None, None)
        .unwrap();
    assert_eq!(
        workers_spawned(),
        start + available - 1,
        "the dump and the runner built one {available}-thread pool between them"
    );

    const THREADS: usize = 3;
    let config = RunConfig {
        threads: THREADS,
        batch_size: 500,
        quant: false,
        ..RunConfig::default()
    };
    let before = workers_spawned();
    let runner = Runner::new(&index, AlignParams::default(), config.clone()).unwrap();
    runner.run(&reads, None, None, None).unwrap();
    let warm = workers_spawned();
    let built = if available == THREADS { 0 } else { THREADS - 1 };
    assert_eq!(
        warm,
        before + built,
        "the first 3-thread runner builds the 3-thread pool"
    );

    // Two passes, each on a runner of its own.
    let (_, inserted) = runner.run_two_pass(&reads, None, 1).unwrap();
    assert!(
        inserted > 0,
        "the second pass must have run on an augmented index"
    );
    assert_eq!(
        workers_spawned(),
        warm,
        "two-pass mode spawned threads"
    );

    // A second STAR runner and two pseudoaligner runners at the same thread count.
    Runner::new(&index, AlignParams::default(), config)
        .unwrap()
        .run(&reads, None, None, None)
        .unwrap();
    let pseudo_index =
        PseudoIndex::build(&assembly, &annotation, &PseudoIndexParams { k: 21 }).unwrap();
    for _ in 0..2 {
        let config = PseudoRunConfig {
            threads: THREADS,
            ..PseudoRunConfig::default()
        };
        PseudoRunner::new(&pseudo_index, config)
            .unwrap()
            .run(&reads, None)
            .unwrap();
    }
    assert_eq!(
        workers_spawned(),
        warm,
        "a later runner spawned threads"
    );
}
