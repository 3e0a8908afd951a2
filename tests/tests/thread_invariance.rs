//! Output is invariant to thread count (ROADMAP aim 3).
//!
//! Batches are aligned on a real work-sharing pool, so which thread aligns which
//! read, and in what order, differs from run to run. Nothing a run reports may
//! depend on that: per-read alignment is pure and accounting is sequential in input
//! order. Each scenario below runs at 1, 2 and 8 threads (1 never leaves the
//! calling thread; 8 oversubscribes any small host, which shuffles the schedule
//! hardest) and must produce the same values, in the same order.

use atlas_pipeline::{AtlasPipeline, PipelineConfig};
use genomics::pool::Pool;
use genomics::{
    Annotation, Assembly, EnsemblGenerator, EnsemblParams, FastqRecord, LibraryType, ReadSimulator,
    Release, SimulatorParams,
};
use pseudo_aligner::{PseudoIndex, PseudoIndexParams, PseudoRunConfig, PseudoRunner};
use sra_sim::accession::{CatalogParams, LibraryStrategy};
use sra_sim::{FasterqDump, SraArchive, SraRepository};
use star_aligner::align::AlignmentRecord;
use star_aligner::checkpoint::AlignCheckpoint;
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::junctions::JunctionRow;
use star_aligner::quant::GeneCounts;
use star_aligner::runner::{CancelToken, MonitorVerdict, RunConfig, RunOutput, RunStatus, Runner};
use star_aligner::{AlignParams, ProgressSnapshot};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

struct Fixture {
    assembly: Arc<Assembly>,
    annotation: Arc<Annotation>,
    index: Arc<StarIndex>,
}

fn fixture() -> Fixture {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = Arc::new(generator.generate(Release::R111));
    let annotation = Arc::new(
        Annotation::simulate(&assembly, &generator).unwrap(),
    );
    let index =
        Arc::new(StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap());
    Fixture {
        assembly,
        annotation,
        index,
    }
}

impl Fixture {
    fn simulator(&self, library: LibraryType, seed: u64) -> ReadSimulator<'_> {
        ReadSimulator::new(
            &self.assembly,
            &self.annotation,
            SimulatorParams::for_library(library),
            seed,
        )
        .unwrap()
    }

    fn reads(&self, library: LibraryType, seed: u64, n: usize) -> Vec<FastqRecord> {
        self.simulator(library, seed)
            .simulate(n, "TI")
            .into_iter()
            .map(|r| r.fastq)
            .collect()
    }
}

/// The deterministic part of a snapshot (`elapsed_secs` is wall-clock).
fn counters(s: &ProgressSnapshot) -> [u64; 6] {
    [
        s.total_reads,
        s.processed,
        s.unique,
        s.multi,
        s.too_many,
        s.unmapped,
    ]
}

/// Everything a run reports except wall-clock time.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    status: RunStatus,
    history: Vec<[u64; 6]>,
    final_snapshot: [u64; 6],
    final_log: String,
    gene_counts: Option<GeneCounts>,
    junctions: Option<Vec<JunctionRow>>,
    alignments: Option<Vec<AlignmentRecord>>,
    work_units: [u64; 3],
}

fn fingerprint(out: RunOutput) -> Fingerprint {
    Fingerprint {
        status: out.status,
        history: out.history.iter().map(counters).collect(),
        final_snapshot: counters(&out.final_snapshot),
        final_log: out.final_log().canonical_text(),
        gene_counts: out.gene_counts,
        junctions: out.junctions,
        alignments: out.alignments,
        work_units: [
            out.phase_work.seed_units,
            out.phase_work.stitch_units,
            out.phase_work.extend_units,
        ],
    }
}

/// Run `scenario` at every thread count and demand the 1-thread result from all.
fn assert_invariant<T: PartialEq>(name: &str, scenario: impl Fn(usize) -> T) -> T {
    let reference = scenario(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let got = scenario(threads);
        assert!(
            got == reference,
            "{name}: {threads} threads differ from 1 thread"
        );
    }
    reference
}

fn full_config(threads: usize, batch_size: usize) -> RunConfig {
    RunConfig {
        threads,
        batch_size,
        quant: true,
        record_alignments: true,
        collect_junctions: true,
    }
}

fn paper_policy(s: &ProgressSnapshot) -> MonitorVerdict {
    if s.processed_fraction() >= 0.10 && s.mapped_fraction() < 0.30 {
        MonitorVerdict::Abort
    } else {
        MonitorVerdict::Continue
    }
}

#[test]
fn runner_output_is_invariant_to_thread_count() {
    let fx = fixture();
    let ann = Some(&*fx.annotation);
    let runner =
        |config: RunConfig| Runner::new(&fx.index, AlignParams::default(), config).unwrap();

    // Bulk single-end run: 1500 reads in 8 batches, the last one short.
    let bulk = fx.reads(LibraryType::BulkPolyA, 1, 1_500);
    let whole = assert_invariant("bulk", |threads| {
        fingerprint(
            runner(full_config(threads, 200))
                .run(&bulk, ann, None, None)
                .unwrap(),
        )
    });
    assert_eq!(whole.status, RunStatus::Completed);
    assert_eq!(whole.history.len(), 8);
    let mapped = whole.final_snapshot[2] + whole.final_snapshot[3];
    assert_eq!(whole.alignments.as_ref().unwrap().len() as u64, mapped);
    assert!(whole.work_units.iter().all(|&units| units > 0));

    // Paired run.
    let pairs: Vec<(FastqRecord, FastqRecord)> = fx
        .simulator(LibraryType::BulkPolyA, 91)
        .simulate_pairs(700, "TP")
        .into_iter()
        .map(|p| (p.r1, p.r2))
        .collect();
    let paired = assert_invariant("pairs", |threads| {
        fingerprint(
            runner(full_config(threads, 150))
                .run_pairs(&pairs, ann, None, None)
                .unwrap(),
        )
    });
    assert_eq!(paired.final_snapshot[1], 700);

    // Single-cell run aborted by the paper's policy: the stop must land on the same
    // batch boundary whatever the schedule.
    let single_cell = fx.reads(LibraryType::SingleCell3Prime, 2, 1_500);
    let stopped = assert_invariant("early stop", |threads| {
        fingerprint(
            runner(full_config(threads, 100))
                .run(&single_cell, ann, Some(&paper_policy), None)
                .unwrap(),
        )
    });
    assert_eq!(
        stopped.status,
        RunStatus::EarlyStopped {
            processed_reads: 200
        }
    );

    // Cancel mid-run, checkpoint, resume: the checkpoint bytes and the resumed run
    // are schedule-independent too, and the resumed totals equal the whole run's.
    let resumed = assert_invariant("resume", |threads| {
        let runner = runner(full_config(threads, 200));
        let token = CancelToken::new();
        let trip = token.clone();
        let cut = move |s: &ProgressSnapshot| {
            if s.processed >= 500 {
                trip.cancel();
            }
            MonitorVerdict::Continue
        };
        let cancelled = runner.run(&bulk, ann, Some(&cut), Some(&token)).unwrap();
        assert_eq!(
            cancelled.status,
            RunStatus::Cancelled {
                processed_reads: 600
            }
        );
        let checkpoint = AlignCheckpoint::from_cancelled(&cancelled).unwrap();
        let resumed = runner
            .run_resumed(&bulk, ann, &checkpoint, None, None)
            .unwrap();
        (checkpoint.to_bytes(), fingerprint(resumed))
    });
    let (_, resumed) = resumed;
    assert_eq!(resumed.final_snapshot, whole.final_snapshot);
    assert_eq!(resumed.gene_counts, whole.gene_counts);
    assert_eq!(resumed.junctions, whole.junctions);
    // Records cover the resumed tail only: what the whole run kept after the reads
    // that mapped in its first three batches.
    let kept_before_cut = (whole.history[2][2] + whole.history[2][3]) as usize;
    assert!(resumed.alignments.unwrap()[..] == whole.alignments.unwrap()[kept_before_cut..]);
}

/// The pseudoaligner runs the same batch loop (`BatchDriver`), so it owes the same
/// invariance: status, final counters, history and every equivalence class.
#[test]
fn pseudo_runner_output_is_invariant_to_thread_count() {
    let fx = fixture();
    let index =
        PseudoIndex::build(&fx.assembly, &fx.annotation, &PseudoIndexParams { k: 21 }).unwrap();
    let run = |reads: &[FastqRecord], threads: usize, report_progress: bool| {
        let config = PseudoRunConfig {
            threads,
            batch_size: 150,
            report_progress,
        };
        let out = PseudoRunner::new(&index, config)
            .unwrap()
            .run(reads, Some(&paper_policy))
            .unwrap();
        let mut classes: Vec<(Vec<u32>, u64)> = out
            .counts
            .iter()
            .map(|(set, n)| (set.to_vec(), n))
            .collect();
        classes.sort();
        (
            out.status,
            counters(&out.final_snapshot),
            out.history.iter().map(counters).collect::<Vec<_>>(),
            classes,
            out.counts.unmapped,
        )
    };

    // Bulk reads run to completion: 1300 reads in 9 batches, the last one short.
    let bulk = fx.reads(LibraryType::BulkPolyA, 3, 1_300);
    let (status, last, history, classes, _) =
        assert_invariant("pseudo bulk", |threads| run(&bulk, threads, true));
    assert_eq!(status, RunStatus::Completed);
    assert_eq!(history.len(), 9);
    assert_eq!(history.last(), Some(&last));
    assert!(classes.len() > 1, "bulk reads fall into several classes");

    // Single-cell reads stop at the same batch boundary whatever the schedule...
    let single_cell = fx.reads(LibraryType::SingleCell3Prime, 4, 1_500);
    let (status, _, history, _, _) =
        assert_invariant("pseudo early stop", |threads| run(&single_cell, threads, true));
    assert_eq!(
        status,
        RunStatus::EarlyStopped {
            processed_reads: 150
        }
    );
    assert_eq!(history.len(), 1);

    // ...and in stock-Salmon mode the same monitor is never consulted.
    let (status, last, history, _, unmapped) =
        assert_invariant("pseudo stock", |threads| run(&single_cell, threads, false));
    assert_eq!(status, RunStatus::Completed);
    assert!(history.is_empty());
    assert_eq!(last[1], 1_500);
    assert_eq!(unmapped, last[5]);
}

#[test]
fn fasterq_dump_is_invariant_to_pool_size() {
    let fx = fixture();
    let reads = fx.reads(LibraryType::BulkPolyA, 5, 3_001);
    let archive = SraArchive::encode("SRRTI", LibraryStrategy::RnaSeqBulk, &reads).unwrap();
    let sequential = archive.decode_all().unwrap();
    assert_eq!(sequential.len(), reads.len());
    // `run` decodes on the pool of `available_parallelism()` threads...
    let global = FasterqDump::default().run(&archive).unwrap();
    assert!(global.reads == sequential, "global pool");
    // ...and `run_on` on the pool it is given.
    for threads in THREAD_COUNTS {
        let pool = Pool::shared(threads).unwrap();
        let dumped = FasterqDump::default().run_on(&archive, &pool).unwrap();
        assert!(dumped.reads == sequential, "{threads} threads");
        assert_eq!(dumped.fastq_bytes, global.fastq_bytes);
    }
}

#[test]
fn pipeline_accession_is_invariant_to_thread_count() {
    let fx = fixture();
    let catalog = CatalogParams {
        n_accessions: 6,
        single_cell_fraction: 0.5,
        bulk_spots_median: 900,
        ..CatalogParams::default()
    }
    .generate()
    .unwrap();
    let repo = Arc::new(SraRepository::new(
        Arc::clone(&fx.assembly),
        Arc::clone(&fx.annotation),
        catalog,
    ));
    let pipeline = |threads: usize| {
        let mut config = PipelineConfig::default();
        config.run_config.threads = threads;
        // Modeled align time, so every stage duration is a function of the input.
        config.align_secs_per_read = Some(2.0e-4);
        AtlasPipeline::new(
            Arc::clone(&repo),
            Arc::clone(&fx.index),
            Arc::clone(&fx.annotation),
            config,
        )
        .unwrap()
    };
    let reference = pipeline(THREAD_COUNTS[0]);
    let mut stopped = 0;
    for id in repo.ids() {
        let (want, want_history) = reference.run_accession_with_history(&id).unwrap();
        stopped += usize::from(want.early_stopped());
        for &threads in &THREAD_COUNTS[1..] {
            let (got, got_history) = pipeline(threads).run_accession_with_history(&id).unwrap();
            let label = format!("{id} at {threads} threads");
            assert_eq!(got.accession, want.accession, "{label}");
            assert_eq!(got.strategy, want.strategy, "{label}");
            assert_eq!(got.stage_secs, want.stage_secs, "{label}");
            assert_eq!(
                got.mapping_rate.to_bits(),
                want.mapping_rate.to_bits(),
                "{label}"
            );
            assert_eq!(got.status, want.status, "{label}");
            assert_eq!(got.early_stop, want.early_stop, "{label}");
            assert_eq!(got.gene_counts, want.gene_counts, "{label}");
            assert_eq!(got.reads_input, want.reads_input, "{label}");
            assert_eq!(
                (
                    got.phase_work.seed_units,
                    got.phase_work.stitch_units,
                    got.phase_work.extend_units
                ),
                (
                    want.phase_work.seed_units,
                    want.phase_work.stitch_units,
                    want.phase_work.extend_units
                ),
                "{label}"
            );
            assert_eq!(got.dump_attrs, want.dump_attrs, "{label}");
            assert_eq!(
                got_history.iter().map(counters).collect::<Vec<_>>(),
                want_history.iter().map(counters).collect::<Vec<_>>(),
                "{label}"
            );
        }
    }
    assert!(
        stopped > 0 && stopped < repo.ids().len(),
        "both outcomes must be covered: {stopped}"
    );
}
