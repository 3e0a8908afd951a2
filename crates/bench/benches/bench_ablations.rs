//! Ablations over the design choices DESIGN.md calls out:
//!
//! * prefix-table depth (`--genomeSAindexNbases` analog) — seed-search accelerator;
//! * anchor multimap cap (`--winAnchorMultimapNmax` analog) — repetitive-seed guard;
//! * early-stopping checkpoint fraction — the paper picked 10 % from 1000 progress
//!   logs; the sweep shows the decision cost at other checkpoints;
//! * runner thread scaling (`--runThreadN`).

use atlas_bench::{ensembl_params, Scale};
use atlas_pipeline::early_stop::EarlyStopPolicy;
use atlas_pipeline::experiments::Substrate;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use genomics::{FastqRecord, LibraryType, ReadSimulator, SimulatorParams};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::runner::{RunConfig, RunMonitor, Runner};
use star_aligner::AlignParams;

fn bulk_reads(sub: &Substrate, n: usize, seed: u64) -> Vec<FastqRecord> {
    ReadSimulator::new(
        &sub.asm_111,
        &sub.annotation,
        SimulatorParams::for_library(LibraryType::BulkPolyA),
        seed,
    )
    .expect("simulator")
    .simulate(n, "AB")
    .into_iter()
    .map(|r| r.fastq)
    .collect()
}

fn bench_prefix_depth(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let reads = bulk_reads(&sub, 1_500, 31);
    let run_config = RunConfig { threads: 2, batch_size: 500, quant: false, record_alignments: false, collect_junctions: false };
    let mut group = c.benchmark_group("ablation_prefix_depth");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reads.len() as u64));
    for k in [4usize, 6, 8, 10] {
        let params = IndexParams { sa_index_nbases: Some(k) };
        let index = StarIndex::build(&sub.asm_111, &sub.annotation, &params).expect("index");
        group.bench_with_input(BenchmarkId::from_parameter(k), &index, |b, index| {
            let runner = Runner::new(index, AlignParams::default(), run_config.clone()).expect("runner");
            b.iter(|| runner.run(&reads, None, None, None).expect("run").final_snapshot.processed);
        });
    }
    group.finish();
}

fn bench_anchor_cap(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let reads = bulk_reads(&sub, 1_500, 32);
    let run_config = RunConfig { threads: 2, batch_size: 500, quant: false, record_alignments: false, collect_junctions: false };
    let mut group = c.benchmark_group("ablation_anchor_cap");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reads.len() as u64));
    for cap in [10u32, 50, 200] {
        let mut params = AlignParams::default();
        params.anchor_multimap_nmax = cap;
        params.out_filter_multimap_nmax = 20;
        group.bench_with_input(BenchmarkId::from_parameter(cap), &params, |b, params| {
            // Run on the repetitive release-108 index, where the cap actually bites.
            let runner = Runner::new(&sub.index_108, params.clone(), run_config.clone()).expect("runner");
            b.iter(|| runner.run(&reads, None, None, None).expect("run").final_snapshot.processed);
        });
    }
    group.finish();
}

fn bench_checkpoint_fraction(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let sc_reads: Vec<FastqRecord> = ReadSimulator::new(
        &sub.asm_111,
        &sub.annotation,
        SimulatorParams::for_library(LibraryType::SingleCell3Prime),
        33,
    )
    .expect("simulator")
    .simulate(6_000, "CF")
    .into_iter()
    .map(|r| r.fastq)
    .collect();
    let run_config = RunConfig { threads: 2, batch_size: 300, quant: false, record_alignments: false, collect_junctions: false };
    let runner = Runner::new(&sub.index_111, AlignParams::default(), run_config).expect("runner");
    let mut group = c.benchmark_group("ablation_checkpoint_fraction");
    group.sample_size(10);
    for frac in [0.02f64, 0.10, 0.25, 0.50] {
        let policy = EarlyStopPolicy { check_fraction: frac, ..EarlyStopPolicy::default() };
        group.bench_with_input(BenchmarkId::from_parameter(frac), &policy, |b, policy| {
            b.iter(|| {
                runner
                    .run(&sc_reads, None, Some(policy as &dyn RunMonitor), None)
                    .expect("run")
                    .final_snapshot
                    .processed
            });
        });
    }
    group.finish();
}

/// `--runThreadN` scaling on both release indices at the usual batch size, and on
/// r111 at a batch of 50 reads, where the pool's hand-off cost is paid 80 times per
/// run (the small-batch guard: 2 threads must not lose to 1).
fn bench_thread_scaling(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let reads = bulk_reads(&sub, 4_000, 34);
    let mut group = c.benchmark_group("ablation_thread_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reads.len() as u64));
    for (label, index, batch_size) in [
        ("r111", &sub.index_111, 1_000),
        ("r108", &sub.index_108, 1_000),
        ("r111_batch50", &sub.index_111, 50),
    ] {
        for threads in [1usize, 2, 4, 8] {
            let run_config =
                RunConfig { threads, batch_size, quant: false, record_alignments: false, collect_junctions: false };
            group.bench_with_input(BenchmarkId::new(label, threads), &run_config, |b, rc| {
                let runner = Runner::new(index, AlignParams::default(), rc.clone()).expect("runner");
                b.iter(|| runner.run(&reads, None, None, None).expect("run").final_snapshot.processed);
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_prefix_depth,
    bench_anchor_cap,
    bench_checkpoint_fraction,
    bench_thread_scaling
);
criterion_main!(benches);
