//! Core aligner micro-benchmarks: suffix-array construction, MMP seed search, and
//! per-read-class alignment cost. These underpin the figure-level benches — when a
//! figure's shape shifts, these localize which stage moved.

use atlas_bench::{ensembl_params, Scale};
use atlas_pipeline::experiments::Substrate;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use genomics::{DnaSeq, LibraryType, ReadSimulator, SimulatorParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use star_aligner::align::Aligner;
use star_aligner::mmp::{mmp_search_packed, SearchCost, SeedLayers};
use star_aligner::sa::SuffixArray;
use star_aligner::seed::{collect_seeds_packed, SeedProbeScratch};
use star_aligner::{AlignParams, Packed2};

fn bench_suffix_array_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("suffix_array_build");
    group.sample_size(10);
    for len in [100_000usize, 400_000, 1_600_000] {
        let seq = DnaSeq::random(&mut StdRng::seed_from_u64(1), len);
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &seq, |b, seq| {
            b.iter(|| SuffixArray::build(seq.codes()).len());
        });
    }
    group.finish();
}

fn bench_mmp_search(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let chrom = sub.asm_111.contig("1").expect("chromosome 1");
    // Genomic 100-mers: every search runs to full depth. Packed once outside the
    // loop and started from the aligner's own layers, as the hot path does.
    let genomic: Vec<DnaSeq> = (0..512)
        .map(|i| {
            let at = i * 97 % (chrom.len() - 100);
            chrom.seq.subseq(at, at + 100)
        })
        .collect();
    // Their reverse complements: what the aligner asks of the other strand of every
    // read it maps — sequence the genome does not hold, so each search ends within a
    // few bases of the tables. Most of seeding's searches are of this kind.
    let pack = |s: &DnaSeq| Packed2::from_codes(s.codes());
    let forward: Vec<Packed2> = genomic.iter().map(pack).collect();
    let reverse: Vec<Packed2> = genomic.iter().map(|s| pack(&s.reverse_complement())).collect();
    let mut group = c.benchmark_group("mmp_search");
    group.throughput(Throughput::Elements(forward.len() as u64));
    for (release, index) in [("release_108", &sub.index_108), ("release_111", &sub.index_111)] {
        for (label, queries) in [(release.to_string(), &forward), (format!("{release}_rc"), &reverse)] {
            group.bench_with_input(BenchmarkId::from_parameter(label), index, |b, index| {
                let layers = SeedLayers::full(index);
                let mut cost = SearchCost::default();
                b.iter(|| queries.iter().map(|q| mmp_search_packed(&layers, q, 0, &mut cost).len).sum::<usize>());
            });
        }
    }
    group.finish();
}

fn bench_seed_collection(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let mut sim = ReadSimulator::new(
        &sub.asm_111,
        &sub.annotation,
        SimulatorParams::for_library(LibraryType::BulkPolyA),
        3,
    )
    .expect("simulator");
    // Hot-path shape: reads packed once, seed buffer and probe scratch reused —
    // exactly how the aligner drives seed collection per read.
    let reads: Vec<Packed2> = sim
        .simulate(512, "S")
        .into_iter()
        .map(|r| Packed2::from_codes(r.fastq.seq.codes()))
        .collect();
    let params = AlignParams::default();
    let mut group = c.benchmark_group("seed_collection");
    group.throughput(Throughput::Elements(reads.len() as u64));
    for (label, index) in [("release_108", &sub.index_108), ("release_111", &sub.index_111)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), index, |b, index| {
            let layers = SeedLayers::full(index);
            let mut seeds = Vec::new();
            let mut probe = SeedProbeScratch::default();
            b.iter(|| {
                reads
                    .iter()
                    .map(|q| {
                        collect_seeds_packed(&layers, q, &params, &mut seeds, &mut probe);
                        seeds.len()
                    })
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

fn bench_align_by_read_class(c: &mut Criterion) {
    let sub = Substrate::build(ensembl_params(Scale::Test)).expect("substrate");
    let aligner = Aligner::new(&sub.index_111, AlignParams::default());
    let chrom = sub.asm_111.contig("1").expect("chromosome 1");
    let genomic: Vec<DnaSeq> = (0..256).map(|i| chrom.seq.subseq(i * 131, i * 131 + 100)).collect();
    let mut sc_sim = ReadSimulator::new(
        &sub.asm_111,
        &sub.annotation,
        SimulatorParams::for_library(LibraryType::SingleCell3Prime),
        5,
    )
    .expect("simulator");
    let junky: Vec<DnaSeq> = sc_sim.simulate(256, "J").into_iter().map(|r| r.fastq.seq).collect();

    let mut group = c.benchmark_group("align_read_class");
    group.throughput(Throughput::Elements(256));
    group.bench_function("genomic_perfect", |b| {
        b.iter(|| genomic.iter().filter(|s| aligner.align_seq(s).is_mapped()).count())
    });
    group.bench_function("single_cell_mix", |b| {
        b.iter(|| junky.iter().filter(|s| aligner.align_seq(s).is_mapped()).count())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_suffix_array_build,
    bench_mmp_search,
    bench_seed_collection,
    bench_align_by_read_class
);
criterion_main!(benches);
