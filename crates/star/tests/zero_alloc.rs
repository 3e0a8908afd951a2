//! Steady-state allocation test for the per-read alignment hot path.
//!
//! A counting global allocator (`support/counting_alloc.rs`) wraps the system
//! allocator; after a warm-up pass grows the scratch buffers to their steady-state
//! capacity, re-aligning the same reads must perform zero heap allocations. This is the property the pooled
//! [`star_aligner::AlignScratch`] exists to provide — any regression that
//! reintroduces a per-read `Vec`/`String` allocation fails this test.
//!
//! Gene counting is held to the same bar: aligning with a gene assignment and adding
//! it to the table allocates nothing either, and a whole quant-on `Runner::run`
//! makes as many allocator calls for 4 000 reads as for 400. The counters are
//! process-wide, so the three checks share the one `#[test]`.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator, Release, SimulatorParams};
use star_aligner::align::Aligner;
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::quant::{GeneCounts, GeneModel, Strandedness};
use star_aligner::{AlignParams, AlignScratch, Emit, RunConfig, Runner};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_alignment_allocates_nothing() {
    // Build everything (index, reads, scratch) before tracking starts.
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R111);
    let annotation = Annotation::simulate(&assembly, &generator).unwrap();
    let index = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
    let aligner = Aligner::new(&index, AlignParams::default());
    let mut sim = ReadSimulator::new(
        &assembly,
        &annotation,
        SimulatorParams::for_library(LibraryType::BulkPolyA),
        33,
    )
    .unwrap();
    let reads: Vec<_> = sim.simulate(300, "ZA").into_iter().map(|r| r.fastq.seq).collect();

    let mut scratch = AlignScratch::new();
    // Warm-up: two passes so every pooled buffer reaches its high-water capacity.
    let mut warm_mapped = 0usize;
    for _ in 0..2 {
        warm_mapped = reads
            .iter()
            .filter(|seq| aligner.align_seq_with(seq, &mut scratch, Emit { records: false, genes: None }).is_mapped())
            .count();
    }
    assert!(warm_mapped > 200, "premise: most bulk reads map ({warm_mapped}/300)");

    // Steady state: the same workload must not touch the allocator.
    let (mapped, seen) = tracked(|| {
        reads
            .iter()
            .filter(|seq| aligner.align_seq_with(seq, &mut scratch, Emit { records: false, genes: None }).is_mapped())
            .count()
    });
    let allocs = seen.calls;

    assert_eq!(mapped, warm_mapped, "tracked pass must reproduce the warm-up results");
    assert_eq!(allocs, 0, "steady-state alignment of 300 reads performed {allocs} heap allocations");

    quant_only_alignment_allocates_nothing(&aligner, &annotation, &reads, &mut scratch);
    quant_run_allocations_do_not_grow_with_reads(&index, &annotation, &mut sim);
}

/// The runner's quant-only worker step plus its sequential step: align with a gene
/// assignment and no record, add the assignment to the table.
fn quant_only_alignment_allocates_nothing(
    aligner: &Aligner,
    annotation: &Annotation,
    reads: &[genomics::DnaSeq],
    scratch: &mut AlignScratch,
) {
    let model = GeneModel::new(annotation, aligner.contig_names());
    let mut counts = GeneCounts::new(annotation);
    let emit = Emit { records: false, genes: Some(&model) };
    let mut count_all = |counts: &mut GeneCounts| {
        for seq in reads {
            let out = aligner.align_seq_with(seq, scratch, emit);
            assert!(out.primary.is_none(), "a quant-only alignment builds no record");
            counts.add(out.genes.expect("the model was passed"));
        }
    };
    count_all(&mut GeneCounts::new(annotation));
    let ((), seen) = tracked(|| count_all(&mut counts));
    assert_eq!(seen.calls, 0, "quant-only alignment of {} reads made {} allocator calls", reads.len(), seen.calls);
    assert_eq!(counts.total_recorded(), reads.len() as u64);
    assert!(counts.total_counted(Strandedness::Unstranded) > 100, "premise: bulk reads hit genes");
}

/// A one-thread run aligns on the caller, whose allocations are the ones counted:
/// per run (the aligner's contig names, the gene model and table, one outcome
/// buffer, the history), never per read.
fn quant_run_allocations_do_not_grow_with_reads(index: &StarIndex, annotation: &Annotation, sim: &mut ReadSimulator) {
    let reads: Vec<_> = sim.simulate(4_000, "ZR").into_iter().map(|r| r.fastq).collect();
    let runner = Runner::new(index, AlignParams::default(), RunConfig { threads: 1, ..RunConfig::default() }).unwrap();
    assert!(runner.config().quant, "premise: the default run counts genes");
    runner.run(&reads, Some(annotation), None, None).unwrap();
    let [small, large] = [400, 4_000].map(|n| {
        let (out, seen) = tracked(|| runner.run(&reads[..n], Some(annotation), None, None).unwrap());
        let counts = out.gene_counts.expect("quant is on");
        assert_eq!(counts.total_recorded(), n as u64);
        println!("quant-on Runner::run of {n} reads: {} allocator calls", seen.calls);
        seen.calls
    });
    assert_eq!(small, large, "allocator calls of a quant-on run at 400 and 4 000 reads");
}
