//! Steady-state allocation test for the per-read alignment hot path.
//!
//! A counting global allocator (`support/counting_alloc.rs`) wraps the system
//! allocator; after a warm-up pass grows the scratch buffers to their steady-state
//! capacity, re-aligning the same reads must perform zero heap allocations. This is the property the pooled
//! [`star_aligner::AlignScratch`] exists to provide — any regression that
//! reintroduces a per-read `Vec`/`String` allocation fails this test.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::annotation::AnnotationParams;
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator, Release, SimulatorParams};
use star_aligner::align::Aligner;
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::{AlignParams, AlignScratch};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_alignment_allocates_nothing() {
    // Build everything (index, reads, scratch) before tracking starts.
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R111);
    let annotation = Annotation::simulate(&assembly, &generator, &AnnotationParams::default()).unwrap();
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
            .filter(|seq| aligner.align_seq_with(seq, &mut scratch, false).is_mapped())
            .count();
    }
    assert!(warm_mapped > 200, "premise: most bulk reads map ({warm_mapped}/300)");

    // Steady state: the same workload must not touch the allocator.
    let (mapped, seen) = tracked(|| {
        reads
            .iter()
            .filter(|seq| aligner.align_seq_with(seq, &mut scratch, false).is_mapped())
            .count()
    });
    let allocs = seen.calls;

    assert_eq!(mapped, warm_mapped, "tracked pass must reproduce the warm-up results");
    assert_eq!(allocs, 0, "steady-state alignment of 300 reads performed {allocs} heap allocations");
}
