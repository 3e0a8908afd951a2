//! What the first aligner over a loaded index asks the allocator for when it builds
//! the deep prefix rungs (`StarIndex::deep_prefix`): the rungs themselves and little
//! else. Each rung is read from the resident 2-bit genome, so no byte-per-base copy
//! of the genome and no per-position side array is made on the way; either would
//! cost one to several bytes per genome base, far above the slack allowed here.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::prefix::PrefixTable;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Room for the rung list and anything of fixed size, independent of the genome.
const SLACK: usize = 64 << 10;

#[test]
fn first_deep_prefix_call_allocates_only_the_rungs() {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R108);
    let annotation = Annotation::simulate(&assembly, &generator).unwrap();
    let built = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
    let index = StarIndex::deserialize(&built.serialize()).unwrap();
    drop(built);

    let (rung_bytes, seen) =
        tracked(|| index.deep_prefix().iter().map(PrefixTable::byte_size).sum::<usize>());
    assert!(rung_bytes > 0, "premise: the tiny release-108 index has a deep rung");
    assert!(
        seen.total <= rung_bytes + SLACK,
        "first deep_prefix() call requested {} bytes for {rung_bytes} bytes of rungs \
         ({} genome bases)",
        seen.total,
        index.genome().len()
    );
    // The rungs are cached: a second call builds nothing.
    let (_, again) = tracked(|| index.deep_prefix().len());
    assert_eq!(again.calls, 0, "deep rungs rebuilt on the second call");
}
