//! What loading an index asks the allocator for: `StarIndex::deserialize` of each
//! tiny index may hold, at its peak, no more than the loaded index keeps resident and
//! a little slack. Loading counts the base table's children again from the suffix
//! array and the resident 2-bit genome, so no byte-per-base copy of the genome and no
//! per-position side array is made on the way; either would cost one to several bytes
//! per genome base, far above the slack allowed here. (This replaces the bound on the
//! dense depth-`k+1` rung the search used to build on first use: that rung is gone,
//! and what answers its buckets is counted at load.)

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
use star_aligner::index::{IndexParams, StarIndex};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Room for names, the junction set's spare capacity and anything of fixed size,
/// independent of the genome.
const SLACK: usize = 64 << 10;

#[test]
fn loading_an_index_peaks_at_the_bytes_it_keeps() {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    for release in [Release::R108, Release::R111] {
        let assembly = generator.generate(release);
        let annotation = Annotation::simulate(&assembly, &generator).unwrap();
        let blob = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap().serialize();

        let (index, seen) = tracked(|| StarIndex::deserialize(&blob).unwrap());
        let resident = index.stats().total_bytes() + index.runtime_table_bytes();
        println!(
            "{release:?}: {} bases, peak live {} bytes while loading, {resident} resident",
            index.genome().len(),
            seen.peak_live
        );
        assert!(
            seen.peak_live <= resident + SLACK,
            "{release:?}: loading peaked at {} bytes for an index of {resident} resident bytes \
             ({} genome bases)",
            seen.peak_live,
            index.genome().len()
        );
    }
}
