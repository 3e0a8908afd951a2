//! What building an index asks the allocator for, counted rather than timed:
//! `StarIndex::build` on both tiny releases, as the peak of live heap bytes per
//! genome base, the allocator calls and the bytes requested. The peak is what an
//! instance must hold while it builds, and the suffix-array construction is where
//! temporaries can push it past the finished index: before SA-IS ran over the packed
//! genome inside its own output, the peak was 23.7 bytes per base on both releases
//! (247 and 135 calls, 3.6 and 1.3 MB requested), over four times what the index
//! keeps.
//!
//! Each figure is a ceiling with a 0.9x floor: a change that moves one re-captures
//! it from the printed line and says why.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
use star_aligner::index::{IndexParams, StarIndex};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `(release, peak live bytes, allocator calls, bytes requested)`.
const CEILINGS: [(Release, usize, u64, usize); 2] = [
    (Release::R108, 681_522, 145, 975_624),
    (Release::R111, 226_826, 54, 386_426),
];

/// Peak live bytes per genome base that building may reach on any release.
const MAX_PEAK_PER_BASE: usize = 7;

#[test]
fn index_build_peak_calls_and_bytes_stay_at_their_ceilings() {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let mut outside = Vec::new();
    for (release, peak_ceiling, calls_ceiling, bytes_ceiling) in CEILINGS {
        let assembly = generator.generate(release);
        let annotation = Annotation::simulate(&assembly, &generator).unwrap();
        let (index, seen) =
            tracked(|| StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap());
        let bases = index.genome().len();
        let kept = index.stats().total_bytes();
        println!(
            "{release:?}: {bases} bases, peak live {} bytes ({:.2} per base; the index keeps {kept}, \
             {:.2} per base), {} allocator calls, {} bytes requested",
            seen.peak_live,
            seen.peak_live as f64 / bases as f64,
            kept as f64 / bases as f64,
            seen.calls,
            seen.total
        );
        // SA-IS works inside its output, so the build holds little more than the
        // index it returns; a byte-per-base copy of the genome or an n-sized side
        // array of u32 would each break this bound.
        assert!(
            seen.peak_live <= MAX_PEAK_PER_BASE * bases,
            "{release:?}: peak live {} bytes for {bases} bases",
            seen.peak_live
        );
        let within = |got: u64, ceiling: u64| got <= ceiling && got * 10 >= ceiling * 9;
        for (what, got, ceiling) in [
            ("peak live bytes", seen.peak_live as u64, peak_ceiling as u64),
            ("allocator calls", seen.calls, calls_ceiling),
            ("bytes requested", seen.total as u64, bytes_ceiling as u64),
        ] {
            if !within(got, ceiling) {
                outside.push(format!("{release:?} {what}: {got}, committed {ceiling}"));
            }
        }
    }
    assert!(
        outside.is_empty(),
        "a figure fails above its ceiling, and below 0.9x of it so the ceiling follows an improvement: {outside:#?}"
    );
}
