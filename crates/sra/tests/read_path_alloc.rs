//! What the read path asks the allocator for, counted rather than timed: a
//! single-end `fetch` allocates per accession and never per read, and
//! `FasterqDump::run` makes exactly three allocations per read (its id, bases and
//! qualities) plus one for the output vector. Exact for the seed, so the host's
//! wall-clock drift cannot blur it.

#[path = "../../star/tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
use sra_sim::accession::{AccessionMeta, LibraryLayout, LibraryStrategy};
use sra_sim::{FasterqDump, SraRepository};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Spot caps the fetch is counted at: a tenfold difference in reads.
const CAPS: [u64; 2] = [400, 4_000];
/// Allocations `FasterqDump::run` makes per read, and once per dump.
const DUMP_PER_READ: u64 = 3;
const DUMP_FIXED: u64 = 1;

fn accession(id: &str, strategy: LibraryStrategy, layout: LibraryLayout) -> AccessionMeta {
    AccessionMeta { id: id.into(), strategy, spots: 10_000, read_len: 101, layout, tissue: "lung".into() }
}

#[test]
fn fetch_allocates_per_accession_and_dump_three_times_per_read() {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = Arc::new(generator.generate(Release::R111));
    let annotation =
        Arc::new(Annotation::simulate(&assembly, &generator).unwrap());
    let catalog = vec![
        accession("SRRBULK", LibraryStrategy::RnaSeqBulk, LibraryLayout::Single),
        accession("SRRCELL", LibraryStrategy::SingleCell, LibraryLayout::Single),
        accession("SRRPAIR", LibraryStrategy::RnaSeqBulk, LibraryLayout::Paired),
    ];
    // A one-thread pool runs every parallel call on the caller, whose allocations are
    // the ones counted.
    let pool = genomics::pool::Pool::shared(1).unwrap();
    let dump = FasterqDump::default();
    for meta in &catalog {
        let mut fetch_calls = Vec::new();
        for cap in CAPS {
            let repo = SraRepository::new(Arc::clone(&assembly), Arc::clone(&annotation), catalog.clone())
                .with_spot_cap(cap);
            let (archive, fetched) = tracked(|| repo.fetch(&meta.id).unwrap());
            let (out, dumped) = tracked(|| dump.run_on(&archive, &pool).unwrap());
            let reads = out.reads.len() as u64;
            println!(
                "{} {:?} {:?}: {cap} spots  fetch {} calls  dump {} calls for {reads} reads",
                meta.id, meta.strategy, meta.layout, fetched.calls, dumped.calls
            );
            assert_eq!(dumped.calls, DUMP_PER_READ * reads + DUMP_FIXED, "{}: dump of {reads} reads", meta.id);
            fetch_calls.push(fetched.calls);
        }
        if meta.layout == LibraryLayout::Single {
            assert_eq!(fetch_calls[0], fetch_calls[1], "{}: fetch calls at spot caps {CAPS:?}", meta.id);
        }
    }
}
