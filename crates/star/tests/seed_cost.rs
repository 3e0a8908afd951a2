//! What seeding costs, counted instead of timed.
//!
//! `PhaseWork::seed_probes` counts the dependent index loads of the seed phase —
//! prefix-table lookups, binary-search steps inside `SuffixArray::refine` (one
//! suffix-array load and the genome load it addresses), suffixes compared by direct
//! extension — the proxy for cache misses that the host's 0.78–1.35× wall-clock
//! drift cannot blur. Fixed-seed reads on the tiny release-111 and release-108
//! substrates, three kinds per release: bulk poly-A, single-cell 3', and random
//! 100-mers (the wrong-strand scan in isolation: no seed is ever found, so every
//! probe is overhead).
//!
//! * **(A) exact and schedule-free:** the run driver reports the same count at 1, 2
//!   and 8 threads, and it equals a plain per-read, per-orientation sum over
//!   `collect_seeds_packed`.
//! * **(B) committed ceilings:** total probes per cell. A regression fails with its
//!   cell's name; an improvement of more than a tenth must lower the ceiling in the
//!   PR that earns it (the `observer_cost` convention). Five more cells hold (B)
//!   alone: the r111 bulk reads at base prefix-table depths `k` (`IndexParams::
//!   sa_index_nbases`, star-sim's `--genomeSAindexNbases`) from two below the
//!   automatic depth to two above it.
//! * **(C) no search starts at the root of the suffix array:** the widest interval
//!   any search starts from is no wider than the widest depth-1 bucket — the count of
//!   the genome's most frequent base.
//!
//! `-- --nocapture` prints one line per cell, with the orientations that found no
//! seed split out. What the counter cannot see: which of those loads actually miss —
//! that is index size against cache, and stays with `atlas-e2e`'s `star.seed.cpu_s`.
use genomics::{
    Annotation, DnaSeq, EnsemblGenerator, EnsemblParams, FastqRecord, LibraryType, ReadSimulator,
    Release, SimulatorParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::mmp::{SearchCost, SeedLayers};
use star_aligner::runner::{RunConfig, Runner};
use star_aligner::seed::{collect_seeds_packed, SeedProbeScratch};
use star_aligner::{AlignParams, Packed2};

/// Committed probes per cell: `(index, reads, reads in the cell, total probes)`.
const CEILINGS: [(&str, &str, usize, u64); 11] = [
    ("r111", "bulk", 2_000, 93_842),
    ("r111", "single_cell", 2_000, 145_786),
    ("r111", "random", 1_000, 74_455),
    ("r108", "bulk", 2_000, 258_234),
    ("r108", "single_cell", 2_000, 193_721),
    ("r108", "random", 1_000, 55_206),
    ("r111 k=4", "bulk", 2_000, 512_706),
    ("r111 k=5", "bulk", 2_000, 268_202),
    ("r111 k=6", "bulk", 2_000, 93_842),
    ("r111 k=7", "bulk", 2_000, 57_179),
    ("r111 k=8", "bulk", 2_000, 57_179),
];

fn add(total: &mut SearchCost, one: SearchCost) {
    total.searches += one.searches;
    total.probes += one.probes;
    total.start_suffixes += one.start_suffixes;
    total.widest_start = total.widest_start.max(one.widest_start);
}

/// Seed every read in both orientations, as `Aligner::candidates_into` does; returns
/// the cost of all orientations and of those that found no seed.
fn seed_all(index: &StarIndex, reads: &[FastqRecord]) -> (SearchCost, SearchCost) {
    let layers = SeedLayers::full(index);
    let params = AlignParams::default();
    let (mut seeds, mut probe) = (Vec::new(), SeedProbeScratch::default());
    let (mut all, mut seedless) = (SearchCost::default(), SearchCost::default());
    for read in reads {
        for seq in [read.seq.clone(), read.seq.reverse_complement()] {
            collect_seeds_packed(&layers, &Packed2::from_codes(seq.codes()), &params, &mut seeds, &mut probe);
            add(&mut all, probe.cost());
            if seeds.is_empty() {
                add(&mut seedless, probe.cost());
            }
        }
    }
    (all, seedless)
}

#[test]
fn seed_probes_are_exact_thread_invariant_and_within_their_ceilings() {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let asm_111 = generator.generate(Release::R111);
    let annotation = Annotation::simulate(&asm_111, &generator).unwrap();
    let simulate = |library, seed, n, prefix: &str| -> Vec<FastqRecord> {
        ReadSimulator::new(&asm_111, &annotation, SimulatorParams::for_library(library), seed)
            .unwrap()
            .simulate(n, prefix)
            .into_iter()
            .map(|r| r.fastq)
            .collect()
    };
    let mut rng = StdRng::seed_from_u64(2024);
    let reads = [
        ("bulk", simulate(LibraryType::BulkPolyA, 41, 2_000, "B")),
        ("single_cell", simulate(LibraryType::SingleCell3Prime, 42, 2_000, "S")),
        (
            "random",
            (0..1_000)
                .map(|i| FastqRecord::with_uniform_quality(format!("R.{i}"), DnaSeq::random(&mut rng, 100), 35))
                .collect(),
        ),
    ];

    let mut cells = CEILINGS.iter();
    let mut outside = Vec::new();
    let mut check_ceiling = |cell: &str, probes: u64, ceiling: u64| {
        if probes > ceiling || probes * 10 < ceiling * 9 {
            outside.push(format!("{cell}: {probes} probes, committed {ceiling}"));
        }
    };
    for (release, label) in [(Release::R111, "r111"), (Release::R108, "r108")] {
        let index =
            StarIndex::build(&generator.generate(release), &annotation, &IndexParams::default()).unwrap();
        for (kind, reads) in &reads {
            let &(want_release, want_kind, want_reads, ceiling) = cells.next().unwrap();
            assert_eq!((want_release, want_kind, want_reads), (label, *kind, reads.len()));
            let cell = format!("{label} {kind}");

            // (A) One number, whatever the schedule.
            let (all, seedless) = seed_all(&index, reads);
            for threads in [1usize, 2, 8] {
                let config = RunConfig {
                    threads,
                    batch_size: 250,
                    quant: false,
                    record_alignments: false,
                    collect_junctions: false,
                };
                let runner = Runner::new(&index, AlignParams::default(), config).unwrap();
                let out = runner.run(reads, None, None, None).unwrap();
                assert_eq!(out.phase_work.seed_probes, all.probes, "{cell}: {threads} threads");
            }

            let n = reads.len() as f64;
            let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
            println!(
                "{cell}: {} probes / {} reads = {:.1} per read; {:.2} searches per read, mean start {:.1} \
                 suffixes, widest {}; seedless orientations: {:.1} probes per read, mean start {:.1}",
                all.probes,
                reads.len(),
                all.probes as f64 / n,
                all.searches as f64 / n,
                per(all.start_suffixes, all.searches),
                all.widest_start,
                seedless.probes as f64 / n,
                per(seedless.start_suffixes, seedless.searches),
            );

            // (C) Every search started inside the ladder.
            let seq = index.genome().seq();
            let widest_rung = (0..4u8).map(|c| index.sa().find(seq, &[c]).size()).max().unwrap();
            assert!(
                all.widest_start <= widest_rung && widest_rung < index.sa().len() as u32,
                "{cell}: a search started from {} suffixes; the widest depth-1 bucket holds {widest_rung}",
                all.widest_start
            );

            // (B) The committed cost of this cell.
            check_ceiling(&cell, all.probes, ceiling);
        }
    }

    // (B) alone: the bulk reads on r111 indexes of other base-table depths.
    let (_, bulk) = &reads[0];
    let index_at = |k| StarIndex::build(&asm_111, &annotation, &IndexParams { sa_index_nbases: k }).unwrap();
    let auto = index_at(None).prefix().k();
    for k in auto - 2..=auto + 2 {
        let &(want_index, want_kind, want_reads, ceiling) = cells.next().unwrap();
        let label = format!("r111 k={k}");
        assert_eq!((want_index, want_kind, want_reads), (label.as_str(), "bulk", bulk.len()));
        let (all, _) = seed_all(&index_at(Some(k)), bulk);
        let per_read = all.probes as f64 / bulk.len() as f64;
        println!("{label} bulk: {} probes / {} reads = {per_read:.1} per read", all.probes, bulk.len());
        check_ceiling(&format!("{label} bulk"), all.probes, ceiling);
    }
    assert!(cells.next().is_none(), "a committed cell was not run");
    assert!(
        outside.is_empty(),
        "a cell fails above its ceiling, and below 0.9x of it so the ceiling follows an improvement: {outside:#?}"
    );
}
