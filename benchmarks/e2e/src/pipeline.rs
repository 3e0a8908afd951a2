//! The three pipeline workloads: accessions through `AtlasPipeline::run_accession`
//! one after another (a closed loop with one client), then counts folded into a
//! matrix and normalized.
//!
//! The untraced run calls `run_accession` whole and is where every end-to-end
//! metric comes from. The traced run also replays each accession stage by stage
//! (fetch, dump, align) through the same public functions `run_accession` calls,
//! with a span around each, and checks that the replay returns what the whole
//! call returned and that its stages add up to the whole call's time.

use std::sync::Arc;
use std::time::Instant;

use atlas_pipeline::experiments::Substrate;
use atlas_pipeline::{AtlasPipeline, PipelineConfig, PipelineResult};
use cloudsim::InstanceType;
use deseq_norm::CountsMatrix;
use genomics::simulate::ReadOrigin;
use genomics::{Annotation, EnsemblParams, LibraryType, ReadSimulator, Release, SimulatorParams};
use sra_sim::accession::{CatalogParams, LibraryLayout, LibraryStrategy};
use sra_sim::archive::SraArchive;
use sra_sim::{FasterqDump, SraRepository};
use star_aligner::align::Aligner;
use star_aligner::index::IndexParams;
use star_aligner::runner::{RunMonitor, RunOutput};
use star_aligner::{MapClass, PhaseWork, RunStatus, Runner, StarIndex};

use crate::report::Report;
use crate::stats::{best, fastest_of_rounds, median, percentile, Better};
use crate::trace::Tracer;
use crate::{derive_seed, host, RunArgs};

pub struct Spec {
    release: Release,
    /// Accessions in the catalog; the workload runs the first `take` of them, so
    /// `bulk_r108` aligns a prefix of exactly the reads `bulk_r111` aligns.
    catalog: usize,
    take: usize,
    single_cell_fraction: f64,
}

pub fn spec(workload: &str) -> Option<Spec> {
    let (release, catalog, take, single_cell_fraction) = match workload {
        "bulk_r111" => (Release::R111, 150, 150, 0.0),
        "bulk_r108" => (Release::R108, 150, 60, 0.0),
        "single_cell_early_stop" => (Release::R111, 300, 300, 0.9),
        _ => return None,
    };
    Some(Spec {
        release,
        catalog,
        take,
        single_cell_fraction,
    })
}

/// Reads generated per accession at most; catalog metadata keeps its full size.
const SPOT_CAP: u64 = 4_000;
/// Modeled align seconds per read, so simulated time does not depend on the host.
const ALIGN_SECS_PER_READ: f64 = 2.0e-4;
/// The simulated worker whose hourly price turns simulated hours into dollars.
const WORKER_INSTANCE: &str = "r6a.xlarge";
const SETUP_REPEATS: usize = 3;
const WARMUP_ACCESSIONS: usize = 5;
const TRUTH_READS: usize = 2_000;
/// The align probes (1 thread, quant off) rerun every `PROBE_STRIDE`-th accession.
const PROBE_STRIDE: usize = 5;
const MAX_RESIDUAL_FRAC: f64 = 0.05;

struct Fixture {
    sub: Substrate,
    /// The copy that went through serialize + deserialize, as a worker loads it.
    index: Arc<StarIndex>,
    index_bytes: usize,
    repo: Arc<SraRepository>,
    config: PipelineConfig,
    pipeline: AtlasPipeline,
    ids: Vec<String>,
}

fn pipeline_config() -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.run_config.threads = host::threads();
    config.align_secs_per_read = Some(ALIGN_SECS_PER_READ);
    config
}

/// Everything a run needs before its first timed accession. `setup_s` is the
/// seconds this whole function takes.
fn setup(spec: &Spec, seed: u64, tracer: &mut Tracer) -> Fixture {
    let (sub, _) = tracer.span("atlas.substrate_build", 0, || {
        Substrate::build(EnsemblParams::default()).expect("default substrate builds")
    });
    let built = match spec.release {
        Release::R108 => &sub.index_108,
        _ => &sub.index_111,
    };
    let (blob, _) = tracer.span("star.index_serialize", 0, || built.serialize());
    let (index, _) = tracer.span("star.index_deserialize", 0, || {
        Arc::new(StarIndex::deserialize(&blob).expect("a fresh blob deserializes"))
    });

    let params = CatalogParams {
        seed: derive_seed(seed, 1),
        n_accessions: spec.catalog,
        single_cell_fraction: spec.single_cell_fraction,
        bulk_spots_median: 4_000,
        // Far narrower than real archives (the default is 0.6): the seed should
        // move which reads are aligned, not how much work a pass is.
        bulk_spots_sigma: 0.1,
        read_len: 100,
        ..CatalogParams::default()
    };
    let mut catalog = params.generate().expect("catalog parameters are valid");
    // Read content is seeded by the accession id, so the ids carry the seed too.
    let first_id = 1_000_000 + derive_seed(seed, 2) % 8_000_000;
    for (i, meta) in catalog.iter_mut().enumerate() {
        meta.id = format!("SRR{:07}", first_id + i as u64);
    }
    // Reads come from the biology, not from the reference a release ships: both
    // releases align the same reads.
    let repo = Arc::new(
        SraRepository::new(
            Arc::clone(&sub.asm_111),
            Arc::clone(&sub.annotation),
            catalog,
        )
        .with_spot_cap(SPOT_CAP),
    );
    let ids: Vec<String> = repo.ids().into_iter().take(spec.take).collect();
    let config = pipeline_config();
    let pipeline = AtlasPipeline::new(
        Arc::clone(&repo),
        Arc::clone(&index),
        Arc::clone(&sub.annotation),
        config.clone(),
    )
    .expect("pipeline configuration is valid");
    tracer.span("atlas.warmup", 0, || {
        for id in ids.iter().take(WARMUP_ACCESSIONS) {
            pipeline.run_accession(id).expect("warm-up accession runs");
        }
    });
    Fixture {
        sub,
        index,
        index_bytes: blob.len(),
        repo,
        config,
        pipeline,
        ids,
    }
}

/// What one pass over the accessions produced, reduced outside the timed region.
struct Pass {
    wall_s: f64,
    reads: u64,
    mapped_frac: f64,
    bulk_mapped_frac: f64,
    sim_secs: f64,
    completed: usize,
    stopped: usize,
    saved_frac: f64,
    units: [u64; 3],
    multi: u64,
    unmapped: u64,
    counts_checksum: u64,
    genes: usize,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The collect step: one column of unstranded counts per completed accession.
fn fold_counts(results: &[PipelineResult]) -> Option<CountsMatrix> {
    let with_counts: Vec<(&PipelineResult, &star_aligner::quant::GeneCounts)> = results
        .iter()
        .filter_map(|r| r.gene_counts.as_ref().map(|gc| (r, gc)))
        .collect();
    let (_, first) = with_counts.first()?;
    let samples = with_counts
        .iter()
        .map(|(r, _)| r.accession.clone())
        .collect();
    let mut matrix = CountsMatrix::zeros(first.gene_ids.clone(), samples);
    for (j, (_, gc)) in with_counts.iter().enumerate() {
        for (g, count) in gc.counts.iter().enumerate() {
            matrix.set(g, j, count[0]);
        }
    }
    Some(matrix)
}

fn reduce(
    wall_s: f64,
    results: &[PipelineResult],
    matrix: Option<&CountsMatrix>,
    snapshots: Option<&[(u64, u64)]>,
) -> Pass {
    let n = results.len().max(1) as f64;
    let bulk: Vec<&PipelineResult> = results
        .iter()
        .filter(|r| r.strategy == LibraryStrategy::RnaSeqBulk)
        .collect();
    let mut units = PhaseWork::default();
    results.iter().for_each(|r| units.add(&r.phase_work));
    let projected: f64 = results
        .iter()
        .map(|r| r.early_stop.projected_full_secs)
        .sum();
    let saved: f64 = results.iter().map(|r| r.early_stop.saved_secs()).sum();
    let mut counts_checksum = 0xcbf2_9ce4_8422_2325u64;
    if let Some(m) = matrix {
        for g in 0..m.n_genes() {
            m.row(g)
                .iter()
                .for_each(|c| fnv1a(&mut counts_checksum, &c.to_le_bytes()));
        }
    }
    Pass {
        wall_s,
        reads: results.iter().map(|r| r.early_stop.processed_reads).sum(),
        mapped_frac: results.iter().map(|r| r.mapping_rate).sum::<f64>() / n,
        bulk_mapped_frac: bulk.iter().map(|r| r.mapping_rate).sum::<f64>()
            / bulk.len().max(1) as f64,
        sim_secs: results.iter().map(|r| r.stage_secs.total()).sum(),
        completed: results
            .iter()
            .filter(|r| r.status == RunStatus::Completed)
            .count(),
        stopped: results.iter().filter(|r| r.early_stopped()).count(),
        saved_frac: if projected > 0.0 {
            saved / projected
        } else {
            0.0
        },
        units: [units.seed_units, units.stitch_units, units.extend_units],
        multi: snapshots.map_or(0, |s| s.iter().map(|x| x.0).sum()),
        unmapped: snapshots.map_or(0, |s| s.iter().map(|x| x.1).sum()),
        counts_checksum,
        genes: matrix.map_or(0, CountsMatrix::n_genes),
    }
}

/// Run every accession through `run_accession`, fold and normalize. Failed
/// accessions are counted and left out of the reduction.
fn whole_pass(fx: &Fixture, report: &mut Report) -> (Pass, Vec<f64>) {
    let started = Instant::now();
    let mut accession_ms = Vec::with_capacity(fx.ids.len());
    let mut outcomes = Vec::with_capacity(fx.ids.len());
    for id in &fx.ids {
        let t = Instant::now();
        let outcome = fx.pipeline.run_accession(id);
        accession_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outcomes.push(outcome);
    }
    let mut results = Vec::with_capacity(outcomes.len());
    for (id, outcome) in fx.ids.iter().zip(outcomes) {
        match outcome {
            Ok(r) => {
                report.check(true, String::new);
                results.push(r);
            }
            Err(e) => {
                report.check(false, || format!("run_accession({id}): {e}"));
            }
        }
    }
    let matrix = fold_counts(&results);
    let normalized = matrix.as_ref().map(deseq_norm::normalize);
    let wall_s = started.elapsed().as_secs_f64();
    report.check(matches!(normalized, Some(Ok(_))), || {
        "normalize failed or had no counts".into()
    });
    (
        reduce(wall_s, &results, matrix.as_ref(), None),
        accession_ms,
    )
}

/// The stages of `run_accession`, called one by one with a span around each.
struct Staged {
    status: RunStatus,
    mapping_rate: f64,
    gene_counts: Option<star_aligner::quant::GeneCounts>,
    snapshot: (u64, u64),
    fetch_bytes: u64,
    dump_reads: u64,
    fastq_bytes: u64,
}

fn run_align(
    fx: &Fixture,
    reads: &[genomics::FastqRecord],
    threads: usize,
    quant: bool,
    phase_nanos: bool,
) -> RunOutput {
    // The same batch clamp `run_accession` applies, so early stopping sees the
    // same checkpoints.
    let mut run_config = fx.config.run_config.clone();
    run_config.threads = threads;
    run_config.quant = quant;
    run_config.batch_size = run_config.batch_size.clamp(1, (reads.len() / 20).max(50));
    let mut params = fx.config.align_params.clone();
    params.measure_phase_nanos = phase_nanos;
    let runner = Runner::new(&fx.index, params, run_config).expect("run configuration is valid");
    let monitor = fx.config.early_stop.as_ref().map(|p| p as &dyn RunMonitor);
    let annotation: Option<&Annotation> = quant.then_some(&*fx.sub.annotation);
    runner
        .run(reads, annotation, monitor, None)
        .expect("alignment runs")
}

fn staged_accession(fx: &Fixture, id: &str, op_id: u64, tracer: &mut Tracer) -> Staged {
    let accession = tracer.begin("atlas.accession", op_id);
    let (archive, _) = tracer.span("sra.fetch", op_id, || {
        fx.repo.fetch(id).expect("catalog accession fetches")
    });
    let (dump, _) = tracer.span("sra.dump", op_id, || {
        FasterqDump::new(fx.config.dump)
            .run(&archive)
            .expect("a fresh archive decodes")
    });
    assert_eq!(
        archive.layout,
        LibraryLayout::Single,
        "the catalogs here are single-end"
    );
    let (out, _) = tracer.span("star.align", op_id, || {
        run_align(fx, &dump.reads, fx.config.run_config.threads, true, false)
    });
    let completed = out.status == RunStatus::Completed;
    let staged = Staged {
        status: out.status,
        mapping_rate: out.mapped_fraction(),
        snapshot: (
            out.final_snapshot.multi,
            out.final_snapshot.unmapped + out.final_snapshot.too_many,
        ),
        fetch_bytes: archive.size_bytes(),
        dump_reads: dump.reads.len() as u64,
        fastq_bytes: dump.fastq_bytes,
        gene_counts: out.gene_counts.filter(|_| completed),
    };
    // `run_accession` frees its archive and reads before it returns.
    tracer.span("atlas.release_buffers", op_id, || drop((archive, dump)));
    tracer.end(accession);
    staged
}

/// Totals of one traced pass.
#[derive(Default)]
struct TracedPass {
    whole_ms: Vec<f64>,
    /// Per accession: the share of `run_accession`'s time that the replay's
    /// stages (fetch, dump, align, freeing the buffers) do not cover.
    residual_frac: Vec<f64>,
    /// Per accession: the replay's time, spans and all, over `run_accession`'s.
    overhead_frac: Vec<f64>,
    fetch_s: f64,
    dump_s: f64,
    align_s: f64,
    fetch_bytes: u64,
    dump_reads: u64,
    fastq_bytes: u64,
    normalize_s: f64,
}

/// Each accession twice, once whole and once staged, in alternating order so
/// neither always finds the caches warmed by the other.
fn traced_pass(
    fx: &Fixture,
    pass: u64,
    report: &mut Report,
    tracer: &mut Tracer,
) -> (TracedPass, Pass) {
    let mut totals = TracedPass::default();
    let mut results = Vec::with_capacity(fx.ids.len());
    let mut snapshots = Vec::with_capacity(fx.ids.len());
    let root = tracer.begin("pass", pass);
    for (i, id) in fx.ids.iter().enumerate() {
        let op_id = pass * 1_000_000 + i as u64;
        let mark = tracer.mark();
        let mut whole = None;
        let mut staged = None;
        // Even accessions replay first, odd ones run whole first.
        for staged_turn in [i % 2 == 0, i % 2 != 0] {
            if staged_turn {
                staged = Some(staged_accession(fx, id, op_id, tracer));
            } else {
                let (outcome, s) = tracer.span("atlas.run_accession", op_id, || {
                    fx.pipeline.run_accession(id)
                });
                totals.whole_ms.push(s * 1e3);
                whole = Some((outcome, s));
            }
        }
        let staged = staged.expect("both turns ran");
        let (whole, whole_s) = whole.expect("both turns ran");
        let stage_s = [
            "sra.fetch",
            "sra.dump",
            "star.align",
            "atlas.release_buffers",
        ]
        .map(|n| tracer.busy_s_since(mark, n));
        totals.fetch_s += stage_s[0];
        totals.dump_s += stage_s[1];
        totals.align_s += stage_s[2];
        totals
            .residual_frac
            .push((whole_s - stage_s.iter().sum::<f64>()) / whole_s);
        totals
            .overhead_frac
            .push((tracer.busy_s_since(mark, "atlas.accession") - whole_s) / whole_s);
        totals.fetch_bytes += staged.fetch_bytes;
        totals.dump_reads += staged.dump_reads;
        totals.fastq_bytes += staged.fastq_bytes;
        snapshots.push(staged.snapshot);
        match whole {
            Ok(r) => {
                let same = r.status == staged.status
                    && r.mapping_rate.to_bits() == staged.mapping_rate.to_bits()
                    && r.gene_counts == staged.gene_counts;
                report.check(same, || {
                    format!("{id}: staged replay differs from run_accession")
                });
                results.push(r);
            }
            Err(e) => {
                report.check(false, || format!("run_accession({id}): {e}"));
            }
        }
    }
    let (matrix, _) = tracer.span("atlas.fold_counts", pass, || fold_counts(&results));
    let (normalized, normalize_s) = tracer.span("deseq.normalize", pass, || {
        matrix.as_ref().map(deseq_norm::normalize)
    });
    let wall_s = tracer.end(root);
    report.check(matches!(normalized, Some(Ok(_))), || {
        "normalize failed or had no counts".into()
    });
    totals.normalize_s = normalize_s;
    let reduced = reduce(wall_s, &results, matrix.as_ref(), Some(&snapshots));
    (totals, reduced)
}

/// Layer costs the passes cannot separate, each measured on its own.
fn probes(fx: &Fixture, spec: &Spec, report: &mut Report, tracer: &mut Tracer) {
    let root = tracer.begin("probes", 0);

    // Per accession: first what `fetch` does inside, simulate the reads then
    // encode the archive; then the archive is dumped and aligned once more with
    // the aligner timing its own phases. Reading the clock around each phase of
    // each read slows alignment by several per cent, which is why the passes
    // leave it off and the split is taken here. On every PROBE_STRIDE-th
    // accession also: one thread against the configured count, and quant off
    // against on. The three runs of an accession sit next to each other so drift
    // in machine load cancels, and take turns going first so none always finds
    // the caches warm.
    let threads = fx.config.run_config.threads;
    let (mut sim_s, mut encode_s) = (0.0, 0.0);
    let mut phases = PhaseWork::default();
    let mut phase_cpu_s = 0.0;
    let mut variant_s = [0.0f64; 3];
    let mut all_reads = 0u64;
    let mut variant_reads = 0u64;
    for (i, id) in fx.ids.iter().enumerate() {
        let op = i as u64;
        let meta = fx.repo.meta(id).expect("catalog accession").clone();
        let n = meta.spots.min(SPOT_CAP) as usize;
        let (reads, s) = tracer.span("genomics.read_sim", op, || {
            let mut params = SimulatorParams::for_library(meta.strategy.library_type());
            params.read_len = meta.read_len as usize;
            let mut sim = ReadSimulator::new(
                &fx.sub.asm_111,
                &fx.sub.annotation,
                params,
                meta.content_seed(),
            )
            .expect("simulator parameters are valid");
            sim.simulate(n, &meta.id)
                .into_iter()
                .map(|r| r.fastq)
                .collect::<Vec<_>>()
        });
        sim_s += s;
        let (archive, s) = tracer.span("sra.archive_encode", op, || {
            SraArchive::encode(&meta.id, meta.strategy, &reads).expect("reads encode")
        });
        encode_s += s;

        let dump = FasterqDump::new(fx.config.dump)
            .run(&archive)
            .expect("archive decodes");
        let cpu_before = host::process_cpu_s();
        let (out, _) = tracer.span("star.align.probe_phases", op, || {
            run_align(fx, &dump.reads, threads, true, true)
        });
        phase_cpu_s += host::process_cpu_s() - cpu_before;
        phases.add(&out.phase_work);
        all_reads += out.final_snapshot.processed;
        if i % PROBE_STRIDE != 0 {
            continue;
        }
        variant_reads += out.final_snapshot.processed;
        let turn = i / PROBE_STRIDE;
        for k in 0..3 {
            let variant = (turn + k) % 3;
            let (name, t, quant) = [
                ("star.align.probe_base", threads, true),
                ("star.align.probe_t1", 1, true),
                ("star.align.probe_noquant", threads, false),
            ][variant];
            variant_s[variant] += tracer
                .span(name, op, || run_align(fx, &dump.reads, t, quant, false))
                .1;
        }
    }
    report.set("genomics.read_sim.busy_s", sim_s);
    report.set("sra.archive_encode.busy_s", encode_s);
    let [base_s, one_thread_s, no_quant_s] = variant_s;
    report.set("star.seed.cpu_s", phases.seed_nanos as f64 / 1e9);
    report.set("star.stitch.cpu_s", phases.stitch_nanos as f64 / 1e9);
    report.set("star.extend.cpu_s", phases.extend_nanos as f64 / 1e9);
    report.set(
        "star.align.other_cpu_s",
        phase_cpu_s - phases.nanos_total() as f64 / 1e9,
    );
    report.set("star.align.speedup_t2", one_thread_s / base_s);
    // Scaled from the probed accessions to all of them by reads aligned.
    report.set(
        "star.quant.busy_s",
        (base_s - no_quant_s) * all_reads as f64 / variant_reads.max(1) as f64,
    );

    let built = match spec.release {
        Release::R108 => &fx.sub.asm_108,
        _ => &fx.sub.asm_111,
    };
    let (_, build_s) = tracer.span("star.index_build", 0, || {
        StarIndex::build(built, &fx.sub.annotation, &IndexParams::default()).expect("index builds")
    });
    report.set("star.index_build.busy_s", build_s);
    tracer.end(root);
}

/// Align reads whose origin the simulator knows and count those that land on it.
fn truth_check(fx: &Fixture, seed: u64, report: &mut Report) {
    let mut params = SimulatorParams::for_library(LibraryType::BulkPolyA);
    params.exonic_fraction = 0.0;
    params.genomic_fraction = 1.0;
    let mut sim = ReadSimulator::new(
        &fx.sub.asm_111,
        &fx.sub.annotation,
        params,
        derive_seed(seed, 3),
    )
    .expect("simulator parameters are valid");
    let aligner = Aligner::new(&fx.index, fx.config.align_params.clone());
    let (mut unique, mut on_origin) = (0usize, 0usize);
    for read in sim.simulate(TRUTH_READS, "TRUTH") {
        let ReadOrigin::Genomic { contig, pos } = &read.origin else {
            continue;
        };
        let out = aligner.align_seq(&read.fastq.seq);
        // A read with several equally good loci may report any of them.
        if out.class != MapClass::Unique {
            continue;
        }
        unique += 1;
        let hit = out.primary.is_some_and(|rec| {
            *rec.contig == **contig && (rec.pos as i64 - *pos as i64).unsigned_abs() <= 5
        });
        on_origin += hit as usize;
    }
    report.check(unique * 2 >= TRUTH_READS, || {
        format!("only {unique} of {TRUTH_READS} truth reads mapped uniquely")
    });
    report.check(on_origin as f64 >= 0.95 * unique as f64, || {
        format!("{on_origin} of {unique} uniquely mapped truth reads landed on their origin")
    });
}

fn output_checks(spec: &Spec, passes: &[Pass], report: &mut Report) {
    let expect_stopped = (spec.single_cell_fraction * spec.take as f64).round() as usize;
    for p in passes {
        report.check(p.stopped == expect_stopped, || {
            format!(
                "{} accessions early-stopped, expected {expect_stopped}",
                p.stopped
            )
        });
        report.check(p.completed == spec.take - expect_stopped, || {
            format!(
                "{} accessions completed, expected {}",
                p.completed,
                spec.take - expect_stopped
            )
        });
        report.check(p.bulk_mapped_frac >= 0.90, || {
            format!("bulk accessions map at {}, below 0.90", p.bulk_mapped_frac)
        });
    }
    let of = |f: fn(&Pass) -> u64| passes.iter().map(f).collect::<Vec<u64>>();
    report.check_repeats("gene-count checksum", &of(|p| p.counts_checksum));
    report.check_repeats("mapped_frac", &of(|p| p.mapped_frac.to_bits()));
    report.check_repeats("simulated seconds", &of(|p| p.sim_secs.to_bits()));
    report.check_repeats("reads aligned", &of(|p| p.reads));
    report.check_repeats(
        "work units",
        &passes.iter().map(|p| p.units).collect::<Vec<_>>(),
    );
}

fn worker_hourly_usd() -> f64 {
    InstanceType::by_name(WORKER_INSTANCE)
        .expect("catalog instance type")
        .on_demand_hourly_usd
}

/// The untraced run: every end-to-end metric.
fn run_untraced(spec: &Spec, args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        drop(fixture.take()); // peak memory is one fixture, not two
        let started = Instant::now();
        fixture = Some(setup(spec, args.seed, tracer));
        setups.push(started.elapsed().as_secs_f64());
    }
    let fx = fixture.expect("SETUP_REPEATS is positive");
    report.set_median("setup_s", setups);

    let mut passes = Vec::new();
    let mut rounds_ms = Vec::new();
    let started = Instant::now();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let (pass, accession_ms) = whole_pass(&fx, report);
        passes.push(pass);
        rounds_ms.push(accession_ms);
    }

    // Every pass repeats the same deterministic work, and interference from the
    // host only ever adds time to it. So the fastest sighting of each accession
    // (and of the fold + normalize tail) over the passes is the steadiest
    // estimate of what the code costs: the min-of-rounds protocol this
    // repository's campaign benches already use. All samples go to the result file.
    let fastest_ms = fastest_of_rounds(&rounds_ms);
    let tail_s: Vec<f64> = passes
        .iter()
        .zip(&rounds_ms)
        .map(|(p, ms)| p.wall_s - ms.iter().sum::<f64>() / 1e3)
        .collect();
    let pass_s = fastest_ms.iter().sum::<f64>() / 1e3 + best(Better::Lower, &tail_s);
    let n = fx.ids.len() as f64;
    let reads = passes[0].reads as f64;
    report.set_from(
        "accessions_per_s",
        n / pass_s,
        passes.iter().map(|p| n / p.wall_s).collect(),
    );
    report.set_from(
        "reads_per_s",
        reads / pass_s,
        passes.iter().map(|p| p.reads as f64 / p.wall_s).collect(),
    );
    report.set_from("accession_ms_p50", median(&fastest_ms), rounds_ms.concat());
    println!(
        "atlas.pipeline.accession_ms_p90 {} ms  (not gated; {} accessions x {} passes)",
        percentile(&fastest_ms, 90.0),
        fastest_ms.len(),
        passes.len()
    );
    let last = passes.last().expect("at least two passes ran");
    report.set("mapped_frac", last.mapped_frac);
    report.set("sim_makespan_h", last.sim_secs / 3600.0);
    report.set("sim_cost_usd", last.sim_secs / 3600.0 * worker_hourly_usd());

    output_checks(spec, &passes, report);
    truth_check(&fx, args.seed, report);
    report.set("peak_rss_mb", host::peak_rss_mb());
}

/// The traced run: every per-layer metric.
fn run_traced(spec: &Spec, args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    let mark = tracer.mark();
    let fx = setup(spec, args.seed, tracer);
    report.set("star.index.bytes", fx.index_bytes as f64);
    report.set(
        "star.index_serialize.busy_s",
        tracer.busy_s_since(mark, "star.index_serialize"),
    );
    report.set(
        "star.index_deserialize.busy_s",
        tracer.busy_s_since(mark, "star.index_deserialize"),
    );
    report.set("host.llc_bytes", host::llc_bytes() as f64);

    // The probes count towards the seconds the run measures for.
    let started = Instant::now();
    probes(&fx, spec, report, tracer);
    let mut totals = Vec::new();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let (t, p) = traced_pass(&fx, passes.len() as u64 + 1, report, tracer);
        totals.push(t);
        passes.push(p);
    }

    let of = |f: fn(&TracedPass) -> f64| totals.iter().map(f).collect::<Vec<f64>>();
    report.set_best("sra.fetch.busy_s", of(|t| t.fetch_s));
    report.set_best("sra.dump.busy_s", of(|t| t.dump_s));
    report.set_best("star.align.busy_s", of(|t| t.align_s));
    report.set_best(
        "sra.dump.fastq_mb_per_s",
        of(|t| t.fastq_bytes as f64 / 1e6 / t.dump_s),
    );
    report.set_best("deseq.normalize.busy_s", of(|t| t.normalize_s));
    // Medians over accessions: each compares two calls made back to back, so a
    // burst of machine load moves a few samples and not the figure.
    let pooled = |f: fn(&TracedPass) -> &Vec<f64>| -> Vec<f64> {
        totals.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    report.set(
        "atlas.pipeline.residual_frac",
        median(&pooled(|t| &t.residual_frac)),
    );
    report.set("trace.overhead_frac", median(&pooled(|t| &t.overhead_frac)));
    report.set(
        "atlas.pipeline.accession_ms_p90",
        percentile(&pooled(|t| &t.whole_ms), 90.0),
    );

    let (first_totals, first) = (&totals[0], &passes[0]);
    report.set("sra.fetch.bytes", first_totals.fetch_bytes as f64);
    report.set("sra.dump.reads", first_totals.dump_reads as f64);
    report.set("star.seed.units", first.units[0] as f64);
    report.set("star.stitch.units", first.units[1] as f64);
    report.set("star.extend.units", first.units[2] as f64);
    report.set(
        "star.multimap_frac",
        first.multi as f64 / first.reads.max(1) as f64,
    );
    report.set(
        "star.unmapped_frac",
        first.unmapped as f64 / first.reads.max(1) as f64,
    );
    report.set("atlas.early_stop.stopped", first.stopped as f64);
    report.set("atlas.early_stop.saved_frac", first.saved_frac);
    report.set("deseq.matrix.genes", first.genes as f64);

    let residual = report
        .get("atlas.pipeline.residual_frac")
        .unwrap_or(f64::NAN);
    report.check(residual.abs() <= MAX_RESIDUAL_FRAC, || {
        format!(
            "the replay's stages miss run_accession's time by {residual}, over {MAX_RESIDUAL_FRAC}"
        )
    });
    output_checks(spec, &passes, report);
    truth_check(&fx, args.seed, report);
}

pub fn run(spec: &Spec, args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    if tracer.is_recording() {
        run_traced(spec, args, report, tracer);
    } else {
        run_untraced(spec, args, report, tracer);
    }
}
