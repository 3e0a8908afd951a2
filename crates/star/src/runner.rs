//! Multi-threaded alignment run driver (`--runThreadN` analog) with the cooperative
//! cancellation hook that early stopping plugs into.
//!
//! Reads are processed in batches; each batch is aligned in parallel on a shared
//! rayon pool (one per thread count, process-wide — repeated runs and two-pass mode
//! reuse threads and their warm per-thread scratch buffers instead of spawning new
//! ones), progress counters are updated, and a [`RunMonitor`] is consulted between
//! batches. A monitor that returns [`MonitorVerdict::Abort`] stops the run — exactly
//! how the paper's pipeline kills STAR when `Log.progress.out` shows a sub-threshold
//! mapping rate after the 10 % checkpoint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rayon::prelude::*;

use crate::align::{Aligner, AlignmentRecord, MapClass, PhaseWork};
use crate::checkpoint::AlignCheckpoint;
use crate::index::StarIndex;
use crate::junctions::{JunctionCollector, JunctionRow};
use crate::logs::FinalLog;
use crate::params::AlignParams;
use crate::progress::{ProgressSnapshot, ProgressStats};
use crate::quant::{GeneCounter, GeneCounts};
use crate::StarError;
use genomics::{Annotation, FastqRecord};

/// What a [`RunMonitor`] tells the runner after each batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorVerdict {
    /// Keep aligning.
    Continue,
    /// Abort the run (early stopping).
    Abort,
}

/// Observer consulted between batches with a fresh progress snapshot.
pub trait RunMonitor: Sync {
    /// Inspect progress; return [`MonitorVerdict::Abort`] to stop the run.
    fn on_progress(&self, snapshot: &ProgressSnapshot) -> MonitorVerdict;
}

/// Blanket impl so closures can be used as monitors.
impl<F> RunMonitor for F
where
    F: Fn(&ProgressSnapshot) -> MonitorVerdict + Sync,
{
    fn on_progress(&self, snapshot: &ProgressSnapshot) -> MonitorVerdict {
        self(snapshot)
    }
}

/// Shared cancellation flag (e.g. a spot-interruption notice in the cloud layer).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker threads (`--runThreadN`).
    pub threads: usize,
    /// Reads per batch between monitor checks.
    pub batch_size: usize,
    /// Count genes while mapping (`--quantMode GeneCounts`).
    pub quant: bool,
    /// Keep per-read alignment records (memory-heavy; tests/examples only).
    pub record_alignments: bool,
    /// Tally splice-junction usage (SJ.out.tab; required for two-pass mode).
    pub collect_junctions: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 4,
            batch_size: 2_000,
            quant: true,
            record_alignments: false,
            collect_junctions: false,
        }
    }
}

impl RunConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), StarError> {
        if self.threads == 0 {
            return Err(StarError::InvalidParams("threads must be positive".into()));
        }
        if self.batch_size == 0 {
            return Err(StarError::InvalidParams("batch_size must be positive".into()));
        }
        Ok(())
    }
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// All reads processed.
    Completed,
    /// A monitor aborted the run after `processed_reads`.
    EarlyStopped {
        /// Reads processed when the abort took effect.
        processed_reads: u64,
    },
    /// The cancel token fired (external interruption, e.g. spot reclaim).
    Cancelled {
        /// Reads processed when cancellation took effect.
        processed_reads: u64,
    },
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// Completion status.
    pub status: RunStatus,
    /// Final progress snapshot.
    pub final_snapshot: ProgressSnapshot,
    /// One snapshot per batch boundary (the `Log.progress.out` history).
    pub history: Vec<ProgressSnapshot>,
    /// `Log.final.out` summary.
    pub final_log: FinalLog,
    /// Gene counts when `quant` was enabled.
    pub gene_counts: Option<GeneCounts>,
    /// Sorted junction table when `collect_junctions` was enabled (SJ.out.tab).
    pub junctions: Option<Vec<JunctionRow>>,
    /// Per-read records when `record_alignments` was enabled (mapped reads only).
    pub alignments: Option<Vec<AlignmentRecord>>,
    /// Aggregate per-phase alignment work (seed/stitch/extend unit counts).
    pub phase_work: PhaseWork,
    /// Wall-clock seconds.
    pub wall_secs: f64,
}

impl RunOutput {
    /// Convenience: overall mapping rate in `[0,1]`.
    pub fn mapped_fraction(&self) -> f64 {
        self.final_snapshot.mapped_fraction()
    }
}

/// Process-wide rayon pool per thread count. Building a pool spawns OS threads —
/// doing that once per [`Runner`] (let alone per run) wastes startup time and
/// discards the per-thread alignment scratch the workers have warmed up; sharing
/// keeps both across runners (this one and `pseudo`'s), runs and two-pass
/// re-alignment.
pub fn shared_pool(threads: usize) -> Result<Arc<rayon::ThreadPool>, StarError> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let mut pools =
        POOLS.get_or_init(|| Mutex::new(HashMap::new())).lock().expect("pool registry poisoned");
    if let Some(pool) = pools.get(&threads) {
        return Ok(Arc::clone(pool));
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| StarError::InvalidParams(format!("thread pool: {e}")))?;
    let pool = Arc::new(pool);
    pools.insert(threads, Arc::clone(&pool));
    Ok(pool)
}

/// The run driver, borrowing an index for its lifetime.
pub struct Runner<'i> {
    index: &'i StarIndex,
    align_params: AlignParams,
    config: RunConfig,
    pool: Arc<rayon::ThreadPool>,
}

impl<'i> Runner<'i> {
    /// Create a runner on the shared thread pool for `config.threads`.
    pub fn new(index: &'i StarIndex, align_params: AlignParams, config: RunConfig) -> Result<Runner<'i>, StarError> {
        align_params.validate()?;
        config.validate()?;
        let pool = shared_pool(config.threads)?;
        Ok(Runner { index, align_params, config, pool })
    }

    /// The configuration in use.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Align all `reads`, consulting `monitor` between batches and `cancel` at batch
    /// boundaries. `annotation` is required when `quant` is enabled.
    pub fn run(
        &self,
        reads: &[FastqRecord],
        annotation: Option<&Annotation>,
        monitor: Option<&dyn RunMonitor>,
        cancel: Option<&CancelToken>,
    ) -> Result<RunOutput, StarError> {
        self.run_impl(reads, annotation, monitor, cancel, None)
    }

    /// Resume a run from a checkpoint taken at a cancellation: skip the
    /// already-aligned prefix, seed progress/quant/junction state from the
    /// checkpoint, and align only `reads[checkpoint.reads_processed..]`.
    ///
    /// The checkpoint must structurally match the configuration: partial gene
    /// counts are required exactly when `quant` is on (and must come from the
    /// same annotation), a partial junction table exactly when
    /// `collect_junctions` is on. `reads` must be the same input the
    /// interrupted run saw — per-read alignment is pure, so offset plus tallies
    /// fully determine the final output, and the resumed run's SAM/quant/
    /// `Log.final` are bit-identical to an uninterrupted run's. Kept alignment
    /// records (`record_alignments`) cover only the resumed tail: together with
    /// the interrupted attempt's records they form the complete shard set.
    pub fn run_resumed(
        &self,
        reads: &[FastqRecord],
        annotation: Option<&Annotation>,
        checkpoint: &AlignCheckpoint,
        monitor: Option<&dyn RunMonitor>,
        cancel: Option<&CancelToken>,
    ) -> Result<RunOutput, StarError> {
        checkpoint.validate()?;
        if checkpoint.reads_processed as usize > reads.len() {
            return Err(StarError::InvalidParams(format!(
                "checkpoint offset {} exceeds input of {} reads",
                checkpoint.reads_processed,
                reads.len()
            )));
        }
        if self.config.quant != checkpoint.gene_counts.is_some() {
            return Err(StarError::InvalidParams(
                "checkpoint quant state does not match the run configuration".into(),
            ));
        }
        if self.config.collect_junctions != checkpoint.junctions.is_some() {
            return Err(StarError::InvalidParams(
                "checkpoint junction state does not match the run configuration".into(),
            ));
        }
        self.run_impl(reads, annotation, monitor, cancel, Some(checkpoint))
    }

    fn run_impl(
        &self,
        reads: &[FastqRecord],
        annotation: Option<&Annotation>,
        monitor: Option<&dyn RunMonitor>,
        cancel: Option<&CancelToken>,
        resume: Option<&AlignCheckpoint>,
    ) -> Result<RunOutput, StarError> {
        if self.config.quant && annotation.is_none() {
            return Err(StarError::InvalidParams("quant mode requires an annotation".into()));
        }
        let started = Instant::now();
        let skip = resume.map_or(0, |c| c.reads_processed as usize);
        let progress = match resume {
            Some(c) => ProgressStats::with_initial(
                reads.len() as u64,
                c.reads_processed,
                c.unique,
                c.multi,
                c.too_many,
                c.unmapped,
            ),
            None => ProgressStats::new(reads.len() as u64),
        };
        let aligner = Aligner::new(self.index, self.align_params.clone());
        let mut counter = match (
            annotation.filter(|_| self.config.quant),
            resume.and_then(|c| c.gene_counts.as_ref()),
        ) {
            (Some(ann), Some(saved)) => Some(GeneCounter::restore(ann, saved)?),
            (Some(ann), None) => Some(GeneCounter::new(ann)),
            (None, _) => None,
        };
        let mut junction_collector =
            self.config.collect_junctions.then(JunctionCollector::new);
        if let (Some(collector), Some(rows)) =
            (junction_collector.as_mut(), resume.and_then(|c| c.junctions.as_deref()))
        {
            collector.absorb_rows(rows);
        }
        let mut history = Vec::new();
        let mut kept: Vec<AlignmentRecord> = Vec::new();
        let mut phase_work = PhaseWork::default();
        let mut status = RunStatus::Completed;
        // Records are only materialized when a downstream consumer exists; pure
        // mapping-rate runs skip building them (and every allocation they imply).
        let want_record =
            counter.is_some() || junction_collector.is_some() || self.config.record_alignments;

        'batches: for batch in reads[skip..].chunks(self.config.batch_size) {
            if let Some(tok) = cancel {
                if tok.is_cancelled() {
                    status = RunStatus::Cancelled { processed_reads: progress.snapshot().processed };
                    break 'batches;
                }
            }
            // Parallel alignment of the batch on the shared pool.
            let outcomes: Vec<(MapClass, Option<AlignmentRecord>, PhaseWork)> =
                self.pool.install(|| {
                    batch
                        .par_iter()
                        .map(|read| {
                            let out = aligner.align_read_lean(read, want_record);
                            (out.class, out.primary, out.work)
                        })
                        .collect()
                });
            // Sequential accounting (cheap relative to alignment). Read ids are
            // attached here, and only to records that are actually kept.
            for ((class, primary, work), read) in outcomes.into_iter().zip(batch) {
                progress.record(class);
                phase_work.add(&work);
                if let Some(c) = counter.as_mut() {
                    c.record(class, primary.as_ref());
                }
                if let Some(j) = junction_collector.as_mut() {
                    j.record(class, primary.as_ref());
                }
                if self.config.record_alignments {
                    if let Some(mut rec) = primary {
                        if class.is_mapped() {
                            rec.read_id = read.id.clone();
                            kept.push(rec);
                        }
                    }
                }
            }
            let snap = progress.snapshot();
            history.push(snap);
            if let Some(m) = monitor {
                if m.on_progress(&snap) == MonitorVerdict::Abort {
                    status = RunStatus::EarlyStopped { processed_reads: snap.processed };
                    break 'batches;
                }
            }
        }

        let final_snapshot = progress.snapshot();
        Ok(RunOutput {
            status,
            final_log: FinalLog::from_snapshot(&final_snapshot),
            final_snapshot,
            history,
            gene_counts: counter.map(GeneCounter::finish),
            junctions: junction_collector.map(JunctionCollector::finish),
            alignments: if self.config.record_alignments { Some(kept) } else { None },
            phase_work,
            wall_secs: started.elapsed().as_secs_f64(),
        })
    }

    /// Align read *pairs* (fragments are the progress/counting unit, matching how
    /// STAR reports paired libraries). Same batching, monitoring and cancellation
    /// semantics as [`Runner::run`].
    pub fn run_pairs(
        &self,
        pairs: &[(FastqRecord, FastqRecord)],
        annotation: Option<&Annotation>,
        monitor: Option<&dyn RunMonitor>,
        cancel: Option<&CancelToken>,
    ) -> Result<RunOutput, StarError> {
        if self.config.quant && annotation.is_none() {
            return Err(StarError::InvalidParams("quant mode requires an annotation".into()));
        }
        let started = Instant::now();
        let progress = ProgressStats::new(pairs.len() as u64);
        let aligner = Aligner::new(self.index, self.align_params.clone());
        let mut counter = annotation.filter(|_| self.config.quant).map(GeneCounter::new);
        let mut junction_collector = self.config.collect_junctions.then(JunctionCollector::new);
        let mut history = Vec::new();
        let mut kept: Vec<AlignmentRecord> = Vec::new();
        let mut phase_work = PhaseWork::default();
        let mut status = RunStatus::Completed;
        let want_record =
            counter.is_some() || junction_collector.is_some() || self.config.record_alignments;

        'batches: for batch in pairs.chunks(self.config.batch_size) {
            if let Some(tok) = cancel {
                if tok.is_cancelled() {
                    status = RunStatus::Cancelled { processed_reads: progress.snapshot().processed };
                    break 'batches;
                }
            }
            let outcomes: Vec<crate::pair::PairOutcome> = self.pool.install(|| {
                batch
                    .par_iter()
                    .map(|(r1, r2)| {
                        aligner.align_pair_lean(r1, r2, &crate::pair::PairParams::default(), want_record)
                    })
                    .collect()
            });
            for (out, (r1, r2)) in outcomes.into_iter().zip(batch) {
                progress.record(out.class);
                phase_work.add(&out.work);
                if let Some(c) = counter.as_mut() {
                    c.record_pair(out.class, out.rec1.as_ref(), out.rec2.as_ref());
                }
                if let Some(j) = junction_collector.as_mut() {
                    j.record(out.class, out.rec1.as_ref());
                    j.record(out.class, out.rec2.as_ref());
                }
                if self.config.record_alignments && out.class.is_mapped() {
                    if let Some(mut rec) = out.rec1 {
                        rec.read_id = r1.id.clone();
                        kept.push(rec);
                    }
                    if let Some(mut rec) = out.rec2 {
                        rec.read_id = r2.id.clone();
                        kept.push(rec);
                    }
                }
            }
            let snap = progress.snapshot();
            history.push(snap);
            if let Some(m) = monitor {
                if m.on_progress(&snap) == MonitorVerdict::Abort {
                    status = RunStatus::EarlyStopped { processed_reads: snap.processed };
                    break 'batches;
                }
            }
        }

        let final_snapshot = progress.snapshot();
        Ok(RunOutput {
            status,
            final_log: FinalLog::from_snapshot(&final_snapshot),
            final_snapshot,
            history,
            gene_counts: counter.map(GeneCounter::finish),
            junctions: junction_collector.map(JunctionCollector::finish),
            alignments: if self.config.record_alignments { Some(kept) } else { None },
            phase_work,
            wall_secs: started.elapsed().as_secs_f64(),
        })
    }

    /// A runner over `index` with this runner's (validated) alignment parameters, on
    /// this runner's pool: same workers, same warm scratch.
    fn on_same_pool<'j>(&self, index: &'j StarIndex, config: RunConfig) -> Runner<'j> {
        Runner {
            index,
            align_params: self.align_params.clone(),
            config,
            pool: Arc::clone(&self.pool),
        }
    }

    /// `--twopassMode Basic`: align once collecting junctions, insert novel
    /// junctions supported by at least `min_unique_support` uniquely-mapped reads
    /// into the sjdb, and re-align everything against the augmented index.
    ///
    /// Returns the second-pass output plus the number of junctions inserted. The
    /// paper's pipeline runs single-pass (its data are known libraries), but 2-pass
    /// is the standard STAR mode for novel-junction discovery, so the reproduction
    /// ships it.
    pub fn run_two_pass(
        &self,
        reads: &[FastqRecord],
        annotation: Option<&Annotation>,
        min_unique_support: u64,
    ) -> Result<(RunOutput, usize), StarError> {
        let mut first_config = self.config.clone();
        first_config.collect_junctions = true;
        first_config.quant = false;
        first_config.record_alignments = false;
        let first = self.on_same_pool(self.index, first_config).run(reads, None, None, None)?;

        let genome = self.index.genome();
        let novel: Vec<(u64, u64)> = first
            .junctions
            .as_deref()
            .unwrap_or(&[])
            .iter()
            .filter(|row| row.stats.unique_reads >= min_unique_support)
            .filter_map(|row| {
                let span = genome.span_by_name(&row.contig)?;
                let (s, e) = (span.start + row.intron_start, span.start + row.intron_end);
                (!self.index.sjdb().contains(s, e)).then_some((s, e))
            })
            .collect();
        let inserted = novel.len();
        if inserted == 0 {
            // Nothing new: the second pass would be identical; run with the caller's
            // own config for the requested outputs.
            let mut output = self.run(reads, annotation, None, None)?;
            output.phase_work.add(&first.phase_work);
            return Ok((output, 0));
        }
        let augmented = self.index.with_extra_junctions(novel);
        let mut output =
            self.on_same_pool(&augmented, self.config.clone()).run(reads, annotation, None, None)?;
        output.phase_work.add(&first.phase_work);
        Ok((output, inserted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexParams, StarIndex};
    use genomics::annotation::AnnotationParams;
    use genomics::{
        Annotation, EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator, Release,
        SimulatorParams,
    };

    fn setup() -> (StarIndex, Annotation, Vec<FastqRecord>, Vec<FastqRecord>) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g, &AnnotationParams::default()).unwrap();
        let idx = StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap();
        let bulk: Vec<FastqRecord> =
            ReadSimulator::new(&asm, &ann, SimulatorParams::for_library(LibraryType::BulkPolyA), 1)
                .unwrap()
                .simulate(1500, "SRRBULK")
                .into_iter()
                .map(|r| r.fastq)
                .collect();
        let sc: Vec<FastqRecord> = ReadSimulator::new(
            &asm,
            &ann,
            SimulatorParams::for_library(LibraryType::SingleCell3Prime),
            2,
        )
        .unwrap()
        .simulate(1500, "SRRSC")
        .into_iter()
        .map(|r| r.fastq)
        .collect();
        (idx, ann, bulk, sc)
    }

    #[test]
    fn bulk_library_maps_high_single_cell_maps_low() {
        let (idx, ann, bulk, sc) = setup();
        let runner = Runner::new(&idx, AlignParams::default(), RunConfig::default()).unwrap();
        let out_bulk = runner.run(&bulk, Some(&ann), None, None).unwrap();
        let out_sc = runner.run(&sc, Some(&ann), None, None).unwrap();
        assert_eq!(out_bulk.status, RunStatus::Completed);
        let rb = out_bulk.mapped_fraction();
        let rs = out_sc.mapped_fraction();
        assert!(rb > 0.75, "bulk mapping rate {rb}");
        assert!(rs < 0.30, "single-cell mapping rate {rs} must sit below the paper's threshold");
    }

    #[test]
    fn monitor_can_abort_after_checkpoint() {
        let (idx, ann, _, sc) = setup();
        let mut cfg = RunConfig::default();
        cfg.batch_size = 100;
        let runner = Runner::new(&idx, AlignParams::default(), cfg).unwrap();
        // The paper's policy: after ≥10% of reads, abort when mapped% < 30%.
        let monitor = |s: &ProgressSnapshot| {
            if s.processed_fraction() >= 0.10 && s.mapped_fraction() < 0.30 {
                MonitorVerdict::Abort
            } else {
                MonitorVerdict::Continue
            }
        };
        let out = runner.run(&sc, Some(&ann), Some(&monitor), None).unwrap();
        match out.status {
            RunStatus::EarlyStopped { processed_reads } => {
                assert!(processed_reads >= 150, "checkpoint honored");
                assert!(processed_reads < sc.len() as u64, "must stop before the end");
            }
            other => panic!("expected early stop, got {other:?}"),
        }
        assert!(out.final_snapshot.processed < sc.len() as u64);
    }

    #[test]
    fn cancel_token_stops_the_run() {
        let (idx, ann, bulk, _) = setup();
        let mut cfg = RunConfig::default();
        cfg.batch_size = 200;
        let runner = Runner::new(&idx, AlignParams::default(), cfg).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let out = runner.run(&bulk, Some(&ann), None, Some(&token)).unwrap();
        match out.status {
            RunStatus::Cancelled { processed_reads } => assert_eq!(processed_reads, 0),
            other => panic!("expected cancelled, got {other:?}"),
        }
    }

    #[test]
    fn gene_counts_cover_unique_reads() {
        let (idx, ann, bulk, _) = setup();
        let runner = Runner::new(&idx, AlignParams::default(), RunConfig::default()).unwrap();
        let out = runner.run(&bulk, Some(&ann), None, None).unwrap();
        let gc = out.gene_counts.unwrap();
        let counted = gc.total_counted(crate::quant::Strandedness::Unstranded)
            + gc.n_no_feature[0]
            + gc.n_ambiguous[0]
            + gc.n_multimapping
            + gc.n_unmapped;
        assert_eq!(counted, bulk.len() as u64, "every read lands in exactly one bucket");
        assert!(
            gc.total_counted(crate::quant::Strandedness::Unstranded) > 0,
            "exonic bulk reads must produce gene counts"
        );
    }

    #[test]
    fn quant_without_annotation_is_rejected() {
        let (idx, _, bulk, _) = setup();
        let runner = Runner::new(&idx, AlignParams::default(), RunConfig::default()).unwrap();
        assert!(runner.run(&bulk, None, None, None).is_err());
    }

    #[test]
    fn record_alignments_keeps_mapped_reads_only() {
        let (idx, ann, bulk, _) = setup();
        let mut cfg = RunConfig::default();
        cfg.record_alignments = true;
        let runner = Runner::new(&idx, AlignParams::default(), cfg).unwrap();
        let out = runner.run(&bulk, Some(&ann), None, None).unwrap();
        let alns = out.alignments.unwrap();
        let mapped = out.final_snapshot.unique + out.final_snapshot.multi;
        assert_eq!(alns.len() as u64, mapped);
        assert!(alns.iter().all(|a| !a.read_id.is_empty()));
    }

    #[test]
    fn history_records_batch_boundaries() {
        let (idx, ann, bulk, _) = setup();
        let cfg = RunConfig { batch_size: 500, ..RunConfig::default() };
        let runner = Runner::new(&idx, AlignParams::default(), cfg).unwrap();
        let out = runner.run(&bulk, Some(&ann), None, None).unwrap();
        assert_eq!(out.history.len(), 3); // 1500 reads / 500
        assert_eq!(out.history[0].processed, 500);
        assert_eq!(out.history[2].processed, 1500);
        assert!(out.history.windows(2).all(|w| w[0].processed < w[1].processed));
    }

    #[test]
    fn paired_run_counts_fragments() {
        let g = genomics::EnsemblGenerator::new(genomics::EnsemblParams::tiny()).unwrap();
        let asm = g.generate(genomics::Release::R111);
        let ann = Annotation::simulate(&asm, &g, &AnnotationParams::default()).unwrap();
        let idx = StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap();
        let pairs: Vec<(FastqRecord, FastqRecord)> = ReadSimulator::new(
            &asm,
            &ann,
            SimulatorParams::for_library(LibraryType::BulkPolyA),
            91,
        )
        .unwrap()
        .simulate_pairs(800, "PR")
        .into_iter()
        .map(|p| (p.r1, p.r2))
        .collect();
        let runner = Runner::new(&idx, AlignParams::default(), RunConfig::default()).unwrap();
        let out = runner.run_pairs(&pairs, Some(&ann), None, None).unwrap();
        assert_eq!(out.final_snapshot.processed, 800, "fragments are the unit");
        assert!(out.mapped_fraction() > 0.7, "paired mapping rate {}", out.mapped_fraction());
        let gc = out.gene_counts.unwrap();
        let accounted = gc.total_counted(crate::quant::Strandedness::Unstranded)
            + gc.n_no_feature[0]
            + gc.n_ambiguous[0]
            + gc.n_multimapping
            + gc.n_unmapped;
        assert_eq!(accounted, 800, "every fragment lands in exactly one bucket");
        assert!(gc.total_counted(crate::quant::Strandedness::Unstranded) > 0);
    }

    #[test]
    fn paired_single_cell_can_be_early_stopped() {
        let g = genomics::EnsemblGenerator::new(genomics::EnsemblParams::tiny()).unwrap();
        let asm = g.generate(genomics::Release::R111);
        let ann = Annotation::simulate(&asm, &g, &AnnotationParams::default()).unwrap();
        let idx = StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap();
        let pairs: Vec<(FastqRecord, FastqRecord)> = ReadSimulator::new(
            &asm,
            &ann,
            SimulatorParams::for_library(LibraryType::SingleCell3Prime),
            92,
        )
        .unwrap()
        .simulate_pairs(1_200, "PS")
        .into_iter()
        .map(|p| (p.r1, p.r2))
        .collect();
        let cfg = RunConfig { batch_size: 100, quant: false, ..RunConfig::default() };
        let runner = Runner::new(&idx, AlignParams::default(), cfg).unwrap();
        let monitor = |s: &ProgressSnapshot| {
            if s.processed_fraction() >= 0.10 && s.mapped_fraction() < 0.30 {
                MonitorVerdict::Abort
            } else {
                MonitorVerdict::Continue
            }
        };
        let out = runner.run_pairs(&pairs, None, Some(&monitor), None).unwrap();
        assert!(matches!(out.status, RunStatus::EarlyStopped { .. }));
        assert!(out.final_snapshot.processed < 1_200);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (idx, _, _, _) = setup();
        let cfg = RunConfig { threads: 0, ..RunConfig::default() };
        assert!(Runner::new(&idx, AlignParams::default(), cfg).is_err());
        let cfg = RunConfig { batch_size: 0, ..RunConfig::default() };
        assert!(Runner::new(&idx, AlignParams::default(), cfg).is_err());
    }
}
