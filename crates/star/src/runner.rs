//! Multi-threaded alignment run driver (`--runThreadN` analog) with the cooperative
//! cancellation hook that early stopping plugs into.
//!
//! Reads are processed in batches; each batch is aligned in parallel on the
//! process-wide [`Pool`] for the run's thread count (repeated runs, two-pass mode and
//! `pseudo`'s runner reuse its threads and their warm per-thread scratch buffers
//! instead of spawning new ones), the run's progress tally is updated, and a
//! [`RunMonitor`] is consulted between batches. A monitor that returns
//! [`MonitorVerdict::Abort`] stops the run — exactly how the paper's pipeline kills
//! STAR when `Log.progress.out` shows a sub-threshold mapping rate after the 10 %
//! checkpoint.
//!
//! That loop exists once, as [`BatchDriver::drive`]: [`Runner`]'s single-end, resumed,
//! paired and two-pass runs and `pseudo`'s runner differ only in the align function
//! and the accounting closure they hand it. Whatever is per read runs in the align
//! function, on the pool — for [`Runner`] that includes assigning each fragment to
//! its gene ([`crate::quant::GeneModel`]) — so the accounting closure only adds
//! `Copy` results to counters in input order. Every tally a run keeps is a plain
//! value owned by the calling thread: the [`ProgressSnapshot`] the loop counts into,
//! and the gene, junction and phase-work tables of [`Runner`]'s accounting. The one
//! value shared between threads is the [`CancelToken`]'s flag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::align::{AlignOutcome, Aligner, AlignmentRecord, Emit, MapClass, PhaseWork};
use crate::checkpoint::AlignCheckpoint;
use crate::index::StarIndex;
use crate::junctions::{JunctionCollector, JunctionRow};
use crate::logs::FinalLog;
use crate::pair::{PairOutcome, PairParams};
use crate::params::AlignParams;
use crate::progress::ProgressSnapshot;
use crate::quant::{Assignment, GeneCounts, GeneModel};
use crate::scratch::with_thread_scratch;
use crate::StarError;
use genomics::pool::Pool;
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
    /// Gene counts when `quant` was enabled.
    pub gene_counts: Option<GeneCounts>,
    /// Sorted junction table when `collect_junctions` was enabled (SJ.out.tab).
    pub junctions: Option<Vec<JunctionRow>>,
    /// Per-read records when `record_alignments` was enabled (mapped reads only).
    pub alignments: Option<Vec<AlignmentRecord>>,
    /// Aggregate per-phase alignment work (seed/stitch/extend unit counts).
    pub phase_work: PhaseWork,
}

impl RunOutput {
    /// The `Log.final.out` summary of the final snapshot.
    pub fn final_log(&self) -> FinalLog {
        FinalLog(self.final_snapshot)
    }

    /// Convenience: overall mapping rate in `[0,1]`.
    pub fn mapped_fraction(&self) -> f64 {
        self.final_snapshot.mapped_fraction()
    }
}

/// The batch loop — cancel check, parallel batch, in-order accounting, snapshot,
/// monitor — that every runner in the workspace shares: [`Runner::run`],
/// [`Runner::run_resumed`], [`Runner::run_pairs`], [`Runner::run_two_pass`] and
/// `pseudo`'s runner. This is the one place the paper's early stopping acts.
pub struct BatchDriver<'a> {
    /// Pool the batches are aligned on.
    pub pool: &'a Pool,
    /// Fragments per batch between monitor checks.
    pub batch_size: usize,
    /// Consulted after every batch; `None` runs to completion.
    pub monitor: Option<&'a dyn RunMonitor>,
    /// Checked before every batch.
    pub cancel: Option<&'a CancelToken>,
}

/// What one pass of the [`BatchDriver`] reports.
#[derive(Debug)]
pub struct Driven {
    /// How the loop ended.
    pub status: RunStatus,
    /// The tally when it ended: the start snapshot plus every fragment accounted.
    pub final_snapshot: ProgressSnapshot,
    /// One snapshot per batch boundary.
    pub history: Vec<ProgressSnapshot>,
}

impl BatchDriver<'_> {
    /// Run the loop over `frags`, counting into `progress`: a fresh
    /// [`ProgressSnapshot::new`] starts at fragment 0, one built from a checkpoint
    /// skips the fragments it has already processed. Every snapshot's `elapsed_secs`
    /// is read from `clock`, the instant the run began. `align` runs on the pool,
    /// once per fragment, in any order; `account` then sees each fragment with its
    /// outcome on the calling thread, in input order, and returns the class to count
    /// — so nothing a run reports depends on the schedule. Monomorphised per caller:
    /// no `dyn` call or allocation per fragment, and one outcome buffer per call,
    /// reused by every batch. A panic in `align` is re-raised here.
    pub fn drive<F, O, A, R>(
        &self,
        frags: &[F],
        mut progress: ProgressSnapshot,
        clock: Instant,
        align: A,
        mut account: R,
    ) -> Driven
    where
        F: Sync,
        O: Send,
        A: Fn(&F) -> O + Sync,
        R: FnMut(&F, O) -> MapClass,
    {
        let mut history = Vec::new();
        let mut status = RunStatus::Completed;
        let todo = &frags[progress.processed as usize..];
        let mut slots: Vec<Option<O>> = Vec::new();
        slots.resize_with(self.batch_size.min(todo.len()), || None);
        for batch in todo.chunks(self.batch_size) {
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                status = RunStatus::Cancelled { processed_reads: progress.processed };
                break;
            }
            let slots = &mut slots[..batch.len()];
            self.pool.fill(slots, |i| Some(align(&batch[i])));
            // `fill` wrote every slot, so `map_while` never stops early.
            for (frag, outcome) in batch.iter().zip(slots.iter_mut().map_while(Option::take)) {
                progress.record(account(frag, outcome));
            }
            progress.elapsed_secs = clock.elapsed().as_secs_f64();
            history.push(progress);
            if self.monitor.is_some_and(|m| m.on_progress(&progress) == MonitorVerdict::Abort) {
                status = RunStatus::EarlyStopped { processed_reads: progress.processed };
                break;
            }
        }
        progress.elapsed_secs = clock.elapsed().as_secs_f64();
        Driven { status, final_snapshot: progress, history }
    }
}

/// A read pair as [`Runner::run_pairs`] takes it: split mate files zip into tuples,
/// an interleaved dump is viewed two at a time (`reads.as_chunks::<2>()`) — neither
/// copies a read.
pub trait MatePair: Sync {
    /// Mate 1 and mate 2.
    fn mates(&self) -> (&FastqRecord, &FastqRecord);
}

impl MatePair for (FastqRecord, FastqRecord) {
    fn mates(&self) -> (&FastqRecord, &FastqRecord) {
        (&self.0, &self.1)
    }
}

impl MatePair for [FastqRecord; 2] {
    fn mates(&self) -> (&FastqRecord, &FastqRecord) {
        (&self[0], &self[1])
    }
}

/// What a run accumulates besides the progress counters: the sequential half of
/// the batch loop for single reads and for pairs. Gene counting reaches it already
/// resolved — the workers assign each fragment against the run's [`GeneModel`] — so
/// here it is one counter increment per column.
struct Tally {
    /// The gene table (`quant`), filled from each outcome's [`Assignment`].
    counts: Option<GeneCounts>,
    junctions: Option<JunctionCollector>,
    /// Kept records (`record_alignments`): mapped reads only, input order.
    kept: Option<Vec<AlignmentRecord>>,
    phase_work: PhaseWork,
}

impl Tally {
    /// Empty accumulators for `config`, or ones seeded from a checkpoint, and, when
    /// `quant` is on, the gene model the workers assign fragments against (numbered
    /// by `aligner`'s contigs).
    fn new(
        config: &RunConfig,
        annotation: Option<&Annotation>,
        resume: Option<&AlignCheckpoint>,
        aligner: &Aligner<'_>,
    ) -> Result<(Tally, Option<GeneModel>), StarError> {
        let (model, counts) = match (config.quant, annotation, resume.and_then(|c| c.gene_counts.as_ref())) {
            (false, _, _) => (None, None),
            (true, None, _) => {
                return Err(StarError::InvalidParams("quant mode requires an annotation".into()))
            }
            (true, Some(ann), saved) => {
                let counts = match saved {
                    Some(saved) => GeneCounts::resumed(ann, saved)?,
                    None => GeneCounts::new(ann),
                };
                (Some(GeneModel::new(ann, aligner.contig_names())), Some(counts))
            }
        };
        let mut junctions = config.collect_junctions.then(JunctionCollector::new);
        if let (Some(collector), Some(rows)) =
            (junctions.as_mut(), resume.and_then(|c| c.junctions.as_deref()))
        {
            collector.absorb_rows(rows);
        }
        let tally = Tally {
            counts,
            junctions,
            kept: config.record_alignments.then(Vec::new),
            phase_work: PhaseWork::default(),
        };
        Ok((tally, model))
    }

    /// What the workers build for this run: records only when a consumer of
    /// records exists — junction tallies or kept records — since gene counting reads
    /// the alignment itself; and gene assignments when `model` is there. A quant-only
    /// run builds no record, and so allocates nothing per read.
    fn emit<'g>(&self, model: Option<&'g GeneModel>) -> Emit<'g> {
        Emit { records: self.junctions.is_some() || self.kept.is_some(), genes: model }
    }

    /// Count a fragment's gene assignment: the one quant step left on the calling
    /// thread. Outcomes carry one exactly when the run has a model, i.e. quant is on.
    fn genes(&mut self, assignment: Option<Assignment>) {
        if let (Some(counts), Some(assignment)) = (self.counts.as_mut(), assignment) {
            counts.add(assignment);
        }
    }

    /// One mate's record: junction usage, then kept (with its read id attached
    /// here, only now that it is known to be kept) when the fragment mapped.
    fn mate(&mut self, class: MapClass, read: &FastqRecord, record: Option<AlignmentRecord>) {
        if let Some(j) = self.junctions.as_mut() {
            j.record(class, record.as_ref());
        }
        if let (Some(kept), Some(mut rec), true) = (self.kept.as_mut(), record, class.is_mapped()) {
            rec.read_id = read.id.clone();
            kept.push(rec);
        }
    }

    fn single(&mut self, read: &FastqRecord, out: AlignOutcome) -> MapClass {
        self.phase_work.add(&out.work);
        self.genes(out.genes);
        self.mate(out.class, read, out.primary);
        out.class
    }

    fn pair(&mut self, (r1, r2): (&FastqRecord, &FastqRecord), out: PairOutcome) -> MapClass {
        self.phase_work.add(&out.work);
        self.genes(out.genes);
        self.mate(out.class, r1, out.rec1);
        self.mate(out.class, r2, out.rec2);
        out.class
    }

    fn finish(self, driven: Driven) -> RunOutput {
        RunOutput {
            status: driven.status,
            final_snapshot: driven.final_snapshot,
            history: driven.history,
            gene_counts: self.counts,
            junctions: self.junctions.map(JunctionCollector::finish),
            alignments: self.kept,
            phase_work: self.phase_work,
        }
    }
}

/// The run driver, borrowing an index for its lifetime.
pub struct Runner<'i> {
    index: &'i StarIndex,
    align_params: AlignParams,
    config: RunConfig,
    pool: Arc<Pool>,
}

impl<'i> Runner<'i> {
    /// Create a runner on the shared thread pool for `config.threads`.
    pub fn new(index: &'i StarIndex, align_params: AlignParams, config: RunConfig) -> Result<Runner<'i>, StarError> {
        align_params.validate()?;
        config.validate()?;
        let pool = Pool::shared(config.threads)
            .map_err(|e| StarError::InvalidParams(format!("thread pool: {e}")))?;
        Ok(Runner { index, align_params, config, pool })
    }

    /// The configuration in use.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    fn driver<'a>(
        &'a self,
        monitor: Option<&'a dyn RunMonitor>,
        cancel: Option<&'a CancelToken>,
    ) -> BatchDriver<'a> {
        BatchDriver { pool: &self.pool, batch_size: self.config.batch_size, monitor, cancel }
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
        let clock = Instant::now();
        self.run_from(reads, annotation, None, clock, self.driver(monitor, cancel))
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
        let clock = Instant::now();
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
        self.run_from(reads, annotation, Some(checkpoint), clock, self.driver(monitor, cancel))
    }

    fn run_from(
        &self,
        reads: &[FastqRecord],
        annotation: Option<&Annotation>,
        resume: Option<&AlignCheckpoint>,
        clock: Instant,
        driver: BatchDriver<'_>,
    ) -> Result<RunOutput, StarError> {
        let aligner = Aligner::new(self.index, self.align_params.clone());
        let (mut tally, model) = Tally::new(&self.config, annotation, resume, &aligner)?;
        let total = reads.len() as u64;
        let start = resume.map_or(ProgressSnapshot::new(total), |c| c.progress(total));
        let emit = tally.emit(model.as_ref());
        let driven = driver.drive(
            reads,
            start,
            clock,
            |read| with_thread_scratch(|s| aligner.align_seq_with(&read.seq, s, emit)),
            |read, out| tally.single(read, out),
        );
        Ok(tally.finish(driven))
    }

    /// Align read *pairs* (fragments are the progress/counting unit, matching how
    /// STAR reports paired libraries). Same batching, monitoring and cancellation
    /// semantics as [`Runner::run`].
    pub fn run_pairs<P: MatePair>(
        &self,
        pairs: &[P],
        annotation: Option<&Annotation>,
        monitor: Option<&dyn RunMonitor>,
        cancel: Option<&CancelToken>,
    ) -> Result<RunOutput, StarError> {
        let clock = Instant::now();
        let aligner = Aligner::new(self.index, self.align_params.clone());
        let (mut tally, model) = Tally::new(&self.config, annotation, None, &aligner)?;
        let (insert, emit) = (PairParams::default(), tally.emit(model.as_ref()));
        let driven = self.driver(monitor, cancel).drive(
            pairs,
            ProgressSnapshot::new(pairs.len() as u64),
            clock,
            |pair| {
                let (r1, r2) = pair.mates();
                with_thread_scratch(|s| aligner.align_pair_scratch(r1, r2, &insert, s, emit))
            },
            |pair, out| tally.pair(pair.mates(), out),
        );
        Ok(tally.finish(driven))
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
    use genomics::{
        Annotation, EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator, Release,
        SimulatorParams,
    };

    fn setup() -> (StarIndex, Annotation, Vec<FastqRecord>, Vec<FastqRecord>) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g).unwrap();
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

    /// The driver alone, on a stub align function — no index, no reads: fragments
    /// are numbers, "aligning" triples them, even ones "map". One case per exit.
    #[test]
    fn driver_completes_aborts_cancels_and_resumes() {
        let pool = Pool::shared(2).unwrap();
        let frags: Vec<u32> = (0..25).collect();
        let drive = |progress: ProgressSnapshot,
                     monitor: Option<&dyn RunMonitor>,
                     cancel: Option<&CancelToken>| {
            let mut seen = Vec::new();
            let driver = BatchDriver { pool: &pool, batch_size: 10, monitor, cancel };
            let driven = driver.drive(
                &frags,
                progress,
                Instant::now(),
                |&n| n * 3,
                |&n, tripled| {
                    assert_eq!(tripled, n * 3, "each fragment meets its own outcome");
                    seen.push(n);
                    if n % 2 == 0 { MapClass::Unique } else { MapClass::Unmapped }
                },
            );
            let boundaries: Vec<u64> = driven.history.iter().map(|s| s.processed).collect();
            (driven, boundaries, seen)
        };

        // Completed: batches of 10, 10 and 5, accounted in input order.
        let (whole, boundaries, seen) = drive(ProgressSnapshot::new(25), None, None);
        assert_eq!(whole.status, RunStatus::Completed);
        assert_eq!(boundaries, [10, 20, 25]);
        assert_eq!(seen, frags);
        assert_eq!((whole.final_snapshot.unique, whole.final_snapshot.unmapped), (13, 12));

        // Monitor abort at batch 2: nothing of batch 3 is aligned or accounted.
        let abort_at_20 = |s: &ProgressSnapshot| {
            if s.processed >= 20 { MonitorVerdict::Abort } else { MonitorVerdict::Continue }
        };
        let (stopped, boundaries, seen) = drive(ProgressSnapshot::new(25), Some(&abort_at_20), None);
        assert_eq!(stopped.status, RunStatus::EarlyStopped { processed_reads: 20 });
        assert_eq!(boundaries, [10, 20]);
        assert_eq!(seen.len(), 20);
        assert_eq!(stopped.final_snapshot.processed, 20);

        // Cancel before batch 2 (the token trips while batch 1 is being reported).
        let token = CancelToken::new();
        let trip = |_: &ProgressSnapshot| {
            token.cancel();
            MonitorVerdict::Continue
        };
        let (cancelled, boundaries, seen) = drive(ProgressSnapshot::new(25), Some(&trip), Some(&token));
        assert_eq!(cancelled.status, RunStatus::Cancelled { processed_reads: 10 });
        assert_eq!(boundaries, [10]);
        assert_eq!(seen, frags[..10]);

        // Resume from an offset that is not a batch multiple: fragments 13.. only,
        // batches re-cut from the offset, totals equal to the uninterrupted run's.
        let at_13 = ProgressSnapshot { processed: 13, unique: 7, unmapped: 6, ..ProgressSnapshot::new(25) };
        let (resumed, boundaries, seen) = drive(at_13, None, None);
        assert_eq!(resumed.status, RunStatus::Completed);
        assert_eq!(boundaries, [23, 25]);
        assert_eq!(seen, frags[13..]);
        assert_eq!((resumed.final_snapshot.unique, resumed.final_snapshot.unmapped), (13, 12));
    }

    /// A panic in one fragment's `align` reaches the `drive` caller after the batches
    /// before it were accounted, and the next `drive` on the same process-wide pool
    /// runs to completion with every fragment meeting its own outcome.
    #[test]
    fn driver_reraises_an_align_panic_and_the_shared_pool_stays_usable() {
        let pool = Pool::shared(2).unwrap();
        let frags: Vec<u32> = (0..25).collect();
        let driver = BatchDriver { pool: &pool, batch_size: 10, monitor: None, cancel: None };
        let mut accounted = 0;
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let align = |&n: &u32| if n == 13 { panic!("fragment {n}") } else { n };
            driver.drive(&frags, ProgressSnapshot::new(25), Instant::now(), align, |_, _| {
                accounted += 1;
                MapClass::Unique
            })
        }));
        let payload = panicked.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("fragment 13"));
        assert_eq!(accounted, 10, "nothing of the panicking batch is accounted");

        let mut seen = Vec::new();
        let driven = driver.drive(
            &frags,
            ProgressSnapshot::new(25),
            Instant::now(),
            |&n| n * 3,
            |&n, tripled| {
                assert_eq!(tripled, n * 3, "each fragment meets its own outcome");
                seen.push(n);
                MapClass::Unique
            },
        );
        assert_eq!(driven.status, RunStatus::Completed);
        assert_eq!(seen, frags);
        assert_eq!(driven.final_snapshot.unique, 25);
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
        let ann = Annotation::simulate(&asm, &g).unwrap();
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
        let ann = Annotation::simulate(&asm, &g).unwrap();
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
