//! Batched pseudoalignment run driver with an *optional* progress stream.
//!
//! The paper's closing observation is that early stopping needs the running mapping
//! rate, which "e.g. Salmon does not" report. This runner makes that concrete:
//!
//! * `report_progress: false` (stock-Salmon mode) — the run exposes no interim
//!   statistics; any [`RunMonitor`] passed in is **never consulted**, so the paper's
//!   early-stopping policy cannot act and a hopeless run goes to completion.
//! * `report_progress: true` (the paper's recommendation) — the runner keeps the
//!   same [`ProgressSnapshot`] history as the STAR runner and consults the monitor
//!   between batches; the unchanged `EarlyStopPolicy` works immediately.

use crate::pseudoalign::{PseudoAligner, PseudoOutcome};
use crate::quant::EqClassCounts;
use crate::PseudoIndex;
use genomics::pool::Pool;
use genomics::FastqRecord;
use star_aligner::align::MapClass;
use star_aligner::progress::ProgressSnapshot;
use star_aligner::runner::{BatchDriver, RunMonitor, RunStatus};
use star_aligner::StarError;
use std::sync::Arc;
use std::time::Instant;

/// Run configuration.
#[derive(Clone, Debug)]
pub struct PseudoRunConfig {
    /// Worker threads.
    pub threads: usize,
    /// Reads per batch.
    pub batch_size: usize,
    /// Emit interim progress and consult monitors (the paper's proposed feature;
    /// `false` reproduces stock Salmon).
    pub report_progress: bool,
}

impl Default for PseudoRunConfig {
    fn default() -> Self {
        PseudoRunConfig { threads: 4, batch_size: 2_000, report_progress: true }
    }
}

/// Everything a pseudoalignment run produces.
#[derive(Debug)]
pub struct PseudoRunOutput {
    /// Completion status (early-stopped only possible with progress reporting).
    pub status: RunStatus,
    /// Final counters.
    pub final_snapshot: ProgressSnapshot,
    /// Batch-boundary snapshots — EMPTY in stock-Salmon mode (there is no progress
    /// file to tail).
    pub history: Vec<ProgressSnapshot>,
    /// Equivalence-class counts for quantification.
    pub counts: EqClassCounts,
}

impl PseudoRunOutput {
    /// Overall pseudoalignment rate in `[0,1]`.
    pub fn mapped_fraction(&self) -> f64 {
        self.final_snapshot.mapped_fraction()
    }
}

/// The run driver.
pub struct PseudoRunner<'i> {
    aligner: PseudoAligner<'i>,
    config: PseudoRunConfig,
    pool: Arc<Pool>,
}

impl<'i> PseudoRunner<'i> {
    /// Create a runner on the process-wide pool for `config.threads`, the one the
    /// STAR runner uses.
    pub fn new(
        index: &'i PseudoIndex,
        config: PseudoRunConfig,
    ) -> Result<PseudoRunner<'i>, StarError> {
        if config.threads == 0 || config.batch_size == 0 {
            return Err(StarError::InvalidParams("threads and batch_size must be positive".into()));
        }
        let pool = Pool::shared(config.threads)
            .map_err(|e| StarError::InvalidParams(format!("thread pool: {e}")))?;
        Ok(PseudoRunner { aligner: PseudoAligner::new(index), config, pool })
    }

    /// Pseudoalign all reads. `monitor` is only consulted when `report_progress` is
    /// enabled — passing one in stock-Salmon mode is accepted and silently useless,
    /// which is precisely the point the paper makes.
    pub fn run(
        &self,
        reads: &[FastqRecord],
        monitor: Option<&dyn RunMonitor>,
    ) -> Result<PseudoRunOutput, StarError> {
        let clock = Instant::now();
        let mut counts = EqClassCounts::new();
        // Stock-Salmon mode is the shared loop with nobody watching: no monitor,
        // and the snapshots it took are dropped (there is no progress file to tail).
        let report = self.config.report_progress;
        let driver = BatchDriver {
            pool: &self.pool,
            batch_size: self.config.batch_size,
            monitor: monitor.filter(|_| report),
            cancel: None,
        };
        let driven = driver.drive(
            reads,
            ProgressSnapshot::new(reads.len() as u64),
            clock,
            |read| self.aligner.pseudoalign(&read.seq),
            |_, out: PseudoOutcome| {
                counts.record(&out.compatible);
                // Pseudoalignment has no unique/multi split at the alignment level;
                // classify singleton-compatible reads as unique for the statistics.
                match out.compatible.len() {
                    0 => MapClass::Unmapped,
                    1 => MapClass::Unique,
                    n => MapClass::Multi(n as u32),
                }
            },
        );
        Ok(PseudoRunOutput {
            status: driven.status,
            final_snapshot: driven.final_snapshot,
            history: if report { driven.history } else { Vec::new() },
            counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::PseudoIndexParams;
    use star_aligner::runner::MonitorVerdict;
    use genomics::{
        Annotation, EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator, Release,
        SimulatorParams,
    };

    fn setup() -> (PseudoIndex, Vec<FastqRecord>, Vec<FastqRecord>) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g).unwrap();
        let idx = PseudoIndex::build(&asm, &ann, &PseudoIndexParams { k: 21 }).unwrap();
        let bulk: Vec<FastqRecord> =
            ReadSimulator::new(&asm, &ann, SimulatorParams::for_library(LibraryType::BulkPolyA), 3)
                .unwrap()
                .simulate(2_000, "PB")
                .into_iter()
                .map(|r| r.fastq)
                .collect();
        let sc: Vec<FastqRecord> = ReadSimulator::new(
            &asm,
            &ann,
            SimulatorParams::for_library(LibraryType::SingleCell3Prime),
            4,
        )
        .unwrap()
        .simulate(2_000, "PS")
        .into_iter()
        .map(|r| r.fastq)
        .collect();
        (idx, bulk, sc)
    }

    #[test]
    fn bulk_reads_pseudoalign_at_high_rate() {
        let (idx, bulk, _) = setup();
        let runner = PseudoRunner::new(&idx, PseudoRunConfig::default()).unwrap();
        let out = runner.run(&bulk, None).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        // The pseudoaligner only sees exonic reads (~82% of bulk libraries), so its
        // rate sits below STAR's but well above the 30% threshold.
        assert!(out.mapped_fraction() > 0.6, "rate {}", out.mapped_fraction());
        assert!(out.counts.mapped() > 0);
    }

    #[test]
    fn single_cell_reads_pseudoalign_below_threshold() {
        let (idx, _, sc) = setup();
        let runner = PseudoRunner::new(&idx, PseudoRunConfig::default()).unwrap();
        let out = runner.run(&sc, None).unwrap();
        assert!(out.mapped_fraction() < 0.30, "rate {}", out.mapped_fraction());
    }

    #[test]
    fn early_stopping_works_only_with_progress_reporting() {
        let (idx, _, sc) = setup();
        // The paper's policy as a closure monitor.
        let monitor = |s: &ProgressSnapshot| {
            if s.processed_fraction() >= 0.10 && s.processed >= 200 && s.mapped_fraction() < 0.30 {
                MonitorVerdict::Abort
            } else {
                MonitorVerdict::Continue
            }
        };

        // With progress (the paper's proposal): aborts early.
        let cfg = PseudoRunConfig { batch_size: 100, report_progress: true, ..PseudoRunConfig::default() };
        let runner = PseudoRunner::new(&idx, cfg).unwrap();
        let out = runner.run(&sc, Some(&monitor)).unwrap();
        assert!(
            matches!(out.status, RunStatus::EarlyStopped { .. }),
            "progress-enabled pseudoaligner must early-stop"
        );
        assert!(out.final_snapshot.processed < sc.len() as u64);
        assert!(!out.history.is_empty());

        // Stock Salmon mode: same monitor, never consulted — runs to completion.
        let cfg =
            PseudoRunConfig { batch_size: 100, report_progress: false, ..PseudoRunConfig::default() };
        let runner = PseudoRunner::new(&idx, cfg).unwrap();
        let out = runner.run(&sc, Some(&monitor)).unwrap();
        assert_eq!(out.status, RunStatus::Completed, "no progress stream → no early stopping");
        assert_eq!(out.final_snapshot.processed, sc.len() as u64);
        assert!(out.history.is_empty(), "stock mode has no Log.progress.out to tail");
    }

    #[test]
    fn quantification_runs_on_the_collected_counts() {
        let (idx, bulk, _) = setup();
        let runner = PseudoRunner::new(&idx, PseudoRunConfig::default()).unwrap();
        let out = runner.run(&bulk, None).unwrap();
        let lengths: Vec<usize> =
            (0..idx.n_transcripts() as u32).map(|t| idx.transcript(t).len).collect();
        let alpha = crate::quant::em_abundances(&out.counts, &lengths, 200, 1e-6);
        let total: f64 = alpha.iter().sum();
        assert!((total - out.counts.mapped() as f64).abs() < 1e-3, "mass conserved: {total}");
        assert!(alpha.iter().any(|&a| a > 0.0));
    }

    #[test]
    fn invalid_config_rejected() {
        let (idx, _, _) = setup();
        let cfg = PseudoRunConfig { threads: 0, ..PseudoRunConfig::default() };
        assert!(PseudoRunner::new(&idx, cfg).is_err());
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let (idx, bulk, _) = setup();
        let mut rates = Vec::new();
        for threads in [1, 4] {
            let cfg = PseudoRunConfig { threads, ..PseudoRunConfig::default() };
            let runner = PseudoRunner::new(&idx, cfg).unwrap();
            let out = runner.run(&bulk, None).unwrap();
            rates.push((out.final_snapshot.unique, out.final_snapshot.multi, out.counts.mapped()));
        }
        assert_eq!(rates[0], rates[1]);
    }
}
