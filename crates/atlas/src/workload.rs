//! What a campaign runs per accession: the real pipeline, or a modeled stand-in.
//!
//! The orchestrator only needs one thing from the science side: "run this
//! accession, tell me what the campaign schedules on". [`CampaignWorkload`]
//! captures that seam. [`AtlasPipeline`] implements it by actually aligning;
//! [`ModeledWorkload`] synthesizes runs from a seeded hash so fleet-scale
//! campaigns (10⁴–10⁶ accessions, thousands of instances — the regime of ROADMAP
//! item 1 and the follow-up papers' cost studies) exercise the *orchestration*
//! layer at full fidelity without paying for 10⁴ real alignments.
//!
//! An [`AccessionRun`] is what the campaign's handlers read, as flat fields: stage
//! durations, mapping rate, status, early-stop accounting and phase work. It
//! carries no name (the campaign holds the submitted one), so a modeled run
//! allocates nothing. What only a real alignment produces — gene counts and the
//! `fasterq-dump` span attributes — rides in [`AccessionRun::products`], which
//! only [`AtlasPipeline`] fills. A first completion keeps even less: the report's
//! [`crate::orchestrator::Completion`] drops the strategy, the phase work and the
//! products, and the campaign moves the gene counts to a side list that feeds the
//! DESeq2 step.

use std::sync::Arc;

use crate::early_stop::EarlyStopAccounting;
use crate::pipeline::{AtlasPipeline, PipelineResult, StageTimes};
use crate::AtlasError;
use genomics::fnv;
use sra_sim::accession::LibraryStrategy;
use star_aligner::quant::GeneCounts;
use star_aligner::{PhaseWork, ProgressSnapshot, RunStatus};

/// What a campaign reads off one run of one accession.
#[derive(Clone, Debug)]
pub struct AccessionRun {
    /// Its library strategy (from catalog metadata).
    pub strategy: LibraryStrategy,
    /// Modeled per-stage durations.
    pub stage_secs: StageTimes,
    /// Final mapping rate observed by the aligner.
    pub mapping_rate: f64,
    /// How the alignment ended.
    pub status: RunStatus,
    /// Early-stop time accounting (on modeled alignment seconds).
    pub early_stop: EarlyStopAccounting,
    /// Per-phase alignment work units, which split the align span into
    /// seed/stitch/extend on the telemetry timeline.
    pub phase_work: PhaseWork,
    /// What only a real alignment produces; `None` for a modeled run.
    pub products: Option<Box<RunProducts>>,
}

impl AccessionRun {
    /// Did early stopping abort this accession?
    pub fn early_stopped(&self) -> bool {
        matches!(self.status, RunStatus::EarlyStopped { .. })
    }
}

/// The real pipeline's output beyond what the campaign schedules on.
#[derive(Clone, Debug)]
pub struct RunProducts {
    /// Gene counts (a completed run with quant on; see
    /// [`PipelineResult::gene_counts`]).
    pub gene_counts: Option<GeneCounts>,
    /// `fasterq-dump` stage attributes (spots, bytes, layout) for telemetry.
    pub dump_attrs: Vec<(&'static str, String)>,
}

impl From<PipelineResult> for AccessionRun {
    fn from(r: PipelineResult) -> AccessionRun {
        AccessionRun {
            strategy: r.strategy,
            stage_secs: r.stage_secs,
            mapping_rate: r.mapping_rate,
            status: r.status,
            early_stop: r.early_stop,
            phase_work: r.phase_work,
            products: Some(Box::new(RunProducts {
                gene_counts: r.gene_counts,
                dump_attrs: r.dump_attrs,
            })),
        }
    }
}

/// Per-accession work a campaign schedules onto instances.
pub trait CampaignWorkload: Send + Sync {
    /// Run one accession.
    fn run_accession(&self, accession: &str) -> Result<AccessionRun, AtlasError>;

    /// Run one accession, also returning its progress history (for live-monitor
    /// campaigns). Implementations without real progress return an empty history.
    fn run_accession_with_history(
        &self,
        accession: &str,
    ) -> Result<(AccessionRun, Vec<ProgressSnapshot>), AtlasError>;
}

impl CampaignWorkload for AtlasPipeline {
    fn run_accession(&self, accession: &str) -> Result<AccessionRun, AtlasError> {
        AtlasPipeline::run_accession(self, accession).map(AccessionRun::from)
    }

    fn run_accession_with_history(
        &self,
        accession: &str,
    ) -> Result<(AccessionRun, Vec<ProgressSnapshot>), AtlasError> {
        let (result, history) = AtlasPipeline::run_accession_with_history(self, accession)?;
        Ok((result.into(), history))
    }
}

/// Mean seconds of a modeled align stage (dominates the job).
const MEAN_ALIGN_SECS: f64 = 600.0;
/// Fraction of modeled accessions that early-stop.
const EARLY_STOP_FRACTION: f64 = 0.25;
/// Mean modeled reads per accession.
const MEAN_READS: u64 = 1_000_000;

/// A seeded synthetic workload: per-accession runs are a pure function of
/// `(seed, accession)`, so campaigns over it are exactly as deterministic and
/// replayable as real ones — just free. Durations are drawn from a spread around
/// fixed means (a ~10-minute align stage); a fixed fraction of accessions early-stop
/// (single-cell contamination, per the paper ~25 %) with the paper's shape: stop at
/// ~10 % of reads, projecting the full-run time the abort saved.
#[derive(Clone, Debug)]
pub struct ModeledWorkload {
    /// Seed for all per-accession draws.
    pub seed: u64,
}

impl Default for ModeledWorkload {
    fn default() -> Self {
        ModeledWorkload { seed: 0x5EED }
    }
}

impl ModeledWorkload {
    /// Wrap in the `Arc<dyn CampaignWorkload>` the orchestrator takes.
    pub fn into_workload(self) -> Arc<dyn CampaignWorkload> {
        Arc::new(self)
    }

    /// `n` synthetic SRA-style accession ids (`SRR90000000`…), the id space the
    /// fleet benches and differential tests use.
    pub fn accessions(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("SRR{:08}", 90_000_000 + i)).collect()
    }

    /// A unit draw in `[0, 1)` from stream `stream` of this accession (SplitMix64,
    /// the same generator the fault injector uses).
    fn unit(&self, accession: &str, stream: u64) -> f64 {
        let h = fnv::fnv1a(fnv::OFFSET ^ self.seed.rotate_left(17) ^ stream, accession.as_bytes());
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl CampaignWorkload for ModeledWorkload {
    fn run_accession(&self, accession: &str) -> Result<AccessionRun, AtlasError> {
        // Durations spread ±50% around the means, per stream.
        let spread = |mean: f64, u: f64| mean * (0.5 + u);
        let reads = (MEAN_READS as f64 * (0.5 + self.unit(accession, 1))) as u64;
        let full_align = spread(MEAN_ALIGN_SECS, self.unit(accession, 2));
        let stops = self.unit(accession, 3) < EARLY_STOP_FRACTION;
        // Early stops abort at ~10-15% of reads with a sub-threshold mapping rate;
        // completions map well.
        let (status, strategy, mapping_rate, align_secs, processed) = if stops {
            let frac = 0.10 + 0.05 * self.unit(accession, 4);
            let processed = (reads as f64 * frac) as u64;
            (
                RunStatus::EarlyStopped { processed_reads: processed },
                LibraryStrategy::SingleCell,
                0.05 + 0.20 * self.unit(accession, 5),
                full_align * frac,
                processed,
            )
        } else {
            (
                RunStatus::Completed,
                LibraryStrategy::RnaSeqBulk,
                0.70 + 0.25 * self.unit(accession, 5),
                full_align,
                reads,
            )
        };
        let stage_secs = StageTimes {
            prefetch_secs: spread(MEAN_ALIGN_SECS * 0.05, self.unit(accession, 6)),
            dump_secs: spread(MEAN_ALIGN_SECS * 0.15, self.unit(accession, 7)),
            align_secs,
            collect_secs: spread(MEAN_ALIGN_SECS * 0.02, self.unit(accession, 8)),
        };
        let early_stop = EarlyStopAccounting {
            stopped: stops,
            processed_reads: processed,
            total_reads: reads,
            actual_secs: align_secs,
            projected_full_secs: full_align,
        };
        // Phase units in rough STAR proportions, derived from the same streams.
        let phase_work = PhaseWork {
            seed_units: processed * 2,
            stitch_units: processed,
            extend_units: processed + (self.unit(accession, 9) * processed as f64) as u64,
            ..PhaseWork::default()
        };
        Ok(AccessionRun {
            strategy,
            stage_secs,
            mapping_rate,
            status,
            early_stop,
            phase_work,
            // No counts: fleet-scale campaigns skip the DESeq2 step (normalized
            // stays None), which is the point — orchestration, not science.
            products: None,
        })
    }

    fn run_accession_with_history(
        &self,
        accession: &str,
    ) -> Result<(AccessionRun, Vec<ProgressSnapshot>), AtlasError> {
        let result = self.run_accession(accession)?;
        // Synthesize a handful of progress lines consistent with the run, so
        // monitor-on campaigns emit the same event kinds as real ones.
        let total = result.early_stop.total_reads;
        let processed_final = match result.status {
            RunStatus::EarlyStopped { processed_reads } => processed_reads,
            _ => total,
        }
        .max(1);
        let history = (1..=4u64)
            .map(|k| {
                let processed = processed_final * k / 4;
                let mapped = (processed as f64 * result.mapping_rate) as u64;
                ProgressSnapshot {
                    total_reads: total,
                    processed,
                    unique: mapped * 4 / 5,
                    multi: mapped / 5,
                    too_many: 0,
                    unmapped: processed - mapped,
                    elapsed_secs: 0.0,
                }
            })
            .collect();
        Ok((result, history))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_results_are_deterministic_and_seed_sensitive() {
        let w = ModeledWorkload::default();
        let a = w.run_accession("SRR90000001").unwrap();
        let b = w.run_accession("SRR90000001").unwrap();
        assert_eq!(a.stage_secs.total(), b.stage_secs.total());
        assert_eq!(a.mapping_rate, b.mapping_rate);
        let other_seed = ModeledWorkload { seed: 7 };
        let c = other_seed.run_accession("SRR90000001").unwrap();
        assert_ne!(a.stage_secs.total(), c.stage_secs.total());
    }

    #[test]
    fn early_stop_fraction_is_roughly_honored() {
        let w = ModeledWorkload::default();
        let ids = ModeledWorkload::accessions(400);
        let stopped = ids.iter().filter(|a| w.run_accession(a).unwrap().early_stopped()).count();
        assert!((60..=140).contains(&stopped), "~25% of 400, got {stopped}");
    }

    #[test]
    fn history_is_consistent_with_the_result() {
        let w = ModeledWorkload::default();
        for a in ModeledWorkload::accessions(20) {
            let (r, h) = w.run_accession_with_history(&a).unwrap();
            assert!(!h.is_empty());
            let last = h.last().unwrap();
            assert!(last.processed <= r.early_stop.total_reads);
            assert!(last.processed_fraction() <= 1.0);
        }
    }
}
