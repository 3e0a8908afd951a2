//! Progress-log analysis — the methodology behind the paper's early-stopping rule.
//!
//! §III-B: *"By analyzing 1000 of Log.progress.out files we identified that
//! processing at least 10 % of the total number of reads is enough to decide whether
//! the alignment should be continued"*. This module reproduces that analysis: align a
//! catalog **without** early stopping while recording each run's progress history
//! (the `Log.progress.out` lines), then replay every candidate `(checkpoint
//! fraction, threshold)` policy over the recorded histories to measure
//!
//! * how many runs each policy would stop,
//! * how many of those stops are *false* (runs that end above the threshold —
//!   alignments the Atlas actually wanted), and
//! * the compute it would save,
//!
//! and report the smallest checkpoint fraction with zero false stops — the
//! data-driven justification for the paper's 10 %.

use crate::early_stop::EarlyStopPolicy;
use crate::pipeline::{AtlasPipeline, PipelineConfig};
use crate::AtlasError;
use star_aligner::progress::ProgressSnapshot;
use star_aligner::runner::MonitorVerdict;

/// One run's recorded progress history plus its final outcome.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// Accession id.
    pub accession: String,
    /// True when the library is single-cell (ground truth from the catalog).
    pub single_cell: bool,
    /// Final mapping rate of the *complete* run.
    pub final_mapping_rate: f64,
    /// Progress snapshots at batch boundaries (the Log.progress.out lines).
    pub history: Vec<ProgressSnapshot>,
    /// Full-run alignment seconds (modeled scale).
    pub full_secs: f64,
}

/// Verdict of replaying one policy over one trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Replay {
    /// Fraction of the run processed when the policy fired (1.0 = never fired).
    pub stopped_at_fraction: f64,
    /// Did the policy abort the run?
    pub stopped: bool,
}

/// Replay `policy` over a recorded history the way the pipeline runs it: the
/// driver consults [`EarlyStopPolicy::verdict`] after every batch, so the run
/// stops at the first snapshot the policy aborts on.
pub fn replay_policy(trace: &RunTrace, policy: &EarlyStopPolicy) -> Replay {
    match trace.history.iter().find(|snap| policy.verdict(snap) == MonitorVerdict::Abort) {
        Some(snap) => Replay { stopped_at_fraction: snap.processed_fraction(), stopped: true },
        None => Replay { stopped_at_fraction: 1.0, stopped: false },
    }
}

/// Aggregated outcome of one candidate policy over all traces.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyOutcome {
    /// Checkpoint fraction evaluated.
    pub check_fraction: f64,
    /// Mapping-rate threshold evaluated.
    pub min_rate: f64,
    /// Runs the policy stops.
    pub stopped: usize,
    /// Stops of runs whose final mapping rate is ≥ the threshold (wrongly killed).
    pub false_stops: usize,
    /// Fraction of total alignment seconds saved.
    pub saved_fraction: f64,
}

/// Replay a policy over every trace and aggregate.
pub fn evaluate_policy(traces: &[RunTrace], policy: &EarlyStopPolicy) -> PolicyOutcome {
    let min_rate = policy.min_mapping_rate;
    let mut stopped = 0usize;
    let mut false_stops = 0usize;
    let mut total = 0.0f64;
    let mut spent = 0.0f64;
    for trace in traces {
        total += trace.full_secs;
        let replay = replay_policy(trace, policy);
        if replay.stopped {
            stopped += 1;
            spent += trace.full_secs * replay.stopped_at_fraction;
            if trace.final_mapping_rate >= min_rate {
                false_stops += 1;
            }
        } else {
            spent += trace.full_secs;
        }
    }
    PolicyOutcome {
        check_fraction: policy.check_fraction,
        min_rate,
        stopped,
        false_stops,
        saved_fraction: if total > 0.0 { (total - spent) / total } else { 0.0 },
    }
}

/// Full analysis: a grid of checkpoint fractions at one threshold.
#[derive(Clone, Debug)]
pub struct CheckpointAnalysis {
    /// The threshold analyzed (paper: 0.30).
    pub min_rate: f64,
    /// One outcome per candidate checkpoint fraction, ascending.
    pub outcomes: Vec<PolicyOutcome>,
    /// Number of traces analyzed.
    pub n_traces: usize,
}

impl CheckpointAnalysis {
    /// The smallest checkpoint fraction with zero false stops — the paper's "at
    /// least 10 %" claim, derived from data. `None` when every fraction misfires.
    pub fn minimal_safe_fraction(&self) -> Option<f64> {
        self.outcomes.iter().find(|o| o.false_stops == 0).map(|o| o.check_fraction)
    }
}

/// Record complete-run traces for every accession of the pipeline's repository.
///
/// The pipeline's early stopping is disabled for the recording (the paper likewise
/// analyzed *complete* progress files).
pub fn record_traces(pipeline: &AtlasPipeline) -> Result<Vec<RunTrace>, AtlasError> {
    record_traces_impl(pipeline)
}

fn record_traces_impl(pipeline: &AtlasPipeline) -> Result<Vec<RunTrace>, AtlasError> {
    // Rebuild a policy-free pipeline over the same substrate.
    let config = PipelineConfig { early_stop: None, ..pipeline.config().clone() };
    let free = AtlasPipeline::new(
        pipeline.repository_arc(),
        pipeline.index_arc(),
        pipeline.annotation_arc(),
        config,
    )?;
    let mut traces = Vec::new();
    for id in free.repository().ids() {
        let meta = free.repository().meta(&id)?.clone();
        let (result, history) = free.run_accession_with_history(&id)?;
        traces.push(RunTrace {
            accession: id,
            single_cell: meta.strategy == sra_sim::accession::LibraryStrategy::SingleCell,
            final_mapping_rate: result.mapping_rate,
            history,
            full_secs: result.stage_secs.align_secs,
        });
    }
    Ok(traces)
}

/// Run the checkpoint-fraction analysis over a grid: each candidate is the shipped
/// policy (its `min_reads_checked` floor included) with one fraction swapped in.
pub fn analyze_checkpoints(
    traces: &[RunTrace],
    fractions: &[f64],
    min_rate: f64,
) -> CheckpointAnalysis {
    let base = EarlyStopPolicy::default();
    let mut outcomes: Vec<PolicyOutcome> = fractions
        .iter()
        .map(|&f| {
            let candidate = EarlyStopPolicy { check_fraction: f, min_mapping_rate: min_rate, ..base };
            evaluate_policy(traces, &candidate)
        })
        .collect();
    outcomes.sort_by(|a, b| a.check_fraction.partial_cmp(&b.check_fraction).expect("finite"));
    CheckpointAnalysis { min_rate, outcomes, n_traces: traces.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(processed: u64, total: u64, mapped: u64) -> ProgressSnapshot {
        ProgressSnapshot {
            total_reads: total,
            processed,
            unique: mapped,
            multi: 0,
            too_many: 0,
            unmapped: processed - mapped,
            elapsed_secs: processed as f64 / 100.0,
        }
    }

    /// A trace whose mapping rate starts at `early` and converges to `late`.
    fn trace(name: &str, early: f64, late: f64, single_cell: bool) -> RunTrace {
        let total = 1000u64;
        let history = (1..=10)
            .map(|i| {
                let processed = i * 100;
                // Linear drift from early to late rate.
                let rate = early + (late - early) * (i as f64 / 10.0);
                snap(processed, total, (processed as f64 * rate) as u64)
            })
            .collect();
        RunTrace {
            accession: name.into(),
            single_cell,
            final_mapping_rate: late,
            history,
            full_secs: 100.0,
        }
    }

    /// A candidate policy with no read floor: the traces here are 1 000 reads long.
    fn policy(check_fraction: f64, min_mapping_rate: f64) -> EarlyStopPolicy {
        EarlyStopPolicy { check_fraction, min_mapping_rate, min_reads_checked: 0 }
    }

    #[test]
    fn replay_stops_bad_runs_at_the_checkpoint() {
        let t = trace("sc", 0.15, 0.2, true);
        let r = replay_policy(&t, &policy(0.10, 0.30));
        assert!(r.stopped);
        assert!((r.stopped_at_fraction - 0.1).abs() < 1e-9);
        // Good run is never stopped.
        let g = trace("bulk", 0.9, 0.93, false);
        assert!(!replay_policy(&g, &policy(0.10, 0.30)).stopped);
    }

    #[test]
    fn replay_keeps_deciding_after_the_checkpoint() {
        // 0.31 on the checkpoint snapshot, 0.27 on the next: the pipeline's monitor
        // is consulted after every batch, so the run dies at the later snapshot.
        let t = RunTrace {
            accession: "sagging".into(),
            single_cell: false,
            final_mapping_rate: 0.25,
            history: vec![snap(100, 1000, 31), snap(200, 1000, 54), snap(1000, 1000, 250)],
            full_secs: 100.0,
        };
        let r = replay_policy(&t, &policy(0.10, 0.30));
        assert!(r.stopped);
        assert!((r.stopped_at_fraction - 0.2).abs() < 1e-9);
        // The shipped 200-read floor skips the first snapshot and decides on the same one.
        assert_eq!(replay_policy(&t, &EarlyStopPolicy::default()), r);
    }

    #[test]
    fn early_checkpoints_misfire_on_slow_starters() {
        // A run that starts at 20% mapped but finishes at 90%: a 10% checkpoint
        // wrongly kills it, a 50% checkpoint does not.
        let slow = trace("slow", 0.10, 0.90, false);
        let early = replay_policy(&slow, &policy(0.10, 0.30));
        assert!(early.stopped, "interim rate at 10% is ~0.18 < 0.30");
        let later = replay_policy(&slow, &policy(0.60, 0.30));
        assert!(!later.stopped, "interim rate at 60% is ~0.58");
    }

    #[test]
    fn evaluate_policy_counts_false_stops_and_savings() {
        let traces = vec![
            trace("sc1", 0.15, 0.2, true),
            trace("sc2", 0.18, 0.22, true),
            trace("bulk", 0.9, 0.93, false),
        ];
        let o = evaluate_policy(&traces, &policy(0.10, 0.30));
        assert_eq!(o.stopped, 2);
        assert_eq!(o.false_stops, 0);
        // Two of three 100s runs stopped at 10%: saved 180 of 300 = 60%.
        assert!((o.saved_fraction - 0.6).abs() < 1e-9);
    }

    #[test]
    fn minimal_safe_fraction_finds_the_knee() {
        let traces = vec![
            trace("slow-starter", 0.10, 0.90, false), // needs a late checkpoint
            trace("sc", 0.15, 0.20, true),
            trace("bulk", 0.90, 0.93, false),
        ];
        let analysis = analyze_checkpoints(&traces, &[0.05, 0.10, 0.30, 0.60], 0.30);
        // The slow starter's interim rate is 0.14 at 5% and 0.18 at 10% (false
        // stops), but recovers to 0.34 by the 30% checkpoint.
        assert_eq!(analysis.minimal_safe_fraction(), Some(0.30));
        assert_eq!(analysis.outcomes.len(), 4);
        assert!(analysis.outcomes[0].false_stops > 0, "5% checkpoint misfires");
        assert!(analysis.outcomes[1].false_stops > 0, "10% checkpoint misfires");
        assert_eq!(analysis.outcomes[3].false_stops, 0, "60% checkpoint is safe too");
        // Later checkpoints save less.
        assert!(analysis.outcomes[2].saved_fraction > analysis.outcomes[3].saved_fraction);
    }

    #[test]
    fn empty_traces_are_harmless() {
        let analysis = analyze_checkpoints(&[], &[0.1], 0.3);
        assert_eq!(analysis.n_traces, 0);
        assert_eq!(analysis.outcomes[0].stopped, 0);
        assert_eq!(analysis.outcomes[0].saved_fraction, 0.0);
    }
}
