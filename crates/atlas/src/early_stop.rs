//! Early stopping (§III-B of the paper).
//!
//! STAR's `Log.progress.out` reports the running mapped-read percentage. The paper's
//! analysis of 1000 progress files found that once ≥10 % of reads are processed the
//! mapping rate is stable enough to decide the run's fate: alignments below a 30 %
//! mapping rate are aborted (they turned out to be single-cell libraries, useless for
//! the Atlas). [`EarlyStopPolicy`] implements that rule as a
//! [`star_aligner::runner::RunMonitor`], and [`EarlyStopAccounting`] computes the
//! time the abort saved — the yellow bars of Fig. 4.

use star_aligner::progress::ProgressSnapshot;
use star_aligner::runner::{MonitorVerdict, RunMonitor, RunStatus};

/// The early-stopping rule.
#[derive(Clone, Copy, Debug)]
pub struct EarlyStopPolicy {
    /// Fraction of total reads that must be processed before deciding (paper: 0.10).
    pub check_fraction: f64,
    /// Minimum acceptable mapping rate (paper: 0.30).
    pub min_mapping_rate: f64,
    /// Absolute floor of processed reads before deciding (guards tiny inputs where
    /// 10 % is a handful of reads).
    pub min_reads_checked: u64,
}

impl Default for EarlyStopPolicy {
    fn default() -> Self {
        EarlyStopPolicy { check_fraction: 0.10, min_mapping_rate: 0.30, min_reads_checked: 200 }
    }
}

impl EarlyStopPolicy {
    /// Validate the policy.
    pub fn validate(&self) -> Result<(), crate::AtlasError> {
        if !(0.0..=1.0).contains(&self.check_fraction) || !(0.0..=1.0).contains(&self.min_mapping_rate) {
            return Err(crate::AtlasError::InvalidParams(
                "check_fraction and min_mapping_rate must be in [0,1]".into(),
            ));
        }
        Ok(())
    }

    /// The decision function: abort once the checkpoint is reached and the mapping
    /// rate is below threshold.
    pub fn verdict(&self, snapshot: &ProgressSnapshot) -> MonitorVerdict {
        let checkpoint_reached = snapshot.processed_fraction() >= self.check_fraction
            && snapshot.processed >= self.min_reads_checked;
        if checkpoint_reached && snapshot.mapped_fraction() < self.min_mapping_rate {
            MonitorVerdict::Abort
        } else {
            MonitorVerdict::Continue
        }
    }
}

impl RunMonitor for EarlyStopPolicy {
    fn on_progress(&self, snapshot: &ProgressSnapshot) -> MonitorVerdict {
        self.verdict(snapshot)
    }
}

/// Time accounting for one (possibly early-stopped) run — one bar of Fig. 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyStopAccounting {
    /// True when the run was aborted by the policy.
    pub stopped: bool,
    /// Reads processed before the run ended.
    pub processed_reads: u64,
    /// Total reads the run would have processed.
    pub total_reads: u64,
    /// Seconds actually spent aligning.
    pub actual_secs: f64,
    /// Projected full-run seconds. For a completed run this equals `actual_secs`;
    /// for a stopped run it extrapolates the observed per-read rate over the whole
    /// input — the same estimate the paper uses for its 30.4 h figure.
    pub projected_full_secs: f64,
}

impl EarlyStopAccounting {
    /// Derive the accounting from how a run ended, its final snapshot and the
    /// seconds it consumed; a STAR and a pseudoaligner run are accounted alike.
    pub fn from_run(
        status: RunStatus,
        last: &ProgressSnapshot,
        align_secs: f64,
    ) -> EarlyStopAccounting {
        let processed = last.processed;
        let total = last.total_reads;
        let stopped = matches!(status, RunStatus::EarlyStopped { .. });
        let projected = if stopped && processed > 0 {
            align_secs * total as f64 / processed as f64
        } else {
            align_secs
        };
        EarlyStopAccounting {
            stopped,
            processed_reads: processed,
            total_reads: total,
            actual_secs: align_secs,
            projected_full_secs: projected,
        }
    }

    /// Seconds the abort saved (0 for completed runs) — the yellow bar.
    pub fn saved_secs(&self) -> f64 {
        (self.projected_full_secs - self.actual_secs).max(0.0)
    }

    /// Structured fields for the telemetry `early_stop` decision event.
    pub fn decision_fields(&self) -> Vec<(&'static str, telemetry::JsonValue)> {
        vec![
            ("stopped", self.stopped.into()),
            ("processed_reads", self.processed_reads.into()),
            ("total_reads", self.total_reads.into()),
            ("actual_secs", self.actual_secs.into()),
            ("projected_full_secs", self.projected_full_secs.into()),
            ("saved_secs", self.saved_secs().into()),
        ]
    }
}

/// Aggregate over a campaign — the totals quoted in §III-B (38/1000 runs, 30.4 h of
/// 155.8 h, 19.5 %).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SavingsSummary {
    /// Number of alignments run.
    pub runs: usize,
    /// Number terminated early.
    pub stopped: usize,
    /// Total seconds actually spent aligning.
    pub actual_secs: f64,
    /// Total seconds a no-early-stopping campaign would have spent.
    pub projected_secs: f64,
}

impl SavingsSummary {
    /// Fold a run's accounting into the summary.
    pub fn add(&mut self, acct: &EarlyStopAccounting) {
        self.runs += 1;
        if acct.stopped {
            self.stopped += 1;
        }
        self.actual_secs += acct.actual_secs;
        self.projected_secs += acct.projected_full_secs;
    }

    /// Seconds saved by early stopping.
    pub fn saved_secs(&self) -> f64 {
        (self.projected_secs - self.actual_secs).max(0.0)
    }

    /// Fraction of the no-early-stopping total that was saved (paper: 19.5 %).
    pub fn saved_fraction(&self) -> f64 {
        if self.projected_secs <= 0.0 {
            0.0
        } else {
            self.saved_secs() / self.projected_secs
        }
    }
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
            elapsed_secs: 1.0,
        }
    }

    #[test]
    fn continues_before_checkpoint_even_if_rate_is_terrible() {
        let p = EarlyStopPolicy::default();
        // 5% processed, 0% mapped: too early to decide.
        assert_eq!(p.verdict(&snap(500, 10_000, 0)), MonitorVerdict::Continue);
    }

    #[test]
    fn aborts_at_checkpoint_when_rate_below_threshold() {
        let p = EarlyStopPolicy::default();
        // 10% processed, 25% mapped < 30%.
        assert_eq!(p.verdict(&snap(1_000, 10_000, 250)), MonitorVerdict::Abort);
    }

    #[test]
    fn continues_at_checkpoint_when_rate_is_acceptable() {
        let p = EarlyStopPolicy::default();
        assert_eq!(p.verdict(&snap(1_000, 10_000, 350)), MonitorVerdict::Continue);
        // Exactly at threshold: not below → continue.
        assert_eq!(p.verdict(&snap(1_000, 10_000, 300)), MonitorVerdict::Continue);
    }

    #[test]
    fn min_reads_floor_delays_decisions_on_tiny_inputs() {
        let p = EarlyStopPolicy::default();
        // 50% of a 100-read input is only 50 reads < floor of 200.
        assert_eq!(p.verdict(&snap(50, 100, 0)), MonitorVerdict::Continue);
        // Raise processed past the floor: now decidable.
        let mut p2 = p;
        p2.min_reads_checked = 10;
        assert_eq!(p2.verdict(&snap(50, 100, 0)), MonitorVerdict::Abort);
    }

    #[test]
    fn invalid_policy_rejected() {
        let mut p = EarlyStopPolicy::default();
        p.check_fraction = 1.5;
        assert!(p.validate().is_err());
        let mut p = EarlyStopPolicy::default();
        p.min_mapping_rate = -0.1;
        assert!(p.validate().is_err());
        assert!(EarlyStopPolicy::default().validate().is_ok());
    }

    #[test]
    fn accounting_projects_stopped_runs_linearly() {
        // A stopped run: 1000 of 10000 reads in 6 s → projected 60 s, saved 54 s.
        let acct = EarlyStopAccounting {
            stopped: true,
            processed_reads: 1_000,
            total_reads: 10_000,
            actual_secs: 6.0,
            projected_full_secs: 60.0,
        };
        assert!((acct.saved_secs() - 54.0).abs() < 1e-12);
        let done = EarlyStopAccounting {
            stopped: false,
            processed_reads: 10_000,
            total_reads: 10_000,
            actual_secs: 60.0,
            projected_full_secs: 60.0,
        };
        assert_eq!(done.saved_secs(), 0.0);
    }

    #[test]
    fn summary_aggregates_paper_style_totals() {
        let mut s = SavingsSummary::default();
        // 2 completed runs of 100 s, 1 stopped run that used 10 s of a projected 100 s.
        for _ in 0..2 {
            s.add(&EarlyStopAccounting {
                stopped: false,
                processed_reads: 1000,
                total_reads: 1000,
                actual_secs: 100.0,
                projected_full_secs: 100.0,
            });
        }
        s.add(&EarlyStopAccounting {
            stopped: true,
            processed_reads: 100,
            total_reads: 1000,
            actual_secs: 10.0,
            projected_full_secs: 100.0,
        });
        assert_eq!(s.runs, 3);
        assert_eq!(s.stopped, 1);
        assert!((s.saved_secs() - 90.0).abs() < 1e-12);
        assert!((s.saved_fraction() - 0.3).abs() < 1e-12);
    }
}
