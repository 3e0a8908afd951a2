//! `Log.progress.out` — the running statistics stream early stopping consumes.
//!
//! Real STAR appends a line to `Log.progress.out` every minute with the number of
//! reads processed so far, the mapping speed, and — crucially for the paper — the
//! *current percentage of mapped reads*. The paper's early-stopping optimization
//! tails this file and aborts the run when, after ≥10 % of reads, the mapped
//! percentage sits below 30 %.
//!
//! [`ProgressSnapshot`] is both the running tally and each line of that stream: the
//! run driver owns one, counts each fragment into it on the calling thread in input
//! order ([`ProgressSnapshot::record`]), and copies it out at every batch boundary.

use crate::align::MapClass;

/// A point-in-time view of run progress (one `Log.progress.out` line).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressSnapshot {
    /// Total reads in the input.
    pub total_reads: u64,
    /// Reads processed so far.
    pub processed: u64,
    /// Uniquely mapped so far.
    pub unique: u64,
    /// Multimapped (within the cap) so far.
    pub multi: u64,
    /// Mapped to too many loci so far.
    pub too_many: u64,
    /// Unmapped so far.
    pub unmapped: u64,
    /// Wall-clock seconds since the run started.
    pub elapsed_secs: f64,
}

impl ProgressSnapshot {
    /// The tally of a run over `total_reads` reads that has processed none yet.
    pub fn new(total_reads: u64) -> ProgressSnapshot {
        ProgressSnapshot {
            total_reads,
            processed: 0,
            unique: 0,
            multi: 0,
            too_many: 0,
            unmapped: 0,
            elapsed_secs: 0.0,
        }
    }

    /// Count one classified fragment.
    pub fn record(&mut self, class: MapClass) {
        self.processed += 1;
        *match class {
            MapClass::Unique => &mut self.unique,
            MapClass::Multi(_) => &mut self.multi,
            MapClass::TooMany(_) => &mut self.too_many,
            MapClass::Unmapped => &mut self.unmapped,
        } += 1;
    }

    /// Fraction of input processed (0 when the input is empty).
    pub fn processed_fraction(&self) -> f64 {
        if self.total_reads == 0 {
            0.0
        } else {
            self.processed as f64 / self.total_reads as f64
        }
    }

    /// Current mapped fraction among processed reads — STAR's "% of reads mapped"
    /// (unique + multi), the statistic early stopping thresholds on. 0 when nothing
    /// has been processed yet.
    pub fn mapped_fraction(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            (self.unique + self.multi) as f64 / self.processed as f64
        }
    }

    /// Mapping speed in reads/second (0 before the clock ticks).
    pub fn reads_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.processed as f64 / self.elapsed_secs
        }
    }

    /// Render as a `Log.progress.out`-style line.
    pub fn to_log_line(&self) -> String {
        format!(
            "{:>12.1}s {:>12} reads {:>10.0} reads/s   Mapped: {:>6.2}%   Unique: {:>6.2}%   Multi: {:>6.2}%",
            self.elapsed_secs,
            self.processed,
            self.reads_per_sec(),
            self.mapped_fraction() * 100.0,
            pct(self.unique, self.processed),
            pct(self.multi, self.processed),
        )
    }
}

/// `x` as a percentage of `of` (0 when `of` is 0).
pub(crate) fn pct(x: u64, of: u64) -> f64 {
    if of == 0 {
        0.0
    } else {
        x as f64 / of as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_classifications_into_buckets() {
        let mut s = ProgressSnapshot::new(10);
        s.record(MapClass::Unique);
        s.record(MapClass::Unique);
        s.record(MapClass::Multi(3));
        s.record(MapClass::TooMany(99));
        s.record(MapClass::Unmapped);
        assert_eq!(s.processed, 5);
        assert_eq!(s.unique, 2);
        assert_eq!(s.multi, 1);
        assert_eq!(s.too_many, 1);
        assert_eq!(s.unmapped, 1);
        assert!((s.processed_fraction() - 0.5).abs() < 1e-12);
        assert!((s.mapped_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_has_zero_fractions() {
        let s = ProgressSnapshot::new(0);
        assert_eq!(s.processed_fraction(), 0.0);
        assert_eq!(s.mapped_fraction(), 0.0);
        assert_eq!(s.reads_per_sec(), 0.0);
    }

    #[test]
    fn log_line_contains_mapped_percent() {
        let mut s = ProgressSnapshot::new(4);
        s.record(MapClass::Unique);
        s.record(MapClass::Unmapped);
        let line = s.to_log_line();
        assert!(line.contains("Mapped:  50.00%"), "{line}");
    }
}
