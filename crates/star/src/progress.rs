//! `Log.progress.out` — the running statistics stream early stopping consumes.
//!
//! Real STAR appends a line to `Log.progress.out` every minute with the number of
//! reads processed so far, the mapping speed, and — crucially for the paper — the
//! *current percentage of mapped reads*. The paper's early-stopping optimization
//! tails this file and aborts the run when, after ≥10 % of reads, the mapped
//! percentage sits below 30 %.
//!
//! [`ProgressStats`] is the thread-safe counterpart: alignment workers bump atomic
//! counters and the run driver snapshots them between batches.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::align::MapClass;

/// Shared, thread-safe progress counters for one alignment run.
#[derive(Debug)]
pub struct ProgressStats {
    total_reads: u64,
    started: Instant,
    processed: AtomicU64,
    unique: AtomicU64,
    multi: AtomicU64,
    too_many: AtomicU64,
    unmapped: AtomicU64,
}

impl ProgressStats {
    /// New counters for a run over `total_reads` reads.
    pub fn new(total_reads: u64) -> ProgressStats {
        ProgressStats::with_initial(total_reads, 0, 0, 0, 0, 0)
    }

    /// Counters seeded from a checkpoint: `processed`/class tallies start at the
    /// interrupted run's values so snapshots (and the monitor decisions made on
    /// them) see cumulative progress, not just the resumed tail.
    pub fn with_initial(
        total_reads: u64,
        processed: u64,
        unique: u64,
        multi: u64,
        too_many: u64,
        unmapped: u64,
    ) -> ProgressStats {
        debug_assert_eq!(processed, unique + multi + too_many + unmapped);
        ProgressStats {
            total_reads,
            started: Instant::now(),
            processed: AtomicU64::new(processed),
            unique: AtomicU64::new(unique),
            multi: AtomicU64::new(multi),
            too_many: AtomicU64::new(too_many),
            unmapped: AtomicU64::new(unmapped),
        }
    }

    /// Record one classified read. Relaxed ordering suffices: the counters are
    /// independent monotonic tallies read only via snapshots.
    pub fn record(&self, class: MapClass) {
        self.processed.fetch_add(1, Ordering::Relaxed);
        let counter = match class {
            MapClass::Unique => &self.unique,
            MapClass::Multi(_) => &self.multi,
            MapClass::TooMany(_) => &self.too_many,
            MapClass::Unmapped => &self.unmapped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Total reads the run was given.
    pub fn total_reads(&self) -> u64 {
        self.total_reads
    }

    /// A consistent-enough snapshot for progress decisions (counters are monotonic;
    /// between-batch snapshots in the runner are exact).
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            total_reads: self.total_reads,
            processed: self.processed.load(Ordering::Relaxed),
            unique: self.unique.load(Ordering::Relaxed),
            multi: self.multi.load(Ordering::Relaxed),
            too_many: self.too_many.load(Ordering::Relaxed),
            unmapped: self.unmapped.load(Ordering::Relaxed),
            elapsed_secs: self.started.elapsed().as_secs_f64(),
        }
    }
}

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

fn pct(x: u64, of: u64) -> f64 {
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
        let p = ProgressStats::new(10);
        p.record(MapClass::Unique);
        p.record(MapClass::Unique);
        p.record(MapClass::Multi(3));
        p.record(MapClass::TooMany(99));
        p.record(MapClass::Unmapped);
        let s = p.snapshot();
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
        let s = ProgressStats::new(0).snapshot();
        assert_eq!(s.processed_fraction(), 0.0);
        assert_eq!(s.mapped_fraction(), 0.0);
        assert_eq!(s.reads_per_sec(), 0.0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        use std::sync::Arc;
        let p = Arc::new(ProgressStats::new(8000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    p.record(if i % 2 == 0 { MapClass::Unique } else { MapClass::Unmapped });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = p.snapshot();
        assert_eq!(s.processed, 8000);
        assert_eq!(s.unique, 4000);
        assert_eq!(s.unmapped, 4000);
    }

    #[test]
    fn log_line_contains_mapped_percent() {
        let p = ProgressStats::new(4);
        p.record(MapClass::Unique);
        p.record(MapClass::Unmapped);
        let line = p.snapshot().to_log_line();
        assert!(line.contains("Mapped:  50.00%"), "{line}");
    }
}
