//! `Log.final.out` — end-of-run summary statistics.
//!
//! The genome-release experiment (§III-A) checks that mapping rates stay within 1 %
//! across indices; this summary is where that number comes from.

use crate::progress::{pct, ProgressSnapshot};
use std::fmt;

/// Final run summary, mirroring the fields of STAR's `Log.final.out` that the
/// reproduction uses: the run's last progress snapshot, whose `processed` count is
/// the "Number of input reads" row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FinalLog(pub ProgressSnapshot);

impl FinalLog {
    /// Uniquely mapped %, of input reads.
    pub fn unique_pct(&self) -> f64 {
        pct(self.0.unique, self.0.processed)
    }

    /// Multimapped %, of input reads.
    pub fn multi_pct(&self) -> f64 {
        pct(self.0.multi, self.0.processed)
    }

    /// Overall mapped % (unique + multi) — the paper's "mapping rate".
    pub fn mapped_pct(&self) -> f64 {
        pct(self.0.unique + self.0.multi, self.0.processed)
    }

    /// The deterministic rows of `Log.final.out`: everything except the
    /// wall-clock-dependent mapping-speed row. This is the text the
    /// checkpoint/resume differential proof compares byte-for-byte — two runs
    /// that aligned the same reads produce identical canonical text regardless
    /// of how long either took.
    pub fn canonical_text(&self) -> String {
        let s = &self.0;
        let mut out = String::new();
        out.push_str(&format!("                          Number of input reads |\t{}\n", s.processed));
        out.push_str(&format!("                   Uniquely mapped reads number |\t{}\n", s.unique));
        out.push_str(&format!("                        Uniquely mapped reads % |\t{:.2}%\n", self.unique_pct()));
        out.push_str(&format!("        Number of reads mapped to multiple loci |\t{}\n", s.multi));
        out.push_str(&format!("             % of reads mapped to multiple loci |\t{:.2}%\n", self.multi_pct()));
        out.push_str(&format!("        Number of reads mapped to too many loci |\t{}\n", s.too_many));
        out.push_str(&format!("             % of reads mapped to too many loci |\t{:.2}%\n", pct(s.too_many, s.processed)));
        out.push_str(&format!("                         Number of unmapped reads |\t{}\n", s.unmapped));
        out.push_str(&format!("                              % of unmapped reads |\t{:.2}%\n", pct(s.unmapped, s.processed)));
        out.push_str(&format!("                                 Overall mapped % |\t{:.2}%\n", self.mapped_pct()));
        out
    }
}

impl fmt::Display for FinalLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical_text())?;
        write!(f, "                           Mapping speed, reads/s |\t{:.0}", self.0.reads_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run that processed all of its `processed` reads, with these class counts.
    fn snapshot(processed: u64, classes: [u64; 4], elapsed_secs: f64) -> ProgressSnapshot {
        let [unique, multi, too_many, unmapped] = classes;
        ProgressSnapshot { total_reads: processed, processed, unique, multi, too_many, unmapped, elapsed_secs }
    }

    fn log() -> FinalLog {
        FinalLog(snapshot(1000, [800, 100, 40, 60], 2.0))
    }

    #[test]
    fn percentages_are_of_input_reads() {
        let l = log();
        assert!((l.unique_pct() - 80.0).abs() < 1e-12);
        assert!((l.multi_pct() - 10.0).abs() < 1e-12);
        assert!((l.mapped_pct() - 90.0).abs() < 1e-12);
        assert!((l.0.reads_per_sec() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn zero_inputs_do_not_divide_by_zero() {
        let l = FinalLog(ProgressSnapshot::new(0));
        assert_eq!(l.mapped_pct(), 0.0);
        assert_eq!(l.0.reads_per_sec(), 0.0);
    }

    #[test]
    fn display_contains_star_style_rows() {
        let text = log().to_string();
        assert!(text.contains("Number of input reads |\t1000"));
        assert!(text.contains("Uniquely mapped reads % |\t80.00%"));
        assert!(text.contains("Overall mapped % |\t90.00%"));
        assert!(text.contains("Mapping speed, reads/s |\t500"));
    }

    /// An early-stopped run's summary counts the reads it processed, not its input.
    #[test]
    fn input_reads_row_counts_processed_reads() {
        let mut stopped = snapshot(7, [5, 0, 1, 1], 1.5);
        stopped.total_reads = 10;
        let text = FinalLog(stopped).canonical_text();
        assert!(text.contains("Number of input reads |\t7\n"), "{text}");
        assert!(text.contains("Uniquely mapped reads number |\t5\n"), "{text}");
    }
}
