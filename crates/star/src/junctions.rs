//! Splice-junction output collection (STAR's `SJ.out.tab`).
//!
//! While mapping, STAR tallies every splice junction its alignments used and writes
//! `SJ.out.tab`: one row per junction with its motif, annotation status, supporting
//! read counts and maximum spliced overhang. The same table seeds the second pass of
//! `--twopassMode Basic` — novel, well-supported junctions are inserted into the
//! sjdb and the reads are re-aligned ([`crate::runner::Runner::run_two_pass`]).

use std::collections::HashMap;
use std::sync::Arc;

use crate::align::{AlignmentRecord, CigarOp, MapClass};
use crate::sjdb::SpliceClass;

/// Accumulated statistics for one junction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JunctionStats {
    /// Uniquely-mapping reads crossing the junction.
    pub unique_reads: u64,
    /// Multimapping reads crossing the junction.
    pub multi_reads: u64,
    /// Maximum spliced alignment overhang (min of the M runs flanking the N op).
    pub max_overhang: u32,
    /// Junction classification (annotated / canonical / non-canonical).
    pub class: SpliceClass,
}

impl JunctionStats {
    fn update(&mut self, unique: bool, overhang: u32, class: SpliceClass) {
        if unique {
            self.unique_reads += 1;
        } else {
            self.multi_reads += 1;
        }
        self.max_overhang = self.max_overhang.max(overhang);
        self.class = class;
    }
}

/// One output row: contig-local junction plus stats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JunctionRow {
    /// Contig name.
    pub contig: String,
    /// First intronic base, 0-based contig-local (printed 1-based).
    pub intron_start: u64,
    /// One past the last intronic base.
    pub intron_end: u64,
    /// Accumulated stats.
    pub stats: JunctionStats,
}

/// Collects junction usage across a run.
#[derive(Debug, Default)]
pub struct JunctionCollector {
    table: HashMap<(Arc<str>, u64, u64), JunctionStats>,
}

impl JunctionCollector {
    /// An empty collector.
    pub fn new() -> JunctionCollector {
        JunctionCollector::default()
    }

    /// Record a mapped read's junctions (unmapped/too-many reads contribute nothing,
    /// like STAR).
    pub fn record(&mut self, class: MapClass, record: Option<&AlignmentRecord>) {
        if !class.is_mapped() {
            return;
        }
        let Some(rec) = record else { return };
        if rec.junctions.is_empty() {
            return;
        }
        let unique = matches!(class, MapClass::Unique);
        let overhangs = junction_overhangs(&rec.cigar);
        for (i, &(start, end, jclass)) in rec.junctions.iter().enumerate() {
            let overhang = overhangs.get(i).copied().unwrap_or(0);
            self.table
                .entry((rec.contig.clone(), start, end))
                .or_default()
                .update(unique, overhang, jclass);
        }
    }

    /// Merge previously-finished rows back in (checkpoint resume): counts add,
    /// overhangs take the max, and the class follows the merged rows — the same
    /// combination `JunctionStats::update` applies read by read, so a resumed
    /// run finishes with the table an uninterrupted run would have produced.
    pub fn absorb_rows(&mut self, rows: &[JunctionRow]) {
        for row in rows {
            let key: (Arc<str>, u64, u64) =
                (Arc::from(row.contig.as_str()), row.intron_start, row.intron_end);
            let stats = self.table.entry(key).or_default();
            stats.unique_reads += row.stats.unique_reads;
            stats.multi_reads += row.stats.multi_reads;
            stats.max_overhang = stats.max_overhang.max(row.stats.max_overhang);
            stats.class = row.stats.class;
        }
    }

    /// Number of distinct junctions observed.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no junction has been observed.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Finish into sorted rows (contig, start, end).
    pub fn finish(self) -> Vec<JunctionRow> {
        let mut rows: Vec<JunctionRow> = self
            .table
            .into_iter()
            .map(|((contig, intron_start, intron_end), stats)| JunctionRow {
                contig: String::from(&*contig),
                intron_start,
                intron_end,
                stats,
            })
            .collect();
        rows.sort_by(|a, b| {
            (&a.contig, a.intron_start, a.intron_end).cmp(&(&b.contig, b.intron_start, b.intron_end))
        });
        rows
    }
}

/// Per-junction overhang: the shorter of the two M runs flanking each N op.
fn junction_overhangs(cigar: &[CigarOp]) -> Vec<u32> {
    let mut overhangs = Vec::new();
    // Aligned run lengths between N ops.
    let mut m_runs: Vec<u32> = vec![0];
    for op in cigar {
        match op {
            CigarOp::M(n) => *m_runs.last_mut().expect("non-empty") += n,
            CigarOp::N(_) => m_runs.push(0),
            CigarOp::S(_) => {}
        }
    }
    for w in m_runs.windows(2) {
        overhangs.push(w[0].min(w[1]));
    }
    overhangs
}

/// Render rows in SJ.out.tab format: contig, 1-based intron start, 1-based intron
/// end (inclusive), strand (0 undefined, kept 0 in the substitution-only model),
/// motif code (0 non-canonical, 1 GT/AG-class canonical, 20 annotated marker column
/// folded into column 6 like STAR's annotated flag), unique reads, multi reads,
/// max overhang.
pub fn to_sj_tab(rows: &[JunctionRow]) -> String {
    let mut out = String::new();
    for row in rows {
        let motif = match row.stats.class {
            SpliceClass::NonCanonical => 0,
            SpliceClass::Canonical | SpliceClass::Annotated => 1,
        };
        let annotated = u8::from(row.stats.class == SpliceClass::Annotated);
        out.push_str(&format!(
            "{}\t{}\t{}\t0\t{}\t{}\t{}\t{}\t{}\n",
            row.contig,
            row.intron_start + 1,
            row.intron_end, // end is exclusive 0-based == inclusive 1-based
            motif,
            annotated,
            row.stats.unique_reads,
            row.stats.multi_reads,
            row.stats.max_overhang,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(contig: &str, junctions: Vec<(u64, u64, SpliceClass)>, cigar: Vec<CigarOp>) -> AlignmentRecord {
        AlignmentRecord {
            read_id: "r".into(),
            contig: contig.into(),
            pos: 0,
            reverse: false,
            cigar,
            score: 90,
            mismatches: 0,
            n_hits: 1,
            mapq: 255,
            junctions,
        }
    }

    #[test]
    fn collects_unique_and_multi_separately() {
        let mut c = JunctionCollector::new();
        let rec = record(
            "1",
            vec![(100, 400, SpliceClass::Annotated)],
            vec![CigarOp::M(40), CigarOp::N(300), CigarOp::M(60)],
        );
        c.record(MapClass::Unique, Some(&rec));
        c.record(MapClass::Unique, Some(&rec));
        c.record(MapClass::Multi(3), Some(&rec));
        c.record(MapClass::Unmapped, None);
        c.record(MapClass::TooMany(50), Some(&rec));
        let rows = c.finish();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].stats.unique_reads, 2);
        assert_eq!(rows[0].stats.multi_reads, 1);
        assert_eq!(rows[0].stats.max_overhang, 40);
        assert_eq!(rows[0].stats.class, SpliceClass::Annotated);
    }

    #[test]
    fn overhang_is_min_of_flanking_runs_per_junction() {
        // 10M 100N 50M 200N 5M: overhangs 10 and 5.
        let cigar = vec![
            CigarOp::S(3),
            CigarOp::M(10),
            CigarOp::N(100),
            CigarOp::M(50),
            CigarOp::N(200),
            CigarOp::M(5),
        ];
        assert_eq!(junction_overhangs(&cigar), vec![10, 5]);
        assert_eq!(junction_overhangs(&[CigarOp::M(100)]), Vec::<u32>::new());
    }

    #[test]
    fn rows_sort_by_contig_and_position() {
        let mut c = JunctionCollector::new();
        for (contig, s, e) in [("2", 50u64, 80u64), ("1", 300, 400), ("1", 100, 200)] {
            let rec = record(
                contig,
                vec![(s, e, SpliceClass::Canonical)],
                vec![CigarOp::M(50), CigarOp::N((e - s) as u32), CigarOp::M(50)],
            );
            c.record(MapClass::Unique, Some(&rec));
        }
        let rows = c.finish();
        let keys: Vec<(&str, u64)> = rows.iter().map(|r| (r.contig.as_str(), r.intron_start)).collect();
        assert_eq!(keys, vec![("1", 100), ("1", 300), ("2", 50)]);
    }

    #[test]
    fn sj_tab_is_one_based_with_flags() {
        let mut c = JunctionCollector::new();
        let rec = record(
            "1",
            vec![(99, 400, SpliceClass::Annotated)],
            vec![CigarOp::M(30), CigarOp::N(301), CigarOp::M(70)],
        );
        c.record(MapClass::Unique, Some(&rec));
        let tab = to_sj_tab(&c.finish());
        assert_eq!(tab.trim_end(), "1\t100\t400\t0\t1\t1\t1\t0\t30");
    }

    #[test]
    fn spliceless_reads_contribute_nothing() {
        let mut c = JunctionCollector::new();
        let rec = record("1", vec![], vec![CigarOp::M(100)]);
        c.record(MapClass::Unique, Some(&rec));
        assert!(c.is_empty());
    }
}
