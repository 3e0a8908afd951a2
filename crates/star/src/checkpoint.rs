//! Alignment checkpoint/resume — the star-side half of graceful spot degradation.
//!
//! When the cloud layer receives a spot interruption notice it has ~2 minutes to
//! get off the instance. Cancelling the run loses the work done so far; an
//! [`AlignCheckpoint`] captures it instead: the reads-processed offset, the
//! partial progress counters, and the partial quant/junction tables, serialized
//! deterministically so the same checkpoint always produces the same bytes. A
//! later attempt resumes with [`crate::runner::Runner::run_resumed`], which skips
//! the already-aligned prefix and seeds its accumulators from the checkpoint —
//! producing SAM/quant/`Log.final` output bit-identical to an uninterrupted run
//! (per-read alignment is pure, so the only state that matters is the offset and
//! the running tallies, all of which the checkpoint carries).
//!
//! The serialized form is versioned, tab-separated text with an FNV-1a checksum
//! trailer; a truncated or tampered blob is rejected on load rather than silently
//! resuming from garbage.

use crate::junctions::JunctionRow;
use crate::progress::ProgressSnapshot;
use crate::quant::GeneCounts;
use crate::runner::{RunOutput, RunStatus};
use crate::sjdb::SpliceClass;
use crate::StarError;
use genomics::fnv;

/// Serialization format version; bump on any layout change.
const CHECKPOINT_VERSION: u32 = 1;

/// A resumable snapshot of a partially-completed alignment run.
///
/// Captured at a batch boundary (cancellation only takes effect there), so
/// `reads_processed` is exact: every read before the offset is fully accounted
/// for in the counters and tables, every read at or after it is untouched.
#[derive(Clone, Debug, PartialEq)]
pub struct AlignCheckpoint {
    /// Reads fully processed before the interruption (the resume offset).
    pub reads_processed: u64,
    /// Uniquely mapped reads so far.
    pub unique: u64,
    /// Multimapped reads (within the cap) so far.
    pub multi: u64,
    /// Reads mapped to too many loci so far.
    pub too_many: u64,
    /// Unmapped reads so far.
    pub unmapped: u64,
    /// Partial gene counts when the run had `quant` enabled.
    pub gene_counts: Option<GeneCounts>,
    /// Partial junction table when the run had `collect_junctions` enabled.
    pub junctions: Option<Vec<JunctionRow>>,
}

impl AlignCheckpoint {
    /// Capture a checkpoint from a cancelled run's output. Returns `None` for
    /// any other status: a completed run needs no checkpoint and an
    /// early-stopped run was abandoned on purpose.
    pub fn from_cancelled(output: &RunOutput) -> Option<AlignCheckpoint> {
        let RunStatus::Cancelled { processed_reads } = output.status else {
            return None;
        };
        let s = &output.final_snapshot;
        debug_assert_eq!(s.processed, processed_reads, "cancel lands at a batch boundary");
        Some(AlignCheckpoint {
            reads_processed: processed_reads,
            unique: s.unique,
            multi: s.multi,
            too_many: s.too_many,
            unmapped: s.unmapped,
            gene_counts: output.gene_counts.clone(),
            junctions: output.junctions.clone(),
        })
    }

    /// The tally a run resumed from this checkpoint starts from, over an input of
    /// `total_reads`: the interrupted run's counters, so every snapshot (and every
    /// monitor decision made on one) sees cumulative progress, not just the tail.
    pub fn progress(&self, total_reads: u64) -> ProgressSnapshot {
        ProgressSnapshot {
            processed: self.reads_processed,
            unique: self.unique,
            multi: self.multi,
            too_many: self.too_many,
            unmapped: self.unmapped,
            ..ProgressSnapshot::new(total_reads)
        }
    }

    /// Internal consistency: every processed read sits in exactly one class
    /// bucket, and the quant table (when present) accounts for the same total.
    pub fn validate(&self) -> Result<(), StarError> {
        let classed = self.unique + self.multi + self.too_many + self.unmapped;
        if classed != self.reads_processed {
            return Err(StarError::CorruptIndex(format!(
                "checkpoint classes sum to {classed} but claims {} reads",
                self.reads_processed
            )));
        }
        if let Some(gc) = &self.gene_counts {
            let quant_total = gc.total_recorded();
            if quant_total != self.reads_processed {
                return Err(StarError::CorruptIndex(format!(
                    "checkpoint quant table accounts for {quant_total} of {} reads",
                    self.reads_processed
                )));
            }
        }
        Ok(())
    }

    /// Serialize deterministically: versioned tab-separated text with an FNV-1a
    /// checksum trailer. Equal checkpoints always produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(&format!("star-ckpt\t{CHECKPOINT_VERSION}\n"));
        body.push_str(&format!(
            "reads\t{}\t{}\t{}\t{}\t{}\n",
            self.reads_processed, self.unique, self.multi, self.too_many, self.unmapped
        ));
        match &self.gene_counts {
            None => body.push_str("quant\t0\n"),
            Some(gc) => {
                body.push_str("quant\t1\n");
                body.push_str(&format!(
                    "nofeature\t{}\t{}\t{}\n",
                    gc.n_no_feature[0], gc.n_no_feature[1], gc.n_no_feature[2]
                ));
                body.push_str(&format!(
                    "ambiguous\t{}\t{}\t{}\n",
                    gc.n_ambiguous[0], gc.n_ambiguous[1], gc.n_ambiguous[2]
                ));
                body.push_str(&format!("multimapping\t{}\n", gc.n_multimapping));
                body.push_str(&format!("unmapped\t{}\n", gc.n_unmapped));
                body.push_str(&format!("genes\t{}\n", gc.gene_ids.len()));
                for (id, c) in gc.gene_ids.iter().zip(&gc.counts) {
                    body.push_str(&format!("g\t{id}\t{}\t{}\t{}\n", c[0], c[1], c[2]));
                }
            }
        }
        match &self.junctions {
            None => body.push_str("junctions\t0\n"),
            Some(rows) => {
                body.push_str(&format!("junctions\t{}\n", rows.len()));
                for row in rows {
                    body.push_str(&format!(
                        "j\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                        row.contig,
                        row.intron_start,
                        row.intron_end,
                        row.stats.unique_reads,
                        row.stats.multi_reads,
                        row.stats.max_overhang,
                        splice_class_name(row.stats.class),
                    ));
                }
            }
        }
        let mut bytes = body.into_bytes();
        let sum = fnv::fnv1a(fnv::OFFSET, &bytes);
        bytes.extend_from_slice(format!("sum\t{sum:016x}\n").as_bytes());
        bytes
    }

    /// Parse a serialized checkpoint, rejecting version mismatches, truncation,
    /// checksum failures, lines beyond the declared rows and internally
    /// inconsistent tallies.
    pub fn from_bytes(bytes: &[u8]) -> Result<AlignCheckpoint, StarError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| StarError::CorruptIndex("checkpoint is not UTF-8".into()))?;
        let Some(sum_at) = text.rfind("sum\t") else {
            return Err(StarError::CorruptIndex("checkpoint missing checksum trailer".into()));
        };
        let stored = text[sum_at..]
            .trim_end()
            .strip_prefix("sum\t")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| StarError::CorruptIndex("unparseable checkpoint checksum".into()))?;
        let body = &bytes[..sum_at];
        if fnv::fnv1a(fnv::OFFSET, body) != stored {
            return Err(StarError::CorruptIndex("checkpoint checksum mismatch".into()));
        }

        let mut lines = text[..sum_at].lines();
        let header = fields(lines.next(), 2, "header")?;
        if header[0] != "star-ckpt" {
            return Err(StarError::CorruptIndex("not a checkpoint blob".into()));
        }
        let version: u32 = parse(&header[1], "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(StarError::CorruptIndex(format!(
                "checkpoint version {version}, expected {CHECKPOINT_VERSION}"
            )));
        }
        let reads = fields(lines.next(), 6, "reads")?;
        if reads[0] != "reads" {
            return Err(StarError::CorruptIndex("expected reads line".into()));
        }
        let mut ckpt = AlignCheckpoint {
            reads_processed: parse(&reads[1], "reads_processed")?,
            unique: parse(&reads[2], "unique")?,
            multi: parse(&reads[3], "multi")?,
            too_many: parse(&reads[4], "too_many")?,
            unmapped: parse(&reads[5], "unmapped")?,
            gene_counts: None,
            junctions: None,
        };

        let quant = fields(lines.next(), 2, "quant")?;
        if quant[0] != "quant" {
            return Err(StarError::CorruptIndex("expected quant line".into()));
        }
        if quant[1] != "0" {
            let nf = fields(lines.next(), 4, "nofeature")?;
            let amb = fields(lines.next(), 4, "ambiguous")?;
            let mm = fields(lines.next(), 2, "multimapping")?;
            let unm = fields(lines.next(), 2, "unmapped")?;
            let genes = fields(lines.next(), 2, "genes")?;
            let n_genes = row_count(&genes[1], &lines, "gene count")?;
            let mut gene_ids = Vec::with_capacity(n_genes);
            let mut counts = Vec::with_capacity(n_genes);
            for _ in 0..n_genes {
                let g = fields(lines.next(), 5, "gene row")?;
                if g[0] != "g" {
                    return Err(StarError::CorruptIndex("expected gene row".into()));
                }
                gene_ids.push(g[1].to_string());
                counts.push([parse(&g[2], "count")?, parse(&g[3], "count")?, parse(&g[4], "count")?]);
            }
            ckpt.gene_counts = Some(GeneCounts {
                gene_ids,
                counts,
                n_no_feature: [
                    parse(&nf[1], "nofeature")?,
                    parse(&nf[2], "nofeature")?,
                    parse(&nf[3], "nofeature")?,
                ],
                n_ambiguous: [
                    parse(&amb[1], "ambiguous")?,
                    parse(&amb[2], "ambiguous")?,
                    parse(&amb[3], "ambiguous")?,
                ],
                n_multimapping: parse(&mm[1], "multimapping")?,
                n_unmapped: parse(&unm[1], "unmapped")?,
            });
        }

        let junctions = fields(lines.next(), 2, "junctions")?;
        if junctions[0] != "junctions" {
            return Err(StarError::CorruptIndex("expected junctions line".into()));
        }
        if junctions[1] != "0" {
            let n = row_count(&junctions[1], &lines, "junction count")?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let j = fields(lines.next(), 8, "junction row")?;
                if j[0] != "j" {
                    return Err(StarError::CorruptIndex("expected junction row".into()));
                }
                rows.push(JunctionRow {
                    contig: j[1].to_string(),
                    intron_start: parse(&j[2], "intron_start")?,
                    intron_end: parse(&j[3], "intron_end")?,
                    stats: crate::junctions::JunctionStats {
                        unique_reads: parse(&j[4], "unique_reads")?,
                        multi_reads: parse(&j[5], "multi_reads")?,
                        max_overhang: parse(&j[6], "max_overhang")?,
                        class: splice_class_from_name(&j[7])?,
                    },
                });
            }
            ckpt.junctions = Some(rows);
        }
        if lines.next().is_some() {
            return Err(StarError::CorruptIndex("trailing data after junction rows".into()));
        }
        ckpt.validate()?;
        Ok(ckpt)
    }
}

/// Stable snake_case names for [`SpliceClass`] in the serialized form.
fn splice_class_name(c: SpliceClass) -> &'static str {
    match c {
        SpliceClass::Annotated => "annotated",
        SpliceClass::Canonical => "canonical",
        SpliceClass::NonCanonical => "non_canonical",
    }
}

fn splice_class_from_name(name: &str) -> Result<SpliceClass, StarError> {
    match name {
        "annotated" => Ok(SpliceClass::Annotated),
        "canonical" => Ok(SpliceClass::Canonical),
        "non_canonical" => Ok(SpliceClass::NonCanonical),
        other => Err(StarError::CorruptIndex(format!("unknown splice class {other:?}"))),
    }
}

fn fields(line: Option<&str>, want: usize, what: &str) -> Result<Vec<String>, StarError> {
    let line =
        line.ok_or_else(|| StarError::CorruptIndex(format!("checkpoint truncated at {what}")))?;
    let parts: Vec<String> = line.split('\t').map(str::to_string).collect();
    if parts.len() != want {
        return Err(StarError::CorruptIndex(format!(
            "checkpoint {what} line has {} fields, expected {want}",
            parts.len()
        )));
    }
    Ok(parts)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, StarError> {
    s.parse().map_err(|_| StarError::CorruptIndex(format!("unparseable {what}: {s:?}")))
}

/// A row count as the blob states it, refused before anything is allocated on its
/// say-so unless the body still has that many lines for the rows to come from (the
/// checksum is no defence: whoever writes the count can recompute the trailer).
fn row_count(s: &str, lines: &std::str::Lines<'_>, what: &str) -> Result<usize, StarError> {
    let n: usize = parse(s, what)?;
    let left = lines.clone().count();
    if n > left {
        return Err(StarError::CorruptIndex(format!(
            "checkpoint {what} {n} exceeds the {left} lines that follow"
        )));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexParams, StarIndex};
    use crate::params::AlignParams;
    use crate::progress::ProgressSnapshot;
    use crate::runner::{CancelToken, MonitorVerdict, RunConfig, Runner};
    use crate::sam;
    use genomics::{
        Annotation, EnsemblGenerator, EnsemblParams, FastqRecord, LibraryType, ReadSimulator,
        Release, SimulatorParams,
    };

    fn setup() -> (StarIndex, Annotation, Vec<FastqRecord>) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g).unwrap();
        let idx = StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap();
        let reads: Vec<FastqRecord> =
            ReadSimulator::new(&asm, &ann, SimulatorParams::for_library(LibraryType::BulkPolyA), 11)
                .unwrap()
                .simulate(1500, "SRRCKPT")
                .into_iter()
                .map(|r| r.fastq)
                .collect();
        (idx, ann, reads)
    }

    fn full_config() -> RunConfig {
        RunConfig {
            batch_size: 250,
            quant: true,
            collect_junctions: true,
            record_alignments: true,
            ..RunConfig::default()
        }
    }

    /// The counters of a snapshot, without its wall-clock `elapsed_secs`.
    fn counters(s: &ProgressSnapshot) -> [u64; 6] {
        [s.total_reads, s.processed, s.unique, s.multi, s.too_many, s.unmapped]
    }

    /// The differential proof: cancel mid-run, checkpoint, resume, and get
    /// byte-identical SAM / quant / SJ / Log.final output and the same progress
    /// history versus a run that was never interrupted; an early-stop monitor
    /// aborts the resumed run at the fragment where it aborts an uninterrupted one.
    #[test]
    fn checkpoint_resume_is_bit_identical_to_an_uninterrupted_run() {
        let (idx, ann, reads) = setup();
        let runner = Runner::new(&idx, AlignParams::default(), full_config()).unwrap();

        let baseline = runner.run(&reads, Some(&ann), None, None).unwrap();

        // Interrupted attempt: the monitor pulls the cancel token once 500 reads
        // are in — exactly how the cloud worker reacts to a spot notice — and
        // cancellation lands at the next batch boundary.
        let token = CancelToken::new();
        let trip = token.clone();
        let monitor = move |s: &ProgressSnapshot| {
            if s.processed >= 500 {
                trip.cancel();
            }
            MonitorVerdict::Continue
        };
        let cancelled = runner.run(&reads, Some(&ann), Some(&monitor), Some(&token)).unwrap();
        assert_eq!(cancelled.status, crate::runner::RunStatus::Cancelled { processed_reads: 500 });

        // Checkpoint survives a serialization round trip byte-for-byte.
        let ckpt = AlignCheckpoint::from_cancelled(&cancelled).unwrap();
        let bytes = ckpt.to_bytes();
        assert_eq!(bytes, ckpt.to_bytes(), "serialization is deterministic");
        let restored = AlignCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(restored, ckpt);

        let resumed = runner.run_resumed(&reads, Some(&ann), &restored, None, None).unwrap();
        assert_eq!(resumed.status, crate::runner::RunStatus::Completed);

        // Log.progress.out: the resumed run's snapshots are the uninterrupted run's
        // from the cut on, counter for counter.
        let cut = ckpt.reads_processed as usize;
        let tail: Vec<[u64; 6]> =
            baseline.history.iter().filter(|s| s.processed > cut as u64).map(counters).collect();
        assert_eq!(resumed.history.iter().map(counters).collect::<Vec<_>>(), tail, "history must match");

        // Log.final: canonical text (wall-clock rows excluded) is identical.
        assert_eq!(
            resumed.final_log.canonical_text(),
            baseline.final_log.canonical_text(),
            "Log.final must match"
        );
        // Quant: ReadsPerGene.out.tab is byte-identical.
        assert_eq!(
            resumed.gene_counts.as_ref().unwrap().to_tsv(),
            baseline.gene_counts.as_ref().unwrap().to_tsv(),
            "quant table must match"
        );
        // Junctions: SJ.out.tab is byte-identical.
        assert_eq!(
            crate::junctions::to_sj_tab(resumed.junctions.as_deref().unwrap()),
            crate::junctions::to_sj_tab(baseline.junctions.as_deref().unwrap()),
            "SJ table must match"
        );
        // SAM: the cancelled attempt's shard plus the resumed shard concatenate
        // to exactly the uninterrupted run's body.
        let shard_a = sam::sam_run_body(&reads[..cut], cancelled.alignments.as_deref().unwrap()).unwrap();
        let shard_b = sam::sam_run_body(&reads[cut..], resumed.alignments.as_deref().unwrap()).unwrap();
        let whole = sam::sam_run_body(&reads, baseline.alignments.as_deref().unwrap()).unwrap();
        assert_eq!(format!("{shard_a}{shard_b}"), whole, "SAM shards must concatenate exactly");

        // Early stopping on a resumed run: the monitor sees cumulative progress, so
        // it aborts at the same fragment as on the uninterrupted run (1 000: the
        // first boundary past 60 %, two batches after the cut).
        let stop = |s: &ProgressSnapshot| {
            if s.processed_fraction() >= 0.6 && s.mapped_fraction() >= 0.3 {
                MonitorVerdict::Abort
            } else {
                MonitorVerdict::Continue
            }
        };
        let stopped = runner.run(&reads, Some(&ann), Some(&stop), None).unwrap();
        let resumed_stopped = runner.run_resumed(&reads, Some(&ann), &restored, Some(&stop), None).unwrap();
        assert_eq!(stopped.status, crate::runner::RunStatus::EarlyStopped { processed_reads: 1000 });
        assert_eq!(resumed_stopped.status, stopped.status, "a resumed run stops where an uninterrupted one does");
        assert_eq!(counters(&resumed_stopped.final_snapshot), counters(&stopped.final_snapshot));
    }

    #[test]
    fn tampered_or_truncated_blobs_are_rejected() {
        let ckpt = AlignCheckpoint {
            reads_processed: 4,
            unique: 2,
            multi: 1,
            too_many: 0,
            unmapped: 1,
            gene_counts: None,
            junctions: None,
        };
        let bytes = ckpt.to_bytes();
        assert_eq!(AlignCheckpoint::from_bytes(&bytes).unwrap(), ckpt);

        // Flip a digit in the body: checksum catches it.
        let mut bad = bytes.clone();
        let pos = bad.iter().position(|&b| b == b'4').unwrap();
        bad[pos] = b'5';
        assert!(AlignCheckpoint::from_bytes(&bad).is_err(), "tampering must be detected");

        // Truncation loses the trailer.
        assert!(AlignCheckpoint::from_bytes(&bytes[..bytes.len() / 2]).is_err());

        // Wrong version is refused even with a valid checksum.
        let body = String::from_utf8(bytes[..bytes.len() - 21].to_vec()).unwrap();
        let future = body.replace("star-ckpt\t1", "star-ckpt\t9");
        let mut blob = future.into_bytes();
        let sum = fnv::fnv1a(fnv::OFFSET, &blob);
        blob.extend_from_slice(format!("sum\t{sum:016x}\n").as_bytes());
        let err = AlignCheckpoint::from_bytes(&blob).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn inconsistent_tallies_fail_validation() {
        let ckpt = AlignCheckpoint {
            reads_processed: 10,
            unique: 2,
            multi: 1,
            too_many: 0,
            unmapped: 1,
            gene_counts: None,
            junctions: None,
        };
        assert!(ckpt.validate().is_err());
        assert!(AlignCheckpoint::from_bytes(&ckpt.to_bytes()).is_err());
    }

    #[test]
    fn only_cancelled_runs_yield_checkpoints() {
        let (idx, ann, reads) = setup();
        let runner = Runner::new(&idx, AlignParams::default(), full_config()).unwrap();
        let done = runner.run(&reads[..250], Some(&ann), None, None).unwrap();
        assert_eq!(done.status, crate::runner::RunStatus::Completed);
        assert!(AlignCheckpoint::from_cancelled(&done).is_none());
    }

    #[test]
    fn resume_validation_rejects_mismatched_shapes() {
        let (idx, ann, reads) = setup();
        let runner = Runner::new(&idx, AlignParams::default(), full_config()).unwrap();

        // Offset beyond the input.
        let beyond = AlignCheckpoint {
            reads_processed: reads.len() as u64 + 1,
            unique: reads.len() as u64 + 1,
            multi: 0,
            too_many: 0,
            unmapped: 0,
            gene_counts: None,
            junctions: None,
        };
        assert!(runner.run_resumed(&reads, Some(&ann), &beyond, None, None).is_err());

        // Quant enabled but the checkpoint carries no partial counts.
        let quantless = AlignCheckpoint {
            reads_processed: 0,
            unique: 0,
            multi: 0,
            too_many: 0,
            unmapped: 0,
            gene_counts: None,
            junctions: None,
        };
        assert!(runner.run_resumed(&reads, Some(&ann), &quantless, None, None).is_err());
    }

    #[test]
    fn empty_checkpoint_resume_equals_a_fresh_run() {
        let (idx, ann, reads) = setup();
        let runner = Runner::new(&idx, AlignParams::default(), full_config()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let never_started = runner.run(&reads, Some(&ann), None, Some(&token)).unwrap();
        let ckpt = AlignCheckpoint::from_cancelled(&never_started).unwrap();
        assert_eq!(ckpt.reads_processed, 0);
        let resumed = runner.run_resumed(&reads, Some(&ann), &ckpt, None, None).unwrap();
        let fresh = runner.run(&reads, Some(&ann), None, None).unwrap();
        assert_eq!(resumed.final_log.canonical_text(), fresh.final_log.canonical_text());
        assert_eq!(resumed.gene_counts, fresh.gene_counts);
    }
}
