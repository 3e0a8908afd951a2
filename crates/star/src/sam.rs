//! SAM-format output (STAR's `Aligned.out.sam`).
//!
//! Renders alignment outcomes as SAM 1.6 text: `@HD`/`@SQ`/`@PG` header from the
//! genome's span table, then one record per read with the flags, 1-based position,
//! CIGAR and the STAR-style optional tags (`NH` hit count, `AS` alignment score,
//! `nM` mismatches). Unmapped reads emit flag-4 records like STAR's
//! `--outSAMunmapped Within`.

use crate::align::{cigar_string, genome_span, AlignOutcome, AlignmentRecord};
use crate::genome::PackedGenome;
use crate::pair::PairOutcome;
use crate::runner::MatePair;
use crate::StarError;
use genomics::FastqRecord;
use std::fmt::Write as _;

/// SAM flag bits.
pub mod flags {
    /// Template has multiple segments (paired).
    pub const PAIRED: u16 = 0x1;
    /// Each segment properly aligned (proper pair).
    pub const PROPER_PAIR: u16 = 0x2;
    /// Read is unmapped.
    pub const UNMAPPED: u16 = 0x4;
    /// Mate is unmapped.
    pub const MATE_UNMAPPED: u16 = 0x8;
    /// Read aligned to the reverse strand.
    pub const REVERSE: u16 = 0x10;
    /// Mate aligned to the reverse strand.
    pub const MATE_REVERSE: u16 = 0x20;
    /// First segment in the template.
    pub const FIRST: u16 = 0x40;
    /// Last segment in the template.
    pub const LAST: u16 = 0x80;
    /// Secondary alignment (not emitted: we report primaries only).
    pub const SECONDARY: u16 = 0x100;
}

/// Render the SAM header for a genome.
pub fn sam_header(genome: &PackedGenome, command_line: &str) -> String {
    let mut out = String::from("@HD\tVN:1.6\tSO:unsorted\n");
    for span in genome.spans() {
        let _ = writeln!(out, "@SQ\tSN:{}\tLN:{}", span.name, span.len);
    }
    let _ = writeln!(out, "@PG\tID:star-aligner-rs\tPN:star-aligner-rs\tCL:{command_line}");
    out
}

/// Render one read's outcome as a SAM record line (no trailing newline).
///
/// Mapped reads use the primary alignment; `TooMany` reads are written as unmapped
/// (STAR's default `--outFilterMultimapNmax` behaviour), with the true hit count
/// still visible in the `NH` tag of mapped records.
pub fn sam_record(read: &FastqRecord, outcome: &AlignOutcome) -> String {
    match outcome.primary.as_ref().filter(|_| outcome.is_mapped()) {
        Some(rec) => sam_mapped_record(read, rec),
        None => unmapped_line(read, flags::UNMAPPED),
    }
}

/// Phred+33 quality field (`*` when the read carries no qualities).
fn qual_field(read: &FastqRecord) -> String {
    if read.qual.is_empty() {
        return "*".to_string();
    }
    read.qual.iter().map(|&q| (q.min(60) + 33) as char).collect()
}

/// SEQ field: SAM stores the sequence in reference orientation.
fn seq_field(read: &FastqRecord, rec: &AlignmentRecord) -> String {
    if rec.reverse { read.seq.reverse_complement().to_string() } else { read.seq.to_string() }
}

fn unmapped_line(read: &FastqRecord, flag: u16) -> String {
    format!("{}\t{flag}\t*\t0\t0\t*\t*\t0\t0\t{}\t{}\tuT:A:1", read.id, read.seq, qual_field(read))
}

/// Render a mapped read's primary alignment as a SAM line (no trailing newline).
/// The mapped arm of [`sam_record`], usable directly from the records a run
/// keeps (`record_alignments`), where the outcome classification is implicit.
pub fn sam_mapped_record(read: &FastqRecord, rec: &AlignmentRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t*\t0\t0\t{}\t{}\tNH:i:{}\tAS:i:{}\tnM:i:{}",
        read.id,
        if rec.reverse { flags::REVERSE } else { 0 },
        rec.contig,
        rec.pos + 1, // SAM is 1-based
        rec.mapq,
        cigar_string(&rec.cigar),
        seq_field(read, rec),
        qual_field(read),
        rec.n_hits,
        rec.score,
        rec.mismatches,
    )
}

fn unknown_read(rec: &AlignmentRecord) -> StarError {
    StarError::InvalidParams(format!("alignment record for unknown read {:?}", rec.read_id))
}

/// Render the whole `Aligned.out.sam` body of a single-end run from what that run
/// kept: `reads` is its input and `kept` its `record_alignments` output (mapped
/// reads only, input order), so walking the two together gives every read its line
/// — the kept alignment, or a flag-4 record — without aligning anything twice.
/// Byte-equal to `sam_record(read, &aligner.align_read(read))` per read. A kept
/// record that matches no read in order is an error. A checkpointed run renders in
/// shards: the interrupted attempt's body over `reads[..cut]` and the resumed one's
/// over `reads[cut..]` concatenate to the uninterrupted run's body.
pub fn sam_run_body(reads: &[FastqRecord], kept: &[AlignmentRecord]) -> Result<String, StarError> {
    let mut kept = kept.iter().peekable();
    let mut out = String::new();
    for read in reads {
        let line = match kept.next_if(|rec| rec.read_id == read.id) {
            Some(rec) => sam_mapped_record(read, rec),
            None => unmapped_line(read, flags::UNMAPPED),
        };
        out.push_str(&line);
        out.push('\n');
    }
    kept.next().map_or(Ok(out), |rec| Err(unknown_read(rec)))
}

/// [`sam_run_body`] for a paired run: two lines per pair, from the mate records the
/// run kept (both mates of every mapped pair, input order). Byte-equal to
/// `sam_pair_records(r1, r2, &aligner.align_pair(r1, r2))` per pair.
pub fn sam_run_pair_body<P: MatePair>(pairs: &[P], kept: &[AlignmentRecord]) -> Result<String, StarError> {
    let (kept, odd) = kept.as_chunks::<2>();
    if let Some(rec) = odd.first() {
        return Err(unknown_read(rec));
    }
    let mut kept = kept.iter().peekable();
    let mut out = String::new();
    for pair in pairs {
        let (r1, r2) = pair.mates();
        let mates = kept.next_if(|[a, b]| a.read_id == r1.id && b.read_id == r2.id);
        let (l1, l2) = pair_lines(r1, r2, mates.map(|[a, b]| (a, b)));
        out.push_str(&l1);
        out.push('\n');
        out.push_str(&l2);
        out.push('\n');
    }
    kept.next().map_or(Ok(out), |[rec, _]| Err(unknown_read(rec)))
}

/// Render a read pair's outcome as two SAM record lines.
///
/// Unmapped pairs emit two flag-4 records (mate-unmapped set on both).
pub fn sam_pair_records(r1: &FastqRecord, r2: &FastqRecord, outcome: &PairOutcome) -> (String, String) {
    let mates = outcome.rec1.as_ref().zip(outcome.rec2.as_ref());
    pair_lines(r1, r2, mates.filter(|_| outcome.is_mapped()))
}

fn pair_lines(
    r1: &FastqRecord,
    r2: &FastqRecord,
    mates: Option<(&AlignmentRecord, &AlignmentRecord)>,
) -> (String, String) {
    match mates {
        Some((a, b)) => {
            (pair_line(r1, a, b, flags::FIRST), pair_line(r2, b, a, flags::LAST))
        }
        None => {
            let flag = flags::PAIRED | flags::UNMAPPED | flags::MATE_UNMAPPED;
            (unmapped_line(r1, flag | flags::FIRST), unmapped_line(r2, flag | flags::LAST))
        }
    }
}

fn pair_line(read: &FastqRecord, rec: &AlignmentRecord, mate: &AlignmentRecord, which: u16) -> String {
    let mut flag = flags::PAIRED | flags::PROPER_PAIR | which;
    if rec.reverse {
        flag |= flags::REVERSE;
    }
    if mate.reverse {
        flag |= flags::MATE_REVERSE;
    }
    let rnext = if mate.contig == rec.contig { "=" } else { &*mate.contig };
    // TLEN: the outer fragment length, forward mate's start to reverse mate's end
    // (what pairing accepted as the insert size); positive on the leftmost mate.
    let (fwd, rev) = if rec.reverse { (mate, rec) } else { (rec, mate) };
    let insert = (rev.pos + genome_span(&rev.cigar)).saturating_sub(fwd.pos) as i64;
    let tlen = if rec.pos <= mate.pos { insert } else { -insert };
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\tNH:i:{}\tAS:i:{}\tnM:i:{}",
        read.id,
        flag,
        rec.contig,
        rec.pos + 1,
        rec.mapq,
        cigar_string(&rec.cigar),
        rnext,
        mate.pos + 1,
        tlen,
        seq_field(read, rec),
        qual_field(read),
        rec.n_hits,
        rec.score,
        rec.mismatches,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::Aligner;
    use crate::index::{IndexParams, StarIndex};
    use crate::AlignParams;
    use genomics::{Annotation, Assembly, Contig, ContigKind, DnaSeq};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn index() -> (DnaSeq, StarIndex) {
        let chr = DnaSeq::random(&mut StdRng::seed_from_u64(4), 3000);
        let asm = Assembly {
            name: "T".into(),
            release: 111,
            contigs: vec![Contig { name: "1".into(), kind: ContigKind::Chromosome, seq: chr.clone() }],
        };
        (chr, StarIndex::build(&asm, &Annotation::default(), &IndexParams::default()).unwrap())
    }

    #[test]
    fn header_lists_every_contig() {
        let (_, idx) = index();
        let h = sam_header(idx.genome(), "star-sim alignReads");
        assert!(h.starts_with("@HD\tVN:1.6"));
        assert!(h.contains("@SQ\tSN:1\tLN:3000"));
        assert!(h.contains("@PG\tID:star-aligner-rs"));
        assert!(h.contains("CL:star-sim alignReads"));
    }

    #[test]
    fn mapped_record_has_one_based_pos_and_tags() {
        let (chr, idx) = index();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let read = FastqRecord::with_uniform_quality("r1".into(), chr.subseq(500, 600), 35);
        let out = aligner.align_read(&read);
        let line = sam_record(&read, &out);
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols[0], "r1");
        assert_eq!(cols[1], "0");
        assert_eq!(cols[2], "1");
        assert_eq!(cols[3], "501", "SAM position is 1-based");
        assert_eq!(cols[4], "255");
        assert_eq!(cols[5], "100M");
        assert_eq!(cols[9].len(), 100);
        assert!(line.contains("NH:i:1"));
        assert!(line.contains("AS:i:100"));
        assert!(line.contains("nM:i:0"));
    }

    #[test]
    fn reverse_read_is_flagged_and_reference_oriented() {
        let (chr, idx) = index();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let fwd = chr.subseq(800, 900);
        let read = FastqRecord::with_uniform_quality("r2".into(), fwd.reverse_complement(), 35);
        let out = aligner.align_read(&read);
        let line = sam_record(&read, &out);
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols[1], "16", "reverse flag");
        assert_eq!(cols[9], fwd.to_string(), "SEQ stored in reference orientation");
    }

    #[test]
    fn unmapped_record_uses_flag_4() {
        let (_, idx) = index();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let read = FastqRecord::with_uniform_quality(
            "junk".into(),
            DnaSeq::from_codes(vec![0; 100]),
            35,
        );
        let out = aligner.align_read(&read);
        let line = sam_record(&read, &out);
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols[1], "4");
        assert_eq!(cols[2], "*");
        assert_eq!(cols[3], "0");
        assert!(line.contains("uT:A:1"));
    }

    #[test]
    fn pair_records_carry_mate_fields_and_tlen() {
        let (chr, idx) = index();
        let aligner = Aligner::new(&idx, AlignParams::default());
        // Fragment [1000, 1250): r1 fwd at 1000, r2 rc at 1150.
        let r1 = FastqRecord::with_uniform_quality("p/1".into(), chr.subseq(1000, 1100), 35);
        let r2 = FastqRecord::with_uniform_quality(
            "p/2".into(),
            chr.subseq(1150, 1250).reverse_complement(),
            35,
        );
        let out = aligner.align_pair(&r1, &r2);
        assert!(out.is_mapped());
        let (l1, l2) = sam_pair_records(&r1, &r2, &out);
        let c1: Vec<&str> = l1.split('\t').collect();
        let c2: Vec<&str> = l2.split('\t').collect();
        // Flags: paired+proper+first (+ mate reverse) = 0x1|0x2|0x40|0x20 = 99.
        assert_eq!(c1[1], "99");
        // Mate 2: paired+proper+last+reverse = 0x1|0x2|0x80|0x10 = 147.
        assert_eq!(c2[1], "147");
        assert_eq!(c1[6], "=", "RNEXT same contig");
        assert_eq!(c1[7], "1151", "PNEXT is mate pos, 1-based");
        assert_eq!(c1[8], "250", "TLEN positive on leftmost mate");
        assert_eq!(c2[8], "-250");
    }

    #[test]
    fn unmapped_pair_records_flag_both_mates() {
        let (_, idx) = index();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let junk = DnaSeq::from_codes(vec![0; 100]);
        let r1 = FastqRecord::with_uniform_quality("j/1".into(), junk.clone(), 35);
        let r2 = FastqRecord::with_uniform_quality("j/2".into(), junk, 35);
        let out = aligner.align_pair(&r1, &r2);
        let (l1, l2) = sam_pair_records(&r1, &r2, &out);
        let f1: u16 = l1.split('\t').nth(1).unwrap().parse().unwrap();
        let f2: u16 = l2.split('\t').nth(1).unwrap().parse().unwrap();
        assert_eq!(f1, 0x1 | 0x4 | 0x8 | 0x40);
        assert_eq!(f2, 0x1 | 0x4 | 0x8 | 0x80);
    }

    #[test]
    fn quality_string_is_phred33() {
        let (chr, idx) = index();
        let aligner = Aligner::new(&idx, AlignParams::default());
        let read = FastqRecord::with_uniform_quality("r3".into(), chr.subseq(0, 100), 40);
        let out = aligner.align_read(&read);
        let line = sam_record(&read, &out);
        let cols: Vec<&str> = line.split('\t').collect();
        assert!(cols[10].chars().all(|c| c == 'I'), "Q40 encodes as 'I'");
    }
}
