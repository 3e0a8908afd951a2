//! Minimal FASTQ reader/writer.
//!
//! FASTQ is the hand-off format between `fasterq-dump` and STAR (pipeline steps 2→3).
//! Quality scores use the Sanger/Illumina 1.8+ Phred+33 encoding.

use crate::seq::{Base, DnaSeq};
use crate::GenomicsError;
use std::io::{BufRead, Write};

/// Phred+33 offset used by modern Illumina FASTQ.
pub const PHRED_OFFSET: u8 = 33;
/// Highest Phred score we emit (`'I'` = Q40), matching Illumina RTA3 binning.
pub const MAX_PHRED: u8 = 40;

/// One FASTQ record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read identifier (text after `@`, up to end of line).
    pub id: String,
    /// Base calls.
    pub seq: DnaSeq,
    /// Per-base Phred quality scores (NOT ASCII-encoded; encoding happens on write).
    pub qual: Vec<u8>,
}

impl FastqRecord {
    /// Construct with a uniform quality score applied to every base.
    pub fn with_uniform_quality(id: String, seq: DnaSeq, phred: u8) -> FastqRecord {
        let qual = vec![phred.min(MAX_PHRED); seq.len()];
        FastqRecord { id, seq, qual }
    }

    /// Mean Phred quality of the read (0 for an empty read).
    pub fn mean_quality(&self) -> f64 {
        if self.qual.is_empty() {
            return 0.0;
        }
        self.qual.iter().map(|&q| q as f64).sum::<f64>() / self.qual.len() as f64
    }

    /// Bytes [`write_fastq`] writes for this record: `@id\n`, `seq\n`, `+\n`,
    /// `qual\n`. The one FASTQ size count: the dump's output volume and Fig. 3's file
    /// weights both sum it.
    pub fn fastq_bytes(&self) -> u64 {
        (self.id.len() + self.seq.len() + self.qual.len() + 6) as u64
    }
}

/// Read all records from a FASTQ stream.
pub fn read_fastq<R: BufRead>(reader: R) -> Result<Vec<FastqRecord>, GenomicsError> {
    let mut lines = reader.lines();
    let mut records = Vec::new();
    loop {
        let head = match lines.next() {
            None => break,
            Some(l) => l?,
        };
        if head.trim().is_empty() {
            continue;
        }
        let id = head
            .strip_prefix('@')
            .ok_or_else(|| GenomicsError::Format(format!("expected '@' header, got {head:?}")))?
            .to_string();
        let seq_line = next_line(&mut lines, "sequence")?;
        let plus = next_line(&mut lines, "'+' separator")?;
        if !plus.starts_with('+') {
            return Err(GenomicsError::Format(format!("expected '+' separator, got {plus:?}")));
        }
        let qual_line = next_line(&mut lines, "quality")?;
        if qual_line.len() != seq_line.len() {
            return Err(GenomicsError::Format(format!(
                "quality length {} != sequence length {} for read {id}",
                qual_line.len(),
                seq_line.len()
            )));
        }
        let mut seq = DnaSeq::with_capacity(seq_line.len());
        for c in seq_line.chars() {
            match Base::from_char(c) {
                Some(b) => seq.push(b),
                // Ns in reads are substituted like the FASTA reader does.
                None if c.is_ascii_alphabetic() => seq.push(Base::A),
                None => return Err(GenomicsError::InvalidBase(c)),
            }
        }
        let qual = qual_line
            .bytes()
            .map(|b| {
                b.checked_sub(PHRED_OFFSET)
                    .ok_or_else(|| GenomicsError::Format(format!("quality char below '!' in read {id}")))
            })
            .collect::<Result<Vec<u8>, _>>()?;
        records.push(FastqRecord { id, seq, qual });
    }
    Ok(records)
}

fn next_line<I: Iterator<Item = std::io::Result<String>>>(
    lines: &mut I,
    what: &str,
) -> Result<String, GenomicsError> {
    match lines.next() {
        Some(l) => Ok(l?),
        None => Err(GenomicsError::Format(format!("truncated record: missing {what} line"))),
    }
}

/// Write records in 4-line FASTQ format.
pub fn write_fastq<W: Write>(mut w: W, records: &[FastqRecord]) -> Result<(), GenomicsError> {
    for rec in records {
        debug_assert_eq!(rec.seq.len(), rec.qual.len(), "seq/qual length mismatch");
        writeln!(w, "@{}", rec.id)?;
        writeln!(w, "{}", rec.seq)?;
        writeln!(w, "+")?;
        let encoded: Vec<u8> = rec.qual.iter().map(|&q| q.min(MAX_PHRED + 2) + PHRED_OFFSET).collect();
        w.write_all(&encoded)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_records() {
        let recs = vec![
            FastqRecord::with_uniform_quality("r1 extra".into(), "ACGT".parse().unwrap(), 30),
            FastqRecord { id: "r2".into(), seq: "GG".parse().unwrap(), qual: vec![0, 40] },
        ];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &recs).unwrap();
        let back = read_fastq(Cursor::new(&buf)).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn rejects_malformed_records() {
        // Missing quality line.
        assert!(read_fastq(Cursor::new(b"@r\nACGT\n+\n".as_slice())).is_err());
        // Wrong separator.
        assert!(read_fastq(Cursor::new(b"@r\nACGT\n-\nIIII\n".as_slice())).is_err());
        // Quality/sequence length mismatch.
        assert!(read_fastq(Cursor::new(b"@r\nACGT\n+\nIII\n".as_slice())).is_err());
        // Header without '@'.
        assert!(read_fastq(Cursor::new(b"r\nACGT\n+\nIIII\n".as_slice())).is_err());
    }

    #[test]
    fn substitutes_n_in_reads() {
        let recs = read_fastq(Cursor::new(b"@r\nACNT\n+\nIIII\n".as_slice())).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACAT");
    }

    #[test]
    fn mean_quality_is_arithmetic_mean() {
        let r = FastqRecord { id: "x".into(), seq: "AC".parse().unwrap(), qual: vec![10, 30] };
        assert!((r.mean_quality() - 20.0).abs() < 1e-12);
        let empty = FastqRecord { id: "e".into(), seq: DnaSeq::new(), qual: vec![] };
        assert_eq!(empty.mean_quality(), 0.0);
    }

    #[test]
    fn fastq_bytes_is_what_write_fastq_writes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        for id_len in [0, 1, 7, 12, 40] {
            for read_len in [0, 1, 99, 100, 151] {
                let id: String = (0..id_len).map(|_| rng.gen_range(b'!'..=b'~') as char).collect();
                let qual = (0..read_len).map(|_| rng.gen_range(0..=60u8)).collect();
                let rec = FastqRecord { id, seq: DnaSeq::random(&mut rng, read_len), qual };
                let mut buf = Vec::new();
                write_fastq(&mut buf, std::slice::from_ref(&rec)).unwrap();
                assert_eq!(rec.fastq_bytes(), buf.len() as u64, "id {id_len} read {read_len}");
            }
        }
    }

    #[test]
    fn skips_blank_lines_between_records() {
        let recs = read_fastq(Cursor::new(b"@a\nAC\n+\nII\n\n@b\nGT\n+\nII\n".as_slice())).unwrap();
        assert_eq!(recs.len(), 2);
    }
}
