//! SRA-lite binary container.
//!
//! A compact format standing in for NCBI's `.sra`: fixed header, then per-read
//! records with 2-bit packed bases and a single representative quality byte (real SRA
//! also column-compresses qualities; one byte preserves the size *shape*: packed
//! archives re-expand ~8× when dumped to FASTQ, which is what makes `fasterq-dump` a
//! real pipeline stage worth modeling).
//!
//! The codec is by hand and needs no cursor. One writer (`ArchiveWriter`, behind
//! `encode*` and `SraRepository::fetch`) pushes little-endian fields into the
//! `Vec<u8>` the archive then owns; the header is a fixed [`HEADER_SIZE`] bytes, so
//! `from_bytes` reads it at constant offsets. One decoder (`record`, behind
//! `decode_read` and `FasterqDump::run`) unpacks a read through a byte → four-codes
//! table.

use crate::accession::{LibraryLayout, LibraryStrategy};
use crate::SraError;
use genomics::{DnaSeq, FastqRecord};

/// Magic bytes opening every archive.
pub const MAGIC: &[u8; 8] = b"SRALITE2";
/// Fixed header size in bytes (magic + strategy + layout + reads + read_len + id
/// length slot).
pub const HEADER_SIZE: usize = 8 + 1 + 1 + 8 + 4 + 4;
/// Longest accession id, in bytes, an archive can carry: `encode*` refuses a longer
/// one and `from_bytes` refuses a header that claims one.
pub const MAX_ID_LEN: usize = 256;

/// A decoded-on-demand SRA archive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SraArchive {
    /// Accession id this archive belongs to.
    pub accession: String,
    /// Library strategy recorded in the header.
    pub strategy: LibraryStrategy,
    /// Library layout (paired archives store mates interleaved: r1, r2, r1, r2...).
    pub layout: LibraryLayout,
    /// Read length (uniform; the simulators emit fixed-length reads).
    pub read_len: u32,
    /// The encoded payload.
    blob: Vec<u8>,
}

impl SraArchive {
    /// Encode single-end reads into an archive. All reads must share `read_len` bases.
    pub fn encode(
        accession: &str,
        strategy: LibraryStrategy,
        reads: &[FastqRecord],
    ) -> Result<SraArchive, SraError> {
        Self::encode_with_layout(accession, strategy, LibraryLayout::Single, reads.iter())
    }

    /// Encode paired-end reads: mates are stored interleaved (r1, r2 per spot).
    pub fn encode_paired(
        accession: &str,
        strategy: LibraryStrategy,
        pairs: &[(FastqRecord, FastqRecord)],
    ) -> Result<SraArchive, SraError> {
        let mates = pairs.iter().flat_map(|(r1, r2)| [r1, r2]);
        Self::encode_with_layout(accession, strategy, LibraryLayout::Paired, mates)
    }

    fn encode_with_layout<'a>(
        accession: &str,
        strategy: LibraryStrategy,
        layout: LibraryLayout,
        reads: impl Iterator<Item = &'a FastqRecord> + Clone,
    ) -> Result<SraArchive, SraError> {
        let read_len = reads.clone().next().map_or(0, |r| r.seq.len());
        let mut writer =
            ArchiveWriter::new(accession, strategy, layout, read_len, reads.clone().count())?;
        if reads.clone().any(|r| r.seq.len() != read_len) {
            return Err(SraError::InvalidParams("reads must have uniform length".into()));
        }
        for r in reads {
            writer.push(r.seq.codes(), quality_byte(&r.qual));
        }
        Ok(writer.finish())
    }

    /// Wrap raw bytes (e.g. fetched from the object store), validating the header.
    pub fn from_bytes(blob: Vec<u8>) -> Result<SraArchive, SraError> {
        let Some((header, rest)) = blob.split_first_chunk::<HEADER_SIZE>() else {
            return Err(SraError::CorruptArchive("truncated header".into()));
        };
        if &header[..8] != MAGIC {
            return Err(SraError::CorruptArchive("bad magic".into()));
        }
        let strategy = strategy_from_code(header[8])?;
        let layout = match header[9] {
            0 => LibraryLayout::Single,
            1 => LibraryLayout::Paired,
            other => return Err(SraError::CorruptArchive(format!("layout code {other}"))),
        };
        let n_reads = u64::from_le_bytes(header[10..18].try_into().expect("8 header bytes"));
        let read_len = u32::from_le_bytes(header[18..22].try_into().expect("4 header bytes"));
        let id_len =
            u32::from_le_bytes(header[22..26].try_into().expect("4 header bytes")) as usize;
        if id_len > MAX_ID_LEN || rest.len() < id_len {
            return Err(SraError::CorruptArchive("bad id length".into()));
        }
        let (id, payload) = rest.split_at(id_len);
        let accession = std::str::from_utf8(id)
            .map_err(|_| SraError::CorruptArchive("non-utf8 accession".into()))?
            .to_string();
        let per_read = (read_len as usize).div_ceil(4) + 1;
        if n_reads.checked_mul(per_read as u64) != Some(payload.len() as u64) {
            return Err(SraError::CorruptArchive(format!(
                "payload is {} bytes, not {n_reads} reads of {per_read}",
                payload.len()
            )));
        }
        if layout == LibraryLayout::Paired && !n_reads.is_multiple_of(2) {
            return Err(SraError::CorruptArchive("paired archive with odd read count".into()));
        }
        Ok(SraArchive { accession, strategy, layout, read_len, blob })
    }

    /// Reads per spot under this archive's layout.
    fn reads_per_spot(&self) -> u64 {
        match self.layout {
            LibraryLayout::Single => 1,
            LibraryLayout::Paired => 2,
        }
    }

    /// Bytes one read occupies in the payload: its packed bases, then its quality.
    fn bytes_per_read(&self) -> usize {
        (self.read_len as usize).div_ceil(4) + 1
    }

    /// Total reads stored (mates count individually).
    pub fn n_reads(&self) -> u64 {
        let payload = self.blob.len() - HEADER_SIZE - self.accession.len();
        (payload / self.bytes_per_read()) as u64
    }

    /// Number of spots stored (single: reads; paired: mate pairs).
    pub fn spots(&self) -> u64 {
        self.n_reads() / self.reads_per_spot()
    }

    /// Total archive size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.blob.len() as u64
    }

    /// The raw bytes (for storing in the object store).
    pub fn bytes(&self) -> &[u8] {
        &self.blob
    }

    /// Decode the read at flat index `i` (0-based; paired archives interleave mates).
    pub fn decode_read(&self, i: u64) -> Result<FastqRecord, SraError> {
        if i >= self.n_reads() {
            return Err(SraError::CorruptArchive(format!("read index {i} out of range")));
        }
        Ok(self.record(i))
    }

    /// The read at flat index `i < n_reads()`: the one decoder behind
    /// [`SraArchive::decode_read`] and [`crate::FasterqDump::run`]. It cannot fail,
    /// because every archive was checked whole when it was made (`from_bytes` or the
    /// writer). It makes three allocations — id, bases, qualities — each exactly sized.
    pub(crate) fn record(&self, i: u64) -> FastqRecord {
        let read_len = self.read_len as usize;
        let per_read = self.bytes_per_read();
        let at = HEADER_SIZE + self.accession.len() + i as usize * per_read;
        let (packed, quality) = (&self.blob[at..at + per_read - 1], self.blob[at + per_read - 1]);
        let (whole, tail) = packed.split_at(read_len / 4);
        let mut codes = Vec::with_capacity(read_len);
        for &byte in whole {
            codes.extend_from_slice(&UNPACK[byte as usize]);
        }
        if let Some(&byte) = tail.first() {
            codes.extend_from_slice(&UNPACK[byte as usize][..read_len % 4]);
        }
        FastqRecord::with_uniform_quality(self.read_id(i), DnaSeq::from_codes(codes), quality)
    }

    /// `{accession}.{spot}` for a single-end read, `{accession}.{spot}/{mate}` for a
    /// mate; spots and mates count from 1.
    fn read_id(&self, i: u64) -> String {
        let (spot, mate) = match self.layout {
            LibraryLayout::Single => (i + 1, None),
            LibraryLayout::Paired => (i / 2 + 1, Some(i % 2 + 1)),
        };
        let mut digits = [0u8; 20];
        let mut first = digits.len();
        let mut rest = spot;
        loop {
            first -= 1;
            digits[first] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let digits = &digits[first..];
        let mate_len = if mate.is_some() { 2 } else { 0 };
        let mut id = String::with_capacity(self.accession.len() + 1 + digits.len() + mate_len);
        id.push_str(&self.accession);
        id.push('.');
        digits.iter().for_each(|&d| id.push(d as char));
        if let Some(mate) = mate {
            id.push('/');
            id.push((b'0' + mate as u8) as char);
        }
        id
    }

    /// Decode the mate pair at spot `i` (paired archives only).
    pub fn decode_pair(&self, i: u64) -> Result<(FastqRecord, FastqRecord), SraError> {
        if self.layout != LibraryLayout::Paired {
            return Err(SraError::InvalidParams("decode_pair on a single-end archive".into()));
        }
        Ok((self.decode_read(2 * i)?, self.decode_read(2 * i + 1)?))
    }

    /// Decode every read (see [`crate::fasterq_dump`] for the parallel tool model).
    pub fn decode_all(&self) -> Result<Vec<FastqRecord>, SraError> {
        Ok((0..self.n_reads()).map(|i| self.record(i)).collect())
    }

    /// Decode every mate pair (paired archives only).
    pub fn decode_all_pairs(&self) -> Result<Vec<(FastqRecord, FastqRecord)>, SraError> {
        (0..self.spots()).map(|i| self.decode_pair(i)).collect()
    }
}

/// Writes an archive read by read: the one encoder behind [`SraArchive::encode`],
/// [`SraArchive::encode_paired`] and [`crate::SraRepository::fetch`], which packs
/// simulated bases straight in without building a record.
pub(crate) struct ArchiveWriter {
    archive: SraArchive,
    reads_left: usize,
}

impl ArchiveWriter {
    /// Write the header of an archive of `n_reads` reads of `read_len` bases. An
    /// archive without reads records a read length of 0.
    pub(crate) fn new(
        accession: &str,
        strategy: LibraryStrategy,
        layout: LibraryLayout,
        read_len: usize,
        n_reads: usize,
    ) -> Result<ArchiveWriter, SraError> {
        if accession.len() > MAX_ID_LEN {
            return Err(SraError::InvalidParams(format!(
                "accession id is {} bytes, an archive holds at most {MAX_ID_LEN}",
                accession.len()
            )));
        }
        let read_len = u32::try_from(if n_reads == 0 { 0 } else { read_len })
            .map_err(|_| SraError::InvalidParams(format!("reads of {read_len} bases")))?;
        let payload = n_reads * ((read_len as usize).div_ceil(4) + 1);
        let mut blob = Vec::with_capacity(HEADER_SIZE + accession.len() + payload);
        blob.extend_from_slice(MAGIC);
        blob.push(strategy_code(strategy));
        blob.push(match layout {
            LibraryLayout::Single => 0,
            LibraryLayout::Paired => 1,
        });
        blob.extend_from_slice(&(n_reads as u64).to_le_bytes());
        blob.extend_from_slice(&read_len.to_le_bytes());
        blob.extend_from_slice(&(accession.len() as u32).to_le_bytes());
        blob.extend_from_slice(accession.as_bytes());
        let archive = SraArchive { accession: accession.to_string(), strategy, layout, read_len, blob };
        Ok(ArchiveWriter { archive, reads_left: n_reads })
    }

    /// Append one read: its base codes packed four to a byte, the first base in the
    /// low bits and a short tail zero-padded, then its representative quality.
    pub(crate) fn push(&mut self, codes: &[u8], quality: u8) {
        assert!(
            self.reads_left > 0 && codes.len() == self.archive.read_len as usize,
            "read of {} bases pushed to an archive of {}-base reads with {} to go",
            codes.len(),
            self.archive.read_len,
            self.reads_left
        );
        self.reads_left -= 1;
        let blob = &mut self.archive.blob;
        let (whole, tail) = codes.as_chunks::<4>();
        blob.extend(whole.iter().map(|&[a, b, c, d]| a | b << 2 | c << 4 | d << 6));
        if !tail.is_empty() {
            blob.push(tail.iter().rev().fold(0, |byte, &code| byte << 2 | code));
        }
        blob.push(quality);
    }

    /// The archive, once every read the header counts is written.
    pub(crate) fn finish(self) -> SraArchive {
        assert_eq!(self.reads_left, 0, "archive finished short of its header's read count");
        self.archive
    }
}

/// A record's representative quality: its mean Phred score, rounded. A sum of `u8`s
/// is exact in `f64`, so this is bit-equal to `FastqRecord::mean_quality().round()`.
fn quality_byte(qual: &[u8]) -> u8 {
    if qual.is_empty() {
        return 0;
    }
    let sum: u64 = qual.iter().map(|&q| q as u64).sum();
    (sum as f64 / qual.len() as f64).round() as u8
}

/// Each byte's four base codes, first base in the low bits.
const UNPACK: [[u8; 4]; 256] = {
    let mut table = [[0; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let b = byte as u8;
        table[byte] = [b & 3, b >> 2 & 3, b >> 4 & 3, b >> 6];
        byte += 1;
    }
    table
};

fn strategy_code(s: LibraryStrategy) -> u8 {
    match s {
        LibraryStrategy::RnaSeqBulk => 0,
        LibraryStrategy::SingleCell => 1,
    }
}

fn strategy_from_code(c: u8) -> Result<LibraryStrategy, SraError> {
    match c {
        0 => Ok(LibraryStrategy::RnaSeqBulk),
        1 => Ok(LibraryStrategy::SingleCell),
        other => Err(SraError::CorruptArchive(format!("strategy code {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accession::CONTENT_SEED_PRIME;
    use genomics::fnv::{fnv1a_with_prime, OFFSET};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reads(n: usize, len: usize, seed: u64) -> Vec<FastqRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                FastqRecord::with_uniform_quality(
                    format!("SRRX.{}", i + 1),
                    DnaSeq::random(&mut rng, len),
                    35,
                )
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trips_sequences() {
        let rs = reads(50, 100, 1);
        let arc = SraArchive::encode("SRRX", LibraryStrategy::RnaSeqBulk, &rs).unwrap();
        assert_eq!(arc.spots(), 50);
        let back = arc.decode_all().unwrap();
        for (orig, dec) in rs.iter().zip(&back) {
            assert_eq!(dec.seq, orig.seq);
            assert_eq!(dec.id, orig.id);
            assert_eq!(dec.qual[0], 35);
        }
    }

    #[test]
    fn handles_read_lengths_not_divisible_by_four() {
        for len in [1usize, 3, 5, 99, 101] {
            let rs = reads(7, len, len as u64);
            let arc = SraArchive::encode("S", LibraryStrategy::SingleCell, &rs).unwrap();
            let back = arc.decode_all().unwrap();
            assert_eq!(back.len(), 7);
            for (o, d) in rs.iter().zip(&back) {
                assert_eq!(o.seq, d.seq, "len {len}");
            }
        }
    }

    #[test]
    fn from_bytes_validates_and_round_trips() {
        let rs = reads(10, 100, 2);
        let arc = SraArchive::encode("SRRY", LibraryStrategy::SingleCell, &rs).unwrap();
        let again = SraArchive::from_bytes(arc.bytes().to_vec()).unwrap();
        assert_eq!(again, arc);
        assert_eq!(again.strategy, LibraryStrategy::SingleCell);

        // Corrupt magic.
        let mut bad = arc.bytes().to_vec();
        bad[0] = b'X';
        assert!(SraArchive::from_bytes(bad).is_err());
        // Truncated payload.
        let bad = arc.bytes()[..arc.bytes().len() - 3].to_vec();
        assert!(SraArchive::from_bytes(bad).is_err());
        // Bad strategy code.
        let mut bad = arc.bytes().to_vec();
        bad[8] = 9;
        assert!(SraArchive::from_bytes(bad).is_err());
        // Bad layout code.
        let mut bad = arc.bytes().to_vec();
        bad[9] = 7;
        assert!(SraArchive::from_bytes(bad).is_err());
    }

    /// The container's bytes are a format other tools could hold on disk: field order,
    /// widths, endianness and both 2-bit tails (99 bases pad the last byte, 100 fill it)
    /// are pinned here, because every other test is a round trip a reordered field passes.
    #[test]
    fn encoded_bytes_are_pinned() {
        let single = SraArchive::encode("SRRPIN1", LibraryStrategy::SingleCell, &reads(12, 99, 23)).unwrap();
        let mates = reads(12, 100, 24);
        let pairs: Vec<(FastqRecord, FastqRecord)> =
            mates.chunks(2).map(|w| (w[0].clone(), w[1].clone())).collect();
        let paired = SraArchive::encode_paired("SRRPIN2", LibraryStrategy::RnaSeqBulk, &pairs).unwrap();
        let digest = |bytes: &[u8]| fnv1a_with_prime(OFFSET, CONTENT_SEED_PRIME, bytes);
        let seen = [&single, &paired].map(|arc| (arc.bytes().len(), digest(&arc.bytes())));
        assert_eq!(seen, [(345, 0xcc7f_bce7_75ff_14d6), (345, 0x00cd_a142_0acf_7305)], "{seen:#x?}");
    }

    #[test]
    fn encode_refuses_the_ids_from_bytes_refuses() {
        let rs = reads(4, 99, 6);
        let pairs = [(rs[0].clone(), rs[1].clone()), (rs[2].clone(), rs[3].clone())];
        for id_len in [0, 1, MAX_ID_LEN, MAX_ID_LEN + 1, 70_000] {
            let id = "A".repeat(id_len);
            let both = [
                SraArchive::encode(&id, LibraryStrategy::RnaSeqBulk, &rs),
                SraArchive::encode_paired(&id, LibraryStrategy::SingleCell, &pairs),
            ];
            for encoded in both {
                match encoded {
                    Ok(arc) => {
                        assert!(id_len <= MAX_ID_LEN, "id of {id_len} bytes encoded");
                        assert_eq!(SraArchive::from_bytes(arc.bytes().to_vec()).unwrap(), arc);
                    }
                    Err(e) => {
                        assert!(id_len > MAX_ID_LEN, "id of {id_len} bytes refused: {e}");
                        assert!(matches!(e, SraError::InvalidParams(_)), "{e}");
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_nonuniform_reads() {
        let mut rs = reads(3, 100, 3);
        rs.push(FastqRecord::with_uniform_quality("x".into(), "ACGT".parse().unwrap(), 30));
        assert!(SraArchive::encode("S", LibraryStrategy::RnaSeqBulk, &rs).is_err());
    }

    #[test]
    fn empty_archive_is_fine() {
        let arc = SraArchive::encode("S", LibraryStrategy::RnaSeqBulk, &[]).unwrap();
        assert_eq!(arc.spots(), 0);
        assert!(arc.decode_all().unwrap().is_empty());
        assert!(arc.decode_read(0).is_err());
    }

    #[test]
    fn paired_archive_round_trips_mates() {
        let rs = reads(40, 100, 9);
        let pairs: Vec<(FastqRecord, FastqRecord)> =
            rs.chunks(2).map(|w| (w[0].clone(), w[1].clone())).collect();
        let arc = SraArchive::encode_paired("SRRP", LibraryStrategy::RnaSeqBulk, &pairs).unwrap();
        assert_eq!(arc.layout, LibraryLayout::Paired);
        assert_eq!(arc.spots(), 20);
        assert_eq!(arc.n_reads(), 40);
        let back = arc.decode_all_pairs().unwrap();
        for ((o1, o2), (d1, d2)) in pairs.iter().zip(&back) {
            assert_eq!(o1.seq, d1.seq);
            assert_eq!(o2.seq, d2.seq);
        }
        assert!(back[0].0.id.ends_with(".1/1"));
        assert!(back[0].1.id.ends_with(".1/2"));
        // decode_pair on single-end errors.
        let single = SraArchive::encode("S", LibraryStrategy::RnaSeqBulk, &rs).unwrap();
        assert!(single.decode_pair(0).is_err());
        // Round trip through bytes keeps layout.
        let again = SraArchive::from_bytes(arc.bytes().to_vec()).unwrap();
        assert_eq!(again.layout, LibraryLayout::Paired);
        assert_eq!(again.spots(), 20);
    }

    #[test]
    fn size_matches_meta_formula() {
        use crate::accession::AccessionMeta;
        let rs = reads(100, 100, 4);
        let arc = SraArchive::encode("SRRZ", LibraryStrategy::RnaSeqBulk, &rs).unwrap();
        let meta = AccessionMeta {
            id: "SRRZ".into(),
            strategy: LibraryStrategy::RnaSeqBulk,
            spots: 100,
            read_len: 100,
            layout: LibraryLayout::Single,
            tissue: "x".into(),
        };
        // Meta formula excludes the variable-length id; allow that slack.
        let diff = arc.size_bytes() as i64 - meta.sra_size_bytes() as i64;
        assert!(diff.unsigned_abs() <= 16, "diff {diff}");
    }
}
