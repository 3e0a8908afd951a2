//! `fasterq-dump` tool model — pipeline step 2.
//!
//! Converts an SRA-lite archive to FASTQ records. The decode itself is real (and
//! parallel on a [`Pool`], like the multi-threaded real tool). The dump's modeled
//! duration is the pipeline's: it charges the catalog-scale FASTQ volume against
//! [`DumpModel`]'s per-thread throughput, matching the real tool's I/O-bound
//! behaviour where FASTQ text dominates.

use crate::accession::LibraryLayout;
use crate::archive::SraArchive;
use crate::SraError;
use genomics::pool::Pool;
use genomics::FastqRecord;
use std::sync::OnceLock;

/// Conversion throughput model.
#[derive(Clone, Copy, Debug)]
pub struct DumpModel {
    /// FASTQ bytes produced per second per thread.
    pub bytes_per_sec_per_thread: f64,
    /// Threads the tool runs with (`-e` flag).
    pub threads: usize,
}

impl Default for DumpModel {
    /// ~80 MB/s/thread with 4 threads, the ballpark of fasterq-dump on gp3 EBS.
    fn default() -> Self {
        DumpModel { bytes_per_sec_per_thread: 80e6, threads: 4 }
    }
}

impl DumpModel {
    /// Check that every dump gets a finite duration: a finite, positive per-thread
    /// rate and at least one thread.
    pub fn validate(&self) -> Result<(), SraError> {
        let rate = self.bytes_per_sec_per_thread;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(SraError::InvalidParams(format!(
                "bytes_per_sec_per_thread must be finite and positive, got {rate}"
            )));
        }
        if self.threads == 0 {
            return Err(SraError::InvalidParams("dump threads must be positive".into()));
        }
        Ok(())
    }
}

/// Result of a dump: the reads plus accounting.
#[derive(Clone, Debug)]
pub struct FasterqOutput {
    /// Decoded reads in archive order. For paired archives mates are interleaved
    /// (r1, r2 per spot, always an even count): `reads.as_chunks::<2>()` is the
    /// `--split-files` view, without copying a read.
    pub reads: Vec<FastqRecord>,
    /// Archive layout.
    pub layout: LibraryLayout,
    /// FASTQ text bytes that would be written ([`FastqRecord::fastq_bytes`] summed).
    pub fastq_bytes: u64,
}

impl FasterqOutput {
    /// Number of spots dumped.
    pub fn spots(&self) -> u64 {
        match self.layout {
            LibraryLayout::Single => self.reads.len() as u64,
            LibraryLayout::Paired => self.reads.len() as u64 / 2,
        }
    }

    /// Key/value attributes describing the dump, used to annotate the
    /// `fasterq-dump` telemetry span (kept stringly so this crate stays
    /// dependency-free).
    pub fn span_attrs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("spots", self.spots().to_string()),
            ("reads", self.reads.len().to_string()),
            ("fastq_bytes", self.fastq_bytes.to_string()),
            ("layout", format!("{:?}", self.layout)),
        ]
    }
}

/// The `fasterq-dump` tool.
#[derive(Clone, Copy, Debug, Default)]
pub struct FasterqDump {
    /// Throughput model, checked before each dump (the pipeline prices the dump with it).
    pub model: DumpModel,
}

impl FasterqDump {
    /// Create with a given throughput model.
    pub fn new(model: DumpModel) -> FasterqDump {
        FasterqDump { model }
    }

    /// Convert `archive` to FASTQ records on the process-wide pool of
    /// `available_parallelism()` threads.
    pub fn run(&self, archive: &SraArchive) -> Result<FasterqOutput, SraError> {
        // Read once: `available_parallelism` reads cgroup files on every call, tens
        // of microseconds, a few per cent of a small accession's decode.
        static THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let pool = Pool::shared(threads).map_err(|e| SraError::InvalidParams(format!("thread pool: {e}")))?;
        self.run_on(archive, &pool)
    }

    /// Convert `archive` to FASTQ records on `pool`.
    pub fn run_on(&self, archive: &SraArchive, pool: &Pool) -> Result<FasterqOutput, SraError> {
        self.model.validate()?;
        // Parallel decode, each read written straight into its slot (archive records
        // are fixed-size, so indexes are independent; `model.threads` only scales the
        // pipeline's modeled time).
        let mut reads = Vec::new();
        reads.resize_with(archive.n_reads() as usize, FastqRecord::default);
        pool.fill(&mut reads, |i| archive.record(i as u64));
        let fastq_bytes = reads.iter().map(FastqRecord::fastq_bytes).sum();
        Ok(FasterqOutput { reads, layout: archive.layout, fastq_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accession::LibraryStrategy;
    use genomics::DnaSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn archive(n: usize) -> SraArchive {
        let mut rng = StdRng::seed_from_u64(8);
        let reads: Vec<FastqRecord> = (0..n)
            .map(|i| {
                FastqRecord::with_uniform_quality(
                    format!("SRRD.{}", i + 1),
                    DnaSeq::random(&mut rng, 100),
                    35,
                )
            })
            .collect();
        SraArchive::encode("SRRD", LibraryStrategy::RnaSeqBulk, &reads).unwrap()
    }

    #[test]
    fn dump_recovers_all_reads_in_order() {
        let arc = archive(500);
        let out = FasterqDump::default().run(&arc).unwrap();
        assert_eq!(out.reads.len(), 500);
        assert_eq!(out.reads[0].id, "SRRD.1");
        assert_eq!(out.reads[499].id, "SRRD.500");
        assert_eq!(out.reads, arc.decode_all().unwrap());
    }

    #[test]
    fn fastq_expansion_versus_archive() {
        let arc = archive(200);
        let out = FasterqDump::default().run(&arc).unwrap();
        // FASTQ text re-expands well beyond the packed archive.
        assert!(out.fastq_bytes > 5 * arc.size_bytes(), "{} vs {}", out.fastq_bytes, arc.size_bytes());
    }

    fn raw_reads(n: usize, seed: u64) -> Vec<FastqRecord> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                FastqRecord::with_uniform_quality(
                    format!("SRRD.{}", i + 1),
                    DnaSeq::random(&mut rng, 100),
                    35,
                )
            })
            .collect()
    }

    #[test]
    fn paired_dump_exposes_split_files_view() {
        let rs = raw_reads(20, 12);
        let pairs: Vec<(FastqRecord, FastqRecord)> =
            rs.chunks(2).map(|w| (w[0].clone(), w[1].clone())).collect();
        let arc =
            SraArchive::encode_paired("SRRD", LibraryStrategy::RnaSeqBulk, &pairs).unwrap();
        let out = FasterqDump::default().run(&arc).unwrap();
        assert_eq!(out.layout, LibraryLayout::Paired);
        assert_eq!(out.spots(), 10);
        let (split, odd) = out.reads.as_chunks::<2>();
        assert!(odd.is_empty(), "paired dumps hold whole spots");
        assert_eq!(split.len(), 10);
        for ((o1, o2), [d1, d2]) in pairs.iter().zip(split) {
            assert_eq!(o1.seq, d1.seq);
            assert_eq!(o2.seq, d2.seq);
        }
        // Single-end dumps count every read as a spot.
        let single = SraArchive::encode("S", LibraryStrategy::RnaSeqBulk, &rs).unwrap();
        let out = FasterqDump::default().run(&single).unwrap();
        assert_eq!((out.layout, out.spots()), (LibraryLayout::Single, 20));
    }

    /// Every 2-bit tail the writer pads and the decoder trims (lengths 0..=9 and
    /// 97..=103, single-end and paired), through the bytes an object store would hold:
    /// the dump returns the input bases, each with its rounded mean quality, and
    /// `decode_read` returns the dump's records one by one.
    #[test]
    fn packed_tails_round_trip_through_bytes_and_dump() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(41);
        for len in (0..=9).chain(97..=103) {
            let reads: Vec<FastqRecord> = (0..6)
                .map(|i| {
                    let qual = (0..len).map(|_| rng.gen_range(2..=40u8)).collect();
                    FastqRecord { id: format!("T.{i}"), seq: DnaSeq::random(&mut rng, len), qual }
                })
                .collect();
            let pairs: Vec<(FastqRecord, FastqRecord)> =
                reads.chunks(2).map(|w| (w[0].clone(), w[1].clone())).collect();
            let archives = [
                SraArchive::encode("SRRT", LibraryStrategy::RnaSeqBulk, &reads).unwrap(),
                SraArchive::encode_paired("SRRT", LibraryStrategy::SingleCell, &pairs).unwrap(),
            ];
            for archive in archives {
                let archive = SraArchive::from_bytes(archive.bytes().to_vec()).unwrap();
                let out = FasterqDump::default().run(&archive).unwrap();
                assert_eq!(out.reads.len(), reads.len(), "len {len}");
                for (i, (input, dumped)) in reads.iter().zip(&out.reads).enumerate() {
                    assert_eq!(dumped.seq, input.seq, "len {len} read {i}");
                    let mean = input.mean_quality().round() as u8;
                    assert_eq!(dumped.qual, vec![mean; len], "len {len} read {i}");
                    assert_eq!(&archive.decode_read(i as u64).unwrap(), dumped, "len {len} read {i}");
                }
            }
        }
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let model = DumpModel { threads: 0, ..DumpModel::default() };
        let err = FasterqDump::new(model).run(&archive(10)).unwrap_err();
        assert!(matches!(err, SraError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn empty_archive_dumps_empty() {
        let arc = SraArchive::encode("E", LibraryStrategy::RnaSeqBulk, &[]).unwrap();
        let out = FasterqDump::default().run(&arc).unwrap();
        assert!(out.reads.is_empty());
        assert_eq!(out.fastq_bytes, 0);
    }
}
