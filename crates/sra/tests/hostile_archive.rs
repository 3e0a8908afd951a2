//! Hostile-input test for `SraArchive::from_bytes` (ROADMAP 3c): every header length
//! field inflated, the archive truncated at every section boundary, one bit flipped
//! per section. The decoder must answer `Err(CorruptArchive)` — never panic, and
//! never allocate beyond the archive's own size.

#[path = "../../star/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::{DnaSeq, FastqRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sra_sim::accession::LibraryStrategy;
use sra_sim::archive::{SraArchive, HEADER_SIZE};
use sra_sim::SraError;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Header fields after the 8-byte magic: `(name, offset, width)`.
const STRATEGY: (&str, usize, usize) = ("strategy code", 8, 1);
const LAYOUT: (&str, usize, usize) = ("layout code", 9, 1);
const N_READS: (&str, usize, usize) = ("read count", 10, 8);
const READ_LEN: (&str, usize, usize) = ("read length", 18, 4);
const ID_LEN: (&str, usize, usize) = ("accession length", 22, 4);

/// Room for the error message itself, which an archive cut to a few bytes still earns.
const ERROR_TEXT: usize = 256;

fn assert_rejected(blob: &[u8], what: &str) {
    let (result, seen) = tracked(|| SraArchive::from_bytes(blob.to_vec()).map(|_| ()));
    assert!(matches!(result, Err(SraError::CorruptArchive(_))), "{what}: {result:?}");
    // One copy of the input (the `Vec` under test) plus the message.
    assert!(seen.largest <= blob.len() + ERROR_TEXT, "{what}: one allocation of {} bytes", seen.largest);
    assert!(seen.total <= blob.len() + 2 * ERROR_TEXT, "{what}: {} bytes allocated in all", seen.total);
}

#[test]
fn hostile_archives_get_a_typed_error_and_bounded_allocation() {
    let mut rng = StdRng::seed_from_u64(5);
    let reads: Vec<FastqRecord> = (0..40)
        .map(|i| FastqRecord::with_uniform_quality(format!("SRRH.{}", i + 1), DnaSeq::random(&mut rng, 99), 35))
        .collect();
    let pairs: Vec<(FastqRecord, FastqRecord)> =
        reads.chunks(2).map(|w| (w[0].clone(), w[1].clone())).collect();
    let archive = SraArchive::encode_paired("SRRH", LibraryStrategy::RnaSeqBulk, &pairs).unwrap();
    let blob = archive.bytes().to_vec();
    let payload_at = HEADER_SIZE + "SRRH".len();
    assert_eq!(SraArchive::from_bytes(archive.bytes().to_vec()).unwrap(), archive, "premise: the pristine archive loads");

    // Every length field inflated: to its type's maximum, to u32::MAX, and to one
    // more than the bytes that follow it. (`read count × bytes per read` used to be
    // an unchecked multiply: a debug-build panic, a release-build wrap.)
    for (name, at, width) in [N_READS, READ_LEN, ID_LEN] {
        let remaining = (blob.len() - at - width) as u64;
        for value in [u64::MAX, u32::MAX as u64, remaining + 1] {
            let mut bad = blob.clone();
            bad[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            assert_rejected(&bad, &format!("{name} = {value}"));
        }
    }
    // A read count whose product with the record size wraps (mod 2^64) onto the true
    // payload size: only a checked multiply tells it from the real count.
    let per_read = 99u128.div_ceil(4) + 1;
    let payload = (blob.len() - payload_at) as u128;
    let wrapping = (1..per_read)
        .map(|i| (i << 64) + payload)
        .find(|product| product % per_read == 0)
        .map(|product| (product / per_read) as u64)
        .expect("13 * 2^64 + 40 * 26 is a multiple of 26");
    let mut bad = blob.clone();
    bad[N_READS.1..N_READS.1 + 8].copy_from_slice(&wrapping.to_le_bytes());
    assert_rejected(&bad, &format!("read count {wrapping} wraps onto the payload size"));

    // Truncated at, just before and just after every section boundary.
    for at in [8, HEADER_SIZE, payload_at, blob.len()] {
        for cut in [at - 1, at, at + 1] {
            if cut < blob.len() {
                assert_rejected(&blob[..cut], &format!("truncated to {cut} of {} bytes", blob.len()));
            }
        }
    }

    // One bit per header section, the top bit of the field; a paired archive also
    // cannot lose a mate.
    for (name, at, width) in [("magic", 0, 8), STRATEGY, LAYOUT, N_READS, READ_LEN, ID_LEN, ("accession", HEADER_SIZE, 4)] {
        let mut bad = blob.clone();
        bad[at + width - 1] ^= 0x80;
        assert_rejected(&bad, &format!("top bit of {name} flipped"));
    }
    let odd = SraArchive::encode("SRRH", LibraryStrategy::RnaSeqBulk, &reads[..39]).unwrap();
    let mut bad = odd.bytes().to_vec();
    bad[LAYOUT.1] = 1;
    assert_rejected(&bad, "paired layout over an odd read count");

    // The payload carries no redundancy: a flipped bit there is another valid
    // archive, and must decode without panicking.
    let mut flipped = blob.clone();
    flipped[payload_at + 3] ^= 0x10;
    let other = SraArchive::from_bytes(flipped).unwrap();
    assert_eq!(other.decode_all().unwrap().len(), 40);
    assert_ne!(other, archive);
}
