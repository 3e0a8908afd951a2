//! Hostile-input test for `AlignCheckpoint::from_bytes` (ROADMAP 5c): both row
//! counts inflated, the blob truncated around every line boundary, one bit flipped
//! per byte — each with the stored checksum left stale and with it recomputed, since
//! the FNV-1a trailer protects against accidents, not against whoever wrote the
//! count. The parser must answer `Err(CorruptIndex)` — never panic, abort, or ask the
//! allocator for more than a well-formed blob of that size needs on the say-so of a
//! count.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use star_aligner::junctions::JunctionStats;
use star_aligner::quant::GeneCounts;
use star_aligner::sjdb::SpliceClass;
use star_aligner::{AlignCheckpoint, JunctionRow, StarError};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A consistent checkpoint with both optional tables populated.
fn pristine() -> AlignCheckpoint {
    let n_genes = 40u64;
    let gene_counts = GeneCounts {
        gene_ids: (0..n_genes).map(|g| format!("ENSGSIM{g:07}")).collect(),
        counts: (0..n_genes).map(|g| [g + 1, g / 2, g / 3]).collect(),
        n_no_feature: [30, 40, 50],
        n_ambiguous: [5, 2, 3],
        n_multimapping: 90,
        n_unmapped: 55,
    };
    let unique = 30 + 5 + (1..=n_genes).sum::<u64>();
    AlignCheckpoint {
        reads_processed: unique + 90 + 55,
        unique,
        multi: 80,
        too_many: 10,
        unmapped: 55,
        gene_counts: Some(gene_counts),
        junctions: Some(
            (0..60u64)
                .map(|j| JunctionRow {
                    contig: format!("{}", 1 + j % 4),
                    intron_start: 1_000 + 700 * j,
                    intron_end: 1_400 + 700 * j,
                    stats: JunctionStats {
                        unique_reads: j % 7,
                        multi_reads: j % 3,
                        max_overhang: 20 + (j % 30) as u32,
                        class: [SpliceClass::Annotated, SpliceClass::Canonical, SpliceClass::NonCanonical]
                            [j as usize % 3],
                    },
                })
                .collect(),
        ),
    }
}

/// `body` with a freshly computed FNV-1a trailer, as `to_bytes` seals it.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in body {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut blob = body.to_vec();
    blob.extend_from_slice(format!("sum\t{h:016x}\n").as_bytes());
    blob
}

/// Room for the error message itself, which a blob cut to a few bytes still earns.
const ERROR_TEXT: usize = 256;

/// Parse under the counting allocator: the answer must be `CorruptIndex`, and no
/// single request may exceed `bound`.
fn assert_rejected(blob: &[u8], bound: usize, what: &str) {
    let (result, seen) = tracked(|| AlignCheckpoint::from_bytes(blob).map(|_| ()));
    assert!(matches!(result, Err(StarError::CorruptIndex(_))), "{what}: {result:?}");
    assert!(seen.largest <= bound, "{what}: one allocation of {} bytes", seen.largest);
}

#[test]
fn hostile_blobs_get_a_typed_error_and_bounded_allocation() {
    let ckpt = pristine();
    let blob = ckpt.to_bytes();
    let text = std::str::from_utf8(&blob).unwrap();
    let body_len = text.rfind("sum\t").unwrap();
    let body = &blob[..body_len];
    assert_eq!(sealed(body), blob, "premise: the test seals blobs as to_bytes does");
    let (loaded, clean) = tracked(|| AlignCheckpoint::from_bytes(&blob));
    assert_eq!(loaded.unwrap(), ckpt, "premise: the pristine blob loads");
    // No request may exceed the blob — or, a parsed row being wider in memory than
    // on the wire, the largest request the pristine blob's own parse makes.
    let bound = clean.largest.max(blob.len()) + ERROR_TEXT;

    // Each row count inflated — to u64::MAX, to a multi-terabyte request, and to one
    // more than the lines that follow it — under a checksum that matches.
    for label in ["genes\t", "junctions\t"] {
        let at = text.find(label).unwrap() + label.len();
        let end = at + text[at..].find('\n').unwrap();
        let following = text[end + 1..body_len].lines().count() as u64;
        for value in [u64::MAX, 1_000_000_000_000, following + 1] {
            let bad = [&body[..at], value.to_string().as_bytes(), &body[end..]].concat();
            assert_rejected(&sealed(&bad), bound, &format!("{label}{value}"));
        }
    }

    // Lines the declared counts do not cover, under a checksum that matches: one more
    // well-formed junction row than `junctions\t<N>` announced, and an arbitrary line.
    let last_row = text[..body_len].trim_end().rsplit('\n').next().unwrap();
    assert!(last_row.starts_with("j\t"), "premise: the body ends with a junction row");
    for extra in [last_row, "anything at all"] {
        let bad = sealed(&[body, extra.as_bytes(), b"\n"].concat());
        assert_rejected(&bad, bound, &format!("trailing {extra:?}"));
        let err = AlignCheckpoint::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("trailing data"), "trailing {extra:?}: {err}");
    }

    // Truncated at, just before and just after every line boundary: the raw prefix,
    // and the prefix of the body sealed again. (Dropping only the final newline, of
    // the blob or of the body before sealing, leaves the same checkpoint: those two
    // cuts are not hostile.)
    let boundaries = blob.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1);
    for at in boundaries {
        for cut in [at - 1, at, at + 1] {
            if cut < blob.len() - 1 {
                assert_rejected(&blob[..cut], bound, &format!("truncated to {cut} of {} bytes", blob.len()));
            }
            if cut < body_len - 1 {
                assert_rejected(&sealed(&body[..cut]), bound, &format!("body truncated to {cut} bytes, sealed"));
            }
        }
    }

    // One bit per byte, checksum left stale: the trailer catches every flip in the
    // body, and a flip in the trailer itself either breaks it or (hex case, trailing
    // whitespace) leaves the same checkpoint.
    for at in 0..blob.len() {
        let mut bad = blob.clone();
        bad[at] ^= 1 << (at % 8);
        if at < body_len {
            assert_rejected(&bad, bound, &format!("bit flip at {at}"));
        } else {
            let result = AlignCheckpoint::from_bytes(&bad);
            assert!(
                matches!(&result, Err(StarError::CorruptIndex(_))) || result.as_ref().ok() == Some(&ckpt),
                "trailer bit flip at {at}: {result:?}"
            );
        }
    }

    // The same flips with the checksum recomputed reach the parser proper. Some are
    // legal blobs (another gene id, a different overhang); none may panic or exceed
    // the bound.
    for at in 0..body_len {
        let mut bad = body.to_vec();
        bad[at] ^= 1 << (at % 8);
        let bad = sealed(&bad);
        let (result, seen) = tracked(|| AlignCheckpoint::from_bytes(&bad).map(|_| ()));
        assert!(matches!(result, Ok(()) | Err(StarError::CorruptIndex(_))), "sealed bit flip at {at}: {result:?}");
        assert!(seen.largest <= bound, "sealed bit flip at {at}: one allocation of {} bytes", seen.largest);
    }
}
