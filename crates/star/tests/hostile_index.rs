//! Hostile-input test for `StarIndex::deserialize` (ROADMAP 3c): every length field
//! inflated, the blob truncated at every section boundary, one bit flipped per
//! section. The decoder must answer `Err(CorruptIndex)` — never panic, abort, or ask
//! the allocator for more than the blob's own size on the say-so of a length field.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::StarError;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A field of the serialized index: where it starts and how wide it is.
#[derive(Clone, Copy)]
struct Field {
    name: &'static str,
    at: usize,
    width: usize,
}

/// Byte layout of `index.serialize()`: the length fields, the offset each section
/// starts at (plus the blob's end), and one field per section whose top bit cannot
/// flip unnoticed.
struct Layout {
    lengths: Vec<Field>,
    boundaries: Vec<usize>,
    tripwires: Vec<Field>,
}

fn layout(index: &StarIndex, blob_len: usize) -> Layout {
    let field = |name, at, width| Field { name, at, width };
    let name_len = field("assembly name length", 8 + 4, 4);
    let glen = field("genome length", name_len.at + 4 + index.assembly_name.len() + 4, 8);
    let n_words = index.genome().len().div_ceil(32);
    let n_spans = field("span count", glen.at + 8 + n_words * 8, 4);
    let first_span_name = field("span name length", n_spans.at + 4, 4);
    let spans_bytes: usize =
        index.genome().spans().iter().map(|s| 4 + s.name.len() + 4 + 8 + 8).sum();
    let first_span_kind = field("span kind", first_span_name.at + 4 + index.genome().spans()[0].name.len(), 4);
    let sa_len = field("suffix array length", n_spans.at + 4 + spans_bytes, 8);
    let k = field("prefix depth", sa_len.at + 8 + index.sa().len() * 4, 4);
    let buckets = 1usize << (2 * index.prefix().k());
    let n_j = field("junction count", k.at + 4 + 2 * buckets * 4, 8);
    assert_eq!(n_j.at + 8 + index.sjdb().len() * 16, blob_len, "layout walks the whole blob");
    Layout {
        lengths: vec![name_len, glen, n_spans, first_span_name, sa_len, k, n_j],
        boundaries: vec![8, 12, glen.at, n_spans.at, sa_len.at, k.at, n_j.at, blob_len],
        tripwires: vec![
            field("magic", 0, 8),
            field("version", 8, 4),
            glen,
            first_span_kind,
            field("first suffix", sa_len.at + 8, 4),
            field("first bucket end", k.at + 4 + buckets * 4, 4),
            field("first junction end", n_j.at + 8 + 8, 8),
        ],
    }
}

/// Room for the error message itself, which a blob cut to a few bytes still earns.
const ERROR_TEXT: usize = 256;

/// Deserialize under the counting allocator: the answer must be `CorruptIndex`, and
/// no single request may exceed the blob (nor all of them together twice the blob —
/// the sections decoded before the corruption was met are copies of blob bytes).
fn assert_rejected(blob: &[u8], what: &str) {
    let (result, seen) = tracked(|| StarIndex::deserialize(blob).map(|_| ()));
    assert!(matches!(result, Err(StarError::CorruptIndex(_))), "{what}: {result:?}");
    let bound = blob.len() + ERROR_TEXT;
    assert!(seen.largest <= bound, "{what}: one allocation of {} bytes", seen.largest);
    assert!(seen.total <= 2 * bound, "{what}: {} bytes allocated in all", seen.total);
}

#[test]
fn hostile_blobs_get_a_typed_error_and_bounded_allocation() {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R111);
    let annotation = Annotation::simulate(&assembly, &generator).unwrap();
    let index = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
    assert!(!index.sjdb().is_empty(), "premise: every section is populated");
    let blob = index.serialize();
    let layout = layout(&index, blob.len());
    assert!(StarIndex::deserialize(&blob).is_ok(), "premise: the pristine blob loads");

    // Every length field inflated: to its type's maximum, to u32::MAX, and to one
    // more than the bytes that follow it.
    for f in &layout.lengths {
        let remaining = (blob.len() - f.at - f.width) as u64;
        for value in [u64::MAX, u32::MAX as u64, remaining + 1] {
            let mut bad = blob.clone();
            bad[f.at..f.at + f.width].copy_from_slice(&value.to_le_bytes()[..f.width]);
            assert_rejected(&bad, &format!("{} = {value}", f.name));
        }
    }

    // Truncated at, just before and just after every section boundary.
    for &at in &layout.boundaries {
        for cut in [at.saturating_sub(1), at, at + 1] {
            if cut < blob.len() {
                assert_rejected(&blob[..cut], &format!("truncated to {cut} of {} bytes", blob.len()));
            }
        }
    }

    // One bit per section, the top bit of a field that cannot absorb it.
    for f in &layout.tripwires {
        let mut bad = blob.clone();
        bad[f.at + f.width - 1] ^= 0x80;
        assert_rejected(&bad, &format!("top bit of {} flipped", f.name));
    }

    // Any other single bit: some flips are legal blobs (a different base, another
    // release number), none may panic or allocate beyond the bound.
    for at in (0..blob.len()).step_by(blob.len() / 257) {
        let mut bad = blob.clone();
        bad[at] ^= 1 << (at % 8);
        let (result, seen) = tracked(|| StarIndex::deserialize(&bad).map(|_| ()));
        assert!(matches!(result, Ok(()) | Err(StarError::CorruptIndex(_))), "bit flip at {at}: {result:?}");
        assert!(seen.largest <= blob.len(), "bit flip at {at}: one allocation of {} bytes", seen.largest);
    }
}
