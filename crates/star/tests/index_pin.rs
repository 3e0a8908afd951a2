//! Absolute pins of the index: the serialized bytes of the tiny release-108 and
//! release-111 indexes (FNV-1a and length), at the automatic prefix depth and at
//! depth 6, and an FNV-1a over the SA interval every bucket of every rung of the
//! search ladder answers — the rungs derived below the base table, and depth `k+1`
//! above it, which the base table answers from its child counts (the "deep digest":
//! it pins the same intervals as the dense depth-`k+1` rung the search used to
//! build). A change to how a rung is built, stored or loaded must leave all of them
//! where they are: the index format and every seed search depend on them.

use genomics::fnv::{fnv1a, OFFSET};
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::prefix::PrefixTable;

/// FNV-1a over `(depth, lo, hi)` of every bucket of every rung, in rung order.
fn ladder_digest(rungs: &[PrefixTable]) -> u64 {
    let mut h = OFFSET;
    for table in rungs {
        h = fnv1a(h, &(table.k() as u32).to_le_bytes());
        for m in 0..1usize << (2 * table.k()) {
            let iv = table.lookup_value(m);
            h = fnv1a(h, &iv.lo.to_le_bytes());
            h = fnv1a(h, &iv.hi.to_le_bytes());
        }
    }
    h
}

/// [`ladder_digest`] of the one rung above the base table `base`: `(depth, lo, hi)`
/// of every `k+1`-mer, read through the base table's children.
fn deep_digest(base: &PrefixTable) -> u64 {
    let depth = base.k() + 1;
    let mut h = fnv1a(OFFSET, &(depth as u32).to_le_bytes());
    for m in 0..1usize << (2 * depth) {
        let iv = base.child(m).expect("the base table has children");
        h = fnv1a(h, &iv.lo.to_le_bytes());
        h = fnv1a(h, &iv.hi.to_le_bytes());
    }
    h
}

/// `(release, sa_index_nbases, blob FNV-1a, blob length, ladder digest, deep digest)`.
/// Release 111's tiny genome is small enough that its automatic depth is 6: its two
/// rows agree, and say so.
const PINS: [(Release, Option<usize>, u64, usize, u64, u64); 4] = [
    (Release::R108, None, 0x8cdd_73bb_6ee0_8626, 635_154, 0x1929_ddcd_cf04_868c, 0xc4fb_5a0b_c2a6_7628),
    (Release::R108, Some(6), 0xce25_47bd_8593_290a, 536_850, 0x578a_1cb9_b964_c15f, 0xee89_b6a3_71be_63ee),
    (Release::R111, None, 0xebb3_facc_6db8_b457, 215_242, 0x676b_0cc1_674a_9451, 0x8124_0175_ffd7_f554),
    (Release::R111, Some(6), 0xebb3_facc_6db8_b457, 215_242, 0x676b_0cc1_674a_9451, 0x8124_0175_ffd7_f554),
];

#[test]
fn serialized_index_and_every_rung_are_pinned() {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let mut seen = Vec::new();
    for (release, sa_index_nbases, ..) in PINS {
        let assembly = generator.generate(release);
        let annotation = Annotation::simulate(&assembly, &generator).unwrap();
        let index = StarIndex::build(&assembly, &annotation, &IndexParams { sa_index_nbases }).unwrap();
        let blob = index.serialize();
        let loaded = StarIndex::deserialize(&blob).unwrap();
        let ladder = ladder_digest(loaded.prefix_ladder());
        assert_eq!(ladder, ladder_digest(index.prefix_ladder()), "{release:?} {sa_index_nbases:?}: built and loaded ladders differ");
        let deep = deep_digest(loaded.prefix());
        assert_eq!(deep, deep_digest(index.prefix()), "{release:?} {sa_index_nbases:?}: built and loaded children differ");
        seen.push((release, sa_index_nbases, fnv1a(OFFSET, &blob), blob.len(), ladder, deep));
    }
    assert_eq!(seen, PINS, "pins moved");
}
