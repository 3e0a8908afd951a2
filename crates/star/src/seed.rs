//! Seed collection: turn MMP hits into anchored genome seeds.
//!
//! Reads are scanned left to right; each MMP that is long enough and not too
//! repetitive contributes one seed per genome occurrence. The scan then restarts just
//! past the base that terminated the MMP (STAR's serial MMP search) and ends once
//! fewer than `min_seed_len` bases are left. Seeds that would cross a contig boundary
//! are discarded.
//!
//! Occurrence resolution is batched per MMP: all suffix-array slots of the interval
//! are read into scratch in one contiguous pass, the boundary check runs as a single
//! merge-join of the genome-position-sorted probes against the span table (one
//! forward sweep instead of one binary search per occurrence), and the surviving
//! seeds are pushed in original slot order so the `max_seeds_per_read` truncation is
//! bit-identical to the one-at-a-time loop it replaced.
//!
//! The seed *count* per read is the quantity the genome-release optimization moves:
//! on the release-108 index every genic MMP interval also contains the duplicated
//! scaffold copies, multiplying seeds — and all downstream stitching/extension work —
//! by the copy number.

use crate::genome::Packed2;
use crate::mmp::{mmp_search_packed, SearchCost, SeedLayers};
use crate::params::AlignParams;

/// One seed: an exact read↔genome match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seed {
    /// Offset in the (possibly reverse-complemented) read.
    pub read_pos: u32,
    /// Global genome position of the match start.
    pub gpos: u64,
    /// Exact-match length.
    pub len: u32,
    /// How many genome positions this seed's MMP interval had (1 = unique anchor).
    pub interval_size: u32,
}

impl Seed {
    /// Diagonal of the seed: `gpos - read_pos`, constant along an unspliced match.
    #[inline]
    pub fn diagonal(&self) -> i64 {
        self.gpos as i64 - self.read_pos as i64
    }

    /// One past the last read base covered.
    #[inline]
    pub fn read_end(&self) -> u32 {
        self.read_pos + self.len
    }

    /// One past the last genome base covered.
    #[inline]
    pub fn gend(&self) -> u64 {
        self.gpos + self.len as u64
    }
}

/// Reusable buffers for batched per-MMP occurrence resolution (cleared per MMP,
/// capacity retained across reads so the steady state allocates nothing).
#[derive(Clone, Debug, Default)]
pub struct SeedProbeScratch {
    /// Genome position per interval slot, in slot order.
    gpos: Vec<u64>,
    /// Slot indices sorted by genome position (the merge-join visit order).
    order: Vec<u32>,
    /// Per-slot verdict of the contig-boundary check.
    fits: Vec<bool>,
    /// What the MMP searches of the last [`collect_seeds_packed`] call cost.
    cost: SearchCost,
}

impl SeedProbeScratch {
    /// What the MMP searches of the last [`collect_seeds_packed`] call cost.
    pub fn cost(&self) -> SearchCost {
        self.cost
    }
}

/// Collect seeds for one oriented, packed read (the caller runs this once per
/// strand) into `seeds` (cleared first), sorted by `(read_pos, gpos)`. Occurrences
/// are resolved in batches through `probe`; both buffers keep their capacity across
/// reads so the steady state allocates nothing. Seeds are identical whichever
/// `layers` start the MMP searches.
pub fn collect_seeds_packed(
    layers: &SeedLayers<'_>,
    q: &Packed2,
    params: &AlignParams,
    seeds: &mut Vec<Seed>,
    probe: &mut SeedProbeScratch,
) {
    let index = layers.index();
    seeds.clear();
    probe.cost = SearchCost::default();
    let mut from = 0usize;
    let genome = index.genome();
    // An MMP is at most what is left of the read: once that is under `min_seed_len`
    // neither this search nor any after it can yield a seed.
    while from + params.min_seed_len.max(1) <= q.len() && seeds.len() < params.max_seeds_per_read {
        let m = mmp_search_packed(layers, q, from, &mut probe.cost);
        if m.len == 0 {
            from += 1;
            continue;
        }
        if m.len >= params.min_seed_len && m.occurrences() <= params.anchor_multimap_nmax {
            let read_pos = m.start as u32;
            let len = m.len as u32;
            let interval_size = m.occurrences();
            if interval_size == 1 {
                // Single occurrence: the batch machinery would only add overhead.
                let gpos = index.sa().suffix(m.interval.lo) as u64;
                if genome.fits_in_contig(gpos, m.len as u64) {
                    seeds.push(Seed { read_pos, gpos, len, interval_size });
                }
            } else {
                // Batched resolution: one contiguous SA read, one position-sorted
                // sweep over the span table, then a slot-order push — byte-identical
                // truncation semantics to checking each slot in turn.
                let SeedProbeScratch { gpos, order, fits, .. } = probe;
                gpos.clear();
                gpos.extend(
                    index.sa().positions()[m.interval.lo as usize..m.interval.hi as usize]
                        .iter()
                        .map(|&p| p as u64),
                );
                order.clear();
                order.extend(0..gpos.len() as u32);
                order.sort_unstable_by_key(|&i| gpos[i as usize]);
                fits.clear();
                fits.resize(gpos.len(), false);
                let spans = genome.spans();
                let mut cur = 0usize;
                for &i in order.iter() {
                    let g = gpos[i as usize];
                    while spans[cur].end() <= g {
                        cur += 1;
                    }
                    // The final span ends at the genome length, so this also
                    // rejects runs past the genome end.
                    fits[i as usize] = g + m.len as u64 <= spans[cur].end();
                }
                for (i, &ok) in fits.iter().enumerate() {
                    if ok {
                        seeds.push(Seed { read_pos, gpos: gpos[i], len, interval_size });
                        if seeds.len() >= params.max_seeds_per_read {
                            break;
                        }
                    }
                }
            }
        }
        // Restart past the mismatching base (or past the read end).
        from = m.start + m.len + 1;
    }
    seeds.sort_unstable_by_key(|s| (s.read_pos, s.gpos));
}

/// Seeds of unpacked `read_codes` through the index's base layers, on fresh buffers.
#[cfg(test)]
pub(crate) fn collect_seeds(
    index: &crate::index::StarIndex,
    read_codes: &[u8],
    params: &AlignParams,
) -> Vec<Seed> {
    let mut seeds = Vec::new();
    let q = Packed2::from_codes(read_codes);
    collect_seeds_packed(&SeedLayers::base(index), &q, params, &mut seeds, &mut SeedProbeScratch::default());
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexParams, StarIndex};
    use genomics::{Annotation, Assembly, AssemblyKind, Contig, ContigKind, DnaSeq};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn index_of_contigs(contigs: Vec<(&str, &str)>) -> StarIndex {
        let asm = Assembly {
            name: "T".into(),
            release: 1,
            kind: AssemblyKind::Toplevel,
            contigs: contigs
                .into_iter()
                .map(|(name, seq)| Contig {
                    name: name.into(),
                    kind: ContigKind::Chromosome,
                    seq: seq.parse::<DnaSeq>().unwrap(),
                })
                .collect(),
        };
        StarIndex::build(&asm, &Annotation::default(), &IndexParams::default()).unwrap()
    }

    fn random_text(seed: u64, len: usize) -> String {
        DnaSeq::random(&mut StdRng::seed_from_u64(seed), len).to_string()
    }

    #[test]
    fn perfect_read_yields_one_full_length_seed() {
        let text = random_text(1, 2000);
        let idx = index_of_contigs(vec![("1", &text)]);
        let read: DnaSeq = text[300..400].parse().unwrap();
        let seeds = collect_seeds(&idx, read.codes(), &AlignParams::default());
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].read_pos, 0);
        assert_eq!(seeds[0].gpos, 300);
        assert_eq!(seeds[0].len, 100);
        assert_eq!(seeds[0].diagonal(), 300);
    }

    #[test]
    fn mismatch_splits_into_two_seeds_on_same_diagonal() {
        let text = random_text(2, 2000);
        let idx = index_of_contigs(vec![("1", &text)]);
        let mut read: DnaSeq = text[500..600].parse().unwrap();
        // Flip base 50.
        let mut codes = read.codes().to_vec();
        codes[50] = (codes[50] + 1) % 4;
        read = DnaSeq::from_codes(codes);
        let seeds = collect_seeds(&idx, read.codes(), &AlignParams::default());
        assert_eq!(seeds.len(), 2, "seeds: {seeds:?}");
        assert_eq!(seeds[0].read_pos, 0);
        assert_eq!(seeds[0].len, 50);
        assert_eq!(seeds[1].read_pos, 51);
        assert_eq!(seeds[1].len, 49);
        assert_eq!(seeds[0].diagonal(), seeds[1].diagonal());
    }

    #[test]
    fn repeated_segment_yields_one_seed_per_copy() {
        let unique = random_text(3, 1000);
        let repeat = &unique[100..200];
        // Genome: unique + 3 extra copies of repeat.
        let text = format!("{unique}{repeat}{repeat}{repeat}");
        let idx = index_of_contigs(vec![("1", &text)]);
        let read: DnaSeq = repeat.parse().unwrap();
        let seeds = collect_seeds(&idx, read.codes(), &AlignParams::default());
        assert_eq!(seeds.len(), 4, "one seed per genomic copy");
        assert!(seeds.iter().all(|s| s.interval_size == 4));
    }

    #[test]
    fn anchor_cap_suppresses_hyper_repetitive_seeds() {
        let unique = random_text(3, 1000);
        let repeat = &unique[100..200];
        let text = format!("{unique}{}", repeat.repeat(5));
        let idx = index_of_contigs(vec![("1", &text)]);
        let read: DnaSeq = repeat.parse().unwrap();
        let mut p = AlignParams::default();
        p.anchor_multimap_nmax = 3; // repeat occurs 6 times > cap
        let seeds = collect_seeds(&idx, read.codes(), &p);
        assert!(seeds.is_empty(), "seeds above the anchor cap must be skipped: {seeds:?}");
    }

    #[test]
    fn boundary_crossing_seeds_are_discarded() {
        let a = random_text(4, 400);
        let b = random_text(5, 400);
        let idx = index_of_contigs(vec![("1", &a), ("2", &b)]);
        // A read spanning the concatenation boundary exists in the packed genome but
        // crosses contigs; its single seed must be rejected.
        let mut read = DnaSeq::new();
        read.extend_from(&a.parse::<DnaSeq>().unwrap().subseq(360, 400));
        read.extend_from(&b.parse::<DnaSeq>().unwrap().subseq(0, 40));
        let seeds = collect_seeds(&idx, read.codes(), &AlignParams::default());
        // Any surviving seed must fit inside one contig.
        for s in &seeds {
            assert!(idx.genome().fits_in_contig(s.gpos, s.len as u64));
        }
        // And the full 80-mer straddling seed is gone.
        assert!(seeds.iter().all(|s| s.len < 80));
    }

    #[test]
    fn junk_read_produces_no_seeds() {
        let text = random_text(6, 3000);
        let idx = index_of_contigs(vec![("1", &text)]);
        let read = DnaSeq::from_codes(vec![0u8; 100]); // poly-A
        let seeds = collect_seeds(&idx, read.codes(), &AlignParams::default());
        assert!(seeds.is_empty());
    }

    #[test]
    fn seed_count_is_capped() {
        // Genome of a short unit repeated many times; read = the unit, well below the
        // anchor cap but spawning many occurrences.
        let unit = random_text(7, 30);
        let text = unit.repeat(40);
        let idx = index_of_contigs(vec![("1", &text)]);
        let read: DnaSeq = unit.repeat(3).parse().unwrap();
        let mut p = AlignParams::default();
        p.anchor_multimap_nmax = 1000;
        p.max_seeds_per_read = 25;
        let seeds = collect_seeds(&idx, read.codes(), &p);
        assert!(seeds.len() <= 25);
    }

    #[test]
    fn batched_resolution_matches_slot_order_semantics_across_boundaries() {
        // Repeat a unit so it lands in several contigs, with some copies cut by
        // boundaries; compare against a straightforward per-slot reference.
        let unit = random_text(8, 40);
        let a = format!("{}{}", unit.repeat(3), random_text(9, 23));
        let b = format!("{}{}{}", random_text(10, 17), unit.repeat(2), &unit[..20]);
        let c = format!("{}{}", &unit[20..], unit);
        let idx = index_of_contigs(vec![("1", &a), ("2", &b), ("3", &c)]);
        let read: DnaSeq = unit.parse().unwrap();
        for cap in [2usize, 4, 100] {
            let mut p = AlignParams::default();
            p.anchor_multimap_nmax = 1000;
            p.max_seeds_per_read = cap;
            p.min_seed_len = 10;
            let seeds = collect_seeds(&idx, read.codes(), &p);
            assert_eq!(seeds, plain_uncut_seeds(&idx, read.codes(), &p), "cap {cap}");
        }
    }

    /// Reference: the pre-batching algorithm, written plainly — every MMP by per-base
    /// refinement from the root of the suffix array, every read position visited to
    /// the last base, every occurrence checked in slot order.
    fn plain_uncut_seeds(idx: &StarIndex, read: &[u8], p: &AlignParams) -> Vec<Seed> {
        let q = Packed2::from_codes(read);
        let mut expect = Vec::new();
        let mut from = 0usize;
        while from < read.len() && expect.len() < p.max_seeds_per_read {
            let m = crate::mmp::mmp_by_refinement(idx, &q, from);
            if m.len == 0 {
                from += 1;
                continue;
            }
            if m.len >= p.min_seed_len && m.occurrences() <= p.anchor_multimap_nmax {
                for slot in m.interval.lo..m.interval.hi {
                    let gpos = idx.sa().suffix(slot) as u64;
                    if idx.genome().fits_in_contig(gpos, m.len as u64) {
                        expect.push(Seed {
                            read_pos: m.start as u32,
                            gpos,
                            len: m.len as u32,
                            interval_size: m.occurrences(),
                        });
                        if expect.len() >= p.max_seeds_per_read {
                            break;
                        }
                    }
                }
            }
            from = m.start + m.len + 1;
        }
        expect.sort_unstable_by_key(|s| (s.read_pos, s.gpos));
        expect
    }

    #[test]
    fn ladder_shortcut_and_min_seed_cutoff_change_no_seed_on_release_108() {
        use genomics::{EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator, Release, SimulatorParams};
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm_111 = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm_111, &g).unwrap();
        let idx = StarIndex::build(&g.generate(Release::R108), &ann, &IndexParams::default()).unwrap();
        let layers = SeedLayers::full(&idx);
        let params = AlignParams::default();
        let (mut seeds, mut probe) = (Vec::new(), SeedProbeScratch::default());
        let mut seeded = 0;
        for (library, seed) in [(LibraryType::BulkPolyA, 21), (LibraryType::SingleCell3Prime, 22)] {
            let mut sim =
                ReadSimulator::new(&asm_111, &ann, SimulatorParams::for_library(library), seed).unwrap();
            for read in sim.simulate(250, "L") {
                for seq in [read.fastq.seq.clone(), read.fastq.seq.reverse_complement()] {
                    let q = Packed2::from_codes(seq.codes());
                    collect_seeds_packed(&layers, &q, &params, &mut seeds, &mut probe);
                    assert_eq!(seeds, plain_uncut_seeds(&idx, seq.codes(), &params), "read {seq}");
                    seeded += usize::from(!seeds.is_empty());
                }
            }
        }
        assert!((200..800).contains(&seeded), "premise: seeded and seedless orientations both occur ({seeded}/1000)");
    }
}
