//! Chain extension and scoring: turn a seed chain into a full-read alignment.
//!
//! Three steps, matching STAR's extension stage under our substitution-only model:
//!
//! 1. **Gap filling** between consecutive seeds — equal read/genome gaps become
//!    mismatch runs; larger genome gaps become introns, with the splice point placed
//!    at the split of the read gap that minimizes mismatches, then classified
//!    (annotated / canonical GT-AG / non-canonical) for its score penalty.
//! 2. **End extension** — outward from the first/last seed, keeping the extension
//!    prefix that maximizes local score (match +1, mismatch −penalty); the rest is
//!    soft-clipped.
//! 3. **Scoring** — matched bases minus mismatch and splice penalties.
//!
//! The production path (`extend_chain_into`) is bit-parallel over the 2-bit packed
//! read and genome: end extensions process mismatch runs via 32-base
//! [`mismatch_mask`] words (the best prefix always ends a match run, because score
//! strictly increases inside one), and gap/splice mismatch counting is popcount over
//! the same masks. The original per-base loop is kept verbatim as
//! [`extend_chain_scalar`], the differential oracle the property suites pin the
//! bit-parallel path against — both must produce bit-equal scores and CIGARs.

use crate::align::CigarOp;
use crate::genome::{count_mismatches, mismatch_mask, Packed2, PackedGenome, BASES_PER_WORD};
use crate::seed::Seed;
use crate::sjdb::{SpliceClass, SpliceJunctionDb};
use crate::stitch::{Chain, MAX_INTRON_LEN};

/// Mismatch penalty in the alignment score (match = +1).
pub const MISMATCH_PENALTY: i32 = 1;
// The bit-parallel end extension is exact only for a non-negative penalty.
const _: () = assert!(MISMATCH_PENALTY >= 0);
/// Score penalty for an annotated splice junction (`--scoreGapATAC`-family; 0 in
/// STAR when the junction is in the sjdb).
pub const ANNOTATED_SPLICE_PENALTY: i32 = 0;
/// Score penalty for a canonical (GT-AG / CT-AC) novel junction.
pub const CANONICAL_SPLICE_PENALTY: i32 = 1;
/// Score penalty for a non-canonical novel junction (`--scoreGapNoncan`).
pub const NONCANONICAL_SPLICE_PENALTY: i32 = 8;

/// The score penalty of a junction of class `class`.
fn junction_penalty(class: SpliceClass) -> i32 {
    match class {
        SpliceClass::Annotated => ANNOTATED_SPLICE_PENALTY,
        SpliceClass::Canonical => CANONICAL_SPLICE_PENALTY,
        SpliceClass::NonCanonical => NONCANONICAL_SPLICE_PENALTY,
    }
}

/// A scored candidate alignment within one genomic window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowAlignment {
    /// Global genome position where the aligned (non-clipped) region starts.
    pub gstart: u64,
    /// CIGAR-lite operations covering the whole read (S/M/N).
    pub cigar: Vec<CigarOp>,
    /// Alignment score (match +1, mismatch −p, splice penalties).
    pub score: i32,
    /// Read bases aligned to the genome (M bases).
    pub aligned: u32,
    /// Mismatches among the aligned bases.
    pub mismatches: u32,
    /// Introns used: (intron_start, intron_end, class) in global coordinates.
    pub junctions: Vec<(u64, u64, SpliceClass)>,
}

impl WindowAlignment {
    /// An empty alignment slot, for pooling.
    pub(crate) fn empty() -> WindowAlignment {
        WindowAlignment {
            gstart: 0,
            cigar: Vec::new(),
            score: 0,
            aligned: 0,
            mismatches: 0,
            junctions: Vec::new(),
        }
    }

    /// Reset to empty, retaining the CIGAR/junction vector capacities.
    pub(crate) fn reset(&mut self) {
        self.gstart = 0;
        self.cigar.clear();
        self.score = 0;
        self.aligned = 0;
        self.mismatches = 0;
        self.junctions.clear();
    }

    /// Read bases matching the genome exactly.
    pub fn matched(&self) -> u32 {
        self.aligned - self.mismatches
    }

    /// Soft-clipped bases (left + right).
    pub fn clipped(&self) -> u32 {
        self.cigar
            .iter()
            .filter_map(|op| if let CigarOp::S(n) = op { Some(*n) } else { None })
            .sum()
    }
}

/// [`extend_chain_into`] over unpacked `read_codes` into a fresh slot; `None` for
/// chains that violate the substitution-only invariants.
#[cfg(test)]
pub(crate) fn extend_chain(
    chain: &Chain,
    read_codes: &[u8],
    genome: &PackedGenome,
    sjdb: &SpliceJunctionDb,
) -> Option<WindowAlignment> {
    let mut out = WindowAlignment::empty();
    extend_chain_into(chain, &Packed2::from_codes(read_codes), genome, sjdb, &mut out)
        .then_some(out)
}

/// Best score-maximal extension scanning *forward*: read bases `rstart..rstart+room`
/// against genome `gstart..gstart+room`. Returns `(best_ext, best_mm)` — the scalar
/// loop's first-argmax prefix and its mismatch count.
///
/// Bit-parallel run processing: within a run of matches the score strictly
/// increases, so the running best only ever lands on a run end; walking the
/// mismatch mask run by run reproduces the per-base loop bit-exactly (for the
/// non-negative [`MISMATCH_PENALTY`], asserted at compile time).
fn best_ext_fwd(
    read: &Packed2,
    rstart: usize,
    seq: &Packed2,
    gstart: usize,
    room: usize,
) -> (usize, u32) {
    let mut score = 0i32;
    let mut best_score = 0i32;
    let mut mm = 0u32;
    let mut best_mm = 0u32;
    let mut best_ext = 0usize;
    let mut done = 0usize; // bases fully processed so far
    let mut prev_n = 0usize; // processed count at the last run boundary
    while done < room {
        let block = (room - done).min(BASES_PER_WORD);
        let mut x = mismatch_mask(read.word_from(rstart + done), seq.word_from(gstart + done));
        if block < BASES_PER_WORD {
            x &= (1u64 << (block << 1)) - 1;
        }
        while x != 0 {
            let lane = (x.trailing_zeros() >> 1) as usize;
            let n_mm = done + lane + 1; // processed count after this mismatch base
            let run = n_mm - 1 - prev_n;
            if run > 0 {
                score += run as i32;
                if score > best_score {
                    best_score = score;
                    best_ext = prev_n + run;
                    best_mm = mm;
                }
            }
            score -= MISMATCH_PENALTY;
            mm += 1;
            prev_n = n_mm;
            x &= x - 1;
        }
        done += block;
        let run = done - prev_n;
        if run > 0 {
            score += run as i32;
            if score > best_score {
                best_score = score;
                best_ext = prev_n + run;
                best_mm = mm;
            }
            prev_n = done;
        }
    }
    (best_ext, best_mm)
}

/// [`best_ext_fwd`] scanning *backward*: extension `i` compares read `rpos - i`
/// against genome `gpos - i`, for `i` in `1..=room`.
fn best_ext_back(
    read: &Packed2,
    rpos: usize,
    seq: &Packed2,
    gpos: usize,
    room: usize,
) -> (usize, u32) {
    let mut score = 0i32;
    let mut best_score = 0i32;
    let mut mm = 0u32;
    let mut best_mm = 0u32;
    let mut best_ext = 0usize;
    let mut done = 0usize;
    while done < room {
        let block = (room - done).min(BASES_PER_WORD);
        // Bases i = done+1 ..= done+block live in the word starting at
        // rpos - done - block; lane L holds i = done + block - L, so the *highest*
        // set mask bit is the *next* mismatch in scan order.
        let a = read.word_from(rpos - done - block);
        let b = seq.word_from(gpos - done - block);
        let mut x = mismatch_mask(a, b);
        if block < BASES_PER_WORD {
            x &= (1u64 << (block << 1)) - 1;
        }
        let mut prev_i = done;
        while x != 0 {
            let p = 63 - x.leading_zeros();
            let lane = (p >> 1) as usize;
            let i_mm = done + block - lane;
            let run = i_mm - 1 - prev_i;
            if run > 0 {
                score += run as i32;
                if score > best_score {
                    best_score = score;
                    best_ext = prev_i + run;
                    best_mm = mm;
                }
            }
            score -= MISMATCH_PENALTY;
            mm += 1;
            prev_i = i_mm;
            x ^= 1u64 << p;
        }
        done += block;
        let run = done - prev_i;
        if run > 0 {
            score += run as i32;
            if score > best_score {
                best_score = score;
                best_ext = prev_i + run;
                best_mm = mm;
            }
        }
    }
    (best_ext, best_mm)
}

/// Extend `chain` over the packed `read` into a caller-provided (typically pooled)
/// alignment slot. `out` must be reset; on `false` — chains that violate the
/// substitution-only invariants, which only pathological seed sets produce — its
/// contents are unspecified. Allocation-free except
/// for CIGAR/junction growth beyond `out`'s retained capacity. Bit-identical to
/// [`extend_chain_scalar`] by construction (and by the property suites).
pub(crate) fn extend_chain_into(
    chain: &Chain,
    read: &Packed2,
    genome: &PackedGenome,
    sjdb: &SpliceJunctionDb,
    out: &mut WindowAlignment,
) -> bool {
    let seeds = &chain.seeds;
    if seeds.is_empty() {
        return false;
    }
    let seq = genome.seq();
    let read_len = read.len();

    let mut aligned = 0u32;
    let mut mismatches = 0u32;
    let mut splice_penalty = 0i32;
    // Length of the M run accumulating toward the next cigar push. Signed because a
    // splice split may shift into the flanking seeds (see `best_split`); it is
    // always positive at push time.
    let mut m_run: i64;

    // --- Left end extension ---------------------------------------------------
    let first = &seeds[0];
    let left_room = (first.gpos as usize).min(first.read_pos as usize);
    // Walk outward while in the same contig; keep the score-maximal prefix.
    let contig_start = genome.contig_of(first.gpos).start;
    let left_room = left_room.min((first.gpos - contig_start) as usize);
    let (best_ext, best_mm) = best_ext_back(
        read,
        first.read_pos as usize,
        seq,
        first.gpos as usize,
        left_room,
    );
    mismatches += best_mm;
    let gstart = first.gpos - best_ext as u64;
    let left_clip = first.read_pos as usize - best_ext;
    if left_clip > 0 {
        out.cigar.push(CigarOp::S(left_clip as u32));
    }
    m_run = best_ext as i64;
    aligned += best_ext as u32;

    // --- Seeds and inner gaps ---------------------------------------------------
    m_run += first.len as i64;
    aligned += first.len;
    for w in seeds.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let read_gap = (b.read_pos - a.read_end()) as usize;
        let genome_gap = (b.gpos - a.gend()) as usize;
        if genome_gap < read_gap {
            return false; // would need an insertion; not representable
        }
        if genome_gap == read_gap {
            // Mismatch run: one popcount pass over the gap.
            mismatches +=
                count_mismatches(read, a.read_end() as usize, seq, a.gend() as usize, read_gap);
            aligned += read_gap as u32;
            m_run += read_gap as i64;
        } else {
            // Intron: place the splice at the read-gap split minimizing mismatches;
            // ties resolve toward annotated, then canonical junctions (STAR's
            // sjdb-guided splice placement — boundary bases repeated on both sides
            // of an intron otherwise make the junction position ambiguous).
            let intron_len = genome_gap - read_gap;
            if intron_len as u64 > MAX_INTRON_LEN {
                return false;
            }
            let gap = SpliceGap { a, b, read_gap, intron_len, max_left_shift: m_run - 1 };
            let (split, mm, class) = best_split(read, genome, sjdb, &gap);
            mismatches += mm;
            aligned += read_gap as u32;
            m_run += split;
            let intron_start = (a.gend() as i64 + split) as u64;
            let intron_end = intron_start + intron_len as u64;
            splice_penalty += junction_penalty(class);
            out.junctions.push((intron_start, intron_end, class));
            out.cigar.push(CigarOp::M(m_run as u32));
            out.cigar.push(CigarOp::N(intron_len as u32));
            m_run = read_gap as i64 - split;
        }
        m_run += b.len as i64;
        aligned += b.len;
    }

    // --- Right end extension ------------------------------------------------------
    let last = seeds.last().expect("non-empty");
    let contig_end = genome.contig_of(last.gend().saturating_sub(1).max(last.gpos)).end();
    let right_room = (read_len - last.read_end() as usize)
        .min((contig_end - last.gend()) as usize)
        .min(seq.len() - last.gend() as usize);
    let (best_ext_r, best_mm_r) = best_ext_fwd(
        read,
        last.read_end() as usize,
        seq,
        last.gend() as usize,
        right_room,
    );
    mismatches += best_mm_r;
    m_run += best_ext_r as i64;
    aligned += best_ext_r as u32;
    if m_run > 0 {
        out.cigar.push(CigarOp::M(m_run as u32));
    }
    let right_clip = read_len - last.read_end() as usize - best_ext_r;
    if right_clip > 0 {
        out.cigar.push(CigarOp::S(right_clip as u32));
    }

    let matched = aligned - mismatches;
    out.gstart = gstart;
    out.aligned = aligned;
    out.mismatches = mismatches;
    out.score = matched as i32 - (mismatches as i32) * MISMATCH_PENALTY - splice_penalty;
    true
}

/// Bound on how far a splice split may shift into the flanking seeds.
const MAX_SJ_SHIFT: i64 = 8;

/// An intron-spanning gap between two chained seeds, as the split search sees it.
#[derive(Clone, Copy)]
struct SpliceGap<'a> {
    /// Seed left of the gap.
    a: &'a Seed,
    /// Seed right of the gap.
    b: &'a Seed,
    /// Read bases between the seeds.
    read_gap: usize,
    /// Genome gap minus read gap.
    intron_len: usize,
    /// M run accumulated left of the gap: how far a split may shift into `a`.
    max_left_shift: i64,
}

/// Choose where to split the `read_gap` bases around an intron between seeds `a` and
/// `b`: `split` bases align after `a`, the rest before `b`. Minimizes mismatches;
/// ties resolve toward the split whose junction is annotated, then canonical —
/// mirroring STAR's sjdb-guided splice placement.
///
/// `split` may be negative or exceed `read_gap`: when the bases flanking an intron
/// repeat across it, the maximal exact seeds overshoot the true junction and the
/// annotated split lies *inside* a seed, so candidates up to [`MAX_SJ_SHIFT`] bases
/// into either seed are also scored (capped by `max_left_shift`, the M run
/// accumulated left of the gap). Unshifted candidates are scored first, so a shifted
/// split only wins by strictly better (mismatches, class). Returns (split,
/// mismatches over the whole search window, junction class); window bases inside the
/// seeds match exactly under their original placement, so the mismatch count remains
/// directly comparable with the gap-only search. Each candidate's window mismatches
/// are two popcount segment counts (before/after the junction).
fn best_split(
    read: &Packed2,
    genome: &PackedGenome,
    sjdb: &SpliceJunctionDb,
    gap: &SpliceGap<'_>,
) -> (i64, u32, SpliceClass) {
    let SpliceGap { a, b, read_gap, intron_len, max_left_shift } = *gap;
    let seq = genome.seq();
    let class_rank = |c: SpliceClass| match c {
        SpliceClass::Annotated => 0u8,
        SpliceClass::Canonical => 1,
        SpliceClass::NonCanonical => 2,
    };
    let shift_a = MAX_SJ_SHIFT.min(max_left_shift).min(intron_len as i64).max(0);
    let shift_b = MAX_SJ_SHIFT.min(b.len as i64 - 1).min(intron_len as i64).max(0);
    // Mismatches are counted over the same read window for every candidate: the gap
    // plus the shiftable margins of both seeds.
    let win_lo = a.read_end() as i64 - shift_a;
    let win_hi = b.read_pos as i64 + shift_b; // exclusive
    let left_off = a.gend() as i64 - a.read_end() as i64;
    let right_off = b.gpos as i64 - b.read_pos as i64;
    let mut best: Option<(i64, u32, SpliceClass)> = None;
    // Candidates are generated in place of the old order vector: unshifted splits
    // first, then the ±k shifted ones — the order matters because a later
    // candidate only wins by being strictly better.
    {
        let mut consider = |split: i64| {
            // The junction always lies inside [win_lo, win_hi] for the candidate
            // range generated below, so both segment lengths are non-negative.
            let junction = a.read_end() as i64 + split;
            let left_len = (junction - win_lo) as usize;
            let right_len = (win_hi - junction) as usize;
            let mm = count_mismatches(
                read,
                win_lo as usize,
                seq,
                (win_lo + left_off) as usize,
                left_len,
            ) + count_mismatches(
                read,
                junction as usize,
                seq,
                (junction + right_off) as usize,
                right_len,
            );
            let intron_start = (a.gend() as i64 + split) as u64;
            let class = sjdb.classify(genome, intron_start, intron_start + intron_len as u64);
            let better = match best {
                None => true,
                Some((_, best_mm, best_class)) => {
                    (mm, class_rank(class)) < (best_mm, class_rank(best_class))
                }
            };
            if better {
                best = Some((split, mm, class));
            }
        };
        for split in 0..=read_gap as i64 {
            consider(split);
        }
        for k in 1..=MAX_SJ_SHIFT {
            if k <= shift_a {
                consider(-k);
            }
            if k <= shift_b {
                consider(read_gap as i64 + k);
            }
        }
    }
    best.expect("split 0 always evaluated")
}

/// The original per-base extension loop, frozen verbatim as the differential
/// oracle for `extend_chain_into`'s bit-parallel path. Property tests assert
/// bit-equal [`WindowAlignment`]s (scores, CIGARs, junctions) between the two on
/// random and adversarial inputs. Not used by the production pipeline.
pub fn extend_chain_scalar(
    chain: &Chain,
    read_codes: &[u8],
    genome: &PackedGenome,
    sjdb: &SpliceJunctionDb,
) -> Option<WindowAlignment> {
    let seeds = &chain.seeds;
    if seeds.is_empty() {
        return None;
    }
    let mut out = WindowAlignment::empty();
    let read_len = read_codes.len();

    let mut aligned = 0u32;
    let mut mismatches = 0u32;
    let mut splice_penalty = 0i32;
    let mut m_run: i64;

    // --- Left end extension ---------------------------------------------------
    let first = &seeds[0];
    let left_room = (first.gpos as usize).min(first.read_pos as usize);
    let contig_start = genome.contig_of(first.gpos).start;
    let left_room = left_room.min((first.gpos - contig_start) as usize);
    let mut best_ext = 0usize;
    {
        let mut score = 0i32;
        let mut best_score = 0i32;
        let mut mm = 0u32;
        let mut best_mm = 0u32;
        for i in 1..=left_room {
            let r = read_codes[first.read_pos as usize - i];
            let g = genome.code(first.gpos as usize - i);
            if r == g {
                score += 1;
            } else {
                score -= MISMATCH_PENALTY;
                mm += 1;
            }
            if score > best_score {
                best_score = score;
                best_ext = i;
                best_mm = mm;
            }
        }
        mismatches += best_mm;
    }
    let gstart = first.gpos - best_ext as u64;
    let left_clip = first.read_pos as usize - best_ext;
    if left_clip > 0 {
        out.cigar.push(CigarOp::S(left_clip as u32));
    }
    m_run = best_ext as i64;
    aligned += best_ext as u32;

    // --- Seeds and inner gaps ---------------------------------------------------
    m_run += first.len as i64;
    aligned += first.len;
    for w in seeds.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let read_gap = (b.read_pos - a.read_end()) as usize;
        let genome_gap = (b.gpos - a.gend()) as usize;
        if genome_gap < read_gap {
            return None;
        }
        if genome_gap == read_gap {
            for i in 0..read_gap {
                let r = read_codes[a.read_end() as usize + i];
                let g = genome.code(a.gend() as usize + i);
                if r != g {
                    mismatches += 1;
                }
            }
            aligned += read_gap as u32;
            m_run += read_gap as i64;
        } else {
            let intron_len = genome_gap - read_gap;
            if intron_len as u64 > MAX_INTRON_LEN {
                return None;
            }
            let gap = SpliceGap { a, b, read_gap, intron_len, max_left_shift: m_run - 1 };
            let (split, mm, class) = best_split_scalar(read_codes, genome, sjdb, &gap);
            mismatches += mm;
            aligned += read_gap as u32;
            m_run += split;
            let intron_start = (a.gend() as i64 + split) as u64;
            let intron_end = intron_start + intron_len as u64;
            splice_penalty += junction_penalty(class);
            out.junctions.push((intron_start, intron_end, class));
            out.cigar.push(CigarOp::M(m_run as u32));
            out.cigar.push(CigarOp::N(intron_len as u32));
            m_run = read_gap as i64 - split;
        }
        m_run += b.len as i64;
        aligned += b.len;
    }

    // --- Right end extension ------------------------------------------------------
    let last = seeds.last().expect("non-empty");
    let contig_end = genome.contig_of(last.gend().saturating_sub(1).max(last.gpos)).end();
    let right_room = (read_len - last.read_end() as usize)
        .min((contig_end - last.gend()) as usize)
        .min(genome.len() - last.gend() as usize);
    let mut best_ext_r = 0usize;
    {
        let mut score = 0i32;
        let mut best_score = 0i32;
        let mut mm = 0u32;
        let mut best_mm = 0u32;
        for i in 0..right_room {
            let r = read_codes[last.read_end() as usize + i];
            let g = genome.code(last.gend() as usize + i);
            if r == g {
                score += 1;
            } else {
                score -= MISMATCH_PENALTY;
                mm += 1;
            }
            if score > best_score {
                best_score = score;
                best_ext_r = i + 1;
                best_mm = mm;
            }
        }
        mismatches += best_mm;
    }
    m_run += best_ext_r as i64;
    aligned += best_ext_r as u32;
    if m_run > 0 {
        out.cigar.push(CigarOp::M(m_run as u32));
    }
    let right_clip = read_len - last.read_end() as usize - best_ext_r;
    if right_clip > 0 {
        out.cigar.push(CigarOp::S(right_clip as u32));
    }

    let matched = aligned - mismatches;
    out.gstart = gstart;
    out.aligned = aligned;
    out.mismatches = mismatches;
    out.score = matched as i32 - (mismatches as i32) * MISMATCH_PENALTY - splice_penalty;
    Some(out)
}

/// Per-base splice-split search, the oracle half of [`best_split`].
fn best_split_scalar(
    read_codes: &[u8],
    genome: &PackedGenome,
    sjdb: &SpliceJunctionDb,
    gap: &SpliceGap<'_>,
) -> (i64, u32, SpliceClass) {
    let SpliceGap { a, b, read_gap, intron_len, max_left_shift } = *gap;
    let class_rank = |c: SpliceClass| match c {
        SpliceClass::Annotated => 0u8,
        SpliceClass::Canonical => 1,
        SpliceClass::NonCanonical => 2,
    };
    let shift_a = MAX_SJ_SHIFT.min(max_left_shift).min(intron_len as i64).max(0);
    let shift_b = MAX_SJ_SHIFT.min(b.len as i64 - 1).min(intron_len as i64).max(0);
    let win_lo = a.read_end() as i64 - shift_a;
    let win_hi = b.read_pos as i64 + shift_b; // exclusive
    let left_off = a.gend() as i64 - a.read_end() as i64;
    let right_off = b.gpos as i64 - b.read_pos as i64;
    let mut best: Option<(i64, u32, SpliceClass)> = None;
    {
        let mut consider = |split: i64| {
            let junction = a.read_end() as i64 + split;
            let mut mm = 0u32;
            for x in win_lo..win_hi {
                let off = if x < junction { left_off } else { right_off };
                if read_codes[x as usize] != genome.code((x + off) as usize) {
                    mm += 1;
                }
            }
            let intron_start = (a.gend() as i64 + split) as u64;
            let class = sjdb.classify(genome, intron_start, intron_start + intron_len as u64);
            let better = match best {
                None => true,
                Some((_, best_mm, best_class)) => {
                    (mm, class_rank(class)) < (best_mm, class_rank(best_class))
                }
            };
            if better {
                best = Some((split, mm, class));
            }
        };
        for split in 0..=read_gap as i64 {
            consider(split);
        }
        for k in 1..=MAX_SJ_SHIFT {
            if k <= shift_a {
                consider(-k);
            }
            if k <= shift_b {
                consider(read_gap as i64 + k);
            }
        }
    }
    best.expect("split 0 always evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexParams, StarIndex};
    use crate::params::AlignParams;
    use crate::seed::collect_seeds;
    use crate::stitch::best_chains;
    use genomics::annotation::{Annotation, Exon, Gene, Strand};
    use genomics::{Assembly, Contig, ContigKind, DnaSeq};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn index_of(text: &str, ann: Annotation) -> StarIndex {
        let asm = Assembly {
            name: "T".into(),
            release: 1,
            contigs: vec![Contig {
                name: "1".into(),
                kind: ContigKind::Chromosome,
                seq: text.parse::<DnaSeq>().unwrap(),
            }],
        };
        StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap()
    }

    fn align_one(idx: &StarIndex, read: &DnaSeq) -> WindowAlignment {
        let seeds = collect_seeds(idx, read.codes(), &AlignParams::default());
        let chains = best_chains(&seeds, read.len());
        chains
            .iter()
            .filter_map(|c| extend_chain(c, read.codes(), idx.genome(), idx.sjdb()))
            .max_by_key(|wa| wa.score)
            .expect("alignment exists")
    }

    fn random_text(seed: u64, len: usize) -> String {
        DnaSeq::random(&mut StdRng::seed_from_u64(seed), len).to_string()
    }

    #[test]
    fn perfect_read_scores_full_length() {
        let text = random_text(1, 2000);
        let idx = index_of(&text, Annotation::default());
        let read: DnaSeq = text[700..800].parse().unwrap();
        let wa = align_one(&idx, &read);
        assert_eq!(wa.gstart, 700);
        assert_eq!(wa.score, 100);
        assert_eq!(wa.aligned, 100);
        assert_eq!(wa.mismatches, 0);
        assert_eq!(wa.cigar, vec![CigarOp::M(100)]);
        assert!(wa.junctions.is_empty());
    }

    #[test]
    fn inner_mismatch_is_bridged_and_counted() {
        let text = random_text(2, 2000);
        let idx = index_of(&text, Annotation::default());
        let mut codes: Vec<u8> = text[700..800].parse::<DnaSeq>().unwrap().codes().to_vec();
        codes[40] = (codes[40] + 2) % 4;
        let read = DnaSeq::from_codes(codes);
        let wa = align_one(&idx, &read);
        assert_eq!(wa.gstart, 700);
        assert_eq!(wa.aligned, 100);
        assert_eq!(wa.mismatches, 1);
        assert_eq!(wa.score, 99 - 1);
        assert_eq!(wa.cigar, vec![CigarOp::M(100)]);
    }

    #[test]
    fn end_mismatches_extend_not_clip_when_profitable() {
        let text = random_text(3, 2000);
        let idx = index_of(&text, Annotation::default());
        let mut codes: Vec<u8> = text[700..800].parse::<DnaSeq>().unwrap().codes().to_vec();
        // Mismatch near the right end but with a matching tail after it: extension
        // through the mismatch is profitable.
        codes[95] = (codes[95] + 1) % 4;
        let read = DnaSeq::from_codes(codes);
        let wa = align_one(&idx, &read);
        assert_eq!(wa.aligned, 100, "should extend through the single mismatch");
        assert_eq!(wa.mismatches, 1);
    }

    #[test]
    fn divergent_tail_is_soft_clipped() {
        let text = random_text(4, 2000);
        let idx = index_of(&text, Annotation::default());
        // 80 genomic bases + 20 divergent bases.
        let tail = random_text(999, 20);
        let read: DnaSeq = format!("{}{}", &text[700..780], tail).parse().unwrap();
        let wa = align_one(&idx, &read);
        assert!(wa.clipped() >= 15, "divergent tail should clip, cigar {:?}", wa.cigar);
        assert!(wa.aligned >= 80);
        assert!(matches!(wa.cigar.last(), Some(CigarOp::S(_))));
    }

    #[test]
    fn spliced_read_gets_n_op_and_annotated_class() {
        let text = random_text(5, 4000);
        // Gene with intron [1000, 1400).
        let gene = Gene {
            id: "G".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 900, end: 1000 }, Exon { start: 1400, end: 1500 }],
        };
        let ann = Annotation { genes: vec![gene.clone()] };
        let idx = index_of(&text, ann);
        // Read spanning the junction: 50 bases of exon1 end + 50 of exon2 start.
        let read: DnaSeq =
            format!("{}{}", &text[950..1000], &text[1400..1450]).parse().unwrap();
        let wa = align_one(&idx, &read);
        assert_eq!(wa.gstart, 950);
        assert_eq!(wa.aligned, 100);
        assert_eq!(wa.mismatches, 0);
        assert_eq!(wa.cigar, vec![CigarOp::M(50), CigarOp::N(400), CigarOp::M(50)]);
        assert_eq!(wa.junctions.len(), 1);
        assert_eq!(wa.junctions[0].0, 1000);
        assert_eq!(wa.junctions[0].1, 1400);
        assert_eq!(wa.junctions[0].2, SpliceClass::Annotated);
        // Annotated junction: no penalty.
        assert_eq!(wa.score, 100);
    }

    #[test]
    fn novel_noncanonical_junction_pays_penalty() {
        let text = random_text(6, 4000);
        let idx = index_of(&text, Annotation::default());
        let read: DnaSeq =
            format!("{}{}", &text[950..1000], &text[1400..1450]).parse().unwrap();
        let wa = align_one(&idx, &read);
        assert_eq!(wa.junctions.len(), 1);
        // Random genome: junction motif is almost surely non-canonical here.
        let expected_penalty = match wa.junctions[0].2 {
            SpliceClass::NonCanonical => NONCANONICAL_SPLICE_PENALTY,
            SpliceClass::Canonical => CANONICAL_SPLICE_PENALTY,
            SpliceClass::Annotated => 0,
        };
        assert_eq!(wa.score, 100 - expected_penalty);
    }

    #[test]
    fn mismatch_at_splice_gap_is_placed_optimally() {
        let text = random_text(7, 4000);
        let gene = Gene {
            id: "G".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 900, end: 1000 }, Exon { start: 1400, end: 1500 }],
        };
        let idx = index_of(&text, Annotation { genes: vec![gene] });
        // Junction-spanning read with a mismatch exactly at the last exon1 base.
        let mut codes: Vec<u8> =
            format!("{}{}", &text[950..1000], &text[1400..1450]).parse::<DnaSeq>().unwrap().codes().to_vec();
        codes[49] = (codes[49] + 1) % 4;
        let read = DnaSeq::from_codes(codes);
        let wa = align_one(&idx, &read);
        assert_eq!(wa.aligned, 100);
        assert_eq!(wa.mismatches, 1);
        assert_eq!(wa.junctions.len(), 1);
    }

    #[test]
    fn extension_respects_contig_start_boundary() {
        // Read hangs off the left edge of the contig: must clip, not underflow.
        let text = random_text(8, 1000);
        let idx = index_of(&text, Annotation::default());
        let read: DnaSeq = format!("CCCCC{}", &text[0..95]).parse().unwrap();
        let seeds = collect_seeds(&idx, read.codes(), &AlignParams::default());
        let chains = best_chains(&seeds, read.len());
        let wa = chains
            .iter()
            .filter_map(|c| extend_chain(c, read.codes(), idx.genome(), idx.sjdb()))
            .max_by_key(|w| w.score)
            .unwrap();
        assert_eq!(wa.gstart, 0);
        assert!(matches!(wa.cigar.first(), Some(CigarOp::S(n)) if *n >= 5));
    }

    #[test]
    fn cigar_spans_whole_read() {
        let text = random_text(9, 2000);
        let idx = index_of(&text, Annotation::default());
        for read_src in [&text[100..200], &text[1900..2000]] {
            let read: DnaSeq = read_src.parse().unwrap();
            let wa = align_one(&idx, &read);
            let total: u32 = wa
                .cigar
                .iter()
                .map(|op| match op {
                    CigarOp::M(n) | CigarOp::S(n) => *n,
                    CigarOp::N(_) => 0,
                })
                .sum();
            assert_eq!(total, 100, "cigar {:?}", wa.cigar);
        }
    }

    #[test]
    fn bit_parallel_matches_scalar_oracle_on_random_chains() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(2024);
        let text = random_text(77, 6000);
        let gene = Gene {
            id: "G".into(),
            contig: "1".into(),
            strand: Strand::Forward,
            exons: vec![Exon { start: 1000, end: 1200 }, Exon { start: 1700, end: 1900 }],
        };
        let idx = index_of(&text, Annotation { genes: vec![gene] });
        let params = AlignParams::default();
        for trial in 0..400 {
            // Reads of several shapes: genomic, mutated, spliced, edge-hanging.
            let codes: Vec<u8> = match trial % 4 {
                0 => {
                    let s = rng.gen_range(0..text.len() - 120);
                    text[s..s + 100].parse::<DnaSeq>().unwrap().codes().to_vec()
                }
                1 => {
                    let s = rng.gen_range(0..text.len() - 120);
                    let mut c = text[s..s + 100].parse::<DnaSeq>().unwrap().codes().to_vec();
                    for _ in 0..rng.gen_range(1..8) {
                        let i = rng.gen_range(0..c.len());
                        c[i] = (c[i] + rng.gen_range(1..4u8)) % 4;
                    }
                    c
                }
                2 => {
                    let cut = rng.gen_range(20..80usize);
                    let mut c =
                        text[1200 - cut..1200].parse::<DnaSeq>().unwrap().codes().to_vec();
                    c.extend(
                        text[1700..1700 + (100 - cut)].parse::<DnaSeq>().unwrap().codes(),
                    );
                    c
                }
                _ => {
                    let s = rng.gen_range(0..30usize);
                    text[s..s + 100].parse::<DnaSeq>().unwrap().codes().to_vec()
                }
            };
            let seeds = collect_seeds(&idx, &codes, &params);
            let chains = best_chains(&seeds, codes.len());
            let packed = Packed2::from_codes(&codes);
            for chain in &chains {
                let scalar = extend_chain_scalar(chain, &codes, idx.genome(), idx.sjdb());
                let mut fast = WindowAlignment::empty();
                let ok = extend_chain_into(chain, &packed, idx.genome(), idx.sjdb(), &mut fast);
                assert_eq!(ok, scalar.is_some(), "trial {trial}");
                if let Some(s) = scalar {
                    assert_eq!(fast, s, "trial {trial}");
                }
            }
        }
    }
}
