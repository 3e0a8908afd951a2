//! The genome index: packed genome + suffix array + prefix table + sjdb.
//!
//! This is the artifact whose size the paper's §III-A compares across Ensembl
//! releases (85 GiB on release 108 vs 29.5 GiB on release 111): [`IndexStats`] gives
//! byte-accurate component sizes, and [`StarIndex::serialize`]/[`StarIndex::deserialize`]
//! provide the on-disk form whose download-and-load cost the cloud model charges at
//! instance initialization.
//!
//! The genome stays 2-bit packed for the index's whole life: the suffix array is
//! sorted straight from the packing ([`SuffixArray::build`]), and every prefix rung —
//! the serialized base table, the ones derived below it at load, the deep one built
//! on first use — reads its `d`-mers from it. No byte-per-base copy is ever made, so
//! building peaks at about the bytes the finished index keeps. This module orders the sections and writes all but one: the
//! base [`PrefixTable`] encodes and validates its own (`encode`/`decode`), so
//! nothing here knows its bucket layout.

use crate::genome::{ContigSpan, Packed2, PackedGenome};
use crate::prefix::PrefixTable;
use crate::sa::SuffixArray;
use crate::sjdb::SpliceJunctionDb;
use crate::StarError;
use genomics::{Annotation, Assembly};
use std::sync::{Arc, OnceLock};

/// Parameters for index construction.
#[derive(Clone, Debug, Default)]
pub struct IndexParams {
    /// Prefix-table depth; `None` selects automatically from the genome length
    /// (STAR's `--genomeSAindexNbases` default formula).
    pub sa_index_nbases: Option<usize>,
}

/// Upper bound for the automatic prefix depth.
const AUTO_DEPTH_CAP: usize = 11;

/// Byte-accurate sizes of the index components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexStats {
    /// 2-bit packed genome bytes (STAR `Genome` file).
    pub genome_bytes: usize,
    /// Suffix-array bytes (STAR `SA` file) — the dominant component.
    pub sa_bytes: usize,
    /// Prefix lookup table bytes (STAR `SAindex` file).
    pub prefix_bytes: usize,
    /// Splice-junction database bytes (STAR `sjdb*` files).
    pub sjdb_bytes: usize,
    /// Genome length in bases.
    pub genome_len: usize,
    /// Number of contigs.
    pub n_contigs: usize,
}

impl IndexStats {
    /// Total index size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.genome_bytes + self.sa_bytes + self.prefix_bytes + self.sjdb_bytes
    }
}

/// The complete alignment index for one assembly.
#[derive(Clone, Debug)]
pub struct StarIndex {
    /// Everything but the junctions: immutable once built, so an index derived by
    /// [`StarIndex::with_extra_junctions`] shares it instead of copying it.
    shared: Arc<Shared>,
    sjdb: SpliceJunctionDb,
    /// Assembly name recorded for provenance (e.g. `"GRCh38-sim"`).
    pub assembly_name: String,
    /// Ensembl release the source assembly came from.
    pub release: u32,
}

#[derive(Debug)]
struct Shared {
    genome: PackedGenome,
    sa: SuffixArray,
    /// The serialized base prefix table (depth `k`) first, then the depths
    /// `k-1, …, 1` derived from it ([`PrefixTable::ladder`]).
    prefix: Vec<PrefixTable>,
    /// Deeper runtime-only prefix tables for the seed hot path, built lazily on
    /// first use from the packed genome and cached for the index's lifetime. Not
    /// part of the on-disk format ([`StarIndex::serialize`] skips it) and excluded
    /// from [`IndexStats`].
    deep: OnceLock<Vec<PrefixTable>>,
}

impl Shared {
    fn new(genome: PackedGenome, sa: SuffixArray, base: PrefixTable) -> Arc<Shared> {
        let prefix = base.ladder(&sa, genome.seq());
        Arc::new(Shared { genome, sa, prefix, deep: OnceLock::new() })
    }
}

impl StarIndex {
    /// Build an index from an assembly and annotation ("genomeGenerate" mode).
    pub fn build(
        assembly: &Assembly,
        annotation: &Annotation,
        params: &IndexParams,
    ) -> Result<StarIndex, StarError> {
        let genome = PackedGenome::from_assembly(assembly)?;
        let k = params
            .sa_index_nbases
            .unwrap_or_else(|| PrefixTable::auto_k(genome.len(), AUTO_DEPTH_CAP));
        if k == 0 || k > 13 {
            return Err(StarError::InvalidParams(format!("sa_index_nbases {k} not in 1..=13")));
        }
        let sa = SuffixArray::build(genome.seq());
        let base = PrefixTable::build(&sa, genome.seq(), k);
        let sjdb = SpliceJunctionDb::from_annotation(annotation, &genome);
        Ok(StarIndex {
            shared: Shared::new(genome, sa, base),
            sjdb,
            assembly_name: assembly.name.clone(),
            release: assembly.release,
        })
    }

    /// The packed genome.
    pub fn genome(&self) -> &PackedGenome {
        &self.shared.genome
    }

    /// The suffix array.
    pub fn sa(&self) -> &SuffixArray {
        &self.shared.sa
    }

    /// The base prefix lookup table: the one depth that is serialized.
    pub fn prefix(&self) -> &PrefixTable {
        &self.shared.prefix[0]
    }

    /// The base prefix table and every depth below it, deepest first: `k, k-1, …, 1`.
    pub fn prefix_ladder(&self) -> &[PrefixTable] {
        &self.shared.prefix
    }

    /// The splice-junction database.
    pub fn sjdb(&self) -> &SpliceJunctionDb {
        &self.sjdb
    }

    /// Deeper runtime-only prefix tables for the seed hot path (deepest first, down
    /// to `k+1`; empty when the genome is too small to warrant one). Built on first
    /// call and cached, so sharing one index across runs pays the construction cost
    /// once. Search results are identical with or without them
    /// ([`PrefixTable::deepen`]).
    pub fn deep_prefix(&self) -> &[PrefixTable] {
        let Shared { genome, sa, prefix, deep } = &*self.shared;
        deep.get_or_init(|| PrefixTable::deepen(sa, genome.seq(), prefix[0].k()))
    }

    /// Resident bytes of the prefix tables that are not in the serialized index and
    /// so not in [`IndexStats`]: every rung of the search ladder but the base table.
    /// Builds the deep tables if no aligner has yet.
    pub fn runtime_table_bytes(&self) -> usize {
        let rungs = self.deep_prefix().iter().chain(&self.shared.prefix[1..]);
        rungs.map(PrefixTable::byte_size).sum()
    }

    /// This index with additional sjdb junctions (global coordinates) — the
    /// second-pass index of `--twopassMode Basic`. Genome, suffix array and prefix
    /// tables are shared with `self`, not copied: it costs its junction database.
    pub fn with_extra_junctions(&self, junctions: impl IntoIterator<Item = (u64, u64)>) -> StarIndex {
        let mut out = self.clone();
        for (s, e) in junctions {
            out.sjdb.insert(s, e);
        }
        out
    }

    /// Component sizes (the paper's index-size comparison).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            genome_bytes: self.genome().packed_byte_size(),
            sa_bytes: self.sa().byte_size(),
            prefix_bytes: self.prefix().byte_size(),
            sjdb_bytes: self.sjdb.byte_size(),
            genome_len: self.genome().len(),
            n_contigs: self.genome().spans().len(),
        }
    }

    /// Serialize to a self-describing little-endian binary blob.
    ///
    /// Layout: magic, version, header lengths, then the 2-bit packed genome words
    /// (version 2 stores the packed form directly — 4× smaller on disk than the
    /// old byte-per-base blob, and deserialization is a straight word copy), span
    /// table, SA, prefix table, sjdb.
    pub fn serialize(&self) -> Vec<u8> {
        let (genome, sa) = (self.genome(), self.sa());
        let mut out = Vec::with_capacity(genome.len() * 5 + 1024);
        out.extend_from_slice(MAGIC);
        push_u32(&mut out, VERSION);
        push_str(&mut out, &self.assembly_name);
        push_u32(&mut out, self.release);
        // Genome: 2-bit packed words.
        push_u64(&mut out, genome.len() as u64);
        for &w in genome.seq().words() {
            push_u64(&mut out, w);
        }
        // Span table.
        push_u32(&mut out, genome.spans().len() as u32);
        for s in genome.spans() {
            push_str(&mut out, &s.name);
            push_u32(&mut out, contig_kind_code(s.kind));
            push_u64(&mut out, s.start);
            push_u64(&mut out, s.len);
        }
        // Suffix array.
        push_u64(&mut out, sa.len() as u64);
        for &p in sa.positions() {
            push_u32(&mut out, p);
        }
        self.prefix().encode(&mut out);
        // Sjdb.
        let js = self.sjdb.sorted();
        push_u64(&mut out, js.len() as u64);
        for j in js {
            push_u64(&mut out, j.intron_start);
            push_u64(&mut out, j.intron_end);
        }
        out
    }

    /// Deserialize a blob produced by [`StarIndex::serialize`], with structural
    /// validation of every component.
    pub fn deserialize(bytes: &[u8]) -> Result<StarIndex, StarError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(StarError::CorruptIndex("bad magic".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(StarError::CorruptIndex(format!("unsupported version {version}")));
        }
        let assembly_name = r.string()?;
        let release = r.u32()?;
        // Every length below comes straight from the blob: each is checked against
        // the bytes actually left before anything is allocated for it.
        let glen = usize::try_from(r.u64()?).map_err(|_| implausible("genome length"))?;
        let n_words = glen.div_ceil(crate::genome::BASES_PER_WORD) as u64;
        let words = r.array(n_words, "genome length", u64::from_le_bytes)?;
        let seq = Packed2::from_words(words, glen)?;
        let n_spans = r.u32()?;
        let n_spans = r.count(n_spans.into(), MIN_SPAN_BYTES, "span count")?;
        let mut spans = Vec::with_capacity(n_spans);
        for _ in 0..n_spans {
            let name = r.string()?;
            let kind = contig_kind_from_code(r.u32()?)?;
            let start = r.u64()?;
            let len = r.u64()?;
            spans.push(ContigSpan { name, kind, start, len });
        }
        let genome = PackedGenome::from_parts(seq, spans)?;
        let sa_len = r.u64()?;
        let sa_raw = r.array(sa_len, "suffix array length", u32::from_le_bytes)?;
        let sa = SuffixArray::from_raw(sa_raw, genome.len())?;
        let mut rest = &bytes[r.pos..];
        let prefix = PrefixTable::decode(&mut rest, sa.len())?;
        r.pos = bytes.len() - rest.len();
        let n_j = r.u64()?;
        let n_j = r.count(n_j, 16, "junction count")?;
        let mut pairs = Vec::with_capacity(n_j);
        for _ in 0..n_j {
            let s = r.u64()?;
            let e = r.u64()?;
            if e <= s || e > genome.len() as u64 {
                return Err(StarError::CorruptIndex(format!("junction {s}..{e} out of range")));
            }
            pairs.push((s, e));
        }
        if r.pos != bytes.len() {
            return Err(StarError::CorruptIndex(format!("{} trailing bytes", bytes.len() - r.pos)));
        }
        Ok(StarIndex {
            shared: Shared::new(genome, sa, prefix),
            sjdb: SpliceJunctionDb::from_raw(pairs),
            assembly_name,
            release,
        })
    }
}

const MAGIC: &[u8] = b"STARIDX\0";
/// Fewest bytes a serialized span takes: empty name, kind, start, length.
const MIN_SPAN_BYTES: usize = 4 + 4 + 8 + 8;

fn implausible(what: &str) -> StarError {
    StarError::CorruptIndex(format!("{what} implausible for the blob size"))
}

/// Version 2: the genome section holds 2-bit packed words, not byte-per-base
/// codes, and the prefix table's bucket order follows LSB-first k-mer values.
const VERSION: u32 = 2;

fn contig_kind_code(kind: genomics::ContigKind) -> u32 {
    match kind {
        genomics::ContigKind::Chromosome => 0,
        genomics::ContigKind::UnlocalizedScaffold => 1,
        genomics::ContigKind::UnplacedScaffold => 2,
    }
}

fn contig_kind_from_code(code: u32) -> Result<genomics::ContigKind, StarError> {
    match code {
        0 => Ok(genomics::ContigKind::Chromosome),
        1 => Ok(genomics::ContigKind::UnlocalizedScaffold),
        2 => Ok(genomics::ContigKind::UnplacedScaffold),
        _ => Err(StarError::CorruptIndex(format!("contig kind code {code}"))),
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StarError> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.bytes.len());
        let end = end.ok_or_else(|| StarError::CorruptIndex("unexpected end of blob".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// An element count read from the blob, accepted only if `n` elements of at
    /// least `min_bytes` each can still follow.
    fn count(&self, n: u64, min_bytes: usize, what: &str) -> Result<usize, StarError> {
        usize::try_from(n)
            .ok()
            .filter(|n| n.checked_mul(min_bytes).is_some_and(|b| b <= self.remaining()))
            .ok_or_else(|| implausible(what))
    }

    fn u32(&mut self) -> Result<u32, StarError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, StarError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// `n` little-endian `W`-byte values (`decode` is `u32::from_le_bytes` or
    /// `u64::from_le_bytes`): one bounds check, one pass.
    fn array<const W: usize, T>(
        &mut self,
        n: u64,
        what: &str,
        decode: fn([u8; W]) -> T,
    ) -> Result<Vec<T>, StarError> {
        let bytes = self.take(self.count(n, W, what)? * W)?;
        Ok(bytes.chunks_exact(W).map(|c| decode(c.try_into().expect("W bytes"))).collect())
    }

    fn string(&mut self) -> Result<String, StarError> {
        let n = self.u32()? as usize;
        if n > 1 << 20 {
            return Err(StarError::CorruptIndex("string length implausible".into()));
        }
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| StarError::CorruptIndex("non-utf8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomics::{EnsemblGenerator, EnsemblParams, Release};

    fn small_index() -> StarIndex {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g).unwrap();
        StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap()
    }

    #[test]
    fn build_produces_consistent_components() {
        let idx = small_index();
        assert_eq!(idx.sa().len(), idx.genome().len());
        assert!(idx.prefix().k() >= 4);
        assert!(!idx.sjdb().is_empty(), "annotation has multi-exon genes");
        assert_eq!(idx.release, 111);
    }

    #[test]
    fn stats_reflect_component_sizes() {
        let idx = small_index();
        let st = idx.stats();
        assert_eq!(st.genome_len, idx.genome().len());
        assert_eq!(st.sa_bytes, idx.genome().len() * 4);
        assert!(st.total_bytes() > st.sa_bytes);
        assert_eq!(
            st.total_bytes(),
            st.genome_bytes + st.sa_bytes + st.prefix_bytes + st.sjdb_bytes
        );
    }

    #[test]
    fn index_size_scales_with_release() {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let mut totals = Vec::new();
        for r in [Release::R108, Release::R111] {
            let asm = g.generate(r);
            let ann = Annotation::simulate(&asm, &g).unwrap();
            let idx = StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap();
            totals.push(idx.stats().total_bytes());
        }
        let ratio = totals[0] as f64 / totals[1] as f64;
        assert!(ratio > 2.0, "r108 index must be much larger, ratio {ratio}");
    }

    #[test]
    fn a_second_pass_index_shares_everything_but_its_junctions() {
        let idx = small_index();
        let n_junctions = idx.sjdb().sorted().len();
        // Derived before the deep tables exist: whichever index asks first builds
        // them for both.
        let second = idx.with_extra_junctions([(100, 900)]);
        assert!(Arc::ptr_eq(&idx.shared, &second.shared));
        assert!(!second.deep_prefix().is_empty());
        assert!(std::ptr::eq(idx.deep_prefix(), second.deep_prefix()), "deep tables built twice");
        assert!(second.sjdb().contains(100, 900) && !idx.sjdb().contains(100, 900));
        assert_eq!((idx.sjdb().sorted().len(), second.sjdb().sorted().len()), (n_junctions, n_junctions + 1));
    }

    #[test]
    fn runtime_table_bytes_counts_every_rung_but_the_base() {
        let idx = small_index();
        let k = idx.prefix().k();
        assert!(idx.prefix_ladder().iter().map(|t| t.k()).eq((1..=k).rev()));
        let below: usize = idx.prefix_ladder()[1..].iter().map(PrefixTable::byte_size).sum();
        let above: usize = idx.deep_prefix().iter().map(PrefixTable::byte_size).sum();
        assert_eq!(idx.runtime_table_bytes(), below + above);
        // Derived rungs: 4^(k-1) + … + 4 buckets against the base table's 4^k.
        assert!(3 * below < idx.stats().prefix_bytes);
        assert_eq!(idx.stats().prefix_bytes, idx.prefix().byte_size(), "the serialized size is the base table's");
    }

    #[test]
    fn serialize_round_trips() {
        let idx = small_index();
        let blob = idx.serialize();
        let back = StarIndex::deserialize(&blob).unwrap();
        assert_eq!(back.genome().seq(), idx.genome().seq());
        assert_eq!(back.genome().spans(), idx.genome().spans());
        assert_eq!(back.sa().positions(), idx.sa().positions());
        assert_eq!(back.prefix(), idx.prefix());
        assert_eq!(back.sjdb().sorted(), idx.sjdb().sorted());
        assert_eq!(back.assembly_name, idx.assembly_name);
        assert_eq!(back.release, idx.release);
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let idx = small_index();
        let blob = idx.serialize();
        // Bad magic.
        let mut b = blob.clone();
        b[0] ^= 0xFF;
        assert!(StarIndex::deserialize(&b).is_err());
        // Truncated.
        assert!(StarIndex::deserialize(&blob[..blob.len() / 2]).is_err());
        // Trailing garbage.
        let mut b = blob.clone();
        b.push(0);
        assert!(StarIndex::deserialize(&b).is_err());
        // Implausible genome length (the u64 right after
        // magic+version+name+release): word reads run off the end of the blob.
        let hdr = MAGIC.len() + 4 + 4 + idx.assembly_name.len() + 4;
        let mut b = blob.clone();
        b[hdr..hdr + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(StarIndex::deserialize(&b).is_err());
        // Non-zero padding bits in the last genome word (packed-form invariant).
        let glen = idx.genome().len();
        let pad = glen % crate::genome::BASES_PER_WORD;
        if pad != 0 {
            let n_words = glen.div_ceil(crate::genome::BASES_PER_WORD);
            let mut b = blob;
            b[hdr + 8 + n_words * 8 - 1] ^= 0x80; // bit 63 of the last word
            assert!(StarIndex::deserialize(&b).is_err());
        }
    }
}
