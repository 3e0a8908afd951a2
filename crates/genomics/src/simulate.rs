//! RNA-seq read simulators.
//!
//! Two library protocols matter to the paper:
//!
//! * **Bulk poly-A RNA-seq** — reads drawn along whole transcripts with log-normal
//!   per-gene expression; high mappable fraction (~90 %+). These are the accessions the
//!   Atlas keeps.
//! * **Single-cell 3' RNA-seq** — the libraries the paper's early stopping weeds out:
//!   a large fraction of each file is technical sequence (poly-A runs, adapter
//!   fragments, low-complexity repeats, random junk) and the informative reads cluster
//!   at transcript 3' ends, so the STAR mapping rate lands *below* the 30 % threshold
//!   and the alignment is worth aborting at the 10 %-of-reads checkpoint.
//!
//! Every read carries its ground-truth [`ReadOrigin`] so tests can score the aligner.

use crate::annotation::{Annotation, Gene};
use crate::fastq::{FastqRecord, MAX_PHRED};
use crate::genome::{Assembly, ContigKind};
use crate::seq::{Base, DnaSeq};
use crate::GenomicsError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Library preparation protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LibraryType {
    /// Bulk poly-A selected RNA-seq (high mapping rate).
    BulkPolyA,
    /// Single-cell 3'-tag RNA-seq (low mapping rate; early-stop candidate).
    SingleCell3Prime,
}

/// Where a simulated read truly came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOrigin {
    /// From the mature transcript of `gene_id`, at `offset` in transcript coordinates.
    Transcript { gene_id: String, offset: usize },
    /// From unspliced genomic sequence (intron/intergenic) of `contig` at `pos`.
    Genomic { contig: String, pos: usize },
    /// Technical/junk sequence that should NOT map.
    Junk(JunkClass),
}

/// Classes of non-mappable technical sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JunkClass {
    /// Poly-A homopolymer run.
    PolyA,
    /// Sequencing adapter fragments.
    Adapter,
    /// Dinucleotide low-complexity repeat.
    LowComplexity,
    /// Uniform random sequence (unmappable at read length).
    Random,
}

/// A read plus its ground truth.
#[derive(Clone, Debug)]
pub struct SimulatedRead {
    /// The FASTQ record as the pipeline sees it.
    pub fastq: FastqRecord,
    /// Ground-truth origin (not visible to the aligner).
    pub origin: ReadOrigin,
}

/// Tunable mixture weights and error model for a simulator.
#[derive(Clone, Debug)]
pub struct SimulatorParams {
    /// Read length in bases.
    pub read_len: usize,
    /// Per-base substitution error probability.
    pub error_rate: f64,
    /// Fraction of reads drawn from mature transcripts.
    pub exonic_fraction: f64,
    /// Fraction of reads drawn from unspliced genomic positions.
    pub genomic_fraction: f64,
    /// Remaining fraction is junk; mixture over junk classes below must sum to 1.
    pub junk_mix: [(JunkClass, f64); 4],
    /// Log-normal σ of per-gene expression weights.
    pub expression_sigma: f64,
    /// If `Some(bias_window)`, transcript sampling is restricted to the last
    /// `bias_window` bases (3' bias of single-cell protocols).
    pub three_prime_bias: Option<usize>,
    /// Base Phred quality of simulated calls.
    pub base_quality: u8,
    /// Mean insert (fragment) size for paired-end simulation.
    pub fragment_mean: f64,
    /// Standard deviation of the insert size.
    pub fragment_sd: f64,
}

impl SimulatorParams {
    /// Defaults for the given protocol, matching the module-level description.
    pub fn for_library(library: LibraryType) -> SimulatorParams {
        match library {
            LibraryType::BulkPolyA => SimulatorParams {
                read_len: 100,
                error_rate: 0.004,
                exonic_fraction: 0.82,
                genomic_fraction: 0.12,
                junk_mix: [
                    (JunkClass::PolyA, 0.25),
                    (JunkClass::Adapter, 0.35),
                    (JunkClass::LowComplexity, 0.15),
                    (JunkClass::Random, 0.25),
                ],
                expression_sigma: 1.0,
                three_prime_bias: None,
                base_quality: 36,
                fragment_mean: 250.0,
                fragment_sd: 40.0,
            },
            LibraryType::SingleCell3Prime => SimulatorParams {
                read_len: 100,
                error_rate: 0.008,
                exonic_fraction: 0.20,
                genomic_fraction: 0.05,
                junk_mix: [
                    (JunkClass::PolyA, 0.40),
                    (JunkClass::Adapter, 0.25),
                    (JunkClass::LowComplexity, 0.20),
                    (JunkClass::Random, 0.15),
                ],
                expression_sigma: 1.6,
                three_prime_bias: Some(400),
                base_quality: 33,
                fragment_mean: 250.0,
                fragment_sd: 40.0,
            },
        }
    }

    /// Validate mixture weights.
    pub fn validate(&self) -> Result<(), GenomicsError> {
        if self.read_len == 0 {
            return Err(GenomicsError::InvalidParams("read_len must be positive".into()));
        }
        if self.exonic_fraction < 0.0
            || self.genomic_fraction < 0.0
            || self.exonic_fraction + self.genomic_fraction > 1.0
        {
            return Err(GenomicsError::InvalidParams("exonic+genomic fractions must fit in [0,1]".into()));
        }
        let junk_sum: f64 = self.junk_mix.iter().map(|&(_, w)| w).sum();
        if (junk_sum - 1.0).abs() > 1e-9 {
            return Err(GenomicsError::InvalidParams(format!("junk mixture sums to {junk_sum}, not 1")));
        }
        if !(0.0..=0.5).contains(&self.error_rate) {
            return Err(GenomicsError::InvalidParams("error_rate outside [0, 0.5]".into()));
        }
        if self.fragment_mean < self.read_len as f64 || self.fragment_sd < 0.0 {
            return Err(GenomicsError::InvalidParams(
                "fragment_mean must be >= read_len and fragment_sd >= 0".into(),
            ));
        }
        Ok(())
    }
}

/// A paired-end read (FR orientation) plus its ground truth.
#[derive(Clone, Debug)]
pub struct PairedRead {
    /// First mate (5' end of the fragment).
    pub r1: FastqRecord,
    /// Second mate (reverse-complemented 3' end of the fragment).
    pub r2: FastqRecord,
    /// Ground-truth origin of the *fragment*.
    pub origin: ReadOrigin,
    /// True fragment length (0 for junk pairs).
    pub fragment_len: usize,
}

/// Illumina TruSeq-like adapter used for [`JunkClass::Adapter`] reads, as base codes.
const ADAPTER: [u8; 33] = {
    let ascii = b"AGATCGGAAGAGCACACGTCTGAACTCCAGTCA";
    let mut codes = [0; 33];
    let mut i = 0;
    while i < codes.len() {
        codes[i] = match ascii[i] {
            b'A' => 0,
            b'C' => 1,
            b'G' => 2,
            _ => 3,
        };
        i += 1;
    }
    codes
};

/// Where a read or fragment came from, by index: what the generator core returns,
/// turned into a [`ReadOrigin`] only for a caller that keeps one.
#[derive(Clone, Copy)]
enum Source {
    /// `offset` into `transcripts[transcript]`.
    Transcript { transcript: usize, offset: usize },
    /// `pos` on `assembly.contigs[contig]`.
    Genomic { contig: usize, pos: usize },
    Junk(JunkClass),
}

/// A seeded read simulator bound to one assembly + annotation.
pub struct ReadSimulator<'a> {
    assembly: &'a Assembly,
    params: SimulatorParams,
    rng: StdRng,
    /// (gene, transcript sequence, cumulative expression weight) — genes whose
    /// transcript is long enough to yield a full-length read.
    transcripts: Vec<(&'a Gene, DnaSeq, f64)>,
    total_weight: f64,
    /// Chromosomes longer than a read, as (contig index, cumulative length): a
    /// genomic read picks one weighted by length.
    read_chroms: Vec<(usize, usize)>,
    /// Contig indexes of the chromosomes longer than two reads: a genomic fragment
    /// picks one uniformly.
    fragment_chroms: Vec<usize>,
}

impl<'a> ReadSimulator<'a> {
    /// Build a simulator. Extracts and caches all transcript sequences.
    pub fn new(
        assembly: &'a Assembly,
        annotation: &'a Annotation,
        params: SimulatorParams,
        seed: u64,
    ) -> Result<ReadSimulator<'a>, GenomicsError> {
        params.validate()?;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F));
        let mut transcripts = Vec::new();
        let mut cum = 0.0f64;
        for gene in &annotation.genes {
            let t = gene.transcript(assembly)?;
            if t.len() >= params.read_len {
                // Log-normal expression weight, deterministic per gene order.
                let w = lognormal(&mut rng, 1.0, params.expression_sigma);
                cum += w;
                transcripts.push((gene, t, cum));
            }
        }
        if transcripts.is_empty() && params.exonic_fraction > 0.0 {
            return Err(GenomicsError::InvalidParams(
                "no transcript is long enough for the requested read length".into(),
            ));
        }
        // Scaffolds are excluded: reads come from the cell, and the cell transcribes
        // chromosomal loci.
        let chromosomes_longer_than = |len: usize| {
            assembly
                .contigs
                .iter()
                .enumerate()
                .filter(move |(_, c)| c.kind == ContigKind::Chromosome && c.len() > len)
        };
        let mut end = 0;
        let read_chroms = chromosomes_longer_than(params.read_len)
            .map(|(i, c)| {
                end += c.len();
                (i, end)
            })
            .collect();
        let fragment_chroms = chromosomes_longer_than(2 * params.read_len).map(|(i, _)| i).collect();
        Ok(ReadSimulator {
            assembly,
            params,
            rng,
            transcripts,
            total_weight: cum,
            read_chroms,
            fragment_chroms,
        })
    }

    /// The parameters in use.
    pub fn params(&self) -> &SimulatorParams {
        &self.params
    }

    /// The Phred score every base of a simulated record carries.
    pub fn quality(&self) -> u8 {
        self.params.base_quality.min(MAX_PHRED)
    }

    /// Simulate `n` reads with ids `"{prefix}.{i}"`.
    pub fn simulate(&mut self, n: usize, prefix: &str) -> Vec<SimulatedRead> {
        (0..n)
            .map(|i| {
                let mut codes = Vec::with_capacity(self.params.read_len);
                let source = self.read_into(&mut codes);
                let id = format!("{prefix}.{}", i + 1);
                SimulatedRead { fastq: self.record(id, codes), origin: self.origin(source) }
            })
            .collect()
    }

    /// The reads [`ReadSimulator::simulate`] makes, as base codes only: each read is
    /// handed to `sink` and then overwritten by the next, so no id, quality or origin
    /// is built and nothing is allocated per read.
    pub fn simulate_codes(&mut self, n: usize, mut sink: impl FnMut(&[u8])) {
        let mut codes = Vec::with_capacity(self.params.read_len);
        for _ in 0..n {
            self.read_into(&mut codes);
            sink(&codes);
        }
    }

    /// Simulate `n` read *pairs* in Illumina FR orientation: R1 is the fragment's 5'
    /// end on the fragment strand, R2 the reverse complement of its 3' end. Fragment
    /// lengths are Gaussian (`fragment_mean`, `fragment_sd`), clamped to
    /// `[read_len, source length]`. Junk fragments produce junk on both mates.
    pub fn simulate_pairs(&mut self, n: usize, prefix: &str) -> Vec<PairedRead> {
        (0..n)
            .map(|i| {
                let mut m1 = Vec::with_capacity(self.params.read_len);
                let mut m2 = Vec::with_capacity(self.params.read_len);
                let (source, fragment_len) = self.pair_into(&mut m1, &mut m2);
                PairedRead {
                    r1: self.record(format!("{prefix}.{}/1", i + 1), m1),
                    r2: self.record(format!("{prefix}.{}/2", i + 1), m2),
                    origin: self.origin(source),
                    fragment_len,
                }
            })
            .collect()
    }

    /// The pairs [`ReadSimulator::simulate_pairs`] makes, as the base codes of both
    /// mates, like [`ReadSimulator::simulate_codes`].
    pub fn simulate_pair_codes(&mut self, n: usize, mut sink: impl FnMut(&[u8], &[u8])) {
        let mut m1 = Vec::with_capacity(self.params.read_len);
        let mut m2 = Vec::with_capacity(self.params.read_len);
        for _ in 0..n {
            self.pair_into(&mut m1, &mut m2);
            sink(&m1, &m2);
        }
    }

    fn record(&self, id: String, codes: Vec<u8>) -> FastqRecord {
        FastqRecord::with_uniform_quality(id, DnaSeq::from_codes(codes), self.params.base_quality)
    }

    fn origin(&self, source: Source) -> ReadOrigin {
        match source {
            Source::Transcript { transcript, offset } => ReadOrigin::Transcript {
                gene_id: self.transcripts[transcript].0.id.clone(),
                offset,
            },
            Source::Genomic { contig, pos } => {
                ReadOrigin::Genomic { contig: self.assembly.contigs[contig].name.clone(), pos }
            }
            Source::Junk(class) => ReadOrigin::Junk(class),
        }
    }

    /// The `len` bases at `source`; `None` for junk, which has no reference.
    fn source_codes(&self, source: Source, len: usize) -> Option<&[u8]> {
        let (seq, at) = match source {
            Source::Transcript { transcript, offset } => (&self.transcripts[transcript].1, offset),
            Source::Genomic { contig, pos } => (&self.assembly.contigs[contig].seq, pos),
            Source::Junk(_) => return None,
        };
        Some(&seq.codes()[at..at + len])
    }

    /// The generator core of one read: writes its `read_len` codes into `codes`
    /// (cleared first), substitution errors and strand included.
    fn read_into(&mut self, codes: &mut Vec<u8>) -> Source {
        codes.clear();
        let p = &self.params;
        let (exonic, genomic, read_len) = (p.exonic_fraction, p.genomic_fraction, p.read_len);
        let roll: f64 = self.rng.gen();
        let source = if roll < exonic && !self.transcripts.is_empty() {
            let (transcript, offset, _) = self.transcript_window(false);
            Source::Transcript { transcript, offset }
        } else if roll < exonic + genomic {
            match self.genomic_read() {
                Some(source) => source,
                None => Source::Junk(self.junk_read(codes)),
            }
        } else {
            Source::Junk(self.junk_read(codes))
        };
        if let Some(bases) = self.source_codes(source, read_len) {
            codes.extend_from_slice(bases);
        }
        apply_errors(codes, self.params.error_rate, &mut self.rng);
        // Reads come off either strand of the cDNA.
        if self.rng.gen_bool(0.5) {
            codes.reverse();
            complement(codes);
        }
        source
    }

    /// The generator core of one pair: writes both mates into `m1` and `m2` (cleared
    /// first) and returns the fragment's source and length.
    fn pair_into(&mut self, m1: &mut Vec<u8>, m2: &mut Vec<u8>) -> (Source, usize) {
        m1.clear();
        m2.clear();
        let p = &self.params;
        let (exonic, genomic, read_len) = (p.exonic_fraction, p.genomic_fraction, p.read_len);
        let roll: f64 = self.rng.gen();
        let (source, flen) = if roll < exonic && !self.transcripts.is_empty() {
            let (transcript, offset, flen) = self.transcript_window(true);
            (Source::Transcript { transcript, offset }, flen)
        } else if roll < exonic + genomic {
            match self.genomic_fragment() {
                Some(fragment) => fragment,
                // No chromosome to cut from: one junk read is the whole fragment.
                None => (Source::Junk(self.junk_read(m1)), read_len),
            }
        } else {
            // Junk pair: two independent junk reads; the first one's class names it.
            let class = self.junk_read(m1);
            self.junk_read(m2);
            return (Source::Junk(class), 0);
        };
        match self.source_codes(source, flen) {
            Some(fragment) => {
                m1.extend_from_slice(&fragment[..read_len]);
                m2.extend(fragment[flen - read_len..].iter().rev());
            }
            None => m2.extend(m1.iter().rev()),
        }
        complement(m2);
        apply_errors(m1, self.params.error_rate, &mut self.rng);
        apply_errors(m2, self.params.error_rate, &mut self.rng);
        // The fragment itself comes off either strand of the cDNA: swap mates.
        if self.rng.gen_bool(0.5) {
            std::mem::swap(m1, m2);
        }
        (source, flen)
    }

    /// Draw a fragment length (Gaussian, clamped to `[read_len, cap]`).
    fn fragment_len(&mut self, cap: usize) -> usize {
        let z = standard_normal(&mut self.rng);
        let p = &self.params;
        let len = (p.fragment_mean + p.fragment_sd * z).round() as i64;
        (len.max(p.read_len as i64) as usize).min(cap)
    }

    /// A transcript by expression weight (binary search on the cumulative weights)
    /// and a window on it, `read_len` long or, for a fragment, of a drawn length:
    /// `(transcript, start, length)`.
    fn transcript_window(&mut self, fragment: bool) -> (usize, usize, usize) {
        let x: f64 = self.rng.gen::<f64>() * self.total_weight;
        let idx = self.transcripts.partition_point(|&(_, _, cum)| cum < x).min(self.transcripts.len() - 1);
        let t_len = self.transcripts[idx].1.len();
        let len = if fragment { self.fragment_len(t_len) } else { self.params.read_len };
        let max_start = t_len - len;
        let lo = match self.params.three_prime_bias {
            Some(window) if t_len > window => t_len.saturating_sub(window).min(max_start),
            _ => 0,
        };
        let start = if max_start > lo { self.rng.gen_range(lo..=max_start) } else { lo.min(max_start) };
        (idx, start, len)
    }

    /// A read-length window on a chromosome picked by length; `None` when no
    /// chromosome is longer than a read.
    fn genomic_read(&mut self) -> Option<Source> {
        let &(_, total) = self.read_chroms.last()?;
        let x = self.rng.gen_range(0..total);
        let (contig, _) = self.read_chroms[self.read_chroms.partition_point(|&(_, end)| end <= x)];
        let pos = self.rng.gen_range(0..self.assembly.contigs[contig].len() - self.params.read_len);
        Some(Source::Genomic { contig, pos })
    }

    /// A fragment of drawn length on a uniformly picked chromosome; `None` when no
    /// chromosome is longer than two reads.
    fn genomic_fragment(&mut self) -> Option<(Source, usize)> {
        if self.fragment_chroms.is_empty() {
            return None;
        }
        let contig = self.fragment_chroms[self.rng.gen_range(0..self.fragment_chroms.len())];
        let chrom_len = self.assembly.contigs[contig].len();
        let flen = self.fragment_len(chrom_len);
        // A fragment as long as its chromosome has one place to start, and no draw.
        let pos = if flen == chrom_len { 0 } else { self.rng.gen_range(0..chrom_len - flen) };
        Some((Source::Genomic { contig, pos }, flen))
    }

    /// Append one `read_len` junk read to `codes` and return its class.
    fn junk_read(&mut self, codes: &mut Vec<u8>) -> JunkClass {
        let read_len = self.params.read_len;
        let x: f64 = self.rng.gen();
        let mut acc = 0.0;
        let mut class = JunkClass::Random;
        for &(c, w) in &self.params.junk_mix {
            acc += w;
            if x < acc {
                class = c;
                break;
            }
        }
        match class {
            JunkClass::PolyA => codes.resize(codes.len() + read_len, Base::A.code()),
            // Adapter fragment tiled to read length.
            JunkClass::Adapter => codes.extend(ADAPTER.iter().cycle().take(read_len)),
            JunkClass::LowComplexity => {
                // Random dinucleotide repeated, e.g. CACACA...
                let a = Base::random(&mut self.rng);
                let mut b = Base::random(&mut self.rng);
                while b == a {
                    b = Base::random(&mut self.rng);
                }
                codes.extend((0..read_len).map(|i| (if i % 2 == 0 { a } else { b }).code()));
            }
            JunkClass::Random => codes.extend((0..read_len).map(|_| Base::random(&mut self.rng).code())),
        }
        class
    }
}

/// In-place i.i.d. substitution errors.
fn apply_errors<R: Rng + ?Sized>(codes: &mut [u8], rate: f64, rng: &mut R) {
    if rate <= 0.0 {
        return;
    }
    for c in codes {
        if rng.gen_bool(rate) {
            *c = (*c + rng.gen_range(1..4u8)) % 4;
        }
    }
}

/// Watson–Crick complement of every code, in place.
fn complement(codes: &mut [u8]) {
    codes.iter_mut().for_each(|c| *c = 3 - *c);
}

/// A standard normal draw via Box–Muller (avoids a rand_distr dependency): two
/// uniforms, `u1` then `u2`, per draw. Every Gaussian the simulators draw comes from
/// here, so this draw order is part of the pinned read and catalog content.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A log-normal draw with median `median` and log-scale spread `sigma`: one
/// [`standard_normal`] draw, so the same two uniforms.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    median * (sigma * standard_normal(rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensembl::{EnsemblGenerator, EnsemblParams, Release};

    fn setup() -> (Assembly, Annotation) {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let a = g.generate(Release::R111);
        let ann = Annotation::simulate(&a, &g).unwrap();
        (a, ann)
    }

    #[test]
    fn bulk_reads_are_mostly_transcriptomic() {
        let (a, ann) = setup();
        let mut sim =
            ReadSimulator::new(&a, &ann, SimulatorParams::for_library(LibraryType::BulkPolyA), 1).unwrap();
        let reads = sim.simulate(2000, "SRRTEST");
        let exonic = reads
            .iter()
            .filter(|r| matches!(r.origin, ReadOrigin::Transcript { .. }))
            .count() as f64
            / reads.len() as f64;
        assert!((0.75..0.90).contains(&exonic), "exonic fraction {exonic}");
        assert!(reads.iter().all(|r| r.fastq.seq.len() == 100));
        assert_eq!(reads[0].fastq.id, "SRRTEST.1");
    }

    #[test]
    fn single_cell_reads_are_mostly_junk() {
        let (a, ann) = setup();
        let mut sim = ReadSimulator::new(
            &a,
            &ann,
            SimulatorParams::for_library(LibraryType::SingleCell3Prime),
            1,
        )
        .unwrap();
        let reads = sim.simulate(2000, "SRRSC");
        let junk = reads.iter().filter(|r| matches!(r.origin, ReadOrigin::Junk(_))).count() as f64
            / reads.len() as f64;
        assert!(junk > 0.65, "junk fraction {junk}");
    }

    #[test]
    fn three_prime_bias_restricts_offsets() {
        let (a, ann) = setup();
        let mut p = SimulatorParams::for_library(LibraryType::SingleCell3Prime);
        p.exonic_fraction = 1.0;
        p.genomic_fraction = 0.0;
        let window = p.three_prime_bias.unwrap();
        let mut sim = ReadSimulator::new(&a, &ann, p.clone(), 3).unwrap();
        for r in sim.simulate(500, "SRRB") {
            if let ReadOrigin::Transcript { gene_id, offset } = &r.origin {
                let t_len = ann.gene(gene_id).unwrap().transcript_len();
                if t_len > window {
                    assert!(
                        *offset >= t_len - window,
                        "offset {offset} violates 3' bias (len {t_len})"
                    );
                }
            }
        }
    }

    #[test]
    fn transcript_reads_match_source_without_errors() {
        let (a, ann) = setup();
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.error_rate = 0.0;
        p.exonic_fraction = 1.0;
        p.genomic_fraction = 0.0;
        let mut sim = ReadSimulator::new(&a, &ann, p, 9).unwrap();
        for r in sim.simulate(100, "SRRX") {
            if let ReadOrigin::Transcript { gene_id, offset } = &r.origin {
                let t = ann.gene(gene_id).unwrap().transcript(&a).unwrap();
                let expect = t.subseq(*offset, offset + 100);
                let got = &r.fastq.seq;
                assert!(
                    *got == expect || got.reverse_complement() == expect,
                    "read does not match its declared origin"
                );
            }
        }
    }

    #[test]
    fn error_rate_perturbs_roughly_expected_fraction() {
        let (a, ann) = setup();
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.error_rate = 0.05;
        p.exonic_fraction = 1.0;
        p.genomic_fraction = 0.0;
        let mut sim = ReadSimulator::new(&a, &ann, p, 11).unwrap();
        let mut mismatches = 0usize;
        let mut total = 0usize;
        for r in sim.simulate(300, "SRRE") {
            if let ReadOrigin::Transcript { gene_id, offset } = &r.origin {
                let t = ann.gene(gene_id).unwrap().transcript(&a).unwrap();
                let expect = t.subseq(*offset, offset + 100);
                let fwd_id = r.fastq.seq.identity(&expect);
                let rev_id = r.fastq.seq.reverse_complement().identity(&expect);
                let best = fwd_id.max(rev_id);
                mismatches += ((1.0 - best) * 100.0).round() as usize;
                total += 100;
            }
        }
        let observed = mismatches as f64 / total as f64;
        assert!((0.02..0.08).contains(&observed), "observed error rate {observed}");
    }

    #[test]
    fn junk_classes_follow_mixture() {
        let (a, ann) = setup();
        let mut p = SimulatorParams::for_library(LibraryType::SingleCell3Prime);
        p.exonic_fraction = 0.0;
        p.genomic_fraction = 0.0;
        p.error_rate = 0.0;
        let mut sim = ReadSimulator::new(&a, &ann, p, 17).unwrap();
        let reads = sim.simulate(2000, "SRRJ");
        let polya = reads
            .iter()
            .filter(|r| matches!(r.origin, ReadOrigin::Junk(JunkClass::PolyA)))
            .count() as f64
            / reads.len() as f64;
        assert!((0.33..0.47).contains(&polya), "polyA fraction {polya} (expected ≈0.40)");
        // PolyA reads really are homopolymers (possibly reverse-complemented to polyT).
        let pa = reads
            .iter()
            .find(|r| matches!(r.origin, ReadOrigin::Junk(JunkClass::PolyA)))
            .unwrap();
        let s = pa.fastq.seq.to_string();
        assert!(s.chars().all(|c| c == 'A') || s.chars().all(|c| c == 'T'));
    }

    #[test]
    fn paired_fragments_have_gaussian_lengths_and_fr_orientation() {
        let (a, ann) = setup();
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.exonic_fraction = 1.0;
        p.genomic_fraction = 0.0;
        p.error_rate = 0.0;
        let mut sim = ReadSimulator::new(&a, &ann, p.clone(), 21).unwrap();
        let pairs = sim.simulate_pairs(400, "PP");
        let mut lens = Vec::new();
        for pair in &pairs {
            assert_eq!(pair.r1.seq.len(), 100);
            assert_eq!(pair.r2.seq.len(), 100);
            assert!(pair.r1.id.ends_with("/1"));
            assert!(pair.r2.id.ends_with("/2"));
            let ReadOrigin::Transcript { gene_id, offset } = &pair.origin else {
                panic!("exonic only")
            };
            let t = ann.gene(gene_id).unwrap().transcript(&a).unwrap();
            let frag = t.subseq(*offset, offset + pair.fragment_len);
            // FR orientation: one mate is the fragment 5' prefix, the other the
            // reverse complement of the 3' suffix (mates may be swapped).
            let m5 = frag.subseq(0, 100);
            let m3 = frag.subseq(frag.len() - 100, frag.len()).reverse_complement();
            let fr = pair.r1.seq == m5 && pair.r2.seq == m3;
            let rf = pair.r1.seq == m3 && pair.r2.seq == m5;
            assert!(fr || rf, "pair must be the fragment's two ends");
            // Fragment lengths clamp to the transcript, so only transcripts long
            // enough that the clamp can't bite (mean + ~4σ) test the Gaussian.
            if t.len() >= 400 {
                lens.push(pair.fragment_len as f64);
            }
        }
        assert!(lens.len() >= 30, "want unclamped fragments, got {}", lens.len());
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        assert!((mean - 250.0).abs() < 25.0, "fragment mean {mean} over {}", lens.len());
        assert!(lens.iter().all(|&l| l >= 100.0));
    }

    #[test]
    fn junk_pairs_have_zero_fragment_len() {
        let (a, ann) = setup();
        let mut p = SimulatorParams::for_library(LibraryType::SingleCell3Prime);
        p.exonic_fraction = 0.0;
        p.genomic_fraction = 0.0;
        let mut sim = ReadSimulator::new(&a, &ann, p, 22).unwrap();
        let pairs = sim.simulate_pairs(50, "JP");
        assert!(pairs.iter().all(|x| x.fragment_len == 0));
        assert!(pairs.iter().all(|x| matches!(x.origin, ReadOrigin::Junk(_))));
    }

    #[test]
    fn invalid_fragment_params_rejected() {
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.fragment_mean = 50.0; // < read_len 100
        assert!(p.validate().is_err());
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.fragment_sd = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn simulator_is_deterministic() {
        let (a, ann) = setup();
        let p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        let r1 = ReadSimulator::new(&a, &ann, p.clone(), 5).unwrap().simulate(50, "S");
        let r2 = ReadSimulator::new(&a, &ann, p, 5).unwrap().simulate(50, "S");
        for (x, y) in r1.iter().zip(&r2) {
            assert_eq!(x.fastq, y.fastq);
            assert_eq!(x.origin, y.origin);
        }
    }

    #[test]
    fn code_streams_are_the_records_bases() {
        let (a, ann) = setup();
        for library in [LibraryType::BulkPolyA, LibraryType::SingleCell3Prime] {
            let p = SimulatorParams::for_library(library);
            let reads = ReadSimulator::new(&a, &ann, p.clone(), 13).unwrap().simulate(300, "C");
            let mut codes = Vec::new();
            let mut sim = ReadSimulator::new(&a, &ann, p.clone(), 13).unwrap();
            sim.simulate_codes(300, |read| codes.push(read.to_vec()));
            assert!(reads.iter().map(|r| r.fastq.seq.codes()).eq(codes.iter().map(Vec::as_slice)));
            assert!(reads.iter().all(|r| r.fastq.qual.iter().all(|&q| q == sim.quality())));

            let pairs = ReadSimulator::new(&a, &ann, p.clone(), 14).unwrap().simulate_pairs(300, "C");
            let mut mates = Vec::new();
            let mut sim = ReadSimulator::new(&a, &ann, p, 14).unwrap();
            sim.simulate_pair_codes(300, |r1, r2| mates.push((r1.to_vec(), r2.to_vec())));
            let expected = pairs.iter().map(|p| (p.r1.seq.codes().to_vec(), p.r2.seq.codes().to_vec()));
            assert!(expected.eq(mates));
        }
    }

    /// One chromosome of `len` random bases and no genes, for genomic-only simulation.
    fn one_chromosome(len: usize) -> (Assembly, Annotation) {
        let seq = DnaSeq::random(&mut StdRng::seed_from_u64(len as u64), len);
        let contig = crate::Contig { name: "1".into(), kind: ContigKind::Chromosome, seq };
        let assembly = Assembly { name: "one".into(), release: 111, contigs: vec![contig] };
        (assembly, Annotation { genes: Vec::new() })
    }

    fn genomic_pairs(assembly: &Assembly, annotation: &Annotation) -> Vec<PairedRead> {
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.exonic_fraction = 0.0;
        p.genomic_fraction = 1.0;
        p.error_rate = 0.0;
        ReadSimulator::new(assembly, annotation, p, 5).unwrap().simulate_pairs(200, "SHORT")
    }

    /// A 260-bp chromosome: fragment lengths (mean 250, sd 40) clamp to 260 often,
    /// and such a fragment used to draw its start from an empty range and panic.
    #[test]
    fn a_fragment_as_long_as_its_chromosome_starts_at_zero() {
        let (a, ann) = one_chromosome(260);
        let chrom = &a.contigs[0].seq;
        let pairs = genomic_pairs(&a, &ann);
        assert!(pairs.iter().any(|pair| pair.fragment_len == 260), "premise: a fragment spans the chromosome");
        for pair in &pairs {
            let ReadOrigin::Genomic { pos, .. } = pair.origin else { panic!("genomic only") };
            assert!(pair.fragment_len < 260 || pos == 0, "fragment of 260 at {pos}");
            let fragment = chrom.subseq(pos, pos + pair.fragment_len);
            let m5 = fragment.subseq(0, 100);
            let m3 = fragment.subseq(pair.fragment_len - 100, pair.fragment_len).reverse_complement();
            assert!((pair.r1.seq == m5 && pair.r2.seq == m3) || (pair.r1.seq == m3 && pair.r2.seq == m5));
        }
    }

    /// With no chromosome longer than two reads, a genomic fragment is one junk read
    /// and the mates are it and its reverse complement.
    #[test]
    fn without_a_long_enough_chromosome_a_fragment_is_one_junk_read() {
        let (a, ann) = one_chromosome(150);
        for pair in genomic_pairs(&a, &ann) {
            assert!(matches!(pair.origin, ReadOrigin::Junk(_)), "{:?}", pair.origin);
            assert_eq!(pair.fragment_len, 100);
            assert_eq!(pair.r2.seq, pair.r1.seq.reverse_complement());
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.exonic_fraction = 0.9;
        p.genomic_fraction = 0.2;
        assert!(p.validate().is_err());
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.junk_mix[0].1 = 0.9;
        assert!(p.validate().is_err());
        let mut p = SimulatorParams::for_library(LibraryType::BulkPolyA);
        p.read_len = 0;
        assert!(p.validate().is_err());
    }
}
