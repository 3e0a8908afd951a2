//! What an accession's content *is*, pinned by value: FNV-1a over the archive
//! `fetch` builds, over every record `FasterqDump::run` decodes from it (id, base
//! codes, qualities) plus its `fastq_bytes`, and over the reads, origins and fragment
//! lengths the simulator reports for the same seed. Bulk and single-cell, single-end
//! and paired, at read lengths 100 (whole 2-bit bytes) and 101 (a padded tail) on the
//! tiny substrate. Every other test of the read path is a round trip or a property; a
//! rewrite of the simulator, the archive writer or the decoder must leave these rows
//! untouched.

use std::sync::Arc;
use genomics::simulate::ReadOrigin;
use genomics::{
    Annotation, Assembly, EnsemblGenerator, EnsemblParams, FastqRecord, ReadSimulator, Release,
    SimulatorParams,
};
use sra_sim::accession::{AccessionMeta, LibraryLayout, LibraryStrategy};
use sra_sim::{FasterqDump, SraRepository};

/// Spots per pinned accession: enough to reach every read class of both libraries.
const SPOTS: u64 = 600;

/// `(strategy, layout, read_len) → (fetch bytes, dump records, simulator output)`.
type Row = (LibraryStrategy, LibraryLayout, u32, [u64; 3]);

const PINS: [Row; 8] = [
    (LibraryStrategy::RnaSeqBulk, LibraryLayout::Single, 100, [0x2c783bebd3698271, 0x3f7c89d4ff8016be, 0x72e3ff83b385355e]),
    (LibraryStrategy::RnaSeqBulk, LibraryLayout::Single, 101, [0x63c97b10a8f41095, 0x6e292178d6b5fb74, 0x1a3128afc39b0175]),
    (LibraryStrategy::SingleCell, LibraryLayout::Single, 100, [0x75ea5b330ce46443, 0x6904e9dd08c580cb, 0x45f016f9b1d49b45]),
    (LibraryStrategy::SingleCell, LibraryLayout::Single, 101, [0x5ad19df6b0200e7d, 0x097062fcaee61fd6, 0xa995e5d7fa476234]),
    (LibraryStrategy::RnaSeqBulk, LibraryLayout::Paired, 100, [0x9426dc1c6ab926eb, 0x66fef2bc835e5daa, 0x2c11232d7ba9579e]),
    (LibraryStrategy::RnaSeqBulk, LibraryLayout::Paired, 101, [0x0ea1f01f1f289c4f, 0x0bffbbbfc28f886f, 0xe7605de0637755a5]),
    (LibraryStrategy::SingleCell, LibraryLayout::Paired, 100, [0x4b8f4d484d495238, 0xeb4137cdaf98cc5b, 0x6e3cc7631d3b00fa]),
    (LibraryStrategy::SingleCell, LibraryLayout::Paired, 101, [0xf00832c3ac8f2efa, 0xe563fd05a9a9808c, 0x463f896be0fafa95]),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Length-prefixed, so adjacent fields cannot trade bytes.
    fn field(&mut self, bytes: &[u8]) -> &mut Fnv {
        self.bytes(&(bytes.len() as u64).to_le_bytes()).bytes(bytes)
    }

    fn number(&mut self, n: usize) -> &mut Fnv {
        self.bytes(&(n as u64).to_le_bytes())
    }

    fn record(&mut self, r: &FastqRecord) -> &mut Fnv {
        self.field(r.id.as_bytes()).field(r.seq.codes()).field(&r.qual)
    }

    fn origin(&mut self, origin: &ReadOrigin) -> &mut Fnv {
        match origin {
            ReadOrigin::Transcript { gene_id, offset } => {
                self.number(0).field(gene_id.as_bytes()).number(*offset)
            }
            ReadOrigin::Genomic { contig, pos } => self.number(1).field(contig.as_bytes()).number(*pos),
            ReadOrigin::Junk(class) => self.number(2).field(format!("{class:?}").as_bytes()),
        }
    }
}

fn substrate() -> (Arc<Assembly>, Arc<Annotation>) {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R111);
    let annotation = Annotation::simulate(&assembly, &generator).unwrap();
    (Arc::new(assembly), Arc::new(annotation))
}

fn meta(k: usize, strategy: LibraryStrategy, layout: LibraryLayout, read_len: u32) -> AccessionMeta {
    AccessionMeta {
        id: format!("SRRPIN{k:02}"),
        strategy,
        spots: SPOTS,
        read_len,
        layout,
        tissue: "lung".into(),
    }
}

/// The three hashes of one accession.
fn hashes(repo: &SraRepository, asm: &Assembly, ann: &Annotation, meta: &AccessionMeta) -> [u64; 3] {
    let archive = repo.fetch(&meta.id).unwrap();
    let fetched = Fnv::new().bytes(archive.bytes()).0;

    let dump = FasterqDump::default().run(&archive).unwrap();
    let mut dumped = Fnv::new();
    dump.reads.iter().for_each(|r| {
        dumped.record(r);
    });
    dumped.bytes(&dump.fastq_bytes.to_le_bytes());

    let mut params = SimulatorParams::for_library(meta.strategy.library_type());
    params.read_len = meta.read_len as usize;
    let mut sim = ReadSimulator::new(asm, ann, params, meta.content_seed()).unwrap();
    let mut simulated = Fnv::new();
    match meta.layout {
        LibraryLayout::Single => {
            for read in sim.simulate(SPOTS as usize, &meta.id) {
                simulated.record(&read.fastq).origin(&read.origin);
            }
        }
        LibraryLayout::Paired => {
            for pair in sim.simulate_pairs(SPOTS as usize, &meta.id) {
                simulated.record(&pair.r1).record(&pair.r2).origin(&pair.origin).number(pair.fragment_len);
            }
        }
    }
    [fetched, dumped.0, simulated.0]
}

#[test]
fn fetched_dumped_and_simulated_content_is_pinned() {
    let (asm, ann) = substrate();
    let catalog: Vec<AccessionMeta> =
        PINS.iter().enumerate().map(|(k, &(s, l, len, _))| meta(k, s, l, len)).collect();
    let repo = SraRepository::new(Arc::clone(&asm), Arc::clone(&ann), catalog.clone());
    let mut seen = Vec::new();
    for (m, &(strategy, layout, read_len, _)) in catalog.iter().zip(&PINS) {
        let h = hashes(&repo, &asm, &ann, m);
        let [a, b, c] = h;
        println!(
            "    (LibraryStrategy::{strategy:?}, LibraryLayout::{layout:?}, {read_len}, [{a:#018x}, {b:#018x}, {c:#018x}]),"
        );
        seen.push((strategy, layout, read_len, h));
    }
    assert_eq!(seen, PINS, "{seen:#018x?}");
}
