//! Genome assembly model.
//!
//! An Ensembl assembly is a set of *contigs*: fully assembled chromosomes plus
//! *unlocalized* scaffolds (known chromosome, unknown position) and *unplaced*
//! scaffolds (unknown chromosome). The paper's genome-release optimization hinges on
//! the two published sequence sets:
//!
//! * **toplevel** — chromosomes *and* all scaffolds (required for the Atlas so no known
//!   contig is lost);
//! * **primary_assembly** — chromosomes only.
//!
//! Between releases 109 and 110 Ensembl assigned a large number of scaffolds to
//! chromosome sites, which shrank the *toplevel* FASTA dramatically. [`Assembly`]
//! models exactly this structure so the aligner's index inherits it.

use crate::fasta::FastaRecord;
use crate::seq::DnaSeq;

/// What kind of contig a sequence is within the assembly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContigKind {
    /// A fully assembled chromosome.
    Chromosome,
    /// A scaffold assigned to a chromosome but not to a position on it.
    UnlocalizedScaffold,
    /// A scaffold not assigned to any chromosome.
    UnplacedScaffold,
}

/// One named sequence in an assembly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Contig {
    /// Ensembl-style name, e.g. `"1"` or `"KI270302.1"`.
    pub name: String,
    /// Role of this contig in the assembly.
    pub kind: ContigKind,
    /// The sequence.
    pub seq: DnaSeq,
}

impl Contig {
    /// Length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True when the contig carries no sequence.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// Which published sequence set an [`Assembly`] value represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AssemblyKind {
    /// Chromosomes + unlocalized + unplaced scaffolds (what the Atlas pipeline needs).
    Toplevel,
    /// Chromosomes only.
    PrimaryAssembly,
}

/// A reference genome assembly: an ordered set of contigs plus provenance metadata.
#[derive(Clone, Debug)]
pub struct Assembly {
    /// Human-readable assembly name, e.g. `"GRCh38-sim"`.
    pub name: String,
    /// Ensembl release number this assembly snapshot corresponds to.
    pub release: u32,
    /// Which sequence set this is.
    pub kind: AssemblyKind,
    /// Contigs in FASTA order (chromosomes first, then scaffolds).
    pub contigs: Vec<Contig>,
}

impl Assembly {
    /// Total sequence length across all contigs.
    pub fn total_len(&self) -> usize {
        self.contigs.iter().map(Contig::len).sum()
    }

    /// Number of contigs of the given kind.
    pub fn count_kind(&self, kind: ContigKind) -> usize {
        self.contigs.iter().filter(|c| c.kind == kind).count()
    }

    /// Look up a contig by name.
    pub fn contig(&self, name: &str) -> Option<&Contig> {
        self.contigs.iter().find(|c| c.name == name)
    }

    /// The chromosomes only, in order.
    pub fn chromosomes(&self) -> impl Iterator<Item = &Contig> {
        self.contigs.iter().filter(|c| c.kind == ContigKind::Chromosome)
    }

    /// Derive the `primary_assembly` view (chromosomes only) of this assembly.
    pub fn to_primary_assembly(&self) -> Assembly {
        Assembly {
            name: self.name.clone(),
            release: self.release,
            kind: AssemblyKind::PrimaryAssembly,
            contigs: self.chromosomes().cloned().collect(),
        }
    }

    /// Render as FASTA records with Ensembl-style headers.
    pub fn to_fasta(&self) -> Vec<FastaRecord> {
        self.contigs
            .iter()
            .map(|c| {
                let role = match c.kind {
                    ContigKind::Chromosome => "chromosome",
                    ContigKind::UnlocalizedScaffold => "scaffold_unlocalized",
                    ContigKind::UnplacedScaffold => "scaffold_unplaced",
                };
                FastaRecord {
                    header: format!(
                        "{} dna:{role} {}:{}:{}:1:{}:1 REF",
                        c.name,
                        role,
                        self.name,
                        c.name,
                        c.len()
                    ),
                    seq: c.seq.clone(),
                }
            })
            .collect()
    }

    /// Approximate on-disk FASTA size in bytes (1 byte/base + headers + newlines),
    /// used to compare release file sizes like the paper's 108-vs-111 comparison.
    pub fn fasta_byte_size(&self) -> usize {
        const LINE_WIDTH: usize = 60;
        self.contigs
            .iter()
            .map(|c| {
                let body = c.len() + c.len().div_ceil(LINE_WIDTH);
                let header = c.name.len() + 48; // '>' + name + role text + newline
                body + header
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_assembly() -> Assembly {
        let mut rng = StdRng::seed_from_u64(1);
        Assembly {
            name: "TOY".into(),
            release: 108,
            kind: AssemblyKind::Toplevel,
            contigs: vec![
                Contig { name: "1".into(), kind: ContigKind::Chromosome, seq: DnaSeq::random(&mut rng, 500) },
                Contig { name: "2".into(), kind: ContigKind::Chromosome, seq: DnaSeq::random(&mut rng, 300) },
                Contig {
                    name: "KI1.1".into(),
                    kind: ContigKind::UnplacedScaffold,
                    seq: DnaSeq::random(&mut rng, 120),
                },
                Contig {
                    name: "GL2.1".into(),
                    kind: ContigKind::UnlocalizedScaffold,
                    seq: DnaSeq::random(&mut rng, 80),
                },
            ],
        }
    }

    #[test]
    fn total_len_and_kind_counts() {
        let a = toy_assembly();
        assert_eq!(a.total_len(), 1000);
        assert_eq!(a.count_kind(ContigKind::Chromosome), 2);
        assert_eq!(a.count_kind(ContigKind::UnplacedScaffold), 1);
        assert_eq!(a.count_kind(ContigKind::UnlocalizedScaffold), 1);
    }

    #[test]
    fn primary_assembly_drops_scaffolds_only() {
        let a = toy_assembly();
        let p = a.to_primary_assembly();
        assert_eq!(p.kind, AssemblyKind::PrimaryAssembly);
        assert_eq!(p.contigs.len(), 2);
        assert_eq!(p.total_len(), 800);
        assert!(p.contigs.iter().all(|c| c.kind == ContigKind::Chromosome));
        // Source untouched.
        assert_eq!(a.contigs.len(), 4);
    }

    #[test]
    fn contig_lookup_by_name() {
        let a = toy_assembly();
        assert_eq!(a.contig("KI1.1").unwrap().len(), 120);
        assert!(a.contig("nope").is_none());
    }

    #[test]
    fn fasta_headers_encode_role_and_length() {
        let a = toy_assembly();
        let recs = a.to_fasta();
        assert_eq!(recs.len(), 4);
        assert!(recs[0].header.contains("dna:chromosome"));
        assert!(recs[2].header.contains("scaffold_unplaced"));
        assert!(recs[0].header.contains(":500:"));
        assert_eq!(recs[0].id(), "1");
    }

    #[test]
    fn fasta_byte_size_tracks_sequence_plus_overhead() {
        let a = toy_assembly();
        let sz = a.fasta_byte_size();
        assert!(sz > a.total_len(), "must include headers/newlines");
        assert!(sz < a.total_len() + 1000, "overhead should be modest: {sz}");
    }
}
