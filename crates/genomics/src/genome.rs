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

/// A reference genome assembly: an ordered set of contigs plus provenance metadata.
#[derive(Clone, Debug)]
pub struct Assembly {
    /// Human-readable assembly name, e.g. `"GRCh38-sim"`.
    pub name: String,
    /// Ensembl release number this assembly snapshot corresponds to.
    pub release: u32,
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
}
