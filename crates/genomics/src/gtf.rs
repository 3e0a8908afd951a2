//! GTF-lite parser — the inverse of [`crate::Annotation::to_gtf`].
//!
//! Parses the exon rows of a GTF stream into an [`Annotation`]: tab-separated
//! columns `contig, source, feature, start(1-based), end(inclusive), score, strand,
//! frame, attributes`, keeping `feature == "exon"` rows and grouping them by the
//! `gene_id` attribute. Enough of the format for `--sjdbGTFfile`-style index
//! construction; full GTF semantics (transcripts, CDS, phase) are out of scope.

use crate::annotation::{Annotation, Exon, Gene, Strand};
use crate::GenomicsError;
use std::collections::HashMap;
use std::io::BufRead;

/// Parse an annotation from GTF text. Unknown feature rows are skipped; malformed
/// exon rows are errors.
pub fn read_gtf<R: BufRead>(reader: R) -> Result<Annotation, GenomicsError> {
    // gene_id -> (contig, strand, exons); insertion order preserved separately.
    let mut genes: HashMap<String, (String, Strand, Vec<Exon>)> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 9 {
            return Err(GenomicsError::Format(format!(
                "line {}: expected 9 tab-separated columns, got {}",
                lineno + 1,
                cols.len()
            )));
        }
        if cols[2] != "exon" {
            continue;
        }
        let start: usize = cols[3]
            .parse()
            .map_err(|_| GenomicsError::Format(format!("line {}: bad start {:?}", lineno + 1, cols[3])))?;
        let end: usize = cols[4]
            .parse()
            .map_err(|_| GenomicsError::Format(format!("line {}: bad end {:?}", lineno + 1, cols[4])))?;
        if start == 0 || end < start {
            return Err(GenomicsError::Format(format!(
                "line {}: invalid 1-based interval {start}..{end}",
                lineno + 1
            )));
        }
        let strand = match cols[6] {
            "+" => Strand::Forward,
            "-" => Strand::Reverse,
            other => {
                return Err(GenomicsError::Format(format!("line {}: bad strand {other:?}", lineno + 1)))
            }
        };
        let gene_id = parse_attribute(cols[8], "gene_id").ok_or_else(|| {
            GenomicsError::Format(format!("line {}: missing gene_id attribute", lineno + 1))
        })?;

        let entry = genes.entry(gene_id.clone()).or_insert_with(|| {
            order.push(gene_id.clone());
            (cols[0].to_string(), strand, Vec::new())
        });
        if entry.0 != cols[0] || entry.1 != strand {
            return Err(GenomicsError::Format(format!(
                "line {}: gene {gene_id} spans multiple contigs/strands",
                lineno + 1
            )));
        }
        // GTF is 1-based inclusive → half-open 0-based.
        entry.2.push(Exon { start: start - 1, end });
    }

    let mut out = Vec::with_capacity(order.len());
    for id in order {
        let (contig, strand, mut exons) = genes.remove(&id).expect("collected above");
        exons.sort_by_key(|e| e.start);
        let gene = Gene { id, contig, strand, exons };
        gene.validate()?;
        out.push(gene);
    }
    Ok(Annotation { genes: out })
}

/// Extract a quoted GTF attribute value, e.g. `gene_id "X";` → `X`. The name
/// must be `key` itself: `gene_id_version "1";` is skipped when looking for
/// `gene_id`.
fn parse_attribute(attributes: &str, key: &str) -> Option<String> {
    attributes.split(';').find_map(|field| {
        let rest = field.trim().strip_prefix(key)?;
        if !rest.starts_with(|c: char| c.is_whitespace() || c == '"') {
            return None;
        }
        let rest = rest.trim_start().strip_prefix('"')?;
        let end = rest.find('"')?;
        Some(rest[..end].to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotationParams;
    use crate::ensembl::{EnsemblGenerator, EnsemblParams, Release};
    use std::io::Cursor;

    #[test]
    fn round_trips_simulated_annotation() {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = g.generate(Release::R111);
        let ann = Annotation::simulate(&asm, &g, &AnnotationParams::default()).unwrap();
        let text = ann.to_gtf();
        let back = read_gtf(Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(back.genes, ann.genes);
    }

    #[test]
    fn parses_minimal_hand_written_gtf() {
        let text = "# comment\n\
                    1\tsim\texon\t11\t20\t.\t+\t.\tgene_id \"G1\"; exon_number 1;\n\
                    1\tsim\tCDS\t11\t20\t.\t+\t.\tgene_id \"G1\";\n\
                    1\tsim\texon\t51\t60\t.\t+\t.\tgene_id \"G1\"; exon_number 2;\n\
                    2\tsim\texon\t1\t9\t.\t-\t.\tgene_id \"G2\";\n";
        let ann = read_gtf(Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(ann.genes.len(), 2);
        let g1 = ann.gene("G1").unwrap();
        assert_eq!(g1.exons, vec![Exon { start: 10, end: 20 }, Exon { start: 50, end: 60 }]);
        assert_eq!(g1.strand, Strand::Forward);
        let g2 = ann.gene("G2").unwrap();
        assert_eq!(g2.exons, vec![Exon { start: 0, end: 9 }]);
        assert_eq!(g2.strand, Strand::Reverse);
    }

    #[test]
    fn exons_are_sorted_even_when_listed_out_of_order() {
        let text = "1\ts\texon\t51\t60\t.\t+\t.\tgene_id \"G\";\n\
                    1\ts\texon\t11\t20\t.\t+\t.\tgene_id \"G\";\n";
        let ann = read_gtf(Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(ann.genes[0].exons[0].start, 10);
    }

    #[test]
    fn rejects_malformed_rows() {
        // Too few columns.
        assert!(read_gtf(Cursor::new(b"1\ts\texon\t1\t2\n".as_slice())).is_err());
        // Bad coordinates.
        assert!(read_gtf(Cursor::new(
            b"1\ts\texon\t0\t5\t.\t+\t.\tgene_id \"G\";\n".as_slice()
        ))
        .is_err());
        assert!(read_gtf(Cursor::new(
            b"1\ts\texon\t9\t5\t.\t+\t.\tgene_id \"G\";\n".as_slice()
        ))
        .is_err());
        // Bad strand.
        assert!(read_gtf(Cursor::new(
            b"1\ts\texon\t1\t5\t.\t?\t.\tgene_id \"G\";\n".as_slice()
        ))
        .is_err());
        // Missing gene_id.
        assert!(read_gtf(Cursor::new(
            b"1\ts\texon\t1\t5\t.\t+\t.\ttranscript_id \"T\";\n".as_slice()
        ))
        .is_err());
        // Gene hopping contigs.
        let text = "1\ts\texon\t1\t5\t.\t+\t.\tgene_id \"G\";\n\
                    2\ts\texon\t1\t5\t.\t+\t.\tgene_id \"G\";\n";
        assert!(read_gtf(Cursor::new(text.as_bytes())).is_err());
    }

    #[test]
    fn attribute_parser_handles_spacing_variants() {
        assert_eq!(parse_attribute("gene_id \"X\"; foo \"y\";", "gene_id").as_deref(), Some("X"));
        assert_eq!(parse_attribute("foo \"y\";gene_id    \"Z\"", "gene_id").as_deref(), Some("Z"));
        assert_eq!(parse_attribute("foo \"y\";", "gene_id"), None);
        assert_eq!(parse_attribute("gene_id X;", "gene_id"), None, "unquoted values rejected");
        assert_eq!(
            parse_attribute("gene_id_version \"1\"; gene_id \"G1\";", "gene_id").as_deref(),
            Some("G1"),
            "a longer name that starts with the key is skipped, not the end of the search"
        );
        assert_eq!(parse_attribute("gene_id_version \"1\";", "gene_id"), None);
        assert_eq!(parse_attribute("gene_id\"X\";", "gene_id").as_deref(), Some("X"));
    }

    #[test]
    fn empty_input_is_an_empty_annotation() {
        let ann = read_gtf(Cursor::new(b"".as_slice())).unwrap();
        assert!(ann.is_empty());
    }
}
