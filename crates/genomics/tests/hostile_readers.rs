//! Hostile-input test for the text readers: `read_fasta`, `read_fastq` and
//! `read_gtf`. A small valid document of each format is truncated at every byte, has
//! every bit flipped, and has every byte replaced by each structural byte of the
//! three formats. Each reader must answer with records or a typed `GenomicsError` —
//! never a panic — and must not ask the allocator for more than a stated multiple of
//! the input, so a reader fed a file from outside cannot be made to reserve memory
//! its input does not account for. (A hang would show as the test not finishing.)

#[path = "../../star/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use genomics::fasta::read_fasta;
use genomics::fastq::read_fastq;
use genomics::gtf::read_gtf;
use genomics::GenomicsError;
use std::io::Cursor;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes that delimit something in FASTA, FASTQ or GTF.
const STRUCTURAL: &[u8] = b">@+\n\t;\"";

const FASTA: &str = ">1 dna:chromosome chromosome:GRCh38:1:1:120:1 REF\n\
                     ACGTACGTNNACGTACGTAC\nGGCCTTAARYACGT\n\n\
                     >MT mitochondrion\nacgtTTGA\n>empty\n>2\nAC\n";

const FASTQ: &str = "@SRR0001.1 1 length=12\nACGTNACGTACG\n+\nIIIII#IIIII!\n\
                     @SRR0001.2\nGGGG\n+SRR0001.2\n5555\n\n\
                     @SRR0001.3\nacgt\n+\n((((\n";

const GTF: &str = "#!genome-build GRCh38-sim\n\
                   1\tsim\texon\t11\t20\t.\t+\t.\tgene_id \"G1\"; exon_number 1;\n\
                   1\tsim\tCDS\t11\t20\t.\t+\t.\tgene_id \"G1\";\n\
                   1\tsim\texon\t51\t60\t.\t+\t.\tgene_id \"G1\"; gene_name \"a;b\";\n\
                   2\tsim\texon\t1\t9\t.\t-\t.\tgene_version \"3\"; gene_id \"G2\";\n";

/// Every reader may request this many bytes in total per input byte, plus `FIXED`:
/// each line is read into a `String`, each record holds its text again, and the
/// record vectors and the GTF gene map grow by doubling.
const BYTES_PER_INPUT_BYTE: usize = 32;
const FIXED: usize = 1 << 10;

type Reader = fn(&[u8]) -> Result<usize, GenomicsError>;

fn fasta(bytes: &[u8]) -> Result<usize, GenomicsError> {
    read_fasta(Cursor::new(bytes)).map(|(records, _)| records.len())
}

fn fastq(bytes: &[u8]) -> Result<usize, GenomicsError> {
    read_fastq(Cursor::new(bytes)).map(|records| records.len())
}

fn gtf(bytes: &[u8]) -> Result<usize, GenomicsError> {
    read_gtf(Cursor::new(bytes)).map(|annotation| annotation.genes.len())
}

/// Read `bytes`, check the allocation bound, and return whether they parsed.
fn check(read: Reader, bytes: &[u8], what: &str, worst: &mut usize) -> bool {
    let (result, seen) = tracked(|| read(bytes));
    if bytes.len() >= 64 {
        *worst = (*worst).max(seen.total / bytes.len());
    }
    assert!(
        seen.total <= BYTES_PER_INPUT_BYTE * bytes.len() + FIXED,
        "{what}: {} bytes requested for {} bytes of input",
        seen.total,
        bytes.len()
    );
    match result {
        Ok(_) => true,
        Err(GenomicsError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}");
            false
        }
        Err(GenomicsError::Format(m) | GenomicsError::InvalidParams(m)) => {
            assert!(!m.is_empty(), "{what}: an empty message");
            false
        }
        Err(GenomicsError::InvalidBase(_)) => false,
        Err(e) => panic!("{what}: {e}"),
    }
}

#[test]
fn hostile_text_gets_records_or_a_typed_error_and_bounded_allocation() {
    let mut cases = 0usize;
    for (name, text, read, records) in
        [("FASTA", FASTA, fasta as Reader, 4), ("FASTQ", FASTQ, fastq, 3), ("GTF", GTF, gtf, 2)]
    {
        let bytes = text.as_bytes();
        let mut worst = 0;
        assert_eq!(read(bytes).unwrap(), records, "premise: the pristine {name} parses");
        for cut in 0..bytes.len() {
            check(read, &bytes[..cut], &format!("{name} cut to {cut} bytes"), &mut worst);
            cases += 1;
        }
        let mut bad = bytes.to_vec();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                bad[at] = bytes[at] ^ (1 << bit);
                check(read, &bad, &format!("{name} with bit {bit} of byte {at} flipped"), &mut worst);
                cases += 1;
            }
            for &sub in STRUCTURAL {
                bad[at] = sub;
                check(read, &bad, &format!("{name} with byte {at} replaced by {:?}", sub as char), &mut worst);
                cases += 1;
            }
            bad[at] = bytes[at];
        }
        println!("{name}: at most {worst} bytes requested per input byte (inputs of 64 bytes and more)");
    }
    assert!(cases > 7_000, "the sweep shrank to {cases} cases");
}
