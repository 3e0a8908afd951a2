//! Aligner accuracy against simulator ground truth: reads carry their true origin,
//! so we can score position accuracy, spliced-alignment correctness, and the
//! unmappability of technical sequence — the properties the pipeline's
//! mapping-rate statistics (and hence early stopping) depend on.
use genomics::simulate::{JunkClass, ReadOrigin};
use genomics::{
    Annotation, EnsemblGenerator, EnsemblParams, FastqRecord, LibraryType, ReadSimulator,
    Release, SimulatorParams,
};
use star_aligner::align::{Aligner, CigarOp};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::{AlignParams, RunConfig, Runner};

struct Fixture {
    assembly: genomics::Assembly,
    annotation: Annotation,
    index: StarIndex,
}

fn fixture() -> Fixture {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R111);
    let annotation =
        Annotation::simulate(&assembly, &generator).unwrap();
    let index = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
    Fixture { assembly, annotation, index }
}

#[test]
fn genomic_reads_align_to_their_true_position() {
    let f = fixture();
    let aligner = Aligner::new(&f.index, AlignParams::default());
    let mut params = SimulatorParams::for_library(LibraryType::BulkPolyA);
    params.exonic_fraction = 0.0;
    params.genomic_fraction = 1.0;
    params.junk_mix = [
        (JunkClass::PolyA, 0.25),
        (JunkClass::Adapter, 0.25),
        (JunkClass::LowComplexity, 0.25),
        (JunkClass::Random, 0.25),
    ];
    let mut sim = ReadSimulator::new(&f.assembly, &f.annotation, params, 42).unwrap();
    let reads = sim.simulate(400, "GT");
    let mut correct = 0usize;
    let mut mapped = 0usize;
    for read in &reads {
        let ReadOrigin::Genomic { contig, pos } = &read.origin else { panic!("genomic only") };
        let out = aligner.align_seq(&read.fastq.seq);
        if let Some(rec) = out.primary.filter(|_| out.class.is_mapped()) {
            mapped += 1;
            // Soft clips can shift the reported start by a few bases.
            if *rec.contig == **contig && (rec.pos as i64 - *pos as i64).unsigned_abs() <= 5 {
                correct += 1;
            }
        }
    }
    assert!(mapped as f64 / reads.len() as f64 > 0.9, "mapped {mapped}/{}", reads.len());
    assert!(correct as f64 / mapped as f64 > 0.95, "position accuracy {correct}/{mapped}");
}

#[test]
fn junction_spanning_reads_recover_annotated_junctions() {
    let f = fixture();
    let aligner = Aligner::new(&f.index, AlignParams::default());
    // Take multi-exon genes and craft junction-spanning reads from their
    // transcripts: 50 bases on each side of an exon boundary.
    let mut tested = 0usize;
    let mut with_junction = 0usize;
    for gene in f.annotation.genes.iter().filter(|g| g.exons.len() >= 2) {
        let transcript = gene.transcript(&f.assembly).unwrap();
        // Exon boundary position within the transcript (first junction), in
        // transcript coordinates for the forward strand.
        let first_exon_len = gene.exons[0].len();
        if first_exon_len < 50 || transcript.len() < first_exon_len + 50 {
            continue;
        }
        // For reverse-strand genes the transcript is reverse-complemented; aligning
        // the read still must produce an N operation.
        let (lo, hi) = match gene.strand {
            genomics::Strand::Forward => (first_exon_len - 50, first_exon_len + 50),
            genomics::Strand::Reverse => {
                let from_end = transcript.len() - first_exon_len;
                if from_end < 50 || transcript.len() < from_end + 50 {
                    continue;
                }
                (from_end - 50, from_end + 50)
            }
        };
        let read = transcript.subseq(lo, hi);
        let out = aligner.align_seq(&read);
        tested += 1;
        if let Some(rec) = out.primary {
            if rec.cigar.iter().any(|op| matches!(op, CigarOp::N(_))) {
                with_junction += 1;
                // The junction must be one of the gene's annotated introns.
                let annotated: Vec<(u64, u64)> = gene
                    .exons
                    .windows(2)
                    .map(|w| (w[0].end as u64, w[1].start as u64))
                    .collect();
                for (js, je, _) in &rec.junctions {
                    assert!(
                        annotated.contains(&(*js, *je)),
                        "gene {}: junction {js}..{je} not annotated {annotated:?}",
                        gene.id
                    );
                }
            }
        }
    }
    assert!(tested >= 5, "need multi-exon genes to test: {tested}");
    assert!(
        with_junction as f64 / tested as f64 > 0.8,
        "spliced recovery {with_junction}/{tested}"
    );
}

#[test]
fn junk_classes_are_unmappable() {
    let f = fixture();
    let aligner = Aligner::new(&f.index, AlignParams::default());
    let mut params = SimulatorParams::for_library(LibraryType::SingleCell3Prime);
    params.exonic_fraction = 0.0;
    params.genomic_fraction = 0.0;
    let mut sim = ReadSimulator::new(&f.assembly, &f.annotation, params, 43).unwrap();
    let reads = sim.simulate(600, "JK");
    let mut mapped_by_class = std::collections::HashMap::new();
    for read in &reads {
        let ReadOrigin::Junk(class) = read.origin else { panic!("junk only") };
        let out = aligner.align_seq(&read.fastq.seq);
        let entry = mapped_by_class.entry(format!("{class:?}")).or_insert((0usize, 0usize));
        entry.0 += usize::from(out.is_mapped());
        entry.1 += 1;
    }
    for (class, (mapped, total)) in mapped_by_class {
        assert!(
            (mapped as f64) / (total as f64) < 0.05,
            "junk class {class} mapped {mapped}/{total}"
        );
    }
}

#[test]
fn transcript_reads_count_for_their_gene() {
    let f = fixture();
    let mut params = SimulatorParams::for_library(LibraryType::BulkPolyA);
    params.exonic_fraction = 1.0;
    params.genomic_fraction = 0.0;
    params.error_rate = 0.0;
    let mut sim = ReadSimulator::new(&f.assembly, &f.annotation, params, 44).unwrap();
    let reads = sim.simulate(500, "TC");
    let (truth, fastq): (Vec<String>, Vec<FastqRecord>) = reads
        .iter()
        .map(|read| {
            let ReadOrigin::Transcript { gene_id, .. } = &read.origin else { panic!("exonic only") };
            (gene_id.clone(), read.fastq.clone())
        })
        .unzip();
    let runner = Runner::new(&f.index, AlignParams::default(), RunConfig { quant: true, ..RunConfig::default() })
        .unwrap();
    let counts = runner.run(&fastq, Some(&f.annotation), None, None).unwrap().gene_counts.unwrap();
    // Aggregate: the counted total must be close to the number of unique exonic
    // reads, and the most-counted gene must be among the true top genes.
    let counted = counts.total_counted(star_aligner::quant::Strandedness::Unstranded);
    assert!(
        counted as f64 / reads.len() as f64 > 0.5,
        "most exonic reads countable: {counted}/{}",
        reads.len()
    );
    let mut true_freq = std::collections::HashMap::new();
    for g in &truth {
        *true_freq.entry(g.clone()).or_insert(0usize) += 1;
    }
    let top_counted = counts
        .gene_ids
        .iter()
        .zip(counts.counts.iter())
        .max_by_key(|(_, c)| c[0])
        .map(|(g, _)| g.clone())
        .unwrap();
    let top_true_count = *true_freq.get(&top_counted).unwrap_or(&0);
    let max_true = *true_freq.values().max().unwrap();
    assert!(
        top_true_count * 2 >= max_true,
        "top counted gene {top_counted} is not among the truly expressed top genes"
    );
}
