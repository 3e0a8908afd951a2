//! End-to-end integration: genome generation → annotation → index → SRA repository →
//! prefetch → fasterq-dump → STAR alignment → GeneCounts → DESeq2 normalization.
//! Exercises every crate boundary the paper's pipeline crosses.
use genomics::{Annotation, EnsemblGenerator, EnsemblParams, Release};
use sra_sim::accession::{CatalogParams, LibraryStrategy};
use sra_sim::{prefetch, FasterqDump, SraRepository};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::quant::Strandedness;
use star_aligner::runner::{RunConfig, Runner};
use star_aligner::AlignParams;
use std::sync::Arc;

fn substrate() -> (Arc<genomics::Assembly>, Arc<Annotation>, StarIndex) {
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = Arc::new(generator.generate(Release::R111));
    let annotation =
        Arc::new(Annotation::simulate(&assembly, &generator).unwrap());
    let index = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
    (assembly, annotation, index)
}

#[test]
fn full_pipeline_produces_normalizable_counts() {
    let (assembly, annotation, index) = substrate();
    let catalog = CatalogParams {
        n_accessions: 6,
        single_cell_fraction: 0.0,
        bulk_spots_median: 900,
        ..CatalogParams::default()
    }
    .generate()
    .unwrap();
    let repo = SraRepository::new(Arc::clone(&assembly), Arc::clone(&annotation), catalog);

    let dumper = FasterqDump::default();
    let run_config = RunConfig { threads: 2, quant: true, ..RunConfig::default() };
    let runner = Runner::new(&index, AlignParams::default(), run_config).unwrap();

    let mut per_sample_counts = Vec::new();
    let mut sample_ids = Vec::new();
    let mut gene_ids: Option<Vec<String>> = None;
    for id in repo.ids() {
        // Stage 1: prefetch.
        let fetched = repo.fetch(&id).unwrap();
        assert!(prefetch::transfer_secs(fetched.size_bytes()) > 0.0);
        // Stage 2: fasterq-dump.
        let dumped = dumper.run(&fetched).unwrap();
        assert_eq!(dumped.reads.len() as u64, fetched.spots());
        // Stage 3: STAR + GeneCounts.
        let output = runner.run(&dumped.reads, Some(&annotation), None, None).unwrap();
        assert!(output.mapped_fraction() > 0.7, "bulk accession must map well: {id}");
        let counts = output.gene_counts.unwrap();
        let ids_now: Vec<String> = counts.gene_ids.clone();
        if let Some(prev) = &gene_ids {
            assert_eq!(prev, &ids_now, "gene universe must be stable across samples");
        } else {
            gene_ids = Some(ids_now);
        }
        per_sample_counts.push(counts);
        sample_ids.push(id);
    }

    // Stage 4: DESeq2 normalization across the cohort.
    let gene_ids = gene_ids.unwrap();
    let mut matrix = deseq_norm::CountsMatrix::zeros(gene_ids.clone(), sample_ids);
    for (j, counts) in per_sample_counts.iter().enumerate() {
        for (g, gene) in gene_ids.iter().enumerate() {
            matrix.set(g, j, counts.count(gene, Strandedness::Unstranded).unwrap());
        }
    }
    let normalized = deseq_norm::normalize(&matrix).unwrap();
    assert_eq!(normalized.size_factors.len(), 6);
    for &f in &normalized.size_factors {
        assert!(f > 0.05 && f < 20.0, "size factor {f} out of plausible range");
    }
    // Deeper samples get larger factors: correlation between library size and factor
    // should be positive.
    let libs = matrix.library_sizes();
    let mean_lib = libs.iter().sum::<u64>() as f64 / libs.len() as f64;
    let mean_f = normalized.size_factors.iter().sum::<f64>() / 6.0;
    let cov: f64 = libs
        .iter()
        .zip(&normalized.size_factors)
        .map(|(&l, &f)| (l as f64 - mean_lib) * (f - mean_f))
        .sum();
    assert!(cov > 0.0, "size factors must track sequencing depth");
}

#[test]
fn index_round_trips_through_serialization() {
    let (_, annotation, index) = substrate();
    // Serialize the index, load the bytes on a "worker", and verify the worker
    // aligns identically — the instance-initialization path of Fig. 2.
    let worker_index = StarIndex::deserialize(&index.serialize()).unwrap();

    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R111);
    let chrom = assembly.contig("1").unwrap();
    let local = star_aligner::align::Aligner::new(&index, AlignParams::default());
    let remote = star_aligner::align::Aligner::new(&worker_index, AlignParams::default());
    for start in (0..2_000).step_by(173) {
        let read = chrom.seq.subseq(start, start + 100);
        let a = local.align_seq(&read);
        let b = remote.align_seq(&read);
        assert_eq!(a.class, b.class);
        assert_eq!(a.primary.map(|r| (r.contig, r.pos)), b.primary.map(|r| (r.contig, r.pos)));
    }
    let _ = annotation;
}

#[test]
fn single_cell_accessions_map_below_threshold_bulk_above() {
    let (assembly, annotation, index) = substrate();
    let catalog = CatalogParams {
        n_accessions: 10,
        single_cell_fraction: 0.3,
        bulk_spots_median: 700,
        ..CatalogParams::default()
    }
    .generate()
    .unwrap();
    let repo = SraRepository::new(Arc::clone(&assembly), Arc::clone(&annotation), catalog);
    let runner = Runner::new(
        &index,
        AlignParams::default(),
        RunConfig { threads: 2, quant: false, ..RunConfig::default() },
    )
    .unwrap();
    for id in repo.ids() {
        let meta = repo.meta(&id).unwrap().clone();
        let reads = FasterqDump::default().run(&repo.fetch(&id).unwrap()).unwrap().reads;
        let output = runner.run(&reads, None, None, None).unwrap();
        match meta.strategy {
            LibraryStrategy::RnaSeqBulk => assert!(
                output.mapped_fraction() > 0.30,
                "bulk {id} rate {}",
                output.mapped_fraction()
            ),
            LibraryStrategy::SingleCell => assert!(
                output.mapped_fraction() < 0.30,
                "single-cell {id} rate {} must sit below the early-stop threshold",
                output.mapped_fraction()
            ),
        }
    }
}

#[test]
fn fasta_export_reimport_builds_equivalent_index() {
    // The repository ships assemblies as FASTA (like the Ensembl FTP); an index built
    // from re-parsed FASTA must behave identically.
    let generator = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
    let assembly = generator.generate(Release::R111);
    let annotation =
        Annotation::simulate(&assembly, &generator).unwrap();

    let mut fasta_bytes = Vec::new();
    genomics::fasta::write_fasta(&mut fasta_bytes, &assembly.to_fasta(), 70).unwrap();
    let (records, stats) = genomics::fasta::read_fasta(std::io::Cursor::new(&fasta_bytes)).unwrap();
    assert_eq!(stats.substituted_ambiguous, 0);
    assert_eq!(records.len(), assembly.contigs.len());
    let rebuilt = genomics::Assembly {
        name: assembly.name.clone(),
        release: assembly.release,
        contigs: records
            .iter()
            .zip(&assembly.contigs)
            .map(|(r, orig)| genomics::Contig {
                name: r.id().to_string(),
                kind: orig.kind,
                seq: r.seq.clone(),
            })
            .collect(),
    };
    let idx_a = StarIndex::build(&assembly, &annotation, &IndexParams::default()).unwrap();
    let idx_b = StarIndex::build(&rebuilt, &annotation, &IndexParams::default()).unwrap();
    assert_eq!(idx_a.genome().seq(), idx_b.genome().seq());
    assert_eq!(idx_a.sa().positions(), idx_b.sa().positions());
}
