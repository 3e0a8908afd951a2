//! `star-sim` — a STAR-style command-line interface over the aligner library.
//!
//! ```text
//! # Generate demo inputs (a synthetic assembly + annotation + reads):
//! star-sim simulate --outDir demo/ [--release 111] [--reads 20000]
//!
//! # Build an index ("STAR --runMode genomeGenerate"):
//! star-sim genomeGenerate --genomeFastaFiles demo/genome.fa \
//!     --sjdbGTFfile demo/annotation.gtf --genomeDir demo/index
//!
//! # Align ("STAR"), writing Aligned.out.sam, Log.final.out, Log.progress.out,
//! # ReadsPerGene.out.tab and SJ.out.tab:
//! star-sim alignReads --genomeDir demo/index --readFilesIn demo/reads.fastq \
//!     --outFileNamePrefix demo/out_ --runThreadN 4 --quantMode GeneCounts \
//!     [--twopassMode Basic]
//!
//! # Paired-end: give both mate files comma-separated:
//! star-sim alignReads --genomeDir demo/index --readFilesIn r1.fastq,r2.fastq ...
//! ```
//!
//! Flag names follow real STAR where a counterpart exists.
use genomics::{Annotation, Assembly, AssemblyKind, Contig, ContigKind, FastqRecord};
use star_aligner::index::{IndexParams, StarIndex};
use star_aligner::junctions::to_sj_tab;
use star_aligner::runner::{RunConfig, Runner};
use star_aligner::sam::{sam_header, sam_run_body, sam_run_pair_body};
use star_aligner::AlignParams;
use std::collections::HashMap;
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        eprintln!("usage: star-sim <simulate|genomeGenerate|alignReads> [flags]");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("star-sim: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match mode.as_str() {
        "simulate" => cmd_simulate(&flags),
        "genomeGenerate" => cmd_genome_generate(&flags),
        "alignReads" => cmd_align_reads(&flags),
        other => Err(format!("unknown mode {other:?}; use simulate|genomeGenerate|alignReads")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("star-sim: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` pairs (every star-sim flag takes exactly one value).
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} requires a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("missing required flag --{key}"))
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let out_dir = PathBuf::from(required(flags, "outDir")?);
    let release = match flags.get("release").map(String::as_str).unwrap_or("111") {
        "108" => genomics::Release::R108,
        "109" => genomics::Release::R109,
        "110" => genomics::Release::R110,
        "111" => genomics::Release::R111,
        other => return Err(format!("unknown release {other}; use 108|109|110|111")),
    };
    let n_reads: usize = flags
        .get("reads")
        .map(|v| v.parse().map_err(|_| format!("bad --reads {v}")))
        .transpose()?
        .unwrap_or(20_000);
    fs::create_dir_all(&out_dir).map_err(|e| format!("mkdir {}: {e}", out_dir.display()))?;

    let params = genomics::EnsemblParams { chromosome_len: 100_000, ..genomics::EnsemblParams::default() };
    let generator = genomics::EnsemblGenerator::new(params).map_err(|e| e.to_string())?;
    let assembly = generator.generate(release);
    let annotation = Annotation::simulate(&assembly, &generator)
        .map_err(|e| e.to_string())?;

    let fasta_path = out_dir.join("genome.fa");
    let mut fasta = Vec::new();
    genomics::fasta::write_fasta(&mut fasta, &assembly.to_fasta(), 70).map_err(|e| e.to_string())?;
    fs::write(&fasta_path, fasta).map_err(|e| e.to_string())?;

    let gtf_path = out_dir.join("annotation.gtf");
    fs::write(&gtf_path, annotation.to_gtf()).map_err(|e| e.to_string())?;

    let mut simulator = genomics::ReadSimulator::new(
        &assembly,
        &annotation,
        genomics::SimulatorParams::for_library(genomics::LibraryType::BulkPolyA),
        4242,
    )
    .map_err(|e| e.to_string())?;
    let reads: Vec<FastqRecord> =
        simulator.simulate(n_reads, "SIM").into_iter().map(|r| r.fastq).collect();
    let fastq_path = out_dir.join("reads.fastq");
    let mut fastq = Vec::new();
    genomics::fastq::write_fastq(&mut fastq, &reads).map_err(|e| e.to_string())?;
    fs::write(&fastq_path, fastq).map_err(|e| e.to_string())?;

    println!(
        "simulated release-{} assembly ({} contigs, {} bases), {} genes, {} reads:",
        release.number(),
        assembly.contigs.len(),
        assembly.total_len(),
        annotation.len(),
        reads.len()
    );
    println!("  {}", fasta_path.display());
    println!("  {}", gtf_path.display());
    println!("  {}", fastq_path.display());
    Ok(())
}

fn load_assembly(path: &Path) -> Result<Assembly, String> {
    let file = fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let (records, stats) = genomics::fasta::read_fasta(BufReader::new(file)).map_err(|e| e.to_string())?;
    if stats.substituted_ambiguous > 0 {
        eprintln!("warning: {} ambiguous bases substituted with A", stats.substituted_ambiguous);
    }
    Ok(Assembly {
        name: path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default(),
        release: 0,
        kind: AssemblyKind::Toplevel,
        contigs: records
            .into_iter()
            .map(|r| {
                let kind = if r.header.contains("scaffold") {
                    ContigKind::UnplacedScaffold
                } else {
                    ContigKind::Chromosome
                };
                Contig { name: r.id().to_string(), kind, seq: r.seq }
            })
            .collect(),
    })
}

fn cmd_genome_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let fasta = PathBuf::from(required(flags, "genomeFastaFiles")?);
    let genome_dir = PathBuf::from(required(flags, "genomeDir")?);
    let assembly = load_assembly(&fasta)?;
    let annotation = match flags.get("sjdbGTFfile") {
        Some(p) => {
            let file = fs::File::open(p).map_err(|e| format!("open {p}: {e}"))?;
            genomics::gtf::read_gtf(BufReader::new(file)).map_err(|e| e.to_string())?
        }
        None => Annotation::default(),
    };
    let mut params = IndexParams::default();
    if let Some(k) = flags.get("genomeSAindexNbases") {
        params.sa_index_nbases = Some(k.parse().map_err(|_| format!("bad --genomeSAindexNbases {k}"))?);
    }
    let index = StarIndex::build(&assembly, &annotation, &params).map_err(|e| e.to_string())?;
    fs::create_dir_all(&genome_dir).map_err(|e| e.to_string())?;
    let blob = index.serialize();
    let index_path = genome_dir.join("index.star");
    fs::write(&index_path, &blob).map_err(|e| e.to_string())?;
    let stats = index.stats();
    println!(
        "genomeGenerate: {} bases, {} contigs, {} sjdb junctions → {} ({} bytes)",
        stats.genome_len,
        stats.n_contigs,
        index.sjdb().len(),
        index_path.display(),
        blob.len()
    );
    Ok(())
}

fn load_reads(path: &Path) -> Result<Vec<FastqRecord>, String> {
    let file = fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    genomics::fastq::read_fastq(BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_align_reads(flags: &HashMap<String, String>) -> Result<(), String> {
    let genome_dir = PathBuf::from(required(flags, "genomeDir")?);
    let read_files = required(flags, "readFilesIn")?;
    let prefix = flags.get("outFileNamePrefix").cloned().unwrap_or_default();
    let threads: usize = flags
        .get("runThreadN")
        .map(|v| v.parse().map_err(|_| format!("bad --runThreadN {v}")))
        .transpose()?
        .unwrap_or(4);
    let quant = flags.get("quantMode").map(String::as_str) == Some("GeneCounts");
    let two_pass = flags.get("twopassMode").map(String::as_str) == Some("Basic");

    // Load the index.
    let blob = fs::read(genome_dir.join("index.star"))
        .map_err(|e| format!("read {}: {e}", genome_dir.join("index.star").display()))?;
    let index = StarIndex::deserialize(&blob).map_err(|e| e.to_string())?;

    // Load the reads (single file, or "mate1,mate2" for paired-end).
    let mut split = read_files.splitn(2, ',');
    let reads = load_reads(Path::new(split.next().expect("non-empty")))?;
    let pairs: Option<Vec<(FastqRecord, FastqRecord)>> = match split.next() {
        Some(p) => {
            let m2 = load_reads(Path::new(p))?;
            if m2.len() != reads.len() {
                return Err(format!("mate files differ in length: {} vs {}", reads.len(), m2.len()));
            }
            Some(reads.iter().cloned().zip(m2).collect())
        }
        None => None,
    };

    // Quant requires an annotation: reuse the GTF next to the index if given.
    let annotation = match flags.get("sjdbGTFfile") {
        Some(p) => {
            let file = fs::File::open(p).map_err(|e| format!("open {p}: {e}"))?;
            Some(genomics::gtf::read_gtf(BufReader::new(file)).map_err(|e| e.to_string())?)
        }
        None => None,
    };
    if quant && annotation.is_none() {
        return Err("--quantMode GeneCounts requires --sjdbGTFfile".into());
    }

    let mut align_params = AlignParams::default();
    if let Some(v) = flags.get("outFilterMultimapNmax") {
        align_params.out_filter_multimap_nmax =
            v.parse().map_err(|_| format!("bad --outFilterMultimapNmax {v}"))?;
    }
    let config = RunConfig {
        threads,
        quant,
        record_alignments: true,
        collect_junctions: true,
        ..RunConfig::default()
    };
    let runner = Runner::new(&index, align_params, config).map_err(|e| e.to_string())?;
    let (output, inserted) = match (&pairs, two_pass) {
        (Some(pairs), _) => {
            if two_pass {
                eprintln!("note: --twopassMode is single-end only in star-sim; running one pass");
            }
            (runner.run_pairs(pairs, annotation.as_ref(), None, None).map_err(|e| e.to_string())?, 0)
        }
        (None, true) => runner.run_two_pass(&reads, annotation.as_ref(), 3).map_err(|e| e.to_string())?,
        (None, false) => {
            (runner.run(&reads, annotation.as_ref(), None, None).map_err(|e| e.to_string())?, 0)
        }
    };

    // Aligned.out.sam, from the records the run kept (in two-pass mode: pass 2's,
    // aligned against the augmented index like everything else written below).
    let sam_path = PathBuf::from(format!("{prefix}Aligned.out.sam"));
    let cl = std::env::args().collect::<Vec<_>>().join(" ");
    let kept = output.alignments.as_deref().unwrap_or(&[]);
    let body = match &pairs {
        Some(pairs) => sam_run_pair_body(pairs, kept),
        None => sam_run_body(&reads, kept),
    }
    .map_err(|e| e.to_string())?;
    fs::write(&sam_path, sam_header(index.genome(), &cl) + &body).map_err(|e| e.to_string())?;

    // Log.progress.out + Log.final.out.
    let progress_path = PathBuf::from(format!("{prefix}Log.progress.out"));
    let progress_text: String =
        output.history.iter().map(|s| format!("{}\n", s.to_log_line())).collect();
    fs::write(&progress_path, progress_text).map_err(|e| e.to_string())?;
    let final_path = PathBuf::from(format!("{prefix}Log.final.out"));
    fs::write(&final_path, format!("{}\n", output.final_log)).map_err(|e| e.to_string())?;

    // ReadsPerGene.out.tab.
    if let Some(counts) = &output.gene_counts {
        let path = PathBuf::from(format!("{prefix}ReadsPerGene.out.tab"));
        fs::write(&path, counts.to_tsv()).map_err(|e| e.to_string())?;
    }

    // SJ.out.tab.
    if let Some(junctions) = &output.junctions {
        let path = PathBuf::from(format!("{prefix}SJ.out.tab"));
        fs::write(&path, to_sj_tab(junctions)).map_err(|e| e.to_string())?;
    }

    println!("{}", output.final_log);
    if two_pass {
        println!("twopassMode Basic: {inserted} novel junctions inserted before pass 2");
    }
    println!("outputs written with prefix {prefix:?}");
    Ok(())
}
