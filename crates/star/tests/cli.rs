//! End-to-end test of the `star-sim` CLI binary: simulate → genomeGenerate →
//! alignReads, then validate every output file.

use std::path::{Path, PathBuf};
use std::process::Command;

use genomics::annotation::{Exon, Gene, Strand};
use genomics::fasta::FastaRecord;
use genomics::{Annotation, DnaSeq, FastqRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use star_aligner::runner::{RunConfig, RunOutput, Runner};
use star_aligner::sam::{sam_pair_records, sam_record};
use star_aligner::{AlignParams, Aligner, StarIndex};

fn star_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_star-sim"))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch directory of this test process, emptied first.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("star-sim-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// The record lines of a SAM file (header dropped).
fn sam_body(path: &str) -> Vec<String> {
    let sam = std::fs::read_to_string(path).unwrap();
    sam.lines().filter(|l| !l.starts_with('@')).map(str::to_string).collect()
}

fn read_fastq(path: &str) -> Vec<FastqRecord> {
    genomics::fastq::read_fastq(std::io::BufReader::new(std::fs::File::open(path).unwrap())).unwrap()
}

fn write_fastq(path: &str, reads: &[FastqRecord]) {
    let mut text = Vec::new();
    genomics::fastq::write_fastq(&mut text, reads).unwrap();
    std::fs::write(path, text).unwrap();
}

fn load_index(genome_dir: &str) -> StarIndex {
    StarIndex::deserialize(&std::fs::read(Path::new(genome_dir).join("index.star")).unwrap()).unwrap()
}

/// What `star-sim` used to do to write `Aligned.out.sam` — align every read a second
/// time, serially, and render it — kept here as the reference for the single pass.
fn rendered_per_read(index: &StarIndex, reads: &[FastqRecord]) -> Vec<String> {
    let aligner = Aligner::new(index, AlignParams::default());
    reads.iter().map(|read| sam_record(read, &aligner.align_read(read))).collect()
}

#[test]
fn full_cli_workflow_produces_all_star_outputs() {
    let dir = scratch_dir("test");
    let demo = dir.join("demo");
    let p = |name: &str| path_str(&demo.join(name));

    // 1. simulate
    let out = run_ok(star_sim().args(["simulate", "--outDir", demo.to_str().unwrap(), "--reads", "4000"]));
    assert!(out.contains("simulated release-111 assembly"));
    for f in ["genome.fa", "annotation.gtf", "reads.fastq"] {
        assert!(demo.join(f).exists(), "{f} missing");
    }

    // 2. genomeGenerate
    let index_dir = p("index");
    let out = run_ok(star_sim().args([
        "genomeGenerate",
        "--genomeFastaFiles",
        &p("genome.fa"),
        "--sjdbGTFfile",
        &p("annotation.gtf"),
        "--genomeDir",
        &index_dir,
    ]));
    assert!(out.contains("genomeGenerate:"));
    assert!(Path::new(&index_dir).join("index.star").exists());

    // 3. alignReads with quant + junctions
    let prefix = p("out_");
    let out = run_ok(star_sim().args([
        "alignReads",
        "--genomeDir",
        &index_dir,
        "--readFilesIn",
        &p("reads.fastq"),
        "--sjdbGTFfile",
        &p("annotation.gtf"),
        "--outFileNamePrefix",
        &prefix,
        "--runThreadN",
        "2",
        "--quantMode",
        "GeneCounts",
    ]));
    assert!(out.contains("Uniquely mapped reads %"));

    // Validate outputs.
    let sam = std::fs::read_to_string(format!("{prefix}Aligned.out.sam")).unwrap();
    assert!(sam.starts_with("@HD\tVN:1.6"));
    let records = sam.lines().filter(|l| !l.starts_with('@')).count();
    assert_eq!(records, 4000, "one SAM record per input read");
    // Mapped majority with NH tags.
    let mapped = sam.lines().filter(|l| !l.starts_with('@') && l.contains("NH:i:")).count();
    assert!(mapped as f64 / 4000.0 > 0.85, "mapped {mapped}/4000");
    // The body written from the run's kept records is, line for line, what aligning
    // and rendering each read on its own gives (unmapped reads included).
    let body = sam_body(&format!("{prefix}Aligned.out.sam"));
    let expected = rendered_per_read(&load_index(&index_dir), &read_fastq(&p("reads.fastq")));
    assert!(body == expected, "single-pass SAM differs from the per-read rendering");
    assert!(body.iter().any(|l| l.split('\t').nth(1) == Some("4")), "premise: some reads are unmapped");

    let final_log = std::fs::read_to_string(format!("{prefix}Log.final.out")).unwrap();
    assert!(final_log.contains("Number of input reads |\t4000"));

    let progress = std::fs::read_to_string(format!("{prefix}Log.progress.out")).unwrap();
    assert!(progress.lines().count() >= 2, "progress file has batch lines");
    assert!(progress.contains("Mapped:"));

    let counts = std::fs::read_to_string(format!("{prefix}ReadsPerGene.out.tab")).unwrap();
    assert!(counts.starts_with("N_unmapped\t"));
    assert!(counts.lines().count() > 4, "gene rows follow the header rows");

    let sj = std::fs::read_to_string(format!("{prefix}SJ.out.tab")).unwrap();
    assert!(!sj.is_empty(), "bulk reads cross junctions");
    assert!(sj.lines().all(|l| l.split('\t').count() == 9));

    // 4. paired-end input via comma-separated mate files (reuse the single file as
    // both mates reverse-complemented is wrong; instead just split the reads file in
    // two halves as fake mates to exercise the plumbing — pairing quality is covered
    // by unit tests, here we check the CLI path and SAM pairing format).
    {
        let fastq = std::fs::read_to_string(p("reads.fastq")).unwrap();
        let lines: Vec<&str> = fastq.lines().collect();
        let half = (lines.len() / 8) * 4; // first half of the records
        std::fs::write(p("r1.fastq"), lines[..half].join("\n") + "\n").unwrap();
        std::fs::write(p("r2.fastq"), lines[..half].join("\n") + "\n").unwrap();
        let out = run_ok(star_sim().args([
            "alignReads",
            "--genomeDir",
            &index_dir,
            "--readFilesIn",
            &format!("{},{}", p("r1.fastq"), p("r2.fastq")),
            "--outFileNamePrefix",
            &p("paired_"),
            "--runThreadN",
            "2",
        ]));
        assert!(out.contains("Number of input reads"));
        let sam = std::fs::read_to_string(p("paired_Aligned.out.sam")).unwrap();
        let body: Vec<&str> = sam.lines().filter(|l| !l.starts_with('@')).collect();
        assert_eq!(body.len(), half / 4 * 2, "two SAM records per pair");
        // Every record carries the paired flag.
        for line in &body {
            let flag: u16 = line.split('\t').nth(1).unwrap().parse().unwrap();
            assert!(flag & 0x1 != 0, "paired flag missing: {line}");
        }
    }

    // 5. two-pass mode also works.
    let out = run_ok(star_sim().args([
        "alignReads",
        "--genomeDir",
        &index_dir,
        "--readFilesIn",
        &p("reads.fastq"),
        "--outFileNamePrefix",
        &p("twopass_"),
        "--runThreadN",
        "2",
        "--twopassMode",
        "Basic",
    ]));
    assert!(out.contains("twopassMode Basic:"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paired_sam_equals_the_per_pair_rendering() {
    let dir = scratch_dir("paired");
    let p = |name: &str| path_str(&dir.join(name));
    run_ok(star_sim().args(["simulate", "--outDir", &p(""), "--reads", "10"]));
    run_ok(star_sim().args([
        "genomeGenerate",
        "--genomeFastaFiles",
        &p("genome.fa"),
        "--sjdbGTFfile",
        &p("annotation.gtf"),
        "--genomeDir",
        &p("index"),
    ]));

    // Real mate pairs over the assembly `simulate` wrote (regenerated here: the
    // generator is deterministic), so most pairs map properly and TLEN and the mate
    // fields are exercised.
    let params = genomics::EnsemblParams { chromosome_len: 100_000, ..genomics::EnsemblParams::default() };
    let generator = genomics::EnsemblGenerator::new(params).unwrap();
    let assembly = generator.generate(genomics::Release::R111);
    let annotation = Annotation::simulate(&assembly, &generator).unwrap();
    let library = genomics::SimulatorParams::for_library(genomics::LibraryType::BulkPolyA);
    let pairs = genomics::ReadSimulator::new(&assembly, &annotation, library, 7)
        .unwrap()
        .simulate_pairs(600, "PE");
    let (m1, m2): (Vec<FastqRecord>, Vec<FastqRecord>) = pairs.into_iter().map(|p| (p.r1, p.r2)).unzip();
    write_fastq(&p("m1.fastq"), &m1);
    write_fastq(&p("m2.fastq"), &m2);

    run_ok(star_sim().args([
        "alignReads",
        "--genomeDir",
        &p("index"),
        "--readFilesIn",
        &format!("{},{}", p("m1.fastq"), p("m2.fastq")),
        "--outFileNamePrefix",
        &p("pe_"),
        "--runThreadN",
        "2",
    ]));
    let index = load_index(&p("index"));
    let aligner = Aligner::new(&index, AlignParams::default());
    let mut expected = Vec::new();
    let mut proper = 0;
    for (r1, r2) in m1.iter().zip(&m2) {
        let outcome = aligner.align_pair(r1, r2);
        proper += usize::from(outcome.is_mapped());
        let (l1, l2) = sam_pair_records(r1, r2, &outcome);
        expected.extend([l1, l2]);
    }
    assert!(proper > 300 && proper < 600, "premise: mapped and unmapped pairs both occur ({proper}/600)");
    let body = sam_body(&p("pe_Aligned.out.sam"));
    assert!(body == expected, "single-pass paired SAM differs from the per-pair rendering");
    // TLEN comes from the kept mates: opposite signs, the insert size as magnitude.
    let tlen = |line: &str| line.split('\t').nth(8).unwrap().parse::<i64>().unwrap();
    let first_proper = body.chunks(2).find(|pair| pair[0].contains("NH:i:")).unwrap();
    assert!(tlen(&first_proper[0]) != 0 && tlen(&first_proper[0]) == -tlen(&first_proper[1]));

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--twopassMode Basic` writes every output from pass 2. The genome has one
/// unannotated GT..AG intron; in pass 1 reads across it pay the canonical-motif
/// penalty (AS 99), in pass 2 the junction is in the sjdb and they do not (AS 100).
#[test]
fn two_pass_sam_comes_from_the_second_pass() {
    let dir = scratch_dir("twopass");
    let p = |name: &str| path_str(&dir.join(name));

    // One 6 kb contig with an intron [2000, 2600) that starts GT and ends AG.
    let mut codes = DnaSeq::random(&mut StdRng::seed_from_u64(21), 6_000).codes().to_vec();
    let base = |b: char| b.to_string().parse::<DnaSeq>().unwrap().codes()[0];
    (codes[2000], codes[2001], codes[2598], codes[2599]) = (base('G'), base('T'), base('A'), base('G'));
    let chr = DnaSeq::from_codes(codes);
    let mut fasta = Vec::new();
    let record = FastaRecord { header: "1 dna:chromosome".into(), seq: chr.clone() };
    genomics::fasta::write_fasta(&mut fasta, &[record], 70).unwrap();
    std::fs::write(p("genome.fa"), fasta).unwrap();

    // Six reads across the junction (its only evidence: no GTF is given), ten plain ones.
    let read = |id: String, seq: DnaSeq| FastqRecord::with_uniform_quality(id, seq, 35);
    let mut reads = Vec::new();
    for left in [35usize, 40, 45, 50, 55, 60] {
        let mut seq = chr.subseq(2000 - left, 2000);
        seq.extend_from(&chr.subseq(2600, 2600 + (100 - left)));
        reads.push(read(format!("spliced.{left}"), seq));
    }
    for i in 0..10 {
        reads.push(read(format!("plain.{i}"), chr.subseq(3000 + 150 * i, 3100 + 150 * i)));
    }
    write_fastq(&p("reads.fastq"), &reads);

    run_ok(star_sim().args(["genomeGenerate", "--genomeFastaFiles", &p("genome.fa"), "--genomeDir", &p("index")]));
    let out = run_ok(star_sim().args([
        "alignReads",
        "--genomeDir",
        &p("index"),
        "--readFilesIn",
        &p("reads.fastq"),
        "--outFileNamePrefix",
        &p("tp_"),
        "--runThreadN",
        "2",
        "--twopassMode",
        "Basic",
    ]));
    assert!(out.contains("twopassMode Basic: 1 novel junctions inserted"), "{out}");

    let body = sam_body(&p("tp_Aligned.out.sam"));
    for (line, left) in body.iter().zip([35usize, 40, 45, 50, 55, 60]) {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols[5], format!("{left}M600N{}M", 100 - left), "the novel junction's N op: {line}");
        assert!(line.contains("AS:i:100"), "pass 2 aligns against the augmented sjdb: {line}");
    }
    let first_pass_index = load_index(&p("index"));
    let second_pass_index = first_pass_index.with_extra_junctions([(2000, 2600)]);
    assert!(body == rendered_per_read(&second_pass_index, &reads));
    assert!(body != rendered_per_read(&first_pass_index, &reads), "premise: the passes disagree");
    // The second-pass index costs its junctions: genome, suffix array and prefix
    // tables are the first pass's own (two-pass mode used to deep-copy all three), …
    let (sa_1, sa_2) = (first_pass_index.sa().positions(), second_pass_index.sa().positions());
    assert!(std::ptr::eq(sa_1, sa_2), "suffix array copied");
    let (deep_1, deep_2) = (first_pass_index.deep_prefix(), second_pass_index.deep_prefix());
    assert!(!deep_1.is_empty() && std::ptr::eq(deep_1, deep_2), "deep prefix tables rebuilt");
    // … and two passes align and count exactly as one pass over a second-pass index
    // that shares nothing with the first.
    let gene = Gene {
        id: "G".into(),
        contig: "1".into(),
        strand: Strand::Forward,
        exons: vec![Exon { start: 1900, end: 2000 }, Exon { start: 2600, end: 2700 }],
    };
    let annotation = Annotation { genes: vec![gene] };
    let config =
        RunConfig { threads: 2, batch_size: 5, quant: true, record_alignments: true, collect_junctions: true };
    let runner = Runner::new(&first_pass_index, AlignParams::default(), config.clone()).unwrap();
    let (two_pass, inserted) = runner.run_two_pass(&reads, Some(&annotation), 3).unwrap();
    assert_eq!(inserted, 1);
    let unshared = load_index(&p("index")).with_extra_junctions([(2000, 2600)]);
    assert!(!std::ptr::eq(unshared.sa().positions(), sa_1));
    let one_pass = Runner::new(&unshared, AlignParams::default(), config)
        .unwrap()
        .run(&reads, Some(&annotation), None, None)
        .unwrap();
    assert_eq!(two_pass.alignments, one_pass.alignments);
    let tsv = |out: &RunOutput| out.gene_counts.as_ref().unwrap().to_tsv();
    assert_eq!(tsv(&two_pass), tsv(&one_pass));
    assert!(tsv(&two_pass).contains("G\t6\t"), "premise: the spliced reads count for the gene: {}", tsv(&two_pass));
    // The SAM agrees with the SJ.out.tab written beside it.
    let sj = std::fs::read_to_string(p("tp_SJ.out.tab")).unwrap();
    assert!(sj.starts_with("1\t2001\t2600\t"), "{sj}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_bad_usage() {
    // A usage error exits 2, a failed run 1; a panic (101) passes neither.
    let fails_with = |cmd: &mut Command, code: i32| {
        let out = cmd.output().unwrap();
        assert_eq!(out.status.code(), Some(code), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    // No mode.
    fails_with(&mut star_sim(), 2);
    // Unknown mode.
    fails_with(star_sim().arg("frobnicate"), 1);
    // Missing required flag.
    let err = fails_with(star_sim().args(["genomeGenerate", "--genomeDir", "/tmp/x"]), 1);
    assert!(err.contains("genomeFastaFiles"));
    // Flag without value.
    fails_with(star_sim().args(["simulate", "--outDir"]), 2);
    // A prefix depth of 0 is an invalid parameter, not an assertion inside the build.
    let dir = scratch_dir("bad-usage");
    let fasta = path_str(&dir.join("genome.fa"));
    std::fs::write(&fasta, ">1\nACGTACGTTGCAACGTAGCTAGCTAGGATCCA\n").unwrap();
    let genome_dir = path_str(&dir.join("index"));
    let args = ["genomeGenerate", "--genomeFastaFiles", &fasta, "--genomeDir", &genome_dir];
    let err = fails_with(star_sim().args(args).args(["--genomeSAindexNbases", "0"]), 1);
    assert!(err.contains("sa_index_nbases 0"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
