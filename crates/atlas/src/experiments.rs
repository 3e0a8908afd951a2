//! Regeneration code for every figure and table in the paper's evaluation.
//!
//! Each experiment is a function from a [`Substrate`] (the two assemblies, the
//! annotation and both indexes, built once by the caller) and a scalable config to a
//! structured result. Each config's `Default` is the paper scale; the `atlas-bench`
//! crate's `experiments` binary runs it and prints the tables (EXPERIMENTS.md records
//! paper-vs-measured). Tests run the same functions at reduced scale, so the
//! experiment logic itself is covered by the suite.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`fig3_genome_release`] | Fig. 3 — per-file STAR time, release 108 vs 111 index |
//! | [`index_comparison`]    | §III-A table — index sizes, instance, mapping-rate delta |
//! | [`fig4_early_stopping`] | Fig. 4 — early-stopping time savings over a catalog |
//! | [`cloud_campaign`]      | Fig. 1+2 — the architecture end-to-end on the DES |
//! | [`right_size_comparison`] | §III-A corollary — cost of 108- vs 111-sized fleets |
//! | [`spot_recovery`]       | E7 — waste with vs without checkpoint/resume under a reclaim storm |

use std::sync::Arc;

use crate::early_stop::{EarlyStopAccounting, EarlyStopPolicy, SavingsSummary};
use crate::orchestrator::{CampaignConfig, CampaignReport, Orchestrator};
use crate::pipeline::{AtlasPipeline, PipelineConfig};
use crate::right_size::RightSizer;
use crate::AtlasError;
use genomics::{
    Annotation, Assembly, EnsemblGenerator, EnsemblParams, LibraryType, ReadSimulator, Release,
    SimulatorParams,
};
use sra_sim::accession::{CatalogParams, LibraryStrategy};
use sra_sim::SraRepository;
use star_aligner::index::{IndexParams, IndexStats, StarIndex};
use star_aligner::runner::{RunConfig, Runner};
use star_aligner::PhaseWork;

/// Human toplevel genome length used when projecting synthetic index sizes to paper
/// scale (GRCh38 ≈ 3.1 Gbp of chromosomes).
pub const HUMAN_BASES: f64 = 3.1e9;

/// Real STAR's empirical index bytes per genome base (a human release-111 toplevel
/// index is 29.5 GiB over ~3.1 Gbp ≈ 9.5 B/base: 1-byte genome + ~8-byte-effective
/// suffix array + SAindex). Our u32 suffix array is leaner (~4.4 B/base), so paper-
/// scale GiB projections use this constant rather than our measured bytes; the
/// 108/111 *ratio* is identical either way because it tracks genome length.
pub const STAR_BYTES_PER_BASE: f64 = 9.5;

/// Project a synthetic index to its real-STAR human-scale memory footprint and build
/// the right-sizer for it.
pub fn paper_scale_sizer(stats: &IndexStats, linear_scale: f64) -> RightSizer {
    let gib = stats.genome_len as f64 * linear_scale * STAR_BYTES_PER_BASE / (1u64 << 30) as f64;
    RightSizer::for_index_gib(gib)
}

/// Shared experiment substrate: one generator, the two assemblies, the annotation and
/// both indices.
pub struct Substrate {
    /// The assembly generator (hotspot layout source).
    pub generator: EnsemblGenerator,
    /// Release-108 toplevel assembly.
    pub asm_108: Arc<Assembly>,
    /// Release-111 toplevel assembly.
    pub asm_111: Arc<Assembly>,
    /// Annotation (identical gene set for both assemblies).
    pub annotation: Arc<Annotation>,
    /// Index built on release 108.
    pub index_108: Arc<StarIndex>,
    /// Index built on release 111.
    pub index_111: Arc<StarIndex>,
}

impl Substrate {
    /// Build the full substrate from generator parameters.
    pub fn build(params: EnsemblParams) -> Result<Substrate, AtlasError> {
        let generator = EnsemblGenerator::new(params).map_err(star_aligner::StarError::Genomics)?;
        let asm_108 = Arc::new(generator.generate(Release::R108));
        let asm_111 = Arc::new(generator.generate(Release::R111));
        // Annotate on the 111 assembly; the gene set (chromosomes + novel scaffolds)
        // is present identically in 108.
        let annotation = Arc::new(
            Annotation::simulate(&asm_111, &generator)
                .map_err(star_aligner::StarError::Genomics)?,
        );
        let index_params = IndexParams::default();
        let index_108 = Arc::new(StarIndex::build(&asm_108, &annotation, &index_params)?);
        let index_111 = Arc::new(StarIndex::build(&asm_111, &annotation, &index_params)?);
        Ok(Substrate { generator, asm_108, asm_111, annotation, index_108, index_111 })
    }

    /// Linear scale factor from simulated chromosomes to the human genome.
    pub fn human_scale(&self) -> f64 {
        let chrom_bases: usize = self.asm_111.chromosomes().map(|c| c.len()).sum();
        HUMAN_BASES / chrom_bases.max(1) as f64
    }
}

/// The catalog `params` generates, served from the release-111 assembly, with at
/// most `spot_cap` reads simulated per accession.
fn repository(
    sub: &Substrate,
    params: &CatalogParams,
    spot_cap: Option<u64>,
) -> Result<SraRepository, AtlasError> {
    let catalog = params.generate()?;
    let repo = SraRepository::new(Arc::clone(&sub.asm_111), Arc::clone(&sub.annotation), catalog);
    Ok(match spot_cap {
        Some(cap) => repo.with_spot_cap(cap),
        None => repo,
    })
}

// ---------------------------------------------------------------------------
// E1 / Fig. 3
// ---------------------------------------------------------------------------

/// Configuration for the Fig. 3 experiment.
#[derive(Clone, Debug)]
pub struct Fig3Config {
    /// Number of FASTQ files (paper: 49).
    pub n_files: usize,
    /// Median reads per file (log-normal around this; paper files average 15.9 GiB).
    pub reads_median: usize,
    /// Log-normal sigma of file sizes.
    pub reads_sigma: f64,
    /// Aligner threads.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            n_files: 49,
            reads_median: 4_000,
            reads_sigma: 0.5,
            threads: 4,
            seed: 7,
        }
    }
}

/// One file's row in Fig. 3.
#[derive(Clone, Debug)]
pub struct Fig3File {
    /// File label.
    pub name: String,
    /// Reads aligned.
    pub reads: usize,
    /// FASTQ size in bytes (weighting factor).
    pub fastq_bytes: u64,
    /// Seconds on the release-108 index.
    pub secs_108: f64,
    /// Seconds on the release-111 index.
    pub secs_111: f64,
    /// Mapping rate on 108.
    pub rate_108: f64,
    /// Mapping rate on 111.
    pub rate_111: f64,
    /// Alignment work (seed/stitch/extend units) on 108.
    pub work_108: PhaseWork,
    /// Alignment work on 111.
    pub work_111: PhaseWork,
}

impl Fig3File {
    /// Per-file speedup of 111 over 108.
    pub fn speedup(&self) -> f64 {
        if self.secs_111 <= 0.0 {
            0.0
        } else {
            self.secs_108 / self.secs_111
        }
    }
}

/// Fig. 3 result.
#[derive(Clone, Debug)]
pub struct Fig3Result {
    /// Per-file rows.
    pub files: Vec<Fig3File>,
    /// FASTQ-size-weighted mean speedup (the paper's ">12×" headline).
    pub weighted_speedup: f64,
    /// Index stats for both releases.
    pub stats_108: IndexStats,
    /// Index stats for release 111.
    pub stats_111: IndexStats,
    /// Mean |mapping-rate difference| across files (paper: <1 %).
    pub mean_rate_diff: f64,
}

/// Regenerate Fig. 3: align the same FASTQ set against both indices and compare
/// execution times. Both releases run with the Atlas's align parameters
/// ([`PipelineConfig::default`]), so the mapping-rate comparison is like for like.
pub fn fig3_genome_release(sub: &Substrate, config: &Fig3Config) -> Result<Fig3Result, AtlasError> {
    let run_config = RunConfig {
        threads: config.threads,
        batch_size: 2_000,
        quant: false,
        record_alignments: false,
        collect_junctions: false,
    };
    let align_params = PipelineConfig::default().align_params;
    let mut files = Vec::with_capacity(config.n_files);
    let mut rng_seed = config.seed;
    for i in 0..config.n_files {
        rng_seed = rng_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // Log-normal-ish file size from the seed stream.
        let u = ((rng_seed >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-9, 1.0 - 1e-9);
        let z = inverse_normal_cdf(u);
        let reads = ((config.reads_median as f64) * (config.reads_sigma * z).exp()).max(500.0) as usize;

        let mut sim = ReadSimulator::new(
            &sub.asm_111,
            &sub.annotation,
            SimulatorParams::for_library(LibraryType::BulkPolyA),
            rng_seed,
        )
        .map_err(star_aligner::StarError::Genomics)?;
        let reads_vec: Vec<genomics::FastqRecord> =
            sim.simulate(reads, &format!("F{i}")).into_iter().map(|r| r.fastq).collect();
        let fastq_bytes = reads_vec.iter().map(genomics::FastqRecord::fastq_bytes).sum();

        let mut row = Fig3File {
            name: format!("fastq_{i:02}"),
            reads: reads_vec.len(),
            fastq_bytes,
            secs_108: 0.0,
            secs_111: 0.0,
            rate_108: 0.0,
            rate_111: 0.0,
            work_108: PhaseWork::default(),
            work_111: PhaseWork::default(),
        };
        for (index, secs, rate, work) in [
            (&sub.index_108, &mut row.secs_108, &mut row.rate_108, &mut row.work_108),
            (&sub.index_111, &mut row.secs_111, &mut row.rate_111, &mut row.work_111),
        ] {
            let runner = Runner::new(index, align_params.clone(), run_config.clone())?;
            let out = runner.run(&reads_vec, None, None, None)?;
            *secs = out.final_snapshot.elapsed_secs;
            *rate = out.mapped_fraction();
            *work = out.phase_work;
        }
        files.push(row);
    }

    let total_w: f64 = files.iter().map(|f| f.fastq_bytes as f64).sum();
    let weighted_speedup =
        files.iter().map(|f| f.speedup() * f.fastq_bytes as f64).sum::<f64>() / total_w.max(1.0);
    let mean_rate_diff = files.iter().map(|f| (f.rate_108 - f.rate_111).abs()).sum::<f64>()
        / files.len().max(1) as f64;
    Ok(Fig3Result {
        weighted_speedup,
        stats_108: sub.index_108.stats(),
        stats_111: sub.index_111.stats(),
        mean_rate_diff,
        files,
    })
}

/// Inverse standard-normal CDF (Acklam's rational approximation; plenty for workload
/// shaping). Fig. 3's file sizes only, kept so its files stay the pinned ones: every
/// other Gaussian is [`genomics::simulate::standard_normal`].
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

// ---------------------------------------------------------------------------
// E2 / §III-A table
// ---------------------------------------------------------------------------

/// §III-A configuration-table result.
#[derive(Clone, Debug)]
pub struct IndexComparison {
    /// Index stats, release 108.
    pub stats_108: IndexStats,
    /// Index stats, release 111.
    pub stats_111: IndexStats,
    /// Size ratio 108/111 (paper: 85/29.5 ≈ 2.88).
    pub size_ratio: f64,
    /// Projected human-scale index size in GiB, release 108 (paper: 85).
    pub projected_gib_108: f64,
    /// Projected human-scale index size in GiB, release 111 (paper: 29.5).
    pub projected_gib_111: f64,
    /// Cheapest instance fitting the 108 index.
    pub instance_108: String,
    /// Cheapest instance fitting the 111 index.
    pub instance_111: String,
}

/// Regenerate the §III-A configuration table.
pub fn index_comparison(sub: &Substrate) -> Result<IndexComparison, AtlasError> {
    let s108 = sub.index_108.stats();
    let s111 = sub.index_111.stats();
    let scale = sub.human_scale();
    let sizer_108 = paper_scale_sizer(&s108, scale);
    let sizer_111 = paper_scale_sizer(&s111, scale);
    Ok(IndexComparison {
        size_ratio: s108.total_bytes() as f64 / s111.total_bytes() as f64,
        projected_gib_108: sizer_108.index_gib,
        projected_gib_111: sizer_111.index_gib,
        instance_108: sizer_108.choose().map(|t| t.name.to_string()).unwrap_or_else(|| "none".into()),
        instance_111: sizer_111.choose().map(|t| t.name.to_string()).unwrap_or_else(|| "none".into()),
        stats_108: s108,
        stats_111: s111,
    })
}

// ---------------------------------------------------------------------------
// E3 / Fig. 4
// ---------------------------------------------------------------------------

/// Configuration for the Fig. 4 experiment.
#[derive(Clone, Debug)]
pub struct Fig4Config {
    /// Catalog shape (paper: 1000 accessions, 3.8 % single-cell).
    pub catalog: CatalogParams,
    /// Cap on generated reads per accession (experiment scaling).
    pub spot_cap: Option<u64>,
    /// Aligner threads.
    pub threads: usize,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            catalog: CatalogParams::default(),
            spot_cap: Some(3_000),
            threads: 4,
        }
    }
}

/// One alignment's bar in Fig. 4.
#[derive(Clone, Debug)]
pub struct Fig4Run {
    /// Accession id.
    pub accession: String,
    /// Library strategy (ground truth; the paper found all stopped runs were
    /// single-cell).
    pub strategy: LibraryStrategy,
    /// Was the run terminated early?
    pub stopped: bool,
    /// Seconds actually spent aligning (modeled scale).
    pub actual_secs: f64,
    /// Projected full-run seconds (= actual for completed runs).
    pub projected_secs: f64,
    /// Mapping rate at the end of the run.
    pub mapping_rate: f64,
}

/// Fig. 4 result.
#[derive(Clone, Debug)]
pub struct Fig4Result {
    /// Per-run rows (catalog order).
    pub runs: Vec<Fig4Run>,
    /// Aggregate savings (paper: 38/1000 stopped, 30.4 h of 155.8 h = 19.5 %).
    pub summary: SavingsSummary,
}

impl Fig4Result {
    /// Were all stopped runs single-cell libraries (the paper's finding)?
    pub fn stopped_all_single_cell(&self) -> bool {
        self.runs
            .iter()
            .filter(|r| r.stopped)
            .all(|r| r.strategy == LibraryStrategy::SingleCell)
    }
}

/// Regenerate Fig. 4: run the pipeline (alignment stage) over the catalog on the
/// release-111 index, as the optimized pipeline would, with the paper's
/// early-stopping policy ([`EarlyStopPolicy::default`]) and account the savings.
pub fn fig4_early_stopping(sub: &Substrate, config: &Fig4Config) -> Result<Fig4Result, AtlasError> {
    let repo = repository(sub, &config.catalog, config.spot_cap)?;
    let mut pc = PipelineConfig::default();
    pc.run_config.threads = config.threads;
    pc.run_config.batch_size = 500;
    pc.run_config.quant = false;
    let pipeline =
        AtlasPipeline::new(Arc::new(repo), Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc)?;

    let ids = pipeline.repository().ids();
    let mut runs = Vec::with_capacity(ids.len());
    let mut summary = SavingsSummary::default();
    for accession in ids {
        let r = pipeline.run_accession(&accession)?;
        summary.add(&r.early_stop);
        runs.push(Fig4Run {
            accession,
            strategy: r.strategy,
            stopped: r.early_stopped(),
            actual_secs: r.early_stop.actual_secs,
            projected_secs: r.early_stop.projected_full_secs,
            mapping_rate: r.mapping_rate,
        });
    }
    Ok(Fig4Result { runs, summary })
}

// ---------------------------------------------------------------------------
// E3b — checkpoint analysis (the paper's Log.progress.out methodology)
// ---------------------------------------------------------------------------

/// Configuration for the checkpoint analysis.
#[derive(Clone, Debug)]
pub struct CheckpointAnalysisConfig {
    /// Catalog to record traces over (the paper used 1000 progress files).
    pub catalog: CatalogParams,
    /// Cap on generated reads per accession.
    pub spot_cap: Option<u64>,
}

impl Default for CheckpointAnalysisConfig {
    fn default() -> Self {
        CheckpointAnalysisConfig {
            catalog: CatalogParams { n_accessions: 200, ..CatalogParams::default() },
            spot_cap: Some(2_000),
        }
    }
}

/// Candidate checkpoint fractions the analysis replays.
pub const CHECKPOINT_FRACTIONS: [f64; 6] = [0.02, 0.05, 0.10, 0.20, 0.30, 0.50];

/// Reproduce the paper's progress-log analysis: record complete-run traces over the
/// catalog and replay every one of [`CHECKPOINT_FRACTIONS`] at the paper's
/// mapping-rate threshold ([`EarlyStopPolicy::default`]).
pub fn checkpoint_analysis(
    sub: &Substrate,
    config: &CheckpointAnalysisConfig,
) -> Result<crate::analysis::CheckpointAnalysis, AtlasError> {
    let repo = repository(sub, &config.catalog, config.spot_cap)?;
    let mut pc = PipelineConfig { early_stop: None, ..PipelineConfig::default() };
    pc.run_config.quant = false;
    let pipeline =
        AtlasPipeline::new(Arc::new(repo), Arc::clone(&sub.index_111), Arc::clone(&sub.annotation), pc)?;
    let traces = crate::analysis::record_traces(&pipeline)?;
    let min_rate = EarlyStopPolicy::default().min_mapping_rate;
    Ok(crate::analysis::analyze_checkpoints(&traces, &CHECKPOINT_FRACTIONS, min_rate))
}

// ---------------------------------------------------------------------------
// E4 / architecture campaign & E5 / right-sizing
// ---------------------------------------------------------------------------

/// Configuration for the cloud-campaign experiment.
#[derive(Clone, Debug)]
pub struct CampaignExperimentConfig {
    /// Catalog shape.
    pub catalog: CatalogParams,
    /// Cap on generated reads per accession.
    pub spot_cap: Option<u64>,
    /// Which release's index the fleet uses.
    pub release: Release,
    /// Spot interruptions per instance-hour (0 = stable fleet).
    pub interruptions_per_hour: f64,
}

impl Default for CampaignExperimentConfig {
    fn default() -> Self {
        CampaignExperimentConfig {
            catalog: CatalogParams { n_accessions: 200, ..CatalogParams::default() },
            spot_cap: Some(2_000),
            release: Release::R111,
            interruptions_per_hour: 0.2,
        }
    }
}

/// Run the end-to-end architecture campaign (E4) and return the report plus the
/// instance type the right-sizer picked. Instance init and sizing charge the
/// paper-scale index bytes (85 / 29.5 GiB), not the synthetic index's.
pub fn cloud_campaign(
    sub: &Substrate,
    config: &CampaignExperimentConfig,
) -> Result<(CampaignReport, String), AtlasError> {
    let index = match config.release {
        Release::R108 => Arc::clone(&sub.index_108),
        _ => Arc::clone(&sub.index_111),
    };
    // Size the fleet for this index.
    let sizer = paper_scale_sizer(&index.stats(), sub.human_scale());
    let itype = sizer
        .choose()
        .ok_or_else(|| AtlasError::InvalidParams("no instance type fits the index".into()))?;
    let repo = repository(sub, &config.catalog, config.spot_cap)?;
    let ids = repo.ids();
    let mut pc = PipelineConfig::default();
    pc.run_config.batch_size = 500;
    let pipeline =
        Arc::new(AtlasPipeline::new(Arc::new(repo), index, Arc::clone(&sub.annotation), pc)?);

    let mut cc = CampaignConfig::new(itype, (sizer.index_gib * (1u64 << 30) as f64) as u64);
    cc.spot_market.interruptions_per_hour = config.interruptions_per_hour;
    cc.scaling = cloudsim::ScalingPolicy { min_size: 0, max_size: 8, target_backlog_per_instance: 8 };
    let orch = Orchestrator::new(pipeline, cc)?;
    let report = orch.run(&ids)?;
    Ok((report, itype.name.to_string()))
}

/// E5: the same workload on a release-108-sized fleet vs a release-111-sized fleet.
#[derive(Debug)]
pub struct RightSizeComparison {
    /// Campaign on the 108 index (big instances, slow alignment, long init).
    pub report_108: CampaignReport,
    /// Instance type used for 108.
    pub instance_108: String,
    /// Campaign on the 111 index.
    pub report_111: CampaignReport,
    /// Instance type used for 111.
    pub instance_111: String,
}

impl RightSizeComparison {
    /// Cost ratio 108/111 — how much the genome-release optimization saves in USD.
    pub fn cost_ratio(&self) -> f64 {
        self.report_108.cost.total_usd / self.report_111.cost.total_usd.max(1e-12)
    }
}

/// Run E5.
pub fn right_size_comparison(
    sub: &Substrate,
    base: &CampaignExperimentConfig,
) -> Result<RightSizeComparison, AtlasError> {
    let mut c108 = base.clone();
    c108.release = Release::R108;
    let mut c111 = base.clone();
    c111.release = Release::R111;
    let (report_108, instance_108) = cloud_campaign(sub, &c108)?;
    let (report_111, instance_111) = cloud_campaign(sub, &c111)?;
    Ok(RightSizeComparison { report_108, instance_108, report_111, instance_111 })
}

// ---------------------------------------------------------------------------
// E6 — future work: early stopping on a (pseudo)aligner
// ---------------------------------------------------------------------------

/// Configuration for the pseudoaligner early-stopping study.
#[derive(Clone, Debug)]
pub struct PseudoStudyConfig {
    /// Catalog shape.
    pub catalog: CatalogParams,
    /// Cap on generated reads per accession.
    pub spot_cap: Option<u64>,
    /// Threads per run.
    pub threads: usize,
}

impl Default for PseudoStudyConfig {
    fn default() -> Self {
        PseudoStudyConfig {
            catalog: CatalogParams { n_accessions: 200, ..CatalogParams::default() },
            spot_cap: Some(2_000),
            threads: 4,
        }
    }
}

/// Outcome of the pseudoaligner study: the same catalog pseudoaligned in both modes.
#[derive(Clone, Debug)]
pub struct PseudoStudyResult {
    /// Savings with progress reporting enabled (the paper's recommendation).
    pub with_progress: SavingsSummary,
    /// Savings in stock-Salmon mode (no progress stream): structurally zero stops.
    pub stock: SavingsSummary,
    /// Mean pseudoalignment rate of bulk accessions.
    pub bulk_rate: f64,
    /// Mean pseudoalignment rate of single-cell accessions.
    pub single_cell_rate: f64,
}

/// E6: run the pseudoaligner over the catalog twice — with the progress stream the
/// paper asks (pseudo)aligner authors to add, and without it (stock Salmon) — and
/// account the early-stopping savings in each mode.
pub fn pseudo_early_stopping(
    sub: &Substrate,
    config: &PseudoStudyConfig,
) -> Result<PseudoStudyResult, AtlasError> {
    use pseudo_aligner::{PseudoIndex, PseudoIndexParams, PseudoRunConfig, PseudoRunner};

    let index =
        PseudoIndex::build(&sub.asm_111, &sub.annotation, &PseudoIndexParams { k: 21 })
            .map_err(star_aligner::StarError::Genomics)?;
    let repo = repository(sub, &config.catalog, config.spot_cap)?;
    let dumper = sra_sim::FasterqDump::default();

    let policy = EarlyStopPolicy::default();
    let mut with_progress = SavingsSummary::default();
    let mut stock = SavingsSummary::default();
    let mut bulk_rates = Vec::new();
    let mut sc_rates = Vec::new();
    for id in repo.ids() {
        let meta = repo.meta(&id)?;
        let reads = dumper.run(&repo.fetch(&id)?)?.reads;
        let batch = (reads.len() / 20).max(50);
        for (report_progress, summary) in
            [(true, &mut with_progress), (false, &mut stock)]
        {
            let run_config = PseudoRunConfig {
                threads: config.threads,
                batch_size: batch,
                report_progress,
            };
            let runner = PseudoRunner::new(&index, run_config)?;
            let out = runner.run(&reads, Some(&policy))?;
            let secs = out.final_snapshot.elapsed_secs
                * (meta.spots as f64 / reads.len().max(1) as f64);
            summary.add(&EarlyStopAccounting::from_run(out.status, &out.final_snapshot, secs));
            if report_progress {
                match meta.strategy {
                    LibraryStrategy::RnaSeqBulk => bulk_rates.push(out.mapped_fraction()),
                    LibraryStrategy::SingleCell => sc_rates.push(out.mapped_fraction()),
                }
            }
        }
    }
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    Ok(PseudoStudyResult {
        with_progress,
        stock,
        bulk_rate: mean(&bulk_rates),
        single_cell_rate: mean(&sc_rates),
    })
}

// ---------------------------------------------------------------------------
// E7 — graceful spot degradation (checkpointing under a reclaim storm)
// ---------------------------------------------------------------------------

/// One arm (recovery on or off) of the spot-recovery study.
#[derive(Clone, Debug)]
pub struct SpotRecoveryArm {
    /// Was checkpoint/resume armed?
    pub recovery: bool,
    /// Campaign makespan, seconds.
    pub makespan_secs: f64,
    /// Total spend.
    pub total_usd: f64,
    /// Reclaims that struck.
    pub interruptions: usize,
    /// Accessions completed / dead-lettered.
    pub completed: usize,
    /// Accessions that exhausted redelivery.
    pub dead_lettered: usize,
    /// Ledger total: seconds burned on attempts that produced nothing.
    pub retry_waste_secs: f64,
    /// Ledger total: seconds accessions sat between attempts.
    pub idle_gap_secs: f64,
    /// Ledger total: drained-attempt seconds a resumed attempt did not redo.
    pub salvaged_secs: f64,
    /// Checkpoints written / resumes that consumed one.
    pub checkpoints_written: usize,
    /// Resumed attempts.
    pub resumes: usize,
}

/// The spot-recovery study result: both arms under the identical storm.
#[derive(Clone, Debug)]
pub struct SpotRecoveryResult {
    /// Checkpoint/resume armed.
    pub with_recovery: SpotRecoveryArm,
    /// The pre-existing drop-everything path.
    pub without_recovery: SpotRecoveryArm,
}

impl SpotRecoveryResult {
    /// Fraction of the non-recovery arm's burned time (retry waste + idle gap)
    /// that checkpointing eliminated.
    pub fn waste_reduction_fraction(&self) -> f64 {
        let off = self.without_recovery.retry_waste_secs + self.without_recovery.idle_gap_secs;
        let on = self.with_recovery.retry_waste_secs + self.with_recovery.idle_gap_secs;
        if off <= 0.0 {
            0.0
        } else {
            (off - on) / off
        }
    }
}

/// Run the spot-recovery study (E7): the Fig. 4-style waste chart for graceful
/// degradation. The same seeded reclaim storm (an hour at 18 reclaims per
/// instance-hour from t = 300 s, 5 % of checkpoint writes failing) hits
/// `n_accessions` modeled accessions (~10-minute align stages) twice — once with
/// checkpoint/resume armed, once without — and the ledger prices the difference.
pub fn spot_recovery(n_accessions: usize) -> Result<SpotRecoveryResult, AtlasError> {
    let run_arm = |recovery: bool| -> Result<SpotRecoveryArm, AtlasError> {
        let t = cloudsim::instance::InstanceType::by_name("r6a.xlarge")
            .map_err(AtlasError::Cloud)?;
        let mut cfg = CampaignConfig::new(t, 30_000_000_000);
        cfg.scaling = cloudsim::ScalingPolicy {
            min_size: 0,
            max_size: 8,
            target_backlog_per_instance: 4,
        };
        cfg.spot_market =
            cloudsim::SpotMarket { price_factor: 0.35, interruptions_per_hour: 0.0, seed: 11 };
        cfg.faults = Some(cloudsim::FaultPlan {
            seed: 42,
            checkpoint_write_fail: 0.05,
            spot_bursts: vec![cloudsim::faults::SpotBurst {
                start_secs: 300.0,
                duration_secs: 3600.0,
                rate_per_hour: 18.0,
            }],
            ..cloudsim::FaultPlan::default()
        });
        cfg.max_receive_count = Some(10);
        cfg.slo = Some(telemetry::SloConfig::default());
        if recovery {
            cfg.recovery = Some(crate::recovery::RecoveryConfig);
        }
        let ids = crate::workload::ModeledWorkload::accessions(n_accessions);
        let report = Orchestrator::with_workload(
            crate::workload::ModeledWorkload::default().into_workload(),
            cfg,
        )?
        .run(&ids)?;
        let totals = report.slo.as_ref().expect("slo configured").totals.clone();
        let count_kind = |kind: &str| {
            let tag = format!("\"kind\":\"{kind}\"");
            report
                .telemetry
                .as_ref()
                .map(|t| t.event_log.lines().filter(|l| l.contains(&tag)).count())
                .unwrap_or(0)
        };
        Ok(SpotRecoveryArm {
            recovery,
            makespan_secs: report.makespan.as_secs(),
            total_usd: report.cost.total_usd,
            interruptions: report.interruptions,
            completed: report.completed.len(),
            dead_lettered: report.dead_lettered.len(),
            retry_waste_secs: totals.retry_waste_secs,
            idle_gap_secs: totals.idle_gap_secs,
            salvaged_secs: totals.salvaged_secs,
            checkpoints_written: count_kind("checkpoint"),
            resumes: count_kind("resume"),
        })
    };
    Ok(SpotRecoveryResult { with_recovery: run_arm(true)?, without_recovery: run_arm(false)? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fig3() -> Fig3Config {
        Fig3Config {
            n_files: 4,
            reads_median: 1_500,
            reads_sigma: 0.4,
            threads: 1,
            seed: 5,
        }
    }

    #[test]
    fn fig3_shows_release_111_much_faster_with_same_mapping() {
        let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
        let r = fig3_genome_release(&sub, &tiny_fig3()).unwrap();
        assert_eq!(r.files.len(), 4);
        // Alignment work units, not wall-clock: exact for the seed, so every file is
        // checked. This seed reads 3.94-6.24x more work on release 108.
        for f in &r.files {
            let ratio = f.work_108.total() as f64 / f.work_111.total() as f64;
            assert!(ratio > 3.5, "{}: release 108 must cost clearly more work: {ratio}", f.name);
        }
        assert!(r.mean_rate_diff < 0.02, "mapping rates nearly identical: {}", r.mean_rate_diff);
        assert!(r.stats_108.total_bytes() > 2 * r.stats_111.total_bytes());
    }

    #[test]
    fn index_comparison_projects_paper_scale_sizes() {
        let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
        let c = index_comparison(&sub).unwrap();
        assert!(c.size_ratio > 2.0 && c.size_ratio < 3.5, "ratio {}", c.size_ratio);
        assert!(c.projected_gib_108 > c.projected_gib_111 * 2.0);
        assert_ne!(c.instance_108, "none");
        assert_ne!(c.instance_111, "none");
        // The 108 instance must cost at least as much as the 111 one.
        let t108 = cloudsim::instance::InstanceType::by_name(&c.instance_108).unwrap();
        let t111 = cloudsim::instance::InstanceType::by_name(&c.instance_111).unwrap();
        assert!(t108.on_demand_hourly_usd >= t111.on_demand_hourly_usd);
    }

    #[test]
    fn fig4_savings_come_from_single_cell_runs() {
        let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
        let cfg = Fig4Config {
            catalog: CatalogParams {
                n_accessions: 25,
                single_cell_fraction: 0.2,
                bulk_spots_median: 400,
                ..CatalogParams::default()
            },
            spot_cap: Some(800),
            threads: 2,
        };
        let r = fig4_early_stopping(&sub, &cfg).unwrap();
        assert_eq!(r.runs.len(), 25);
        assert_eq!(r.summary.stopped, 5, "0.2 × 25 single-cell accessions stopped");
        assert!(r.stopped_all_single_cell(), "paper: terminated inputs were single-cell");
        assert!(r.summary.saved_fraction() > 0.05, "saved {}", r.summary.saved_fraction());
        // No bulk run is stopped.
        assert!(r
            .runs
            .iter()
            .filter(|x| x.strategy == LibraryStrategy::RnaSeqBulk)
            .all(|x| !x.stopped));
    }

    #[test]
    fn pseudo_study_shows_progress_gap() {
        let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
        let cfg = PseudoStudyConfig {
            catalog: CatalogParams {
                n_accessions: 12,
                single_cell_fraction: 0.25,
                bulk_spots_median: 500,
                ..CatalogParams::default()
            },
            spot_cap: Some(800),
            threads: 2,
        };
        let r = pseudo_early_stopping(&sub, &cfg).unwrap();
        assert_eq!(r.with_progress.stopped, 3, "25% of 12 single-cell accessions stop");
        assert_eq!(r.stock.stopped, 0, "stock Salmon cannot early-stop");
        assert!(r.with_progress.saved_fraction() > 0.0);
        assert_eq!(r.stock.saved_fraction(), 0.0);
        assert!(r.bulk_rate > 0.6);
        assert!(r.single_cell_rate < 0.30);
    }

    #[test]
    fn inverse_normal_cdf_is_sane() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.975) - 1.96).abs() < 0.01);
        assert!((inverse_normal_cdf(0.025) + 1.96).abs() < 0.01);
        assert!(inverse_normal_cdf(0.0001) < -3.0);
    }

    #[test]
    fn spot_recovery_study_recovers_waste() {
        let r = spot_recovery(20).unwrap();
        assert!(r.with_recovery.interruptions > 0, "premise: the storm struck");
        assert!(r.without_recovery.interruptions > 0);
        assert_eq!(
            r.with_recovery.completed + r.with_recovery.dead_lettered,
            20
        );
        assert!(r.with_recovery.salvaged_secs > 0.0);
        assert_eq!(r.without_recovery.salvaged_secs, 0.0);
        assert!(r.with_recovery.checkpoints_written > 0);
        assert!(r.with_recovery.resumes > 0);
        assert!(r.waste_reduction_fraction() > 0.0, "checkpointing must cut burned time");
        let text = crate::report::render_spot_recovery(&r);
        assert!(text.contains("E7"));
        assert!(text.contains("waste reduction:"));
    }
}
