//! The four-stage per-accession pipeline (paper Fig. 1).
//!
//! 1. `prefetch` — download the `.sra` (modeled network time).
//! 2. `fasterq-dump` — convert to FASTQ (real parallel decode, modeled duration).
//! 3. STAR — real alignment with `--quantMode GeneCounts`, optionally guarded by the
//!    early-stopping monitor.
//! 4. Collect — fold the per-gene counts into the Atlas (DESeq2 normalization runs
//!    campaign-wide at the end; see [`crate::orchestrator`]).
//!
//! Stage durations separate *measured* compute (the aligner really runs) from
//! *modeled* time (transfer stages, and a spots-ratio scale-up when the experiment
//! caps generated reads below the catalog's spot counts — the cloud clock then
//! advances as if the full accession had been processed).

use std::sync::Arc;

use crate::early_stop::{EarlyStopAccounting, EarlyStopPolicy};
use crate::AtlasError;
use genomics::Annotation;
use sra_sim::accession::{LibraryLayout, LibraryStrategy};
use sra_sim::fasterq_dump::DumpModel;
use sra_sim::prefetch::NetworkModel;
use sra_sim::{FasterqDump, SraRepository};
use star_aligner::quant::GeneCounts;
use star_aligner::runner::{RunConfig, RunStatus, Runner};
use star_aligner::{AlignParams, PhaseWork, StarIndex};

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Network model charged by `prefetch`.
    pub network: NetworkModel,
    /// Throughput model charged by `fasterq-dump`.
    pub dump: DumpModel,
    /// Aligner parameters.
    pub align_params: AlignParams,
    /// Run driver configuration (threads, batch size, quant).
    pub run_config: RunConfig,
    /// Early-stopping policy; `None` disables the optimization (the baseline).
    pub early_stop: Option<EarlyStopPolicy>,
    /// When set, the align stage charges `processed_reads × this` seconds instead
    /// of measured wall time, making campaign clocks bit-reproducible across runs
    /// (required by the chaos-replay tests). `None` charges measured wall time.
    pub align_secs_per_read: Option<f64>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        // The Atlas aligns against *toplevel* assemblies whose unplaced scaffolds
        // duplicate genic sequence, so it runs STAR with an ENCODE-style
        // `--outFilterMultimapNmax 20` instead of the bare default 10 — otherwise
        // legitimately mapped reads on older releases tip into "too many loci".
        let align_params =
            AlignParams { out_filter_multimap_nmax: 20, ..AlignParams::default() };
        PipelineConfig {
            network: NetworkModel::default(),
            dump: DumpModel::default(),
            align_params,
            run_config: RunConfig::default(),
            early_stop: Some(EarlyStopPolicy::default()),
            align_secs_per_read: None,
        }
    }
}

/// Modeled duration of each pipeline stage, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimes {
    /// Stage 1: `prefetch`.
    pub prefetch_secs: f64,
    /// Stage 2: `fasterq-dump`.
    pub dump_secs: f64,
    /// Stage 3: STAR alignment (modeled; see [`PipelineConfig::align_secs_per_read`]).
    pub align_secs: f64,
    /// Stage 4: counts collection + result upload.
    pub collect_secs: f64,
}

impl StageTimes {
    /// Number of pipeline stages.
    pub const N_STAGES: usize = 4;

    /// Stage names, in execution order.
    pub const STAGE_NAMES: [&'static str; Self::N_STAGES] =
        ["prefetch", "fasterq-dump", "align", "collect"];

    /// Total pipeline seconds.
    pub fn total(&self) -> f64 {
        self.prefetch_secs + self.dump_secs + self.align_secs + self.collect_secs
    }

    /// Durations as an array, in execution order.
    pub fn as_array(&self) -> [f64; Self::N_STAGES] {
        [self.prefetch_secs, self.dump_secs, self.align_secs, self.collect_secs]
    }

    /// Seconds elapsed before stage `stage` starts (prefix sum; `stage` is an index
    /// into [`Self::STAGE_NAMES`]). Used by fault injection to place worker crashes
    /// at a chosen pipeline stage.
    pub fn prefix_secs(&self, stage: usize) -> f64 {
        assert!(stage < Self::N_STAGES, "stage {stage} out of range");
        self.as_array()[..stage].iter().sum()
    }

    /// Per-stage `(name, start, end)` offsets from job start, in execution order.
    pub fn spans(&self) -> Vec<(&'static str, f64, f64)> {
        let durations = self.as_array();
        Self::STAGE_NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let start = self.prefix_secs(i);
                (*name, start, start + durations[i])
            })
            .collect()
    }

    /// Align sub-stage `(name, start, end)` offsets from job start: the align
    /// stage split proportional to `work`'s seed/stitch/extend unit counts.
    /// Empty when no alignment work was recorded. Boundaries are monotone and
    /// the last end lands exactly on the align stage's end.
    pub fn align_phase_spans(&self, work: &PhaseWork) -> Vec<(&'static str, f64, f64)> {
        const ALIGN_STAGE: usize = 2;
        debug_assert_eq!(Self::STAGE_NAMES[ALIGN_STAGE], "align");
        if work.total() == 0 || self.align_secs <= 0.0 {
            return Vec::new();
        }
        let start = self.prefix_secs(ALIGN_STAGE);
        let end = start + self.align_secs;
        let (f_seed, f_stitch, _) = work.fractions();
        let b1 = (start + self.align_secs * f_seed).min(end);
        let b2 = (start + self.align_secs * (f_seed + f_stitch)).clamp(b1, end);
        vec![("seed", start, b1), ("stitch", b1, b2), ("extend", b2, end)]
    }
}

/// Everything one accession's pipeline run produces.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// The accession processed.
    pub accession: String,
    /// Its library strategy (from catalog metadata).
    pub strategy: LibraryStrategy,
    /// Modeled per-stage durations.
    pub stage_secs: StageTimes,
    /// Final mapping rate observed by the aligner.
    pub mapping_rate: f64,
    /// How the alignment ended.
    pub status: RunStatus,
    /// Early-stop time accounting (on modeled alignment seconds).
    pub early_stop: EarlyStopAccounting,
    /// Gene counts (present when quant was enabled and the run completed; aborted
    /// runs discard their partial counts, as the paper's pipeline discards aborted
    /// alignments entirely).
    pub gene_counts: Option<GeneCounts>,
    /// Reads fed to the aligner (after any experiment spot cap).
    pub reads_input: u64,
    /// Wall-clock seconds the alignment actually took on this machine.
    pub measured_align_secs: f64,
    /// Per-phase alignment work units (seed/stitch/extend), used to split the
    /// align span into sub-stages on the telemetry timeline.
    pub phase_work: PhaseWork,
    /// `fasterq-dump` stage attributes (spots, bytes, layout) for telemetry.
    pub dump_attrs: Vec<(&'static str, String)>,
}

impl PipelineResult {
    /// Did early stopping abort this accession?
    pub fn early_stopped(&self) -> bool {
        matches!(self.status, RunStatus::EarlyStopped { .. })
    }
}

/// The pipeline bound to a repository, an index, and an annotation.
pub struct AtlasPipeline {
    repo: Arc<SraRepository>,
    index: Arc<StarIndex>,
    annotation: Arc<Annotation>,
    config: PipelineConfig,
}

impl AtlasPipeline {
    /// Assemble a pipeline. Validates the configuration.
    pub fn new(
        repo: Arc<SraRepository>,
        index: Arc<StarIndex>,
        annotation: Arc<Annotation>,
        config: PipelineConfig,
    ) -> Result<AtlasPipeline, AtlasError> {
        config.align_params.validate()?;
        config.run_config.validate()?;
        if let Some(p) = &config.early_stop {
            p.validate()?;
        }
        config.network.validate().map_err(|e| AtlasError::InvalidParams(format!("network: {e}")))?;
        config.dump.validate().map_err(|e| AtlasError::InvalidParams(format!("dump: {e}")))?;
        if let Some(secs) = config.align_secs_per_read.filter(|s| !(s.is_finite() && *s >= 0.0)) {
            return Err(AtlasError::InvalidParams(format!(
                "align_secs_per_read must be finite and non-negative, got {secs}"
            )));
        }
        Ok(AtlasPipeline { repo, index, annotation, config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The repository backing stage 1.
    pub fn repository(&self) -> &SraRepository {
        &self.repo
    }

    /// Shared handle to the repository (for building derived pipelines).
    pub fn repository_arc(&self) -> Arc<SraRepository> {
        Arc::clone(&self.repo)
    }

    /// Shared handle to the index.
    pub fn index_arc(&self) -> Arc<StarIndex> {
        Arc::clone(&self.index)
    }

    /// Shared handle to the annotation.
    pub fn annotation_arc(&self) -> Arc<Annotation> {
        Arc::clone(&self.annotation)
    }

    /// Run the full pipeline for one accession.
    pub fn run_accession(&self, accession: &str) -> Result<PipelineResult, AtlasError> {
        self.run_accession_with_history(accession).map(|(result, _)| result)
    }

    /// Like [`AtlasPipeline::run_accession`], also returning the alignment's
    /// progress-snapshot history (the `Log.progress.out` lines) for analysis.
    pub fn run_accession_with_history(
        &self,
        accession: &str,
    ) -> Result<(PipelineResult, Vec<star_aligner::ProgressSnapshot>), AtlasError> {
        let meta = self.repo.meta(accession)?.clone();

        // Stage 1: prefetch. Real archive content; the modeled time charges the
        // catalog-scale file size so spot caps don't shrink the cloud clock.
        let archive = self.repo.fetch(accession)?;
        let prefetch_secs = self.config.network.transfer_secs(meta.sra_size_bytes());

        // Stage 2: fasterq-dump.
        let dump = FasterqDump::new(self.config.dump).run(&archive)?;
        let dump_secs = {
            let rate =
                self.config.dump.bytes_per_sec_per_thread * self.config.dump.threads as f64;
            meta.fastq_size_bytes() as f64 / rate
        };

        // Stage 3: STAR. Early-stopping decisions happen at batch boundaries, so cap
        // the batch size to guarantee ~20 checkpoints per run — otherwise a small
        // (or spot-capped) input could finish inside its first batch and the 10 %
        // checkpoint would never be observable. Paired accessions align as fragments
        // (`run_pairs` over the interleaved dump, two reads at a time), matching how
        // STAR reports paired libraries.
        let n_spots = dump.spots() as usize;
        let mut run_config = self.config.run_config.clone();
        run_config.batch_size = run_config.batch_size.clamp(1, (n_spots / 20).max(50));
        let runner = Runner::new(&self.index, self.config.align_params.clone(), run_config)?;
        let monitor = self.config.early_stop;
        let monitor_dyn =
            monitor.as_ref().map(|p| p as &dyn star_aligner::runner::RunMonitor);
        let output = match dump.layout {
            LibraryLayout::Paired => {
                let (pairs, _) = dump.reads.as_chunks::<2>();
                runner.run_pairs(pairs, Some(&self.annotation), monitor_dyn, None)?
            }
            LibraryLayout::Single => {
                runner.run(&dump.reads, Some(&self.annotation), monitor_dyn, None)?
            }
        };

        // Modeled alignment seconds: measured wall time, scaled for capped spots.
        let spots_ratio = if n_spots == 0 { 1.0 } else { meta.spots as f64 / n_spots as f64 };
        let measured_secs = match self.config.align_secs_per_read {
            Some(per_read) => output.final_snapshot.processed as f64 * per_read,
            None => output.final_snapshot.elapsed_secs,
        };
        let align_secs = measured_secs * spots_ratio;
        let early_stop =
            EarlyStopAccounting::from_run(output.status, &output.final_snapshot, align_secs);

        // Stage 4: collect. Charged only for completed runs (aborted pipelines skip
        // the upload and report the abort).
        let completed = matches!(output.status, RunStatus::Completed);
        let collect_secs = if completed {
            // Counts table upload + bookkeeping: latency + size/bandwidth.
            let table_bytes = output
                .gene_counts
                .as_ref()
                .map_or(0, |gc| gc.gene_ids.len() as u64 * 24 + 128);
            self.config.network.transfer_secs(table_bytes)
        } else {
            0.0
        };

        Ok((
            PipelineResult {
                accession: meta.id.clone(),
                strategy: meta.strategy,
                stage_secs: StageTimes { prefetch_secs, dump_secs, align_secs, collect_secs },
                mapping_rate: output.mapped_fraction(),
                status: output.status,
                early_stop,
                gene_counts: if completed { output.gene_counts } else { None },
                reads_input: dump.reads.len() as u64,
                measured_align_secs: output.final_snapshot.elapsed_secs,
                phase_work: output.phase_work,
                dump_attrs: dump.span_attrs(),
            },
            output.history,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomics::{EnsemblGenerator, EnsemblParams, Release};
    use sra_sim::accession::CatalogParams;
    use star_aligner::index::IndexParams;

    fn pipeline(early_stop: bool, spot_cap: Option<u64>) -> AtlasPipeline {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = Arc::new(g.generate(Release::R111));
        let ann = Arc::new(Annotation::simulate(&asm, &g).unwrap());
        let idx =
            Arc::new(StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap());
        let mut cat = CatalogParams::default();
        cat.n_accessions = 10;
        cat.bulk_spots_median = 400;
        cat.single_cell_fraction = 0.3;
        let mut repo = SraRepository::new(asm, Arc::clone(&ann), cat.generate().unwrap());
        if let Some(cap) = spot_cap {
            repo = repo.with_spot_cap(cap);
        }
        let mut config = PipelineConfig::default();
        config.run_config.batch_size = 100;
        config.run_config.threads = 2;
        if !early_stop {
            config.early_stop = None;
        }
        AtlasPipeline::new(Arc::new(repo), idx, ann, config).unwrap()
    }

    fn ids_by_strategy(p: &AtlasPipeline, s: LibraryStrategy) -> Vec<String> {
        p.repository()
            .ids()
            .into_iter()
            .filter(|id| p.repository().meta(id).unwrap().strategy == s)
            .collect()
    }

    #[test]
    fn bulk_accession_completes_with_counts() {
        let p = pipeline(true, None);
        let id = &ids_by_strategy(&p, LibraryStrategy::RnaSeqBulk)[0];
        let r = p.run_accession(id).unwrap();
        assert_eq!(r.status, RunStatus::Completed);
        assert!(r.mapping_rate > 0.6, "bulk mapping rate {}", r.mapping_rate);
        assert!(r.gene_counts.is_some());
        assert!(!r.early_stopped());
        assert_eq!(r.early_stop.saved_secs(), 0.0);
        assert!(r.stage_secs.prefetch_secs > 0.0);
        assert!(r.stage_secs.dump_secs > 0.0);
        assert!(r.stage_secs.align_secs > 0.0);
        assert!(r.stage_secs.collect_secs > 0.0);
    }

    #[test]
    fn single_cell_accession_is_early_stopped() {
        let p = pipeline(true, None);
        let id = &ids_by_strategy(&p, LibraryStrategy::SingleCell)[0];
        let r = p.run_accession(id).unwrap();
        assert!(r.early_stopped(), "status {:?}, rate {}", r.status, r.mapping_rate);
        assert!(r.mapping_rate < 0.30);
        assert!(r.gene_counts.is_none(), "aborted runs discard counts");
        assert!(r.early_stop.saved_secs() > 0.0);
        assert_eq!(r.stage_secs.collect_secs, 0.0, "no upload for aborted runs");
        assert!(
            r.early_stop.processed_reads < r.early_stop.total_reads,
            "stopped before the end"
        );
    }

    #[test]
    fn without_policy_single_cell_runs_to_completion() {
        let p = pipeline(false, None);
        let id = &ids_by_strategy(&p, LibraryStrategy::SingleCell)[0];
        let r = p.run_accession(id).unwrap();
        assert_eq!(r.status, RunStatus::Completed);
        assert!(r.mapping_rate < 0.30, "still a bad library, just not aborted");
        assert!(r.gene_counts.is_some());
    }

    #[test]
    fn spot_cap_scales_modeled_align_time_up() {
        let p_capped = pipeline(true, Some(100));
        let id = ids_by_strategy(&p_capped, LibraryStrategy::RnaSeqBulk)
            .into_iter()
            .find(|id| p_capped.repository().meta(id).unwrap().spots > 100)
            .expect("some bulk accession exceeds the cap");
        let spots = p_capped.repository().meta(&id).unwrap().spots;
        let r = p_capped.run_accession(&id).unwrap();
        assert_eq!(r.reads_input, 100);
        let expected_ratio = spots as f64 / 100.0;
        let observed_ratio = r.stage_secs.align_secs / r.measured_align_secs;
        assert!(
            (observed_ratio / expected_ratio - 1.0).abs() < 1e-6,
            "align time must scale by spots ratio: {observed_ratio} vs {expected_ratio}"
        );
    }

    #[test]
    fn prefetch_time_uses_catalog_size_not_capped_size() {
        let p_capped = pipeline(true, Some(100));
        let p_full = pipeline(true, None);
        let id = ids_by_strategy(&p_full, LibraryStrategy::RnaSeqBulk)[0].clone();
        let a = p_capped.run_accession(&id).unwrap();
        let b = p_full.run_accession(&id).unwrap();
        assert!((a.stage_secs.prefetch_secs - b.stage_secs.prefetch_secs).abs() < 1e-9);
        assert!((a.stage_secs.dump_secs - b.stage_secs.dump_secs).abs() < 1e-9);
    }

    #[test]
    fn paired_accession_runs_through_the_pipeline() {
        let g = EnsemblGenerator::new(EnsemblParams::tiny()).unwrap();
        let asm = Arc::new(g.generate(Release::R111));
        let ann = Arc::new(Annotation::simulate(&asm, &g).unwrap());
        let idx = Arc::new(StarIndex::build(&asm, &ann, &IndexParams::default()).unwrap());
        let mut cat = CatalogParams::default();
        cat.n_accessions = 4;
        cat.bulk_spots_median = 300;
        cat.single_cell_fraction = 0.0;
        cat.paired_fraction = 1.0;
        let repo = Arc::new(SraRepository::new(asm, Arc::clone(&ann), cat.generate().unwrap()));
        let mut config = PipelineConfig::default();
        config.run_config.threads = 2;
        let p = AtlasPipeline::new(repo, idx, ann, config).unwrap();
        let id = p.repository().ids()[0].clone();
        let meta = p.repository().meta(&id).unwrap().clone();
        assert_eq!(meta.layout, sra_sim::accession::LibraryLayout::Paired);
        let r = p.run_accession(&id).unwrap();
        assert_eq!(r.status, RunStatus::Completed);
        assert!(r.mapping_rate > 0.6, "paired fragments map well: {}", r.mapping_rate);
        assert!(r.gene_counts.is_some());
        // Progress counted fragments, not individual mates.
        assert_eq!(r.early_stop.total_reads, meta.spots.min(800), "spots (fragments) are the unit");
    }

    #[test]
    fn new_refuses_models_that_would_panic_mid_campaign() {
        let good = pipeline(true, None);
        let refused = |field: &str, edit: &dyn Fn(&mut PipelineConfig)| {
            let mut config = good.config().clone();
            edit(&mut config);
            let made = AtlasPipeline::new(
                good.repository_arc(),
                good.index_arc(),
                good.annotation_arc(),
                config.clone(),
            );
            match made {
                Err(AtlasError::InvalidParams(m)) => assert!(m.contains(field), "{field}: {m}"),
                other => panic!("{field}: {config:?} gave {:?}", other.map(|_| ())),
            }
        };
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            refused("bandwidth_bytes_per_sec", &|c| c.network.bandwidth_bytes_per_sec = bad);
            refused("bytes_per_sec_per_thread", &|c| c.dump.bytes_per_sec_per_thread = bad);
            if bad != 0.0 {
                refused("latency_secs", &|c| c.network.latency_secs = bad);
                refused("align_secs_per_read", &|c| c.align_secs_per_read = Some(bad));
            }
        }
        refused("threads", &|c| c.dump.threads = 0);
        // Zero latency and a free align stage are models, not mistakes.
        let mut config = good.config().clone();
        config.network.latency_secs = 0.0;
        config.align_secs_per_read = Some(0.0);
        let free =
            AtlasPipeline::new(good.repository_arc(), good.index_arc(), good.annotation_arc(), config);
        assert!(free.is_ok());
    }

    #[test]
    fn unknown_accession_errors() {
        let p = pipeline(true, None);
        assert!(p.run_accession("SRRNOPE").is_err());
    }
}
