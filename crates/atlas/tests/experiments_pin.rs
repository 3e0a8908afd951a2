//! What every paper experiment reports for a seed, pinned by value: FNV-1a over the
//! parts of each result that are exact for a fixed seed (read counts, FASTQ bytes,
//! alignment work units, mapping-rate bits, index sizes, stop counts, instance
//! names, the modeled E7 ledger). Measured seconds are not pinned. The unit tests
//! check each experiment's shape; these rows catch a refactor of the experiment
//! code that moves any number EXPERIMENTS.md reports. Each test prints its row, so
//! an intended change re-captures it with `-- --nocapture`.

use atlas_pipeline::experiments::{
    checkpoint_analysis, cloud_campaign, fig3_genome_release, fig4_early_stopping,
    index_comparison, pseudo_early_stopping, right_size_comparison, spot_recovery,
    CampaignExperimentConfig, CheckpointAnalysisConfig, Fig3Config, Fig4Config,
    PseudoStudyConfig, SpotRecoveryArm, Substrate,
};
use atlas_pipeline::orchestrator::CampaignReport;
use genomics::fnv::{fnv1a, OFFSET};
use genomics::EnsemblParams;
use sra_sim::accession::CatalogParams;
use star_aligner::index::IndexStats;

/// A running FNV-1a over fixed-width fields.
struct Hash(u64);

impl Hash {
    fn new() -> Hash {
        Hash(OFFSET)
    }

    fn u64(&mut self, v: u64) -> &mut Hash {
        self.0 = fnv1a(self.0, &v.to_le_bytes());
        self
    }

    fn usize(&mut self, v: usize) -> &mut Hash {
        self.u64(v as u64)
    }

    fn f64(&mut self, v: f64) -> &mut Hash {
        self.u64(v.to_bits())
    }

    /// Length-prefixed, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) -> &mut Hash {
        self.usize(s.len());
        self.0 = fnv1a(self.0, s.as_bytes());
        self
    }

    fn stats(&mut self, s: &IndexStats) -> &mut Hash {
        self.usize(s.genome_bytes)
            .usize(s.sa_bytes)
            .usize(s.prefix_bytes)
            .usize(s.sjdb_bytes)
            .usize(s.genome_len)
            .usize(s.n_contigs)
    }

    fn campaign(&mut self, report: &CampaignReport, instance: &str) -> &mut Hash {
        self.str(instance).usize(report.completed.len()).usize(report.savings.stopped)
    }

    fn arm(&mut self, a: &SpotRecoveryArm) -> &mut Hash {
        self.u64(a.recovery as u64)
            .f64(a.makespan_secs)
            .f64(a.total_usd)
            .usize(a.interruptions)
            .usize(a.completed)
            .usize(a.dead_lettered)
            .f64(a.retry_waste_secs)
            .f64(a.idle_gap_secs)
            .f64(a.salvaged_secs)
            .usize(a.checkpoints_written)
            .usize(a.resumes)
    }
}

fn pin(name: &str, hash: &Hash, pinned: u64) {
    println!("{name}: {:#018x}", hash.0);
    assert_eq!(hash.0, pinned, "{name}: got {:#018x}", hash.0);
}

/// A small catalog: `n` accessions, a `single_cell` share, bulk median `bulk` spots.
fn catalog(n: usize, single_cell: f64, bulk: u64) -> CatalogParams {
    CatalogParams {
        n_accessions: n,
        single_cell_fraction: single_cell,
        bulk_spots_median: bulk,
        ..CatalogParams::default()
    }
}

#[test]
fn e1_fig3_rows_and_index_stats() {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let cfg = Fig3Config {
        n_files: 3,
        reads_median: 800,
        reads_sigma: 0.4,
        threads: 2,
        seed: 5,
    };
    let r = fig3_genome_release(&sub, &cfg).unwrap();
    let mut h = Hash::new();
    for f in &r.files {
        h.str(&f.name).usize(f.reads).u64(f.fastq_bytes).f64(f.rate_108).f64(f.rate_111);
        for w in [&f.work_108, &f.work_111] {
            h.u64(w.seed_units).u64(w.stitch_units).u64(w.extend_units);
        }
    }
    h.stats(&r.stats_108).stats(&r.stats_111);
    pin("E1", &h, 0xfd96c5150cdc5207);
}

#[test]
fn e2_index_table() {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let c = index_comparison(&sub).unwrap();
    let mut h = Hash::new();
    h.stats(&c.stats_108)
        .stats(&c.stats_111)
        .f64(c.size_ratio)
        .f64(c.projected_gib_108)
        .f64(c.projected_gib_111)
        .str(&c.instance_108)
        .str(&c.instance_111);
    pin("E2", &h, 0x9c96a917fb49a516);
}

#[test]
fn e3_fig4_runs() {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let cfg = Fig4Config {
        catalog: catalog(25, 0.2, 400),
        spot_cap: Some(800),
        threads: 2,
    };
    let r = fig4_early_stopping(&sub, &cfg).unwrap();
    let mut h = Hash::new();
    for run in &r.runs {
        h.str(&run.accession).str(&format!("{:?}", run.strategy));
        h.u64(run.stopped as u64).f64(run.mapping_rate);
    }
    pin("E3", &h, 0x5fc9637e0ec5c9e4);
}

#[test]
fn e3b_checkpoint_outcomes() {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let cfg = CheckpointAnalysisConfig {
        catalog: catalog(20, 0.2, 400),
        spot_cap: Some(800),
    };
    let a = checkpoint_analysis(&sub, &cfg).unwrap();
    let mut h = Hash::new();
    h.usize(a.n_traces);
    for o in &a.outcomes {
        h.f64(o.check_fraction).usize(o.stopped).usize(o.false_stops);
    }
    pin("E3b", &h, 0xa0ab24e0d3afdd0f);
}

#[test]
fn e4_e5_campaigns() {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let cfg = CampaignExperimentConfig {
        catalog: catalog(12, 0.25, 400),
        spot_cap: Some(800),
        ..CampaignExperimentConfig::default()
    };
    let (report, instance) = cloud_campaign(&sub, &cfg).unwrap();
    let mut h = Hash::new();
    h.campaign(&report, &instance);
    pin("E4", &h, 0xe67e56dcec9319c1);

    let cfg = CampaignExperimentConfig { interruptions_per_hour: 0.0, ..cfg };
    let c = right_size_comparison(&sub, &cfg).unwrap();
    let mut h = Hash::new();
    h.campaign(&c.report_108, &c.instance_108).campaign(&c.report_111, &c.instance_111);
    pin("E5", &h, 0x4375e33a51de75bb);
}

#[test]
fn e6_pseudo_study() {
    let sub = Substrate::build(EnsemblParams::tiny()).unwrap();
    let cfg = PseudoStudyConfig {
        catalog: catalog(12, 0.25, 500),
        spot_cap: Some(800),
        threads: 2,
    };
    let r = pseudo_early_stopping(&sub, &cfg).unwrap();
    let mut h = Hash::new();
    h.usize(r.with_progress.stopped).usize(r.stock.stopped).f64(r.bulk_rate).f64(r.single_cell_rate);
    pin("E6", &h, 0xc8d3ace2fa8a7ec2);
}

#[test]
fn e7_spot_recovery_arms() {
    let r = spot_recovery(20).unwrap();
    let mut h = Hash::new();
    h.arm(&r.with_recovery).arm(&r.without_recovery);
    pin("E7", &h, 0x280ed42ae7dedc3c);
}

#[test]
fn default_catalog_spots() {
    let mut h = Hash::new();
    for meta in CatalogParams::default().generate().unwrap() {
        h.u64(meta.spots);
    }
    pin("catalog", &h, 0xaa7fe3c620a5cdd5);
}
