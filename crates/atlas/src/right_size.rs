//! Instance right-sizing (§III-A's corollary).
//!
//! STAR loads the whole genome index into memory, so the index size dictates the
//! instance's RAM: the release-108 toplevel index (85 GiB) forces a 128 GiB
//! `r6a.4xlarge`; the release-111 index (29.5 GiB) fits a 32 GiB `r6a.xlarge` at a
//! quarter of the price. [`RightSizer`] maps an index memory footprint to the
//! cheapest catalog type that fits it with working headroom.

use cloudsim::instance::InstanceType;

/// Chooses instance types for a given index footprint.
#[derive(Clone, Copy, Debug)]
pub struct RightSizer {
    /// Index size in GiB as loaded into shared memory.
    pub index_gib: f64,
    /// Multiplier for working memory on top of the index (alignment buffers, OS,
    /// FASTQ staging). STAR guidance is index + ~10–30 %.
    pub headroom_factor: f64,
    /// Minimum vCPUs the pipeline wants (STAR scales well to 16).
    pub min_vcpus: u32,
}

impl RightSizer {
    /// Sizer for an index of `index_gib` GiB with default headroom.
    pub fn for_index_gib(index_gib: f64) -> RightSizer {
        RightSizer { index_gib, headroom_factor: 1.25, min_vcpus: 4 }
    }

    /// Sizer from a measured synthetic index, scaled to paper dimensions.
    ///
    /// `linear_scale` is the ratio of real genome bases to simulated bases (e.g.
    /// `3.1e9 / simulated_chromosome_total`). Because the scale is
    /// release-independent — derived from the chromosome mass, which is identical
    /// across releases — the 108-vs-111 index-size gap carries through to the
    /// projected GiB figures and hence to the instance choice.
    pub fn from_index_stats(stats: &star_aligner::IndexStats, linear_scale: f64) -> RightSizer {
        let index_gib = stats.total_bytes() as f64 * linear_scale / (1u64 << 30) as f64;
        RightSizer::for_index_gib(index_gib)
    }

    /// Memory requirement in GiB.
    pub fn required_gib(&self) -> f64 {
        self.index_gib * self.headroom_factor
    }

    /// Cheapest catalog type that fits.
    pub fn choose(&self) -> Option<&'static InstanceType> {
        InstanceType::cheapest_fitting(self.required_gib(), self.min_vcpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_select_paper_instances() {
        // Release 108: 85 GiB index × 1.25 headroom = 106 GiB → r6a.4xlarge (128 GiB),
        // the paper's testbed type.
        let r108 = RightSizer::for_index_gib(85.0);
        assert_eq!(r108.choose().unwrap().name, "r6a.4xlarge");
        // Release 111: 29.5 GiB × 1.25 = 37 GiB → r6a.2xlarge (64 GiB), half the price.
        let r111 = RightSizer::for_index_gib(29.5);
        assert_eq!(r111.choose().unwrap().name, "r6a.2xlarge");
        let saving = 1.0
            - r111.choose().unwrap().on_demand_hourly_usd / r108.choose().unwrap().on_demand_hourly_usd;
        assert!(saving > 0.4, "right-sizing must cut hourly cost substantially: {saving}");
    }

    #[test]
    fn small_index_fits_smallest_r_instance() {
        let s = RightSizer::for_index_gib(20.0);
        assert_eq!(s.choose().unwrap().name, "r6a.xlarge");
    }

    #[test]
    fn impossible_requirement_returns_none() {
        assert!(RightSizer::for_index_gib(100_000.0).choose().is_none());
    }

    #[test]
    fn headroom_scales_requirement() {
        let mut s = RightSizer::for_index_gib(50.0);
        s.headroom_factor = 2.0;
        assert!((s.required_gib() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn from_index_stats_scales_linearly() {
        // A synthetic index of 450k bases occupying ~4.3 bytes/base projects to
        // ~12.4 GiB at human scale (scale = 3.1e9 / 450k sim bases).
        let stats = star_aligner::IndexStats {
            genome_bytes: 112_500,
            sa_bytes: 1_800_000,
            prefix_bytes: 32_768,
            sjdb_bytes: 4_000,
            genome_len: 450_000,
            n_contigs: 10,
        };
        let scale = 3.1e9 / 450_000.0;
        let sizer = RightSizer::from_index_stats(&stats, scale);
        let expect_gib = stats.total_bytes() as f64 * scale / (1u64 << 30) as f64;
        assert!((sizer.index_gib - expect_gib).abs() < 1e-6, "{} vs {expect_gib}", sizer.index_gib);
        assert!(sizer.index_gib > 10.0 && sizer.index_gib < 15.0);
        // A release-108-style index (2.9x the bytes) at the SAME scale projects 2.9x
        // the GiB — the gap survives scaling.
        let mut big = stats;
        big.sa_bytes *= 3;
        let bigger = RightSizer::from_index_stats(&big, scale);
        assert!(bigger.index_gib > 2.0 * sizer.index_gib);
    }

    #[test]
    fn vcpu_floor_is_respected() {
        let mut s = RightSizer::for_index_gib(20.0);
        s.min_vcpus = 32;
        let t = s.choose().unwrap();
        assert!(t.vcpus >= 32);
    }
}
