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
    fn vcpu_floor_is_respected() {
        let mut s = RightSizer::for_index_gib(20.0);
        s.min_vcpus = 32;
        let t = s.choose().unwrap();
        assert!(t.vcpus >= 32);
    }
}
