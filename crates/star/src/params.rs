//! Alignment parameters (the subset of STAR's `--outFilter*` / seed options that the
//! reproduction exercises).

use crate::StarError;

/// Per-read alignment parameters.
///
/// Field names keep STAR's vocabulary so the mapping to the real tool is obvious.
/// Settings no caller varies are constants where they are read: the output filters
/// in [`crate::align`], the intron cap in [`crate::stitch`], the scores in [`crate::extend`].
#[derive(Clone, Debug)]
pub struct AlignParams {
    /// Minimum seed (MMP) length to be usable as an anchor.
    pub min_seed_len: usize,
    /// Maximum suffix-array interval size for a seed to be enumerated
    /// (`--winAnchorMultimapNmax` analog): more repetitive hits are skipped.
    pub anchor_multimap_nmax: u32,
    /// Maximum reported alignments; beyond this a read counts as
    /// "mapped to too many loci" (`--outFilterMultimapNmax`).
    pub out_filter_multimap_nmax: usize,
    /// Hard cap on seeds collected per read direction (guards pathological reads).
    pub max_seeds_per_read: usize,
    /// Measure wall-clock nanoseconds per alignment phase (seed/stitch/extend)
    /// into [`crate::align::PhaseWork`]'s `*_nanos` fields. Off by default: the
    /// measurement reads a monotonic clock, so it is machine-dependent and NOT
    /// deterministic — modeled-time runs and digests must leave it off. Unit
    /// counts are recorded either way.
    pub measure_phase_nanos: bool,
}

impl Default for AlignParams {
    fn default() -> Self {
        AlignParams {
            min_seed_len: 18,
            anchor_multimap_nmax: 50,
            out_filter_multimap_nmax: 10,
            max_seeds_per_read: 200,
            measure_phase_nanos: false,
        }
    }
}

impl AlignParams {
    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), StarError> {
        if self.min_seed_len < 8 {
            return Err(StarError::InvalidParams("min_seed_len < 8 floods the seed search".into()));
        }
        if self.anchor_multimap_nmax == 0 || self.out_filter_multimap_nmax == 0 {
            return Err(StarError::InvalidParams("multimap caps must be positive".into()));
        }
        if self.max_seeds_per_read == 0 {
            return Err(StarError::InvalidParams("max_seeds_per_read must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AlignParams::default().validate().unwrap();
    }

    #[test]
    fn bad_values_rejected() {
        let mut p = AlignParams::default();
        p.min_seed_len = 2;
        assert!(p.validate().is_err());
        let mut p = AlignParams::default();
        p.out_filter_multimap_nmax = 0;
        assert!(p.validate().is_err());
        let mut p = AlignParams::default();
        p.max_seeds_per_read = 0;
        assert!(p.validate().is_err());
    }
}
