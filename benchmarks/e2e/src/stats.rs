//! Order statistics and the regression-bound comparison the benchmark reports with.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count. Panics on an
/// empty slice: every caller has at least one timed pass.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile `p` in `[0, 100]` by linear interpolation between closest ranks
/// (the `numpy.percentile` default), so p50 equals [`median`].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
    let v = sorted(values);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The best of several repeats of the same work: the lowest or the highest.
pub fn best(better: Better, values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of no samples");
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().fold(values[0], pick)
}

/// Element-wise minimum over rounds that each timed the same items in the same
/// order: the fastest sighting of every item.
pub fn fastest_of_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let mut fastest = rounds.first().cloned().unwrap_or_default();
    for round in rounds.iter().skip(1) {
        assert_eq!(round.len(), fastest.len(), "rounds time the same items");
        for (f, &t) in fastest.iter_mut().zip(round) {
            *f = f.min(t);
        }
    }
    fastest
}

/// Do two runs of the same commit agree on a metric? Either may play the
/// parent, so the difference is taken as a share of the smaller magnitude; a
/// bound of 0 demands bit equality. End-to-end metrics are chosen never to be 0.
pub fn agree_within(bound: f64, a: f64, b: f64) -> bool {
    if bound == 0.0 {
        return a.to_bits() == b.to_bits();
    }
    (a - b).abs() / a.abs().min(b.abs()) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn percentile_interpolates_and_matches_median() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 50.0), median(&v));
        assert_eq!(percentile(&v, 90.0), 46.0);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&even, 50.0), median(&even));
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn best_follows_the_direction_and_rounds_keep_the_fastest_sighting() {
        assert_eq!(best(Better::Lower, &[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(best(Better::Higher, &[3.0, 1.0, 2.0]), 3.0);
        let rounds = [
            vec![5.0, 2.0, 9.0],
            vec![4.0, 3.0, 9.5],
            vec![6.0, 2.5, 8.0],
        ];
        assert_eq!(fastest_of_rounds(&rounds), [4.0, 2.0, 8.0]);
        assert_eq!(fastest_of_rounds(&rounds[..1]), rounds[0]);
        assert!(fastest_of_rounds(&[]).is_empty());
    }

    #[test]
    fn agreement_is_symmetric_and_exact_at_zero_bound() {
        assert!(agree_within(0.10, 100.0, 109.0));
        assert!(agree_within(0.10, 109.0, 100.0));
        assert!(!agree_within(0.10, 100.0, 112.0));
        assert!(!agree_within(0.10, 112.0, 100.0));
        assert!(agree_within(0.0, 0.1 + 0.2, 0.1 + 0.2));
        assert!(!agree_within(0.0, 0.1 + 0.2, 0.3));
    }
}
