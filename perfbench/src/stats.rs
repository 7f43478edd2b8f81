//! Order statistics for the reports.
//!
//! Percentiles use the nearest-rank rule on per-mille levels, in
//! integer arithmetic so that `p90` of 100 samples is exactly rank 90.

use rand::rngs::StdRng;
use rand::Rng;

/// A percentile counts as supported when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// The levels a report may quote, in per mille, lowest first.
pub const LEVELS: [u32; 4] = [500, 900, 990, 999];

/// 1-based nearest rank of the `per_mille` level among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending, non-empty `sorted`.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Samples ranked strictly above the `per_mille` level among `n`.
#[must_use]
pub fn beyond(n: usize, per_mille: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, per_mille)
    }
}

/// The highest of [`LEVELS`] with at least [`MIN_BEYOND`] samples
/// beyond it among `n`, if any.
#[must_use]
pub fn highest_supported(n: usize) -> Option<u32> {
    LEVELS
        .iter()
        .rev()
        .copied()
        .find(|&level| beyond(n, level) >= MIN_BEYOND)
}

/// `values` sorted ascending (NaN-free input).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median; 0 for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), 500)
    }
}

/// How a percentile label reads: `p90`, `p99.9`.
#[must_use]
pub fn label(per_mille: u32) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// A uniform random sample of at most `cap` values of a stream
/// (Algorithm R), so that memory stays fixed however many ops a run
/// makes. Values are kept exactly as measured.
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    values: Vec<f64>,
    rng: StdRng,
}

impl Reservoir {
    /// An empty reservoir drawing its replacement choices from `rng`.
    #[must_use]
    pub fn new(cap: usize, rng: StdRng) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            values: Vec::with_capacity(cap),
            rng,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(value);
        } else {
            let j = self.rng.gen_range(0..self.seen);
            if let Some(slot) = usize::try_from(j).ok().and_then(|j| self.values.get_mut(j)) {
                *slot = value;
            }
        }
    }

    /// The sample.
    #[must_use]
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_below_capacity_and_caps_above() {
        let mut r = Reservoir::new(10, crate::rng::seeded(1, 0));
        (0..5).for_each(|i| r.push(f64::from(i)));
        assert_eq!(r.into_values(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let mut r = Reservoir::new(100, crate::rng::seeded(1, 0));
        (0..10_000).for_each(|i| r.push(f64::from(i)));
        let v = r.into_values();
        assert_eq!(v.len(), 100);
        // A uniform sample of 0..10000 has its median near 5000.
        assert!((2_500.0..7_500.0).contains(&median(&v)));
    }

    #[test]
    fn p90_of_100_is_rank_90_with_10_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(99), Some(500));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(999), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
    }

    #[test]
    fn small_samples_clamp_to_the_extremes() {
        assert_eq!(percentile(&[3.0], 500), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 999), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 1), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(label(900), "p90");
        assert_eq!(label(999), "p99.9");
    }
}
