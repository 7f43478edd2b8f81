//! Seeded input generation: every order and request stream of a run
//! derives from the `--seed` argument through these.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator for `seed` and a purpose `stream`, so that the benchmark
/// order, the guest order and each request stream of one seed are
/// independent.
#[must_use]
pub fn seeded(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<usize> {
        let zipf = Zipf::new(300, 1.0);
        let mut rng = seeded(seed, 7);
        (0..2000).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn a_seeded_zipf_stream_is_deterministic() {
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(43));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let s = stream(1);
        let head = s.iter().filter(|&&k| k == 0).count();
        let tail = s.iter().filter(|&&k| k == 299).count();
        assert!(head > 100 && head > 10 * tail, "head {head}, tail {tail}");
        assert!(s.iter().all(|&k| k < 300));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..26).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut seeded(5, 1));
        shuffle(&mut b, &mut seeded(5, 1));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..26).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..26).collect();
        shuffle(&mut c, &mut seeded(6, 1));
        assert_ne!(a, c);
    }

    #[test]
    fn streams_of_one_seed_differ() {
        assert_ne!(seeded(9, 1).next_u64(), seeded(9, 2).next_u64());
    }
}
