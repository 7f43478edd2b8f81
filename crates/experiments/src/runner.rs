//! The paper's methodology (§2) as data: the threshold ladder and the
//! per-benchmark result shape, plus the class aggregates the figures
//! use. [`crate::sweep::run_sweep`] executes it. For each benchmark:
//!
//! 1. run with the reference input and threshold `T` for every ladder
//!    point, dumping `INIP(T)`;
//! 2. run with the reference input and no optimization, dumping `AVEP`;
//! 3. run with the training input and no optimization, dumping
//!    `INIP(train)`;
//! 4. run with threshold 1 (optimize everything executed once) for the
//!    Figure 17 performance base;
//! 5. analyze each `INIP(T)` against `AVEP` (NAVEP normalization +
//!    standard deviations + mismatch rates).
//!
//! Thresholds scale with the workload: at reduced scales the ladder is
//! divided by the same factor as the input, preserving the
//! visit-fraction geometry the paper's ladder probes.

use tpdbt_profile::report::{ThresholdMetrics, TrainMetrics};
use tpdbt_profile::PlainProfile;
use tpdbt_suite::{BenchClass, Scale};

/// The paper's retranslation-threshold ladder (§4): nominal values and
/// display labels.
pub const PAPER_LADDER: [(u64, &str); 13] = [
    (100, "100"),
    (200, "200"),
    (500, "500"),
    (1_000, "1k"),
    (2_000, "2k"),
    (5_000, "5k"),
    (10_000, "10k"),
    (20_000, "20k"),
    (40_000, "40k"),
    (80_000, "80k"),
    (160_000, "160k"),
    (1_000_000, "1M"),
    (4_000_000, "4M"),
];

/// One ladder point: the paper-nominal threshold and the actual value
/// used at the current scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LadderPoint {
    /// Paper-nominal threshold (used for labelling).
    pub nominal: u64,
    /// Display label ("2k", "1M", …).
    pub label: &'static str,
    /// The threshold actually configured at this scale.
    pub actual: u64,
}

/// The ladder adjusted for `scale`.
///
/// Each actual threshold is the nominal divided by the scale factor,
/// floored at 2: `T = 1` is the paper's "optimize everything executed
/// once" *baseline* configuration, so 2 is the smallest threshold with
/// a real profiling phase. At small scales this floor (and integer
/// division) collapses neighbouring nominals onto the same actual
/// threshold — at [`Scale::Tiny`] both 100 and 200 map to 2 — and
/// sweeping the duplicate would re-run a bit-identical configuration,
/// so collapsed points are deduplicated, keeping the smallest nominal.
/// The nominals are strictly increasing, hence the actuals are
/// nondecreasing and an adjacent-point comparison suffices.
#[must_use]
pub fn ladder(scale: Scale) -> Vec<LadderPoint> {
    let mut points: Vec<LadderPoint> = Vec::with_capacity(PAPER_LADDER.len());
    for &(nominal, label) in &PAPER_LADDER {
        let actual = (nominal / scale.divisor() as u64).max(2);
        if points.last().map(|p| p.actual) == Some(actual) {
            continue;
        }
        points.push(LadderPoint {
            nominal,
            label,
            actual,
        });
    }
    points
}

/// A fully swept benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// INT or FP.
    pub class: BenchClass,
    /// Metrics for each ladder point, in ladder order.
    pub per_threshold: Vec<(LadderPoint, ThresholdMetrics)>,
    /// The training-input reference metrics.
    pub train: TrainMetrics,
    /// Whole-run average profile (kept for ad-hoc analysis).
    pub avep: PlainProfile,
    /// Cycles of the `T = 1` base run (Figure 17 baseline).
    pub base_cycles: u64,
    /// Profiling operations of the AVEP (reference, no-opt) run.
    pub avep_ops: u64,
}

/// Averages an optional-metric accessor over a class, skipping `None`.
#[must_use]
pub fn class_average(
    results: &[BenchResult],
    class: BenchClass,
    index: usize,
    metric: impl Fn(&ThresholdMetrics) -> Option<f64>,
) -> Option<f64> {
    let vals: Vec<f64> = results
        .iter()
        .filter(|r| r.class == class)
        .filter_map(|r| metric(&r.per_threshold[index].1))
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Averages a train-metric accessor over a class.
#[must_use]
pub fn class_train_average(
    results: &[BenchResult],
    class: BenchClass,
    metric: impl Fn(&TrainMetrics) -> Option<f64>,
) -> Option<f64> {
    let vals: Vec<f64> = results
        .iter()
        .filter(|r| r.class == class)
        .filter_map(|r| metric(&r.train))
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Geometric mean of per-benchmark performance ratios
/// `base_cycles / cycles(T)` for a class at ladder index `index`
/// (Figure 17's "relative performance", higher is better).
#[must_use]
pub fn class_relative_performance(
    results: &[BenchResult],
    class: BenchClass,
    index: usize,
    exclude: &[&str],
) -> Option<f64> {
    let ratios: Vec<f64> = results
        .iter()
        .filter(|r| r.class == class && !exclude.contains(&r.name))
        .map(|r| r.base_cycles as f64 / r.per_threshold[index].1.cycles as f64)
        .collect();
    if ratios.is_empty() {
        None
    } else {
        Some((ratios.iter().map(|x| x.ln()).sum::<f64>() / ratios.len() as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tiny_serial_sweep;

    #[test]
    fn ladder_scales_with_divisor() {
        let paper = ladder(Scale::Paper);
        assert_eq!(paper.len(), 13, "full scale keeps every paper point");
        assert_eq!(paper[4].actual, 2000);
        assert_eq!(paper[4].label, "2k");
    }

    #[test]
    fn ladder_floors_at_two_and_dedupes_collapsed_points() {
        // At Tiny (divisor 100) nominals 100 and 200 both floor to an
        // actual of 2; the duplicate is dropped, keeping nominal 100.
        let tiny = ladder(Scale::Tiny);
        assert_eq!(tiny.len(), 12);
        let actuals: Vec<u64> = tiny.iter().map(|p| p.actual).collect();
        assert_eq!(
            actuals,
            [2, 5, 10, 20, 50, 100, 200, 400, 800, 1600, 10_000, 40_000]
        );
        assert_eq!(tiny[0].nominal, 100, "collapsed run keeps smallest nominal");
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            let points = ladder(scale);
            assert!(points.iter().all(|p| p.actual >= 2), "floor holds");
            assert!(
                points.windows(2).all(|w| w[0].actual < w[1].actual),
                "actuals strictly increasing after dedup at {scale:?}"
            );
        }
    }

    #[test]
    fn sweep_one_benchmark_at_tiny_scale() {
        let r = tiny_serial_sweep(&["bzip2"]).remove(0);
        assert_eq!(r.per_threshold.len(), ladder(Scale::Tiny).len());
        // Accuracy metrics exist for small thresholds.
        let (_, first) = &r.per_threshold[0];
        assert!(first.sd_bp.is_some());
        assert!(first.bp_mismatch.is_some());
        // The train reference exists.
        assert!(r.train.sd_bp.is_some());
        // The base run is the slowest configuration or close to it:
        // relative performance at moderate thresholds is positive.
        assert!(r.base_cycles > 0);
        assert!(r.avep_ops > 0);
    }

    #[test]
    fn class_average_skips_missing() {
        let results = tiny_serial_sweep(&["swim"]);
        let avg = class_average(&results, BenchClass::Fp, 0, |m| m.sd_bp);
        assert!(avg.is_some());
        assert!(class_average(&results, BenchClass::Int, 0, |m| m.sd_bp).is_none());
    }
}
