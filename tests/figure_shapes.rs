//! Shape-regression tests: the qualitative properties each paper figure
//! rests on, checked on a reduced sweep so refactors can't silently
//! break the reproduction. (The full-scale numbers live in
//! EXPERIMENTS.md; these tests pin the *shapes* at tiny scale.)
//!
//! Ladder points are addressed by paper-nominal threshold, not index:
//! at reduced scales the ladder deduplicates points that collapse to
//! the same actual threshold, so indices shift with scale.

use tpdbt_dbt::{CostModel, DbtConfig, ExecStats, Lockstep};
use tpdbt_experiments::runner::{ladder, BenchResult};
use tpdbt_experiments::sweep::{run_sweep, SweepOptions};
use tpdbt_profile::report::ThresholdMetrics;
use tpdbt_suite::{int_names, workload, InputKind, Scale};

/// One benchmark at tiny scale through the sweep `reproduce` runs:
/// serial, uncached, and with no degraded cells.
fn sweep(name: &str) -> BenchResult {
    let opts = SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    };
    let report = run_sweep(&[name], Scale::Tiny, &opts, |_| {}).unwrap();
    assert!(
        !report.degraded.is_degraded(),
        "{}",
        report.degraded.render()
    );
    report.results.into_iter().next().expect("one benchmark")
}

/// The metrics at the ladder point with paper-nominal threshold
/// `nominal` (which must have survived dedup at this scale).
fn at(r: &BenchResult, nominal: u64) -> &ThresholdMetrics {
    r.per_threshold
        .iter()
        .find(|(p, _)| p.nominal == nominal)
        .map(|(_, m)| m)
        .unwrap_or_else(|| panic!("{}: no ladder point with nominal {nominal}", r.name))
}

/// The metrics of every ladder point with `lo <= nominal <= hi`.
fn between(r: &BenchResult, lo: u64, hi: u64) -> Vec<&ThresholdMetrics> {
    r.per_threshold
        .iter()
        .filter(|(p, _)| (lo..=hi).contains(&p.nominal))
        .map(|(_, m)| m)
        .collect()
}

/// Figure 8/9 shape: on a stable benchmark the initial prediction is
/// accurate from tiny thresholds and only improves.
#[test]
fn stable_benchmark_sd_bp_is_low_and_shrinking() {
    let r = sweep("bzip2");
    // At tiny scale the first ladder points degenerate to single-digit
    // thresholds; judge from the nominal-2k point on.
    let early = at(&r, 2_000).sd_bp.unwrap();
    let last = r.per_threshold.last().unwrap().1.sd_bp.unwrap();
    assert!(early < 0.1, "bzip2 Sd.BP at nominal 2k: {early}");
    assert!(last <= early + 1e-9);
}

/// Figure 9 shape: the perlbmk analog's initial prediction beats its
/// training input at every threshold (the paper's most dramatic case).
#[test]
fn perlbmk_initial_beats_train_everywhere() {
    let r = sweep("perlbmk");
    let train = r.train.sd_bp.unwrap();
    for (p, m) in &r.per_threshold {
        let sd = m.sd_bp.unwrap();
        assert!(sd < train, "T={}: {sd} !< train {train}", p.label);
    }
}

/// Figure 9 shape: the mcf analog's initial prediction is worse than
/// its training input over the operational threshold range.
#[test]
fn mcf_initial_is_worse_than_train() {
    let r = sweep("mcf");
    let train = r.train.sd_bp.unwrap();
    let mid: Vec<f64> = between(&r, 500, 20_000)
        .iter()
        .filter_map(|m| m.sd_bp)
        .collect();
    let avg = mid.iter().sum::<f64>() / mid.len() as f64;
    assert!(avg > 2.0 * train, "mcf avg {avg} vs train {train}");
}

/// Figure 17 shape: moderate thresholds beat both extremes of the
/// ladder.
#[test]
fn performance_peaks_at_moderate_thresholds() {
    let r = sweep("gcc");
    let rel = |m: &ThresholdMetrics| r.base_cycles as f64 / m.cycles as f64;
    let best_mid = between(&r, 200, 5_000)
        .iter()
        .map(|m| rel(m))
        .fold(0.0f64, f64::max);
    let last = rel(&r.per_threshold.last().unwrap().1);
    assert!(best_mid > last, "mid {best_mid} must beat huge-T {last}");
    assert!(
        best_mid > 1.0,
        "mid thresholds must beat the T=1 base, got {best_mid}"
    );
}

/// Figure 18 shape: profiling operations increase monotonically with
/// the threshold and start far below the training run.
#[test]
fn profiling_ops_grow_with_threshold() {
    let r = sweep("equake");
    let ops: Vec<u64> = r
        .per_threshold
        .iter()
        .map(|(_, m)| m.profiling_ops)
        .collect();
    for w in ops.windows(2) {
        assert!(w[0] <= w[1], "ops not monotone: {ops:?}");
    }
    assert!(
        (ops[0] as f64) < 0.2 * r.train.profiling_ops as f64,
        "smallest threshold should profile far less than the training run"
    );
}

/// High-threshold limit: at the top of the ladder (scaled 1M/4M)
/// almost nothing is optimized, so deviation vanishes.
#[test]
fn huge_thresholds_degenerate_to_avep() {
    for name in ["gzip", "swim"] {
        let r = sweep(name);
        let (p, m) = r.per_threshold.last().unwrap();
        assert!(
            m.sd_bp.unwrap() < 0.02,
            "{name} at T={}: sd {:?}",
            p.label,
            m.sd_bp
        );
    }
}

/// Figure 16 shape: the mcf analog's loop classification is wrong at
/// small thresholds and corrects by the upper-middle of the ladder.
#[test]
fn mcf_loop_classes_correct_late() {
    let r = sweep("mcf");
    let early = at(&r, 500).lp_mismatch;
    let late = r
        .per_threshold
        .iter()
        .rev()
        .find_map(|(_, m)| m.lp_mismatch);
    assert!(
        early.unwrap() > 0.9,
        "mcf early LP classes mostly wrong: {early:?}"
    );
    if let Some(late) = late {
        assert!(late < 0.5, "mcf late LP mismatch {late}");
    }
}

/// INT/FP split: the FP class average is easier to predict than INT at
/// every threshold (Figure 8's headline).
#[test]
fn fp_is_easier_than_int_on_representatives() {
    let int = sweep("gcc");
    let fp = sweep("swim");
    for ((p, mi), (_, mf)) in int.per_threshold.iter().zip(&fp.per_threshold) {
        let (si, sf) = (mi.sd_bp.unwrap(), mf.sd_bp.unwrap());
        assert!(
            sf <= si + 0.02,
            "T={}: fp {sf} should not exceed int {si}",
            p.label
        );
    }
}

/// Cost-model robustness (DESIGN.md §5): the INT Figure 17 peak under
/// halved and doubled optimization and side-exit prices. Each of the 12
/// INT analogs runs once at tiny scale, its `T = 1` base and whole
/// ladder in one lockstep execution; every price table reprices those
/// same counts, with no further guest run. The grid is ×0.5, ×1 and ×2
/// of `opt_translate_per_instr` crossed with the same factors of
/// `side_exit_penalty`.
///
/// The peak is not robust to within one ladder step: at the default
/// prices it sits at 20k, and halving the optimization price moves it
/// two steps earlier, to 5k, unless the side-exit penalty doubles too.
/// Doubling either price leaves it at 20k.
#[test]
fn int_performance_peak_under_halved_and_doubled_prices() {
    let points = ladder(Scale::Tiny);
    let configs: Vec<DbtConfig> = std::iter::once(1)
        .chain(points.iter().map(|p| p.actual))
        .map(DbtConfig::two_phase)
        .collect();
    let runs: Vec<Vec<ExecStats>> = int_names()
        .into_iter()
        .map(|name| {
            let w = workload(name, Scale::Tiny, InputKind::Ref).unwrap();
            let outs = Lockstep::new(configs.clone())
                .run_built(&w.binary, &w.input)
                .unwrap();
            outs.into_iter().map(|o| o.stats).collect()
        })
        .collect();
    assert_eq!(runs.len(), 12);
    // The label of the ladder point with the highest INT geomean of
    // base / cycles(T).
    let peak = |prices: &CostModel| {
        let geomean = |i: usize| {
            let logs: f64 = runs
                .iter()
                .map(|s| (prices.price(&s[0]) as f64 / prices.price(&s[i + 1]) as f64).ln())
                .sum();
            (logs / runs.len() as f64).exp()
        };
        let i = (0..points.len())
            .max_by(|&a, &b| geomean(a).total_cmp(&geomean(b)))
            .unwrap();
        points[i].label
    };
    let d = CostModel::DEFAULT;
    let peaks = [1, 2, 4].map(|opt| {
        [1, 2, 4].map(|side| {
            peak(&CostModel {
                opt_translate_per_instr: d.opt_translate_per_instr * opt / 2,
                side_exit_penalty: d.side_exit_penalty * side / 2,
                ..d
            })
        })
    });
    // Rows: optimization price ×0.5, ×1, ×2; columns: side-exit penalty
    // ×0.5, ×1, ×2.
    assert_eq!(
        peaks,
        [
            ["5k", "5k", "20k"],
            ["20k", "20k", "20k"],
            ["20k", "20k", "20k"],
        ]
    );
}
