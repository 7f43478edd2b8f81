//! Integration tests for the cached, parallel sweep orchestrator:
//! a warm cache serves a second identical sweep with zero guest
//! re-executions and bitwise-identical metrics, and `--jobs N` produces
//! the same results as serial execution.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use tpdbt_experiments::runner::{ladder, BenchResult, PAPER_LADDER};
use tpdbt_experiments::sweep::{run_sweep, threshold_sweep, SuiteGuest, SweepOptions};
use tpdbt_profile::report::ThresholdMetrics;
use tpdbt_suite::{InputKind, Scale};
use tpdbt_trace::Tracer;

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "tpdbt-sweep-test-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every float of the metric set as raw bits, so equality is bitwise,
/// not approximate.
fn metric_bits(m: &ThresholdMetrics) -> [Option<u64>; 5] {
    let b = |v: Option<f64>| v.map(f64::to_bits);
    [
        b(m.sd_bp),
        b(m.bp_mismatch),
        b(m.sd_cp),
        b(m.sd_lp),
        b(m.lp_mismatch),
    ]
}

fn assert_results_identical(a: &[BenchResult], b: &[BenchResult]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.class, y.class);
        assert_eq!(x.train, y.train);
        assert_eq!(x.base_cycles, y.base_cycles);
        assert_eq!(x.avep_ops, y.avep_ops);
        assert_eq!(x.avep, y.avep);
        assert_eq!(x.per_threshold.len(), y.per_threshold.len());
        for ((pa, ma), (pb, mb)) in x.per_threshold.iter().zip(&y.per_threshold) {
            assert_eq!(pa, pb);
            assert_eq!(ma, mb);
            assert_eq!(
                metric_bits(ma),
                metric_bits(mb),
                "{} T={}",
                x.name,
                pa.actual
            );
        }
    }
}

#[test]
fn warm_cache_serves_second_sweep_without_guest_runs() {
    let dir = scratch_dir();
    let names = ["gzip"];
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        tracer: None,
        ..Default::default()
    };
    // One AVEP + one train + one base, then one cell per ladder point.
    let cell_count = 3 + ladder(Scale::Tiny).len() as u64;

    let cold = run_sweep(&names, Scale::Tiny, &opts, |_| {}).unwrap();
    assert_eq!(cold.cache_hits, 0, "fresh dir cannot hit");
    assert_eq!(cold.guest_runs, cell_count);
    assert_eq!(cold.cells.len(), cell_count as usize);
    assert!(cold.cells.iter().all(|c| !c.hit));

    let warm = run_sweep(&names, Scale::Tiny, &opts, |_| {}).unwrap();
    assert_eq!(warm.guest_runs, 0, "warm cache must not re-execute");
    assert_eq!(warm.cache_hits, cell_count);
    assert_eq!(warm.cache_misses, 0);
    assert!(warm.cells.iter().all(|c| c.hit));

    assert_results_identical(&cold.results, &warm.results);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The satellite accounting invariant: `ladder()` dedupes collapsed
/// points at small scales (Tiny keeps 12 of the 13 paper thresholds),
/// and every *deduped* cell is exactly one store lookup — so cache
/// hits + misses must sum to the deduped cell count on both the cold
/// and the warm sweep, never to the nominal 13-point count. The trace
/// layer double-checks the warm half end to end: zero `guest_run`
/// events, and per-cell cache verdicts that agree with the store.
#[test]
fn cache_accounting_sums_to_deduped_cell_count_with_trace_agreeing() {
    let dir = scratch_dir();
    let names = ["bzip2"];
    let deduped = ladder(Scale::Tiny).len() as u64;
    assert!(
        deduped < PAPER_LADDER.len() as u64,
        "Tiny must collapse at least one ladder point for this test to bite"
    );
    let cells = 3 + deduped; // avep + train + base + one per deduped point

    let cold_tracer = Arc::new(Tracer::new());
    let cold = run_sweep(
        &names,
        Scale::Tiny,
        &SweepOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            tracer: Some(Arc::clone(&cold_tracer)),
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(
        cold.cache_hits + cold.cache_misses,
        cells,
        "one lookup per deduped cell"
    );
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold_tracer.count("cell_queued"), cells);
    assert_eq!(cold_tracer.count("cell_started"), cells);
    assert_eq!(cold_tracer.count("cell_committed"), cells);
    assert_eq!(cold_tracer.count("cell_cache_miss"), cells);
    assert_eq!(cold_tracer.count("cell_cache_hit"), 0);
    assert_eq!(cold_tracer.count("guest_run"), cells);
    assert_eq!(cold_tracer.count("store_miss"), cells);

    let warm_tracer = Arc::new(Tracer::new());
    let warm = run_sweep(
        &names,
        Scale::Tiny,
        &SweepOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
            tracer: Some(Arc::clone(&warm_tracer)),
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(
        warm_tracer.count("guest_run"),
        0,
        "warm sweep must not execute any guest"
    );
    assert_eq!(
        warm_tracer.count("cell_cache_hit") + warm_tracer.count("cell_cache_miss"),
        cells,
        "trace verdicts sum to the deduped cell count"
    );
    assert_eq!(warm.cache_hits, cells);
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm_tracer.count("store_hit"), cells);

    // The report surfaces the same numbers: per-kind event totals and
    // per-phase timing histograms covering every cell.
    assert!(warm
        .event_counts
        .iter()
        .any(|&(k, n)| k == "cell_cache_hit" && n == cells));
    assert_eq!(warm.baseline_times.count(), 3);
    assert_eq!(warm.ladder_times.count(), deduped);
    let stats = warm.render_stats();
    assert!(stats.contains("trace event totals:"), "{stats}");
    assert!(stats.contains("cell_cache_hit"), "{stats}");
    assert!(stats.contains("ladder cell time (us)"), "{stats}");

    assert_results_identical(&cold.results, &warm.results);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn parallel_jobs_match_serial_ordering_and_values() {
    let names = ["bzip2", "swim"];
    let serial = run_sweep(
        &names,
        Scale::Tiny,
        &SweepOptions {
            jobs: 1,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert!(
        !serial.degraded.is_degraded(),
        "{}",
        serial.degraded.render()
    );
    let parallel = run_sweep(
        &names,
        Scale::Tiny,
        &SweepOptions {
            jobs: 4,
            cache_dir: None,
            tracer: None,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert!(!parallel.degraded.is_degraded());
    assert_results_identical(&serial.results, &parallel.results);
    assert_eq!(serial.guest_runs, parallel.guest_runs);
    // Without a cache dir every cell is a miss-less plain run.
    assert_eq!(parallel.cache_hits, 0);
    assert_eq!(parallel.cache_misses, 0);
    assert_eq!(
        parallel.guest_runs,
        2 * (3 + ladder(Scale::Tiny).len() as u64)
    );
}

/// `threshold_sweep` runs the same cells as `run_sweep`: over tiny
/// gzip's ref guest at every ladder point's actual threshold it
/// returns the sweep's `per_threshold` metrics, and over the sweep's
/// warm store it serves every cell with zero guest runs.
#[test]
fn threshold_sweep_matches_run_sweep_and_reuses_its_store() {
    let dir = scratch_dir();
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let sweep = run_sweep(&["gzip"], Scale::Tiny, &opts, |_| {}).unwrap();
    let expected: Vec<ThresholdMetrics> = sweep.results[0]
        .per_threshold
        .iter()
        .map(|&(_, m)| m)
        .collect();
    let thresholds: Vec<u64> = ladder(Scale::Tiny).iter().map(|p| p.actual).collect();
    assert_eq!(expected.len(), thresholds.len());

    let guest = SuiteGuest::build("gzip", Scale::Tiny, InputKind::Ref).unwrap();
    let warm = threshold_sweep(&guest, &thresholds, &opts).unwrap();
    assert_eq!(
        warm.report.guest_runs, 0,
        "the sweep's store must serve every cell"
    );
    assert_eq!(warm.report.cells.len(), 1 + thresholds.len());
    assert!(warm.report.cells.iter().all(|c| c.hit));
    assert!(warm.report.results.is_empty());
    assert_eq!(warm.per_threshold, expected);

    let cold = threshold_sweep(&guest, &thresholds, &SweepOptions::default()).unwrap();
    assert_eq!(cold.report.guest_runs, 1 + thresholds.len() as u64);
    for (a, b) in cold.per_threshold.iter().zip(&expected) {
        assert_eq!(metric_bits(a), metric_bits(b), "T={}", a.threshold);
    }
    assert_eq!(cold.per_threshold, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}
