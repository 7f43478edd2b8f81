//! Integration tests for fault-tolerant sweep execution (DESIGN.md §9):
//! per-cell isolation, bounded retry, keep-going vs `--fail-fast`
//! semantics, and recovery from injected store corruption — with
//! bitwise-identical metrics for every unaffected cell.

use std::sync::Arc;

use tpdbt_experiments::resilience::FaultPolicy;
use tpdbt_experiments::runner::BenchResult;
use tpdbt_experiments::sweep::{run_sweep, SweepOptions};
use tpdbt_faults::{FaultPlan, FaultSite};
use tpdbt_suite::Scale;
use tpdbt_trace::Tracer;

fn scratch_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "tpdbt-fault-test-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Bitwise metric equality: every float compared as raw bits.
fn assert_results_identical(a: &[BenchResult], b: &[BenchResult]) {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.train, y.train);
        assert_eq!(x.base_cycles, y.base_cycles);
        assert_eq!(x.avep, y.avep);
        assert_eq!(x.per_threshold.len(), y.per_threshold.len());
        for ((pa, ma), (pb, mb)) in x.per_threshold.iter().zip(&y.per_threshold) {
            assert_eq!(pa, pb);
            for (va, vb) in [
                (ma.sd_bp, mb.sd_bp),
                (ma.bp_mismatch, mb.bp_mismatch),
                (ma.sd_cp, mb.sd_cp),
                (ma.sd_lp, mb.sd_lp),
                (ma.lp_mismatch, mb.lp_mismatch),
            ] {
                assert_eq!(bits(va), bits(vb), "{} T={}", x.name, pa.actual);
            }
        }
    }
}

#[test]
fn clean_sweep_reports_no_degradation() {
    let report = run_sweep(
        &["gzip"],
        Scale::Tiny,
        &SweepOptions {
            jobs: 2,
            ..Default::default()
        },
        |_| {},
    )
    .unwrap();
    assert!(!report.degraded.is_degraded());
    assert!(!report.degraded.has_failures());
    assert!(report.degraded.retried.is_empty());
    assert_eq!(report.degraded.completed, report.cells.len());
    assert!(!report.render_stats().contains("DEGRADED"));
}

/// Every injection site is compiled into every build, so results must
/// not depend on a plan being attached: an empty plan plus a store is
/// consulted at the store and worker sites, fires nothing, and leaves
/// the results bitwise identical to a plan-free, store-free run.
#[test]
fn empty_plan_is_consulted_but_changes_nothing() {
    let bare = run_sweep(&["gzip"], Scale::Tiny, &SweepOptions::default(), |_| {}).unwrap();

    let dir = scratch_dir();
    let plan = Arc::new(FaultPlan::new());
    let tracer = Arc::new(Tracer::new());
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        tracer: Some(Arc::clone(&tracer)),
        policy: FaultPolicy {
            plan: Some(Arc::clone(&plan)),
            ..FaultPolicy::default()
        },
        ..Default::default()
    };
    let planned = run_sweep(&["gzip"], Scale::Tiny, &opts, |_| {}).unwrap();

    assert_results_identical(&bare.results, &planned.results);
    assert_eq!(plan.fired(), 0);
    assert_eq!(tracer.count("store_io_retry"), 0, "no I/O retries");
    assert_eq!(tracer.count("fault_injected"), 0);
    assert!(!planned.degraded.is_degraded());
    assert!(!planned.degraded.has_failures());
    assert_eq!(planned.degraded.completed, planned.cells.len());
    assert!(plan.occurrences(FaultSite::StoreRead) > 0);
    assert!(plan.occurrences(FaultSite::WorkerPanic) > 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

mod injected {
    use super::*;

    fn opts_with_plan(plan: FaultPlan) -> SweepOptions {
        SweepOptions {
            jobs: 1, // serial: injection occurrence order is deterministic
            policy: FaultPolicy {
                plan: Some(Arc::new(plan)),
                backoff: std::time::Duration::from_millis(1),
                ..FaultPolicy::default()
            },
            ..Default::default()
        }
    }

    /// Regression for the headline robustness property: a guest trap
    /// (`VmError`) in one sweep cell fails that cell's benchmark alone,
    /// names the trapping workload, and the rest of the sweep survives.
    #[test]
    fn guest_trap_in_one_cell_does_not_abort_the_sweep() {
        let baseline =
            run_sweep(&["bzip2"], Scale::Tiny, &SweepOptions::default(), |_| {}).unwrap();

        // guest_trap:0 fires in the very first guarded cell — gzip's
        // `avep` baseline under serial execution.
        let plan = FaultPlan::parse("guest_trap:0").unwrap();
        let report = run_sweep(
            &["gzip", "bzip2"],
            Scale::Tiny,
            &opts_with_plan(plan),
            |_| {},
        )
        .expect("sweep must keep going past a guest trap");

        assert_eq!(report.results.len(), 1, "gzip dropped, bzip2 survives");
        assert_eq!(report.results[0].name, "bzip2");
        assert_results_identical(&baseline.results, &report.results);

        assert!(report.degraded.has_failures());
        let avep_failure = report
            .degraded
            .failed
            .iter()
            .find(|i| i.label == "avep")
            .expect("the trapped cell is reported");
        assert_eq!(avep_failure.bench, "gzip");
        assert!(
            avep_failure.cause.contains("gzip"),
            "the trapping workload is named: {}",
            avep_failure.cause
        );
        assert!(
            avep_failure.cause.contains("guest trap"),
            "classified as a guest trap: {}",
            avep_failure.cause
        );
        // Guest traps are deterministic: no retry is spent on them.
        assert_eq!(avep_failure.attempts, 1);
        assert!(report.degraded.retried.is_empty());
    }

    /// An injected fuel-exhaustion trap is classified as a watchdog
    /// kill, not a guest defect.
    #[test]
    fn fuel_exhaustion_is_reported_as_watchdog_kill() {
        let plan = FaultPlan::parse("fuel_exhaustion:0").unwrap();
        let report = run_sweep(&["gzip"], Scale::Tiny, &opts_with_plan(plan), |_| {}).unwrap();
        assert!(report.results.is_empty());
        let failure = &report.degraded.failed[0];
        assert!(
            failure.cause.contains("watchdog"),
            "fuel exhaustion renders as a watchdog kill: {}",
            failure.cause
        );
    }

    /// A panicking worker is retried and the sweep's results are
    /// bitwise-identical to a fault-free run.
    #[test]
    fn worker_panic_is_retried_and_results_are_identical() {
        let clean = run_sweep(&["gzip"], Scale::Tiny, &SweepOptions::default(), |_| {}).unwrap();

        let plan = FaultPlan::parse("worker_panic:0").unwrap();
        let report = run_sweep(&["gzip"], Scale::Tiny, &opts_with_plan(plan), |_| {})
            .expect("a retryable panic must not fail the sweep");

        assert_results_identical(&clean.results, &report.results);
        assert!(!report.degraded.has_failures());
        assert_eq!(report.degraded.retried.len(), 1);
        let retried = &report.degraded.retried[0];
        assert_eq!(
            (retried.bench.as_str(), retried.label.as_str()),
            ("gzip", "avep")
        );
        assert_eq!(retried.attempts, 2, "one failure + one clean rerun");
        assert!(retried.cause.contains("worker panic"), "{}", retried.cause);
    }

    /// A panic that outlives the retry budget becomes a terminal cell
    /// failure — and the sweep still completes.
    #[test]
    fn retry_budget_exhaustion_fails_the_cell_only() {
        let plan = FaultPlan::parse("worker_panic:0,worker_panic:1,worker_panic:2").unwrap();
        let mut opts = opts_with_plan(plan);
        opts.policy.max_retries = 2;
        let report = run_sweep(&["gzip"], Scale::Tiny, &opts, |_| {})
            .expect("keep-going semantics hold even when retries run out");
        assert!(
            report.results.is_empty(),
            "gzip's baselines never succeeded"
        );
        assert!(report.degraded.has_failures());
        let failure = report
            .degraded
            .failed
            .iter()
            .find(|i| i.label == "avep")
            .expect("the exhausted cell is reported");
        assert_eq!(failure.attempts, 3, "initial attempt + two retries");
        assert!(failure.cause.contains("worker panic"), "{}", failure.cause);
    }

    /// `--fail-fast` turns the first terminal failure into a sweep
    /// abort.
    #[test]
    fn fail_fast_aborts_on_first_failure() {
        let plan = FaultPlan::parse("guest_trap:0").unwrap();
        let mut opts = opts_with_plan(plan);
        opts.policy.fail_fast = true;
        let err = run_sweep(&["gzip", "bzip2"], Scale::Tiny, &opts, |_| {})
            .expect_err("fail-fast must surface the failure");
        let msg = err.to_string();
        assert!(msg.contains("fail-fast"), "{msg}");
        assert!(msg.contains("gzip"), "names the failed cell: {msg}");
    }

    /// The acceptance scenario: a warm sweep absorbing an injected
    /// worker panic AND an injected corrupt store entry completes,
    /// recomputes the corrupt cell, reports both incidents, and
    /// reproduces bitwise-identical metrics for every cell.
    #[test]
    fn sweep_survives_panic_plus_store_corruption_with_identical_metrics() {
        let dir = scratch_dir();
        let cold = run_sweep(
            &["gzip"],
            Scale::Tiny,
            &SweepOptions {
                jobs: 1,
                cache_dir: Some(dir.clone()),
                ..Default::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(cold.cache_hits, 0);

        // worker_panic:0 → the avep cell's first attempt dies; the
        // retry's store read is then corrupted in flight
        // (store_corrupt:0), evicting the entry and forcing a clean
        // recomputation.
        let tracer = Arc::new(Tracer::new());
        let plan = FaultPlan::parse("worker_panic:0,store_corrupt:0").unwrap();
        let mut opts = opts_with_plan(plan);
        opts.cache_dir = Some(dir.clone());
        opts.tracer = Some(Arc::clone(&tracer));
        let warm = run_sweep(&["gzip"], Scale::Tiny, &opts, |_| {})
            .expect("sweep completes despite both faults");

        assert_results_identical(&cold.results, &warm.results);
        assert!(!warm.degraded.has_failures());
        assert!(
            warm.degraded.is_degraded(),
            "the panic left a retry incident"
        );
        assert_eq!(warm.degraded.retried.len(), 1);
        assert_eq!(warm.cache_evictions, 1, "the corrupt entry was evicted");
        assert_eq!(warm.guest_runs, 1, "only the corrupt cell recomputed");
        assert_eq!(tracer.count("fault_injected"), 2);
        assert_eq!(tracer.count("cell_retried"), 1);
        assert_eq!(tracer.count("cell_failed"), 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
