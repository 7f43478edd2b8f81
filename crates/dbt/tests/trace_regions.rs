//! Regression suite for region lifecycles under both region paths: a
//! reform or retirement mid-run must never leave stale region code
//! running.
//!
//! The hazard: a region's compiled trace (`--backend cached-fused`,
//! two-phase and adaptive) and its walked automaton are both views of
//! its copy list. If retirement left the region dispatchable, or a
//! re-formation kept the old shape, the engine would keep executing
//! retired code — observable as diverging outputs, stats, or profile
//! counters against the interpreter backend, which walks every region.
//! These tests pin the end-to-end behavior: bitwise parity through
//! reform/retire storms, and continuous mode's in-region counting. The
//! engine's own unit tests (`trace_slots` in `src/engine.rs`) pin the
//! mechanism: only guarded runs compile, each region's trace sits in
//! its own slot, a reform keeps the entry's dispatch link, and a
//! retired region is unreachable.

use tpdbt_dbt::{Backend, Dbt, DbtConfig};

#[path = "support/programs.rs"]
mod programs;
use programs::phase_flip_program;

/// End to end: adaptive retirement fires mid-run under the
/// fused backend and every observable stays bitwise identical to the
/// interpreter backend. A stale trace executing after its region
/// retired would diverge here (wrong dispatch, wrong stats).
#[test]
fn sync_retirement_mid_run_stays_bitwise_identical() {
    let p = phase_flip_program();
    let cfg = DbtConfig::adaptive(500);
    let interp = Dbt::new(cfg.with_backend(Backend::Interp))
        .run(&p, &[])
        .unwrap();
    let fused = Dbt::new(cfg.with_backend(Backend::CachedFused))
        .run(&p, &[])
        .unwrap();
    assert!(
        fused.stats.retirements > 0,
        "a retirement must fire mid-run"
    );
    assert_eq!(interp.output, fused.output);
    assert_eq!(interp.stats, fused.stats);
    assert_eq!(interp.inip.blocks, fused.inip.blocks);
    assert_eq!(interp.inip.regions, fused.inip.regions);
    assert_eq!(interp.intervals, fused.intervals);
}

/// End to end: continuous-mode re-formations replace installed
/// regions mid-run; still bitwise identical.
#[test]
fn sync_reform_mid_run_stays_bitwise_identical() {
    let p = phase_flip_program();
    let cfg = DbtConfig::continuous(1000);
    let interp = Dbt::new(cfg.with_backend(Backend::Interp))
        .run(&p, &[])
        .unwrap();
    let fused = Dbt::new(cfg.with_backend(Backend::CachedFused))
        .run(&p, &[])
        .unwrap();
    assert!(
        fused.stats.opt_invocations > fused.stats.regions_formed,
        "a reform must fire mid-run"
    );
    assert_eq!(interp.output, fused.output);
    assert_eq!(interp.stats, fused.stats);
    assert_eq!(interp.inip.blocks, fused.inip.blocks);
}

/// End to end, continuous: in-region counting is a property of the
/// walked region path, which continuous mode takes on both backends:
/// every block executed inside a region reaches the policy's automaton
/// and bumps its counters there — matching the interpreter's per-block
/// counts bitwise. Since continuous counters never freeze, every dynamic
/// block execution is counted exactly once, inside or outside a
/// region: the profile equals the no-optimization whole-run profile.
#[test]
fn continuous_in_region_counting_matches_interp_bitwise() {
    let p = phase_flip_program();
    let cfg = DbtConfig::continuous(500);
    let interp = Dbt::new(cfg.with_backend(Backend::Interp))
        .run(&p, &[])
        .unwrap();
    let fused = Dbt::new(cfg.with_backend(Backend::CachedFused))
        .run(&p, &[])
        .unwrap();
    assert!(
        fused.stats.region_entries > 0 && fused.stats.loop_backs > 0,
        "regions must run: {:?}",
        fused.stats
    );
    assert_eq!(interp.output, fused.output);
    assert_eq!(interp.stats, fused.stats);
    assert_eq!(interp.inip.blocks, fused.inip.blocks);
    assert_eq!(interp.inip.regions, fused.inip.regions);
    let avep = Dbt::new(DbtConfig::no_opt()).run(&p, &[]).unwrap();
    assert_eq!(
        fused.inip.blocks, avep.inip.blocks,
        "every in-region block execution must be counted"
    );
}
