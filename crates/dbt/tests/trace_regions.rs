//! Regression suite for trace-compiled regions (`--backend
//! cached-fused`): a reform or retirement mid-run must never leave a
//! stale trace running.
//!
//! The hazard: a region's compiled trace is a view of its copy list.
//! If retirement left the region dispatchable, or a re-formation kept
//! the old trace under the new shape, the engine would keep executing
//! retired code — observable as diverging outputs, stats, or profile
//! counters against the interpreter backend. These tests pin the
//! end-to-end behavior: bitwise parity through reform/retire storms,
//! and continuous mode's in-region counting through the one region
//! loop. The engine's own unit tests
//! (`trace_slots` in `src/engine.rs`) pin the mechanism: each region
//! owns its trace, a reform replaces shape and trace together, and a
//! retired region is unreachable.

use tpdbt_dbt::{Backend, Dbt, DbtConfig};
use tpdbt_isa::{Cond, Program, ProgramBuilder, Reg};

fn phase_flip_program() -> Program {
    let mut b = ProgramBuilder::new();
    let (i, x, half) = (Reg::new(0), Reg::new(1), Reg::new(2));
    b.movi(half, 60_000);
    let head = b.fresh_label("head");
    let then = b.fresh_label("then");
    let join = b.fresh_label("join");
    b.movi(i, 0);
    b.bind(head).unwrap();
    b.br_reg(Cond::Lt, i, half, then);
    b.addi(x, x, 2);
    b.jmp(join);
    b.bind(then).unwrap();
    b.addi(x, x, 1);
    b.bind(join).unwrap();
    b.addi(i, i, 1);
    b.br_imm(Cond::Lt, i, 120_000, head);
    b.halt();
    b.build().unwrap()
}

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
/// fused traces mid-run; still bitwise identical.
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

/// End to end, continuous: in-region counting is a property of the one
/// region loop. The fused backend installs observed traces, so every
/// block executed inside a region reaches the generic path and bumps
/// its counters there — matching the interpreter's per-block counts
/// bitwise. Since continuous counters never freeze, every dynamic
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
