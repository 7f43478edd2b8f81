//! Regression suite for trace-compiled regions (`--backend
//! cached-fused`): a reform or retirement mid-run must never leave a
//! stale trace installed — in sync *and* async optimization modes.
//!
//! The hazard: a region's compiled trace is a view of its copy list.
//! If retirement left the trace installed (or a re-formation kept the
//! old trace under the new shape), the engine would keep executing
//! retired code — observable as diverging outputs, stats, or profile
//! counters against the interpreter backend. The tests pin both the
//! mechanism (one slot per region, replaced or cleared in a single
//! assignment) and the end-to-end behavior (bitwise parity through
//! reform/retire storms under both opt modes, and continuous mode's
//! in-region counting through the one region loop).

use std::sync::Arc;

use tpdbt_dbt::{Backend, CachedBackend, Dbt, DbtConfig, ExecBackend, OptMode, RegionPolicy};
use tpdbt_isa::{decode_block, Cond, Program, ProgramBuilder, Reg};
use tpdbt_profile::{RegionDump, RegionEdge, RegionKind, SuccSlot};

fn loop_program() -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    b.movi(Reg::new(1), 3);
    b.bind(top).unwrap();
    b.addi(Reg::new(0), Reg::new(0), 5);
    b.out(Reg::new(0));
    b.br_imm(Cond::Lt, Reg::new(0), 20, top);
    b.halt();
    b.build().unwrap()
}

fn loop_dump(copies: Vec<usize>) -> RegionDump {
    let edges = (0..copies.len())
        .map(|i| RegionEdge {
            from: i,
            slot: SuccSlot::Taken,
            to: if i + 1 < copies.len() { i + 1 } else { 0 },
        })
        .collect();
    let tail = copies.len() - 1;
    RegionDump {
        id: 0,
        kind: RegionKind::Loop,
        copies,
        edges,
        tail,
    }
}

/// Mechanism, retirement: after `retire_region` the backend reports no
/// trace, while an execution that entered the region *before* the
/// retirement keeps its own (still-consistent) snapshot.
#[test]
fn retirement_clears_the_trace_slot() {
    let p = loop_program();
    let mut backend = CachedBackend::new(p.len(), None);
    for pc in [0, 1] {
        backend.on_translate(&p, &decode_block(&p, pc).unwrap());
    }
    backend.install_region(0, &loop_dump(vec![1]));
    // An in-flight traced execution holds an Arc snapshot...
    let in_flight = backend.region_trace(0).expect("installed");
    backend.retire_region(0);
    // ...the table shows nothing stale...
    assert!(
        backend.region_trace(0).is_none(),
        "stale trace survived retire"
    );
    assert!(
        backend.region_trace(0).is_none_or(|t| t.is_empty()),
        "stale code survived retire"
    );
    // ...and the snapshot stays internally consistent (Arc-held).
    assert_eq!(in_flight.starts(), vec![1]);
}

/// Mechanism, re-formation: installing a new shape over a live region
/// replaces its trace in one assignment; no interleaving can pair the
/// new shape with the old trace.
#[test]
fn reform_swaps_the_trace_atomically() {
    let p = loop_program();
    let mut backend = CachedBackend::new(p.len(), None);
    for pc in [0, 1] {
        backend.on_translate(&p, &decode_block(&p, pc).unwrap());
    }
    backend.install_region(0, &loop_dump(vec![1]));
    let old = backend.region_trace(0).expect("v1 installed");
    // Reform to a two-copy unrolled shape.
    backend.install_region(0, &loop_dump(vec![1, 1]));
    let new = backend.region_trace(0).expect("v2 installed");
    assert_eq!(new.len(), 2, "trace tracks the reformed copy list");
    assert_eq!(
        backend.region_trace(0).unwrap().starts(),
        vec![1, 1],
        "code reformed in the same assignment"
    );
    assert_eq!(old.len(), 1, "in-flight snapshot of v1 unchanged");
}

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

/// End to end, sync: adaptive retirement fires mid-run under the
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

/// End to end, sync: continuous-mode re-formations replace installed
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

/// End to end, async: deferred installs pass epoch validation while
/// adaptive retirement invalidates mid-run; guest output stays
/// transparent and the optimizer books balance.
#[test]
fn async_retirement_mid_run_stays_output_transparent() {
    let p = phase_flip_program();
    let reference = tpdbt_vm::run_collect(&p, &[]).unwrap();
    let cfg = DbtConfig::adaptive(500)
        .with_opt_mode(OptMode::Async)
        .with_backend(Backend::CachedFused);
    let out = Dbt::new(cfg).run(&p, &[]).unwrap();
    assert_eq!(out.output, reference, "stale trace diverged guest output");
    assert_eq!(
        out.stats.opt_enqueued,
        out.stats.opt_installed + out.stats.opt_discarded,
        "unbalanced optimizer books: {:?}",
        out.stats
    );
}

/// End to end, async: deferred regions (and their compiled traces)
/// actually install on a long-running hot loop, and output stays
/// transparent.
#[test]
fn async_installs_deferred_traces() {
    let mut b = ProgramBuilder::new();
    let r = Reg::new(0);
    tpdbt_isa::structured::counted_loop(&mut b, r, 0, 1, Cond::Lt, 200_000, |b| {
        b.addi(Reg::new(1), Reg::new(1), 1);
    })
    .unwrap();
    b.out(Reg::new(1));
    b.halt();
    let p = b.build().unwrap();
    let reference = tpdbt_vm::run_collect(&p, &[]).unwrap();
    let policy = RegionPolicy {
        pool_trigger: 1,
        ..RegionPolicy::default()
    };
    let cfg = DbtConfig::two_phase(100)
        .with_policy(policy)
        .with_opt_mode(OptMode::Async)
        .with_backend(Backend::CachedFused);
    let out = Dbt::new(cfg).run(&p, &[]).unwrap();
    assert_eq!(out.output, reference);
    assert!(
        out.stats.opt_installed > 0,
        "a 200k-iteration loop must install its deferred region: {:?}",
        out.stats
    );
}

/// The in-flight snapshot degenerate case: retiring a region that was
/// never installed is a no-op, and re-installing after retirement
/// produces a fresh, correct trace.
#[test]
fn retire_then_reinstall_produces_a_fresh_trace() {
    let p = loop_program();
    let mut backend = CachedBackend::new(p.len(), None);
    backend.retire_region(7); // never installed: must not panic
    assert!(backend.region_trace(7).is_none());
    for pc in [0, 1] {
        backend.on_translate(&p, &decode_block(&p, pc).unwrap());
    }
    backend.install_region(0, &loop_dump(vec![1]));
    backend.retire_region(0);
    backend.install_region(0, &loop_dump(vec![1, 1]));
    let trace = backend.region_trace(0).expect("reinstall compiles");
    assert_eq!(trace.starts(), vec![1, 1]);
    let _ = Arc::strong_count(&trace);
}
