//! Differential harness for the execution backends.
//!
//! The correctness contract of the translation cache — and of trace
//! compilation on top of it — is
//! *bitwise transparency*: for any guest program, mode, and threshold,
//! the `cached-fused` backend must produce exactly the architectural
//! state, outputs, run statistics, and profile counters of the
//! reference interpreter backend. These tests pin that contract
//! with generated programs (proptest) and with exact-boundary
//! regressions at the freeze/reform events that drive
//! translation-cache inserts, installs, and invalidations. Guest traps
//! inside an installed region must surface as the interpreter's own
//! error, on every region path.

use proptest::prelude::*;

use tpdbt_dbt::{Backend, Dbt, DbtConfig, DbtError, Lockstep, RegionPolicy, RunOutcome};
use tpdbt_isa::{Cond, FReg, Program, ProgramBuilder, Reg};

#[path = "support/programs.rs"]
mod programs;
use programs::{arb_stmt, build, hot_loop, phase_flip_program};

fn run_with(config: DbtConfig, backend: Backend, p: &Program, input: &[i64]) -> RunOutcome {
    Dbt::new(config.with_backend(backend))
        .run(p, input)
        .expect("generated programs are trap-free")
}

/// Full observable-result equality of the `cached-fused` backend
/// against the reference interpreter backend.
fn assert_identical(config: DbtConfig, p: &Program, input: &[i64]) {
    let interp = run_with(config, Backend::Interp, p, input);
    let backend = Backend::CachedFused;
    let cached = run_with(config, backend, p, input);
    let ctx = format!(
        "{backend} vs interp, mode {:?} T={}",
        config.mode, config.threshold
    );
    assert_eq!(interp.output, cached.output, "output diverged: {ctx}");
    assert_eq!(interp.stats, cached.stats, "stats diverged: {ctx}");
    assert_eq!(
        interp.inip.blocks, cached.inip.blocks,
        "profile counters diverged: {ctx}"
    );
    assert_eq!(
        interp.inip.regions, cached.inip.regions,
        "regions diverged: {ctx}"
    );
    assert_eq!(interp.inip.cycles, cached.inip.cycles, "cycles: {ctx}");
    assert_eq!(
        interp.inip.profiling_ops, cached.inip.profiling_ops,
        "profiling ops: {ctx}"
    );
    assert_eq!(
        interp.intervals, cached.intervals,
        "interval snapshots diverged: {ctx}"
    );
    // And all are transparent against the raw interpreter.
    let reference = tpdbt_vm::run_collect(p, input).expect("trap-free");
    assert_eq!(interp.output, reference, "translation transparency");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole invariant: on arbitrary generated programs, every
    /// mode produces bitwise-identical outputs, stats, profile
    /// counters, regions, and interval snapshots on both backends.
    #[test]
    fn backends_are_bitwise_identical(
        stmts in prop::collection::vec(arb_stmt(), 1..8),
        input in prop::collection::vec(-50i64..50, 0..8),
        t in 1u64..40,
    ) {
        let p = build(&stmts);
        assert_identical(DbtConfig::no_opt(), &p, &input);
        assert_identical(DbtConfig::two_phase(t), &p, &input);
        assert_identical(DbtConfig::continuous(t), &p, &input);
        assert_identical(DbtConfig::adaptive(t), &p, &input);
    }
}

/// Boundary regression, both backends: the pool-full path freezes a
/// region seed at exactly `use == T` — i.e. the translation-cache
/// entry registers, the optimizer runs, and the counter freezes in the
/// same step its use count reaches the threshold.
#[test]
fn cache_entry_registers_and_freezes_at_exactly_t_on_both_backends() {
    let p = hot_loop(10_000);
    let t = 100;
    let policy = RegionPolicy {
        pool_trigger: 1,
        ..RegionPolicy::default()
    };
    for backend in Backend::ALL {
        let cfg = DbtConfig::two_phase(t)
            .with_policy(policy)
            .with_backend(backend);
        let out = Dbt::new(cfg).run(&p, &[]).unwrap();
        assert!(!out.inip.regions.is_empty(), "{backend}");
        for region in &out.inip.regions {
            let rec = out.inip.block(region.entry_pc()).unwrap();
            assert_eq!(
                rec.use_count, t,
                "{backend}: pool-full seed must freeze at T"
            );
        }
    }
}

/// Boundary regression, both backends: the registered-twice path
/// freezes the triggering block at exactly `use == 2T`.
#[test]
fn registered_twice_freezes_at_exactly_2t_on_both_backends() {
    let p = hot_loop(10_000);
    let t = 100;
    for backend in Backend::ALL {
        let out = Dbt::new(DbtConfig::two_phase(t).with_backend(backend))
            .run(&p, &[])
            .unwrap();
        assert_eq!(out.inip.regions.len(), 1, "{backend}");
        let rec = out.inip.block(out.inip.regions[0].entry_pc()).unwrap();
        assert_eq!(
            rec.use_count,
            2 * t,
            "{backend}: registered-twice trigger must freeze at exactly 2T"
        );
    }
}

/// Boundary regression, both backends: continuous-mode re-formation
/// replaces a chained region in place (the backend re-installs its
/// chain) and adaptive-mode retirement invalidates it — and in both
/// cases results stay identical across backends.
#[test]
fn chained_regions_survive_reform_and_retirement_identically() {
    let p = phase_flip_program();
    let backend = Backend::CachedFused;
    // Continuous: regions re-form when the entry's use count
    // doubles.
    let cont_i = run_with(DbtConfig::continuous(1000), Backend::Interp, &p, &[]);
    let cont_c = run_with(DbtConfig::continuous(1000), backend, &p, &[]);
    assert!(
        cont_c.stats.opt_invocations > cont_c.stats.regions_formed,
        "{backend}: a reform must fire"
    );
    assert_eq!(cont_i.output, cont_c.output, "{backend}");
    assert_eq!(cont_i.stats, cont_c.stats, "{backend}");
    assert_eq!(cont_i.inip.blocks, cont_c.inip.blocks, "{backend}");
    // Adaptive: the stale region is retired (its chain — and under
    // cached-fused, its trace — evicted) and a fresh one forms;
    // still bitwise-identical.
    let ad_i = run_with(DbtConfig::adaptive(500), Backend::Interp, &p, &[]);
    let ad_c = run_with(DbtConfig::adaptive(500), backend, &p, &[]);
    assert!(
        ad_c.stats.retirements > 0,
        "{backend}: a retirement must fire"
    );
    assert_eq!(ad_i.output, ad_c.output, "{backend}");
    assert_eq!(ad_i.stats, ad_c.stats, "{backend}");
    assert_eq!(ad_i.inip.blocks, ad_c.inip.blocks, "{backend}");
    assert_eq!(ad_i.inip.regions, ad_c.inip.regions, "{backend}");
}

/// The instruction that traps inside [`trap_guest`]'s loop.
#[derive(Clone, Copy, Debug)]
enum Trap {
    /// `div` by `k - i`.
    Divide,
    /// `load` from `k - i - 1`.
    Load,
    /// `fload` from `k - i - 1`.
    FLoad,
}

/// Loop trips of [`trap_guest`].
const TRIPS: i64 = 2000;

/// A single-block loop over `i = 0..TRIPS` that reads `k` from its
/// input and computes `k - i` each trip. The trapping op divides by it
/// or addresses memory at `k - i - 1`, so it traps at trip `i == k`
/// (the divisor is 0, the address -1), mid-body and after the ops
/// before it have committed. With `k` beyond `TRIPS` it never traps.
fn trap_guest(trap: Trap) -> Program {
    let mut b = ProgramBuilder::named("trap");
    b.reserve_mem(8192);
    b.reserve_fmem(8192);
    let (i, k, acc, x, diff) = (
        Reg::new(1),
        Reg::new(5),
        Reg::new(4),
        Reg::new(2),
        Reg::new(6),
    );
    b.input(k);
    b.movi(Reg::new(3), 1000);
    let top = b.fresh_label("top");
    b.bind(top).unwrap();
    b.addi(Reg::new(0), Reg::new(0), 1);
    b.sub(diff, k, i);
    match trap {
        Trap::Divide => b.div(x, Reg::new(3), diff),
        Trap::Load => b.load(x, diff, -1),
        Trap::FLoad => {
            b.fload(FReg::new(0), diff, -1);
            b.ftoi(x, FReg::new(0));
        }
    }
    b.add(acc, acc, x);
    b.addi(i, i, 1);
    b.br_imm(Cond::Lt, i, TRIPS, top);
    b.out(acc);
    b.halt();
    b.build().unwrap()
}

/// Runs `trap`'s guest trapping at trip 1500, long after its loop
/// region formed, and checks that a two-phase run (traced on
/// `cached-fused`), a continuous run (region walked) and a lockstep
/// execution of both all return the interpreter's own trap on both
/// backends.
fn assert_trap_parity(trap: Trap) {
    let p = trap_guest(trap);
    let t = 50;
    let k = 1500;
    // With the trap out of reach, the loop forms its region while its
    // entry count is still far below `k`: the trap lands inside it.
    let clean = Dbt::new(DbtConfig::two_phase(t))
        .run(&p, &[TRIPS + 1])
        .unwrap();
    assert_eq!(clean.inip.regions.len(), 1, "{trap:?}");
    let entry = clean.inip.block(clean.inip.regions[0].entry_pc()).unwrap();
    assert!(
        entry.use_count < k as u64,
        "{trap:?}: region forms before the trap"
    );

    let trapped = tpdbt_vm::run_collect(&p, &[k]).unwrap_err();
    // The trapping op sits mid-body, two ops past the loop head (pc 2).
    assert_eq!(trapped.pc(), 4, "{trap:?}: {trapped}");
    let reference = DbtError::Guest(trapped);
    for backend in Backend::ALL {
        let configs = vec![
            DbtConfig::two_phase(t).with_backend(backend),
            DbtConfig::continuous(t).with_backend(backend),
        ];
        for &config in &configs {
            let err = Dbt::new(config).run(&p, &[k]).unwrap_err();
            assert_eq!(err, reference, "{trap:?} {backend} {:?}", config.mode);
        }
        let err = Lockstep::new(configs).run(&p, &[k]).unwrap_err();
        assert_eq!(err, reference, "{trap:?} {backend} lockstep");
    }
}

#[test]
fn divide_by_zero_inside_a_region_matches_the_interpreter() {
    assert_trap_parity(Trap::Divide);
}

#[test]
fn out_of_bounds_load_inside_a_region_matches_the_interpreter() {
    assert_trap_parity(Trap::Load);
}

#[test]
fn out_of_bounds_fload_inside_a_region_matches_the_interpreter() {
    assert_trap_parity(Trap::FLoad);
}
