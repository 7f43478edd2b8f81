//! Differential harness for the execution backends.
//!
//! The correctness contract of the translation cache — and of
//! superinstruction fusion and trace compilation on top of it — is
//! *bitwise transparency*: for any guest program, mode, and threshold,
//! the `cached-fused` backend must produce exactly the architectural
//! state, outputs, run statistics, and profile counters of the
//! reference interpreter backend. These tests pin that contract
//! with generated programs (proptest) and with exact-boundary
//! regressions at the freeze/reform events that drive
//! translation-cache inserts, installs, and invalidations.

use proptest::prelude::*;

use tpdbt_dbt::{Backend, Dbt, DbtConfig, RegionPolicy, RunOutcome};
use tpdbt_isa::Program;

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
