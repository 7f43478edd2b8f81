//! Lockstep parity: one guest execution feeding N policies must give
//! every config exactly the outcome of its own single run — output,
//! stats, the profile dump and interval snapshots — on both backends,
//! and the same error when the guest runs out of fuel. A traced
//! lockstep call reports the events of all its single runs.

use std::sync::Arc;

use proptest::prelude::*;

use tpdbt_dbt::{AdaptPolicy, Backend, Dbt, DbtConfig, Lockstep, RegionPolicy, RunOutcome};
use tpdbt_experiments::runner::ladder;
use tpdbt_isa::Program;
use tpdbt_suite::{all_names, workload, InputKind, Scale};
use tpdbt_trace::Tracer;

#[path = "support/programs.rs"]
mod programs;
use programs::{arb_stmt, build, hot_loop, phase_flip_program};

fn assert_same(lockstep: &RunOutcome, single: &RunOutcome, ctx: &str) {
    assert_eq!(lockstep.output, single.output, "output: {ctx}");
    assert_eq!(lockstep.stats, single.stats, "stats: {ctx}");
    assert_eq!(lockstep.inip, single.inip, "inip: {ctx}");
    assert_eq!(lockstep.intervals, single.intervals, "intervals: {ctx}");
}

/// Runs `configs` in lockstep on `p` and compares each outcome with
/// the config's single run.
fn assert_lockstep_matches(configs: &[DbtConfig], p: &Program, input: &[i64]) {
    let outs = Lockstep::new(configs.to_vec())
        .run(p, input)
        .expect("trap-free");
    assert_eq!(outs.len(), configs.len());
    for (cfg, out) in configs.iter().zip(&outs) {
        let single = Dbt::new(*cfg).run(p, input).expect("trap-free");
        let ctx = format!("{} {:?} T={}", cfg.backend, cfg.mode, cfg.threshold);
        assert_same(out, &single, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every mode, two thresholds and an interval recorder share one
    /// execution and still match their single runs, on both backends.
    #[test]
    fn lockstep_matches_single_runs(
        stmts in prop::collection::vec(arb_stmt(), 1..8),
        input in prop::collection::vec(-50i64..50, 0..8),
        t in 1u64..40,
        k in 50u64..2_000,
    ) {
        let p = build(&stmts);
        for backend in Backend::ALL {
            let configs = [
                DbtConfig::no_opt(),
                DbtConfig::two_phase(t),
                DbtConfig::two_phase(2 * t),
                DbtConfig::continuous(t),
                DbtConfig::adaptive(t),
                DbtConfig::no_opt().with_interval(k),
            ]
            .map(|c| c.with_backend(backend));
            assert_lockstep_matches(&configs, &p, &input);
        }
    }
}

/// A product over the profiling fields of [`DbtConfig`]: every mode
/// with and without an interval recorder, thresholds of 1, `t` and
/// one past any run here, the pool trigger at 1 and at its default, and
/// an adapt bound that retires at every side exit beside one that
/// never retires.
fn config_product(t: u64, k: u64) -> Vec<DbtConfig> {
    let churn = AdaptPolicy {
        min_entries: 1,
        max_side_exit_rate: 0.0,
        max_retirements_per_entry: u32::MAX,
    };
    let never = AdaptPolicy {
        min_entries: u64::MAX,
        ..AdaptPolicy::default()
    };
    let mut configs = Vec::new();
    for interval in [None, Some(k)] {
        let mut push = |c: DbtConfig| {
            configs.push(match interval {
                Some(k) => c.with_interval(k),
                None => c,
            });
        };
        push(DbtConfig::no_opt());
        for threshold in [1, t, 1 << 40] {
            for pool_trigger in [1, RegionPolicy::default().pool_trigger] {
                let policy = RegionPolicy {
                    pool_trigger,
                    ..RegionPolicy::default()
                };
                push(DbtConfig::two_phase(threshold).with_policy(policy));
                push(DbtConfig::continuous(threshold).with_policy(policy));
                for adapt in [churn, never] {
                    push(DbtConfig {
                        adapt,
                        ..DbtConfig::adaptive(threshold).with_policy(policy)
                    });
                }
            }
        }
    }
    configs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The whole config product shares one execution and matches its
    /// single runs on both backends; it reaches every way a region
    /// walk stops (an adaptive side exit that retires, a continuous
    /// re-formation, an interval boundary, the profiling phase) and
    /// every way a chained walk continues.
    #[test]
    fn config_product_matches_single_runs(
        stmts in prop::collection::vec(arb_stmt(), 1..8),
        input in prop::collection::vec(-50i64..50, 0..8),
        t in 2u64..40,
        k in 50u64..2_000,
    ) {
        let p = build(&stmts);
        for backend in Backend::ALL {
            let configs = config_product(t, k).into_iter().map(|c| c.with_backend(backend));
            assert_lockstep_matches(&configs.collect::<Vec<_>>(), &p, &input);
        }
    }
}

/// Continuous re-formation and adaptive retirement, which change a
/// region while the guest runs, walk the same way as their traces.
#[test]
fn reform_and_retirement_match_single_runs() {
    let p = phase_flip_program();
    for backend in Backend::ALL {
        let configs = [
            DbtConfig::two_phase(500),
            DbtConfig::continuous(1000),
            DbtConfig::adaptive(500),
        ]
        .map(|c| c.with_backend(backend));
        assert_lockstep_matches(&configs, &p, &[]);
        let outs = Lockstep::new(configs.to_vec()).run(&p, &[]).unwrap();
        assert!(outs[1].stats.opt_invocations > outs[1].stats.regions_formed);
        assert!(outs[2].stats.retirements > 0, "{backend}");
    }
}

/// Fuel runs out in the profiling phase (1 000 instructions) and inside
/// an installed region (50 000): the lockstep call fails with exactly
/// the error every single run fails with.
#[test]
fn fuel_limited_lockstep_returns_the_single_run_error() {
    let p = hot_loop(1_000_000);
    for fuel in [1_000, 50_000] {
        for backend in Backend::ALL {
            let configs = [
                DbtConfig::no_opt(),
                DbtConfig::two_phase(100),
                DbtConfig::continuous(100),
                DbtConfig::adaptive(100),
            ]
            .map(|c| c.with_backend(backend).with_fuel(fuel));
            let err = Lockstep::new(configs.to_vec())
                .run(&p, &[])
                .expect_err("fuel runs out");
            for cfg in configs {
                let single = Dbt::new(cfg).run(&p, &[]).expect_err("fuel runs out");
                assert_eq!(err, single, "{backend} {:?} fuel {fuel}", cfg.mode);
            }
        }
    }
}

/// The sweep's reference unit: every tiny-scale suite guest under
/// AVEP, the `T = 1` base and the whole tiny ladder in one execution.
#[test]
fn tiny_suite_units_match_single_runs() {
    let mut configs = vec![DbtConfig::no_opt(), DbtConfig::two_phase(1)];
    configs.extend(
        ladder(Scale::Tiny)
            .iter()
            .map(|p| DbtConfig::two_phase(p.actual)),
    );
    for name in all_names() {
        let w = workload(name, Scale::Tiny, InputKind::Ref).unwrap();
        let outs = Lockstep::new(configs.clone())
            .run_built(&w.binary, &w.input)
            .unwrap();
        for (cfg, out) in configs.iter().zip(&outs) {
            let single = Dbt::new(*cfg).run_built(&w.binary, &w.input).unwrap();
            assert_same(out, &single, &format!("{name} T={}", cfg.threshold));
        }
    }
}

/// Every policy reports into the lockstep call's tracer what its
/// single run reports: per-kind totals equal the single runs' sums.
#[test]
fn traced_lockstep_reports_every_single_runs_events() {
    let p = phase_flip_program();
    for backend in Backend::ALL {
        let configs = [
            DbtConfig::no_opt(),
            DbtConfig::two_phase(500),
            DbtConfig::continuous(1000),
            DbtConfig::adaptive(500),
        ]
        .map(|c| c.with_backend(backend));
        let lockstep = Arc::new(Tracer::new());
        Lockstep::new(configs.to_vec())
            .with_tracer(Arc::clone(&lockstep))
            .run(&p, &[])
            .unwrap();
        let singles = Arc::new(Tracer::new());
        for cfg in configs {
            Dbt::new(cfg)
                .with_tracer(Arc::clone(&singles))
                .run(&p, &[])
                .unwrap();
        }
        assert_eq!(lockstep.counts(), singles.counts(), "{backend}");
        assert!(lockstep.count("region_formed") > 0, "{backend}");
    }
}

#[test]
fn no_configs_run_nothing() {
    let p = hot_loop(10);
    assert!(Lockstep::new(Vec::new()).run(&p, &[]).unwrap().is_empty());
}

#[test]
#[should_panic(expected = "share backend and fuel")]
fn configs_must_share_backend_and_fuel() {
    let _ = Lockstep::new(vec![
        DbtConfig::no_opt().with_backend(Backend::Interp),
        DbtConfig::no_opt().with_backend(Backend::CachedFused),
    ]);
}
