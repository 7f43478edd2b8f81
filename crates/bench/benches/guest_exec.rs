//! Guest-execution backend benchmarks: the same suite workloads run
//! end to end under the two-phase translator on the reference
//! interpreter backend (`interp`, re-decoding every instruction on
//! every execution and walking each region block by block through the
//! policy's automaton) and the translation cache (`cached-fused`,
//! blocks decoded once into one specialized micro-op per instruction,
//! each region compiled to a straight-line guarded trace). Both run
//! every instruction through the same one-dispatch handler.
//!
//! Both backends produce bitwise-identical outputs, stats, and
//! profiles (pinned by `crates/dbt/tests/backend_differential.rs`), so
//! any gap here is pure host-side dispatch cost. A second group shows
//! what a long-lived host (the sweep orchestrator, `tpdbt-serve`)
//! gains by sharing one `PredecodedProgram` across runs: the decode
//! cost itself amortizes to zero. A third group times one
//! sweep unit as `reproduce` runs it: AVEP, the `T = 1` base and the
//! tiny ladder as lockstep policies over one guest execution, where
//! per-policy profiling and region walking dominate; it adds the
//! short-region guests, whose walks leave and enter regions every few
//! blocks.
//!
//! Every row is the median of 30 samples: on a 2-core host one
//! unchanged binary's 10-sample medians spread by 2x between runs.
//!
//! Set `TPDBT_BENCH_JSON=path` to also write the timings as JSON
//! (`BENCH_GUEST.json` in CI).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use tpdbt_dbt::{Backend, Dbt, DbtConfig, Lockstep};
use tpdbt_experiments::runner::ladder;
use tpdbt_isa::PredecodedProgram;
use tpdbt_suite::{workload, InputKind, Scale, Workload};

/// The hottest guests of the suite: tight integer loops (gzip), a
/// branchy pointer-chaser (mcf), and an FP kernel (equake) — the three
/// exercise ALU, branch, and float micro-op dispatch respectively.
const GUESTS: &[&str] = &["gzip", "mcf", "equake"];

/// The interpreter-like INT guests whose regions are left every one to
/// two blocks and entered again straight away: where the region walk's
/// per-entry and per-exit cost shows.
const SHORT_REGION_GUESTS: &[&str] = &["crafty", "eon", "vortex"];

fn guest(name: &str) -> Workload {
    workload(name, Scale::Tiny, InputKind::Ref).expect("suite workload")
}

fn bench_backends(c: &mut Criterion) {
    let cfg = DbtConfig::two_phase(100);
    let mut g = c.benchmark_group("guest_exec");
    for name in GUESTS {
        let w = guest(name);
        for backend in Backend::ALL {
            g.bench_function(format!("{name}/{backend}"), |b| {
                b.iter(|| {
                    let out = Dbt::new(cfg.with_backend(backend))
                        .run_built(&w.binary, &w.input)
                        .unwrap();
                    black_box(out.stats.instructions)
                })
            });
        }
    }
    g.finish();
}

/// The shared-cache variant: one decode-once `PredecodedProgram` per
/// guest, reused across every run — the shape of a ladder sweep (many
/// thresholds, one guest) or a profile-query service.
fn bench_shared_predecode(c: &mut Criterion) {
    let cfg = DbtConfig::two_phase(100);
    let mut g = c.benchmark_group("guest_exec_shared");
    for name in GUESTS {
        let w = guest(name);
        let shared = Arc::new(PredecodedProgram::new(&w.binary.program));
        g.bench_function(format!("{name}/cached-fused-shared"), |b| {
            b.iter(|| {
                let out = Dbt::new(cfg.with_backend(Backend::CachedFused))
                    .with_predecoded(Arc::clone(&shared))
                    .run_built(&w.binary, &w.input)
                    .unwrap();
                black_box(out.stats.instructions)
            })
        });
    }
    g.finish();
}

/// One sweep unit as a single lockstep call: the reference input under
/// AVEP, the `T = 1` base and every tiny ladder point, sharing one
/// decode-once cache as the sweep does.
fn bench_lockstep(c: &mut Criterion) {
    let mut configs = vec![DbtConfig::no_opt(), DbtConfig::two_phase(1)];
    configs.extend(
        ladder(Scale::Tiny)
            .iter()
            .map(|p| DbtConfig::two_phase(p.actual)),
    );
    let mut g = c.benchmark_group("guest_exec_lockstep");
    for name in GUESTS.iter().chain(SHORT_REGION_GUESTS) {
        let w = guest(name);
        let shared = Arc::new(PredecodedProgram::new(&w.binary.program));
        g.bench_function(*name, |b| {
            b.iter(|| {
                let outs = Lockstep::new(configs.clone())
                    .with_predecoded(Arc::clone(&shared))
                    .run_built(&w.binary, &w.input)
                    .unwrap();
                black_box(outs.len())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_backends, bench_shared_predecode, bench_lockstep
}
criterion_main!(benches);
