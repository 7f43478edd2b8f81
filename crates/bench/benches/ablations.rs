//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! candidate-pool trigger, trace-growth probability, and counter freeze
//! vs continuous profiling. Each reports the wall time of a full DBT
//! run under the varied knob. Prices are applied after a run, so the
//! cost model's robustness is a repricing check in
//! `tests/figure_shapes.rs`, not a timing.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tpdbt_dbt::{Dbt, DbtConfig, RegionPolicy};
use tpdbt_suite::{workload, InputKind, Scale};

fn bench_pool_trigger(c: &mut Criterion) {
    let w = workload("gcc", Scale::Tiny, InputKind::Ref).unwrap();
    let mut g = c.benchmark_group("ablation_pool_trigger");
    for trigger in [1usize, 8, 64] {
        g.bench_function(format!("pool_{trigger}"), |b| {
            let policy = RegionPolicy {
                pool_trigger: trigger,
                ..RegionPolicy::default()
            };
            let cfg = DbtConfig::two_phase(20).with_policy(policy);
            b.iter(|| black_box(Dbt::new(cfg).run_built(&w.binary, &w.input).unwrap().stats))
        });
    }
    g.finish();
}

fn bench_main_path_prob(c: &mut Criterion) {
    let w = workload("gzip", Scale::Tiny, InputKind::Ref).unwrap();
    let mut g = c.benchmark_group("ablation_main_path_prob");
    for prob in [0.5f64, 0.7, 0.9] {
        g.bench_function(format!("p_{prob}"), |b| {
            let policy = RegionPolicy {
                main_path_prob: prob,
                ..RegionPolicy::default()
            };
            let cfg = DbtConfig::two_phase(20).with_policy(policy);
            b.iter(|| black_box(Dbt::new(cfg).run_built(&w.binary, &w.input).unwrap().stats))
        });
    }
    g.finish();
}

fn bench_freeze_vs_continuous(c: &mut Criterion) {
    let w = workload("mcf", Scale::Tiny, InputKind::Ref).unwrap();
    let mut g = c.benchmark_group("ablation_profiling_mode");
    g.bench_function("two_phase", |b| {
        let cfg = DbtConfig::two_phase(20);
        b.iter(|| black_box(Dbt::new(cfg).run_built(&w.binary, &w.input).unwrap().stats))
    });
    g.bench_function("continuous", |b| {
        let cfg = DbtConfig::continuous(20);
        b.iter(|| black_box(Dbt::new(cfg).run_built(&w.binary, &w.input).unwrap().stats))
    });
    g.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = bench_pool_trigger, bench_main_path_prob, bench_freeze_vs_continuous
}
criterion_main!(ablations);
