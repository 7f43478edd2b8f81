//! One benchmark per paper figure: each measures regenerating that
//! figure's table from a shared mini sweep (two INT + two FP analogs at
//! tiny scale; the sweep itself is measured once as `figures/sweep`).
//!
//! The full-scale regeneration is the `reproduce` binary
//! (`cargo run --release -p tpdbt-experiments -- --scale paper all`);
//! these benches keep the per-figure analysis pipelines honest.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tpdbt_experiments::figures;
use tpdbt_experiments::runner::BenchResult;
use tpdbt_experiments::sweep::{run_sweep, SweepOptions};
use tpdbt_suite::Scale;

/// A serial, uncached sweep that must complete every cell.
fn sweep(names: &[&str]) -> Vec<BenchResult> {
    let opts = SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    };
    let report = run_sweep(names, Scale::Tiny, &opts, |_| {}).unwrap();
    assert!(
        !report.degraded.is_degraded(),
        "{}",
        report.degraded.render()
    );
    report.results
}

fn bench_sweep(c: &mut Criterion) {
    c.bench_function("figures/sweep_one_bench_tiny", |b| {
        b.iter(|| black_box(sweep(&["bzip2"])))
    });
}

fn bench_figures(c: &mut Criterion) {
    let results = sweep(&["gzip", "mcf", "swim", "wupwise"]);
    let mut g = c.benchmark_group("figures");
    macro_rules! fig {
        ($name:literal, $f:path) => {
            g.bench_function($name, |b| b.iter(|| black_box($f(&results).to_csv())));
        };
    }
    fig!("fig08_sd_bp", figures::fig08);
    fig!("fig09_sd_bp_int", figures::fig09);
    fig!("fig10_bp_mismatch", figures::fig10);
    fig!("fig11_bp_mismatch_int", figures::fig11);
    fig!("fig12_bp_mismatch_fp", figures::fig12);
    fig!("fig13_sd_cp", figures::fig13);
    fig!("fig14_sd_lp", figures::fig14);
    fig!("fig15_lp_mismatch", figures::fig15);
    fig!("fig16_lp_mismatch_int", figures::fig16);
    fig!("fig17_performance", figures::fig17);
    fig!("fig18_profiling_ops", figures::fig18);
    g.finish();
}

criterion_group! {
    name = figs;
    config = Criterion::default().sample_size(10);
    targets = bench_sweep, bench_figures
}
criterion_main!(figs);
