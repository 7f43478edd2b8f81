//! `reproduce-small`: what `reproduce --scale small` runs. One op is
//! one benchmark's `run_sweep` (AVEP, INIP(train), the T=1 base and
//! the 13-point ladder) with one job, the default backend and sync
//! optimization; a pass is all 26 benchmarks in seeded order, after
//! which fig08–fig18 are rendered and compared with the reference.
//!
//! Ops run without a store: the benchmark may write only inside its
//! checkout, which sits on a shared disk whose fsync latency swung
//! whole runs by up to 40%. serve-zipf measures the store.
//!
//! The traced op is the same `run_sweep` call. Its per-layer times come
//! from the sweep's own report: each cell's time, and the sweep's time
//! outside its cells. After each traced pass, outside the op timings, a
//! probe times the calls the report does not split out: building each
//! benchmark's two workloads, and analyzing one training run and one
//! ladder run against the sweep's AVEP profile. The probe's analyses
//! must equal the sweep's.

use std::time::{Duration, Instant};

use tpdbt_dbt::{Dbt, DbtConfig};
use tpdbt_experiments::runner::BenchResult;
use tpdbt_experiments::sweep::{run_sweep, CellStat, SweepOptions, SweepReport};
use tpdbt_profile::report::{analyze, analyze_train};
use tpdbt_suite::{all_names, workload, InputKind, Scale, Workload};

use crate::refs::{figures_text, Refs};
use crate::rng::{seeded, shuffle};
use crate::spans::SpanLog;
use crate::{ms_since, whole_passes, Measured, RunArgs, SETUP_ROUNDS};

/// Benchmarks swept by each setup round (one INT, one FP), so the
/// warm-up exercises both classes without depending on the seed.
const WARM_UP: [&str; 2] = ["gzip", "swim"];

/// Stream id of the benchmark order.
const ORDER_STREAM: u64 = 1;

/// One benchmark's sweep through the real entry point.
fn sweep(name: &str) -> Result<SweepReport, String> {
    let opts = SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    };
    let report =
        run_sweep(&[name], Scale::Small, &opts, |_| {}).map_err(|e| format!("{name}: {e}"))?;
    if report.degraded.is_degraded() {
        return Err(format!(
            "{name}: degraded sweep\n{}",
            report.degraded.render()
        ));
    }
    Ok(report)
}

/// The sweep's one result, if it matches the reference.
fn check(refs: &Refs, report: Result<SweepReport, String>) -> Result<SweepReport, String> {
    let report = report?;
    match report.results.as_slice() {
        [r] if refs.result_matches(r) => Ok(report),
        [r] => Err(format!("{}: result differs from the reference", r.name)),
        _ => Err("a one-benchmark sweep returned no single result".into()),
    }
}

/// One pass's ops: every benchmark in `order`. `op` runs one
/// benchmark's sweep; its latency is recorded. Returns the reports
/// that matched their reference.
fn pass_ops(
    refs: &Refs,
    order: &[&str],
    m: &mut Measured,
    latencies: &mut Vec<f64>,
    mut op: impl FnMut(&str) -> Result<SweepReport, String>,
) -> Vec<SweepReport> {
    let mut reports = Vec::with_capacity(order.len());
    for name in order {
        let t = Instant::now();
        let report = op(name);
        latencies.push(ms_since(t));
        match check(refs, report) {
            Ok(r) => {
                reports.push(r);
                m.tally(Ok(()));
            }
            Err(e) => m.tally(Err(e)),
        }
    }
    reports
}

fn into_results(reports: Vec<SweepReport>) -> Vec<BenchResult> {
    reports.into_iter().flat_map(|r| r.results).collect()
}

/// The end-of-pass check: the rendered figures must equal the
/// reference. Every op of the pass fed them, so on a mismatch the
/// pass's ops not yet counted as failed are counted now.
fn check_figures(refs: &Refs, figures: &str, results: &[BenchResult], m: &mut Measured) {
    if !refs.figures_match(figures) {
        m.failed += results.len() as u64;
        m.problems
            .push("fig08-fig18 differ from the reference after a pass".into());
    }
}

/// Cell times from the sweeps' reports, in milliseconds.
#[derive(Default)]
struct CellTimes {
    /// `avep` and `train` cells: a no-opt engine run.
    noopt: Vec<f64>,
    /// `base` cells: the T=1 engine run.
    base: Vec<f64>,
    /// Ladder cells: an INIP(T) engine run and its analysis.
    ladder: Vec<f64>,
    /// Each sweep's elapsed time minus its cells' times.
    sweep_self: Vec<f64>,
}

impl CellTimes {
    /// Adds one sweep's cells. With one job the cells run one after
    /// another, so the sweep's self time is `elapsed` minus their sum.
    fn add(&mut self, elapsed: Duration, cells: &[CellStat]) {
        let mut cells_ms = 0.0;
        for c in cells {
            let ms = c.micros as f64 / 1e3;
            cells_ms += ms;
            match c.label.as_str() {
                "avep" | "train" => self.noopt.push(ms),
                "base" => self.base.push(ms),
                _ => self.ladder.push(ms),
            }
        }
        self.sweep_self.push(elapsed.as_secs_f64() * 1e3 - cells_ms);
    }
}

/// Times, for each swept benchmark, the calls its sweep's report does
/// not split out: the two workload builds, and the analyses of one
/// training run and of one ladder run against the sweep's AVEP. The
/// ladder point is fixed by the benchmark's place in the suite, so
/// every pass analyzes the same cells. An analysis that differs from
/// the sweep's is a problem of the run.
fn probe(results: &[BenchResult], log: &mut SpanLog, m: &mut Measured) -> Result<(), String> {
    let names = all_names();
    for r in results {
        let fail = |e: &dyn std::fmt::Display| format!("probe of {}: {e}", r.name);
        let mut build = |kind| {
            log.span("suite.workload", || workload(r.name, Scale::Small, kind))
                .map_err(|e| fail(&e))
        };
        let (reference, training) = (build(InputKind::Ref)?, build(InputKind::Train)?);
        let run = |w: &Workload, cfg| {
            Dbt::new(cfg)
                .run_built(&w.binary, &w.input)
                .map_err(|e| fail(&e))
        };
        let train_profile = run(&training, DbtConfig::no_opt())?.as_plain_profile();
        let train = log.span("profile.analyze_train", || {
            analyze_train(&train_profile, &r.avep)
        });
        let at = names.iter().position(|n| *n == r.name).unwrap_or(0) % r.per_threshold.len();
        let (point, swept) = r.per_threshold[at];
        let out = run(&reference, DbtConfig::two_phase(point.actual))?;
        let metrics = log
            .span("profile.analyze", || analyze(&out.inip, &r.avep))
            .map_err(|e| fail(&e))?;
        if train != r.train || metrics != swept {
            m.problems.push(fail(&"analysis differs from the sweep's"));
        }
    }
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Setup failures (warm-up mismatches) and probe failures.
pub fn run(args: &RunArgs, refs: &Refs) -> Result<Measured, String> {
    let mut m = Measured::default();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        for name in WARM_UP {
            check(refs, sweep(name)).map_err(|e| format!("warm-up: {e}"))?;
        }
        m.setup_rounds_s.push(t.elapsed().as_secs_f64());
    }

    let mut order_rng = seeded(args.seed, ORDER_STREAM);
    let mut next_order = move || {
        let mut names = all_names();
        shuffle(&mut names, &mut order_rng);
        names
    };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut ops = Vec::new();
    m.timed_wall_s = whole_passes(budget, || {
        let order = next_order();
        let results = into_results(pass_ops(refs, &order, &mut m, &mut ops, sweep));
        check_figures(refs, &figures_text(&results), &results, &mut m);
        Ok(())
    })?;
    m.timed_ops = ops.len() as u64;
    m.ops_ms = ops;
    if !args.trace {
        return Ok(m);
    }

    let mut log = SpanLog::new(Instant::now());
    let mut traced = Vec::new();
    let mut cells = CellTimes::default();
    whole_passes(budget, || {
        let order = next_order();
        let reports = pass_ops(refs, &order, &mut m, &mut traced, |name| {
            log.span("experiments.sweep", || sweep(name))
        });
        reports.iter().for_each(|r| cells.add(r.elapsed, &r.cells));
        let results = into_results(reports);
        let figures = log.span("experiments.figures", || figures_text(&results));
        check_figures(refs, &figures, &results, &mut m);
        probe(&results, &mut log, &mut m)
    })?;
    m.traced_ops_ms = traced;
    for (metric, values) in [
        ("dbt.noopt_run_ms", &cells.noopt),
        ("dbt.base_run_ms", &cells.base),
        ("dbt.ladder_run_ms", &cells.ladder),
        ("experiments.sweep_self_ms", &cells.sweep_self),
    ] {
        m.layer_median(metric, values);
    }
    for (metric, span) in [
        ("suite.workload_ms", "suite.workload"),
        ("profile.analyze_ms", "profile.analyze"),
        ("profile.analyze_train_ms", "profile.analyze_train"),
        ("experiments.figures_ms", "experiments.figures"),
    ] {
        m.layer_median(metric, &log.durations_ms(span));
    }
    m.spans = Some(log);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(label: &str, micros: u64) -> CellStat {
        CellStat {
            bench: "gzip".into(),
            label: label.into(),
            hit: false,
            micros,
        }
    }

    #[test]
    fn sweep_self_time_is_elapsed_minus_its_cells() {
        let mut times = CellTimes::default();
        let cells = [
            cell("avep", 1000),
            cell("train", 2000),
            cell("base", 500),
            cell("T=1", 100),
            cell("T=4", 300),
        ];
        times.add(Duration::from_micros(4400), &cells);
        assert_eq!(times.noopt, vec![1.0, 2.0]);
        assert_eq!(times.base, vec![0.5]);
        assert_eq!(times.ladder, vec![0.1, 0.3]);
        assert_eq!(times.sweep_self.len(), 1);
        assert!((times.sweep_self[0] - 0.5).abs() < 1e-9);
    }
}
