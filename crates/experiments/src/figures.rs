//! One formatter per paper figure, all fed from a single suite sweep.

use tpdbt_profile::report::ThresholdMetrics;
use tpdbt_suite::BenchClass;

use crate::runner::{class_average, class_relative_performance, class_train_average, BenchResult};
use crate::table::Table;

fn ladder_labels(results: &[BenchResult]) -> Vec<&'static str> {
    results
        .first()
        .map(|r| r.per_threshold.iter().map(|(p, _)| p.label).collect())
        .unwrap_or_default()
}

fn class_rows(
    results: &[BenchResult],
    metric: impl Fn(&ThresholdMetrics) -> Option<f64> + Copy,
    train_metric: Option<fn(&tpdbt_profile::report::TrainMetrics) -> Option<f64>>,
    title: &str,
) -> Table {
    let labels = ladder_labels(results);
    let mut headers = vec!["T"];
    headers.push("int");
    headers.push("fp");
    let mut t = Table::new(title, &headers);
    if let Some(tm) = train_metric {
        t.row(vec![
            "train".to_string(),
            Table::metric(class_train_average(results, BenchClass::Int, tm)),
            Table::metric(class_train_average(results, BenchClass::Fp, tm)),
        ]);
    }
    for (i, label) in labels.iter().enumerate() {
        t.row(vec![
            (*label).to_string(),
            Table::metric(class_average(results, BenchClass::Int, i, metric)),
            Table::metric(class_average(results, BenchClass::Fp, i, metric)),
        ]);
    }
    t
}

fn per_bench_rows(
    results: &[BenchResult],
    class: BenchClass,
    metric: impl Fn(&ThresholdMetrics) -> Option<f64> + Copy,
    train_metric: Option<fn(&tpdbt_profile::report::TrainMetrics) -> Option<f64>>,
    title: &str,
) -> Table {
    let labels = ladder_labels(results);
    let mut headers: Vec<&str> = vec!["bench"];
    if train_metric.is_some() {
        headers.push("train");
    }
    headers.extend(labels.iter().copied());
    let mut t = Table::new(title, &headers);
    for r in results.iter().filter(|r| r.class == class) {
        let mut row = vec![r.name.to_string()];
        if let Some(tm) = train_metric {
            row.push(Table::metric(tm(&r.train)));
        }
        for (_, m) in &r.per_threshold {
            row.push(Table::metric(metric(m)));
        }
        t.row(row);
    }
    t
}

/// Figure 8: standard deviations of branch probabilities — INT and FP
/// averages vs threshold, with the `Sd.BP(train)` reference row.
#[must_use]
pub fn fig08(results: &[BenchResult]) -> Table {
    class_rows(
        results,
        |m| m.sd_bp,
        Some(|t| t.sd_bp),
        "Figure 8: Sd.BP(T) — class averages (train row = Sd.BP(train))",
    )
}

/// Figure 9: `Sd.BP(T)` per INT benchmark.
#[must_use]
pub fn fig09(results: &[BenchResult]) -> Table {
    per_bench_rows(
        results,
        BenchClass::Int,
        |m| m.sd_bp,
        Some(|t| t.sd_bp),
        "Figure 9: Sd.BP(T) per SPEC2000 INT analog",
    )
}

/// Figure 10: branch-probability mismatch rates — class averages.
#[must_use]
pub fn fig10(results: &[BenchResult]) -> Table {
    class_rows(
        results,
        |m| m.bp_mismatch,
        Some(|t| t.bp_mismatch),
        "Figure 10: BP range mismatch rates — class averages",
    )
}

/// Figure 11: BP mismatch per INT benchmark.
#[must_use]
pub fn fig11(results: &[BenchResult]) -> Table {
    per_bench_rows(
        results,
        BenchClass::Int,
        |m| m.bp_mismatch,
        Some(|t| t.bp_mismatch),
        "Figure 11: BP mismatch rates per INT analog",
    )
}

/// Figure 12: BP mismatch per FP benchmark.
#[must_use]
pub fn fig12(results: &[BenchResult]) -> Table {
    per_bench_rows(
        results,
        BenchClass::Fp,
        |m| m.bp_mismatch,
        Some(|t| t.bp_mismatch),
        "Figure 12: BP mismatch rates per FP analog",
    )
}

/// Figure 13: `Sd.CP(T)` — class averages.
#[must_use]
pub fn fig13(results: &[BenchResult]) -> Table {
    class_rows(
        results,
        |m| m.sd_cp,
        None,
        "Figure 13: Sd.CP(T) — class averages",
    )
}

/// Figure 14: `Sd.LP(T)` — class averages.
#[must_use]
pub fn fig14(results: &[BenchResult]) -> Table {
    class_rows(
        results,
        |m| m.sd_lp,
        None,
        "Figure 14: Sd.LP(T) — class averages",
    )
}

/// Figure 15: loop-back (trip-count class) mismatch — class averages.
#[must_use]
pub fn fig15(results: &[BenchResult]) -> Table {
    class_rows(
        results,
        |m| m.lp_mismatch,
        None,
        "Figure 15: LP mismatch rates — class averages",
    )
}

/// Figure 16: LP mismatch per INT benchmark.
#[must_use]
pub fn fig16(results: &[BenchResult]) -> Table {
    per_bench_rows(
        results,
        BenchClass::Int,
        |m| m.lp_mismatch,
        None,
        "Figure 16: LP mismatch rates per INT analog",
    )
}

/// Figure 17: relative performance vs threshold (geometric mean of
/// `cycles(T=1) / cycles(T)`; higher is better; base = 1.0).
#[must_use]
pub fn fig17(results: &[BenchResult]) -> Table {
    let labels = ladder_labels(results);
    let mut t = Table::new(
        "Figure 17: relative performance vs T (base: T = 1)",
        &["T", "int", "int_no_perl", "fp"],
    );
    for (i, label) in labels.iter().enumerate() {
        let int = class_relative_performance(results, BenchClass::Int, i, &[]);
        let noperl = class_relative_performance(results, BenchClass::Int, i, &["perlbmk"]);
        let fp = class_relative_performance(results, BenchClass::Fp, i, &[]);
        t.row(vec![
            (*label).to_string(),
            Table::metric(int),
            Table::metric(noperl),
            Table::metric(fp),
        ]);
    }
    t
}

/// Figure 18: profiling operations normalized to the training run
/// (class averages of `ops(T) / ops(train)`; the train row is 1 by
/// construction).
#[must_use]
pub fn fig18(results: &[BenchResult]) -> Table {
    let labels = ladder_labels(results);
    let mut t = Table::new(
        "Figure 18: profiling operations normalized to the training run",
        &["T", "int", "fp"],
    );
    let avg = |class: BenchClass, i: usize| -> Option<f64> {
        let vals: Vec<f64> = results
            .iter()
            .filter(|r| r.class == class && r.train.profiling_ops > 0)
            .map(|r| r.per_threshold[i].1.profiling_ops as f64 / r.train.profiling_ops as f64)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    t.row(vec!["train".into(), "1.000".into(), "1.000".into()]);
    for (i, label) in labels.iter().enumerate() {
        t.row(vec![
            (*label).to_string(),
            Table::metric(avg(BenchClass::Int, i)),
            Table::metric(avg(BenchClass::Fp, i)),
        ]);
    }
    t
}

/// All figures in paper order.
#[must_use]
pub fn all(results: &[BenchResult]) -> Vec<Table> {
    vec![
        fig08(results),
        fig09(results),
        fig10(results),
        fig11(results),
        fig12(results),
        fig13(results),
        fig14(results),
        fig15(results),
        fig16(results),
        fig17(results),
        fig18(results),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tiny_serial_sweep;

    fn mini_results() -> Vec<BenchResult> {
        tiny_serial_sweep(&["bzip2", "swim"])
    }

    #[test]
    fn all_figures_render_from_a_mini_sweep() {
        let results = mini_results();
        for table in all(&results) {
            let text = table.to_text();
            assert!(text.contains("=="), "{text}");
            assert!(text.lines().count() > 3, "{text}");
        }
    }

    #[test]
    fn fig17_base_relative_performance_is_positive() {
        let results = mini_results();
        let t = fig17(&results);
        let csv = t.to_csv();
        // Every data row has 4 cells.
        for line in csv.lines().skip(2) {
            assert_eq!(line.split(',').count(), 4, "{line}");
        }
    }

    #[test]
    fn fig18_small_thresholds_cost_less_than_train() {
        let results = mini_results();
        let csv = fig18(&results).to_csv();
        // The first ladder row (threshold 100-equivalent) must be well
        // below the training run's 1.0 for both classes.
        let row: Vec<&str> = csv
            .lines()
            .find(|l| l.starts_with("100,"))
            .expect("ladder row")
            .split(',')
            .collect();
        for cell in &row[1..] {
            if *cell != "-" {
                let v: f64 = cell.parse().unwrap();
                assert!(v < 0.8, "expected cheap profiling, got {v}");
            }
        }
    }
}
