//! Threshold tuning: the paper's Figure 17 trade-off on one workload.
//!
//! Optimizing too early (T = 1) wastes optimization cycles on regions
//! built from one-sample probabilities; optimizing too late leaves the
//! program running unoptimized code. This example sweeps the threshold
//! on a single workload, prints simulated cycles and region statistics,
//! and reports the sweet spot — the per-benchmark tuning the paper's
//! §5 proposes as future work.
//!
//! ```text
//! cargo run --release --example threshold_tuning
//! ```

use tpdbt::dbt::{CostModel, Dbt, DbtConfig};
use tpdbt::suite::{workload, InputKind, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload("perlbmk", Scale::Small, InputKind::Ref)?;
    let base = Dbt::new(DbtConfig::two_phase(1)).run_built(&w.binary, &w.input)?;
    let base = CostModel::DEFAULT.price(&base.stats);
    println!("perlbmk analog — base (T=1): {base} cycles");
    println!("      T     cycles  rel.perf  regions  side-exits  completions");

    let mut best = (1u64, 1.0f64);
    for t in [
        1u64, 5, 20, 50, 200, 500, 2_000, 8_000, 30_000, 120_000, 500_000,
    ] {
        let out = Dbt::new(DbtConfig::two_phase(t)).run_built(&w.binary, &w.input)?;
        let cycles = CostModel::DEFAULT.price(&out.stats);
        let rel = base as f64 / cycles as f64;
        println!(
            "{t:>7}  {cycles:>9}     {rel:.3}   {:>6}  {:>10}  {:>11}",
            out.stats.regions_formed, out.stats.side_exits, out.stats.completions
        );
        if rel > best.1 {
            best = (t, rel);
        }
    }
    println!(
        "\nbest threshold: T = {} ({:+.1}% over the optimize-everything base) — \
         the paper finds the INT sweet spot at 1k–5k with Perlbmk the most \
         threshold-sensitive benchmark",
        best.0,
        (best.1 - 1.0) * 100.0
    );
    Ok(())
}
