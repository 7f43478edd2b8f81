//! `tpdbt-analyze` — the paper's offline analysis tool: read dump files
//! produced by `tpdbt-dump` (or any tool emitting the text format) and
//! print the §2 metrics.
//!
//! ```text
//! tpdbt-analyze INIP_FILE... AVEP_FILE [--train TRAIN_FILE] [--diagnose N]
//!               [--phases INTERVALS_FILE] [--eps E] [--jobs N]
//!               [--trace PATH [--trace-format jsonl|chrome]]
//! ```
//!
//! With several `INIP_FILE`s (the last positional is always the `AVEP`
//! reference), each is analyzed on a `--jobs N` worker pool and the
//! reports print in argument order; `--diagnose`/`--phases` apply to
//! single-file analysis only. A profile store is checked by
//! `tpdbt-fsck DIR`, not here. `--trace PATH` records one timed
//! `cell_committed` event per analyzed dump (plus start/queue markers),
//! exported like the engine and sweep traces.

use std::sync::Arc;
use std::time::Instant;

use tpdbt_experiments::sweep::parallel_map;
use tpdbt_profile::report::{analyze, analyze_train, ThresholdMetrics};
use tpdbt_profile::{diagnose, navep, phases, text};
use tpdbt_trace::{EventKind, TraceFormat, Tracer};

fn usage() -> ! {
    eprintln!(
        "usage: tpdbt-analyze INIP_FILE... AVEP_FILE [--train TRAIN_FILE] [--diagnose N] \\\n       [--phases INTERVALS_FILE] [--eps E] [--jobs N] \\\n       [--trace PATH [--trace-format jsonl|chrome]]\n(to check a profile store, run tpdbt-fsck DIR)"
    );
    std::process::exit(2)
}

fn fmt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"))
}

fn print_metrics(m: &ThresholdMetrics) {
    println!("INIP(T={}) vs AVEP ({} regions):", m.threshold, m.regions);
    println!("  Sd.BP       = {}", fmt(m.sd_bp));
    println!("  BP mismatch = {}", fmt(m.bp_mismatch));
    println!("  Sd.CP       = {}", fmt(m.sd_cp));
    println!("  Sd.LP       = {}", fmt(m.sd_lp));
    println!("  LP mismatch = {}", fmt(m.lp_mismatch));
    println!("  profiling ops = {}", m.profiling_ops);
    println!("  cycles        = {}", m.cycles);
}

fn main() -> tpdbt_experiments::Result<()> {
    let mut positional: Vec<String> = Vec::new();
    let mut train_path: Option<String> = None;
    let mut diagnose_n: usize = 0;
    let mut phases_path: Option<String> = None;
    let mut eps = 0.1f64;
    let mut jobs = 1usize;
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--train" => train_path = Some(args.next().unwrap_or_else(|| usage())),
            "--diagnose" => {
                diagnose_n = args.next().unwrap_or_else(|| usage()).parse()?;
            }
            "--phases" => phases_path = Some(args.next().unwrap_or_else(|| usage())),
            "--eps" => eps = args.next().unwrap_or_else(|| usage()).parse()?,
            "--jobs" => jobs = args.next().unwrap_or_else(|| usage()).parse()?,
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-format" => trace_format = args.next().unwrap_or_else(|| usage()).parse()?,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => positional.push(other.to_string()),
            _ => usage(),
        }
    }
    if positional.len() < 2 {
        usage()
    }
    let avep_path = positional.pop().expect("checked non-empty");
    let inip_paths = positional;
    let tracer: Option<Arc<Tracer>> = trace_path.as_ref().map(|_| Arc::new(Tracer::new()));

    let avep = text::plain_from_str(&std::fs::read_to_string(&avep_path)?)?;
    if inip_paths.len() > 1 && (diagnose_n > 0 || phases_path.is_some()) {
        return Err("--diagnose/--phases apply to a single INIP file".into());
    }

    // Analyze every INIP dump (worker pool), then print in order. With
    // a tracer, each file becomes one timed analysis cell.
    if let Some(t) = &tracer {
        for path in &inip_paths {
            t.emit(EventKind::CellQueued {
                bench: path.clone(),
                label: "analyze".to_string(),
            });
        }
    }
    let analyses = parallel_map(jobs.max(1), &inip_paths, |_, path| {
        if let Some(t) = &tracer {
            t.emit(EventKind::CellStarted {
                bench: path.clone(),
                label: "analyze".to_string(),
            });
        }
        let t0 = Instant::now();
        let inip = text::inip_from_str(&std::fs::read_to_string(path)?)?;
        let m = analyze(&inip, &avep)?;
        if let Some(t) = &tracer {
            t.emit(EventKind::CellCommitted {
                bench: path.clone(),
                label: "analyze".to_string(),
                micros: u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
            });
        }
        tpdbt_experiments::Result::Ok((inip, m))
    });

    for (path, res) in inip_paths.iter().zip(analyses) {
        let (inip, m) = res.map_err(|e| format!("{path}: {e}"))?;
        if inip_paths.len() > 1 {
            println!("== {path} ==");
        }
        print_metrics(&m);

        if let Some(tp) = &train_path {
            let train = text::plain_from_str(&std::fs::read_to_string(tp)?)?;
            let tm = analyze_train(&train, &avep);
            println!("INIP(train) vs AVEP:");
            println!("  Sd.BP(train)       = {}", fmt(tm.sd_bp));
            println!("  BP mismatch(train) = {}", fmt(tm.bp_mismatch));
            println!(
                "  profiling ops: INIP(T)/train = {:.4}",
                m.profiling_ops as f64 / tm.profiling_ops.max(1) as f64
            );
        }

        if diagnose_n > 0 {
            let nav = navep::normalize(&inip, &avep)?;
            let diags = diagnose::diagnose_branches(&inip, &avep, &nav);
            println!("worst-predicted branches (top {diagnose_n}):");
            println!(
                "  {:>8}  {:>9} {:>8} {:>10} {:>13} range?",
                "pc", "predicted", "actual", "weight", "contribution"
            );
            for d in diags.iter().take(diagnose_n) {
                println!(
                    "  {:>8}  {:>9.3} {:>8.3} {:>10.0} {:>13.1} {}",
                    d.pc,
                    d.predicted,
                    d.actual,
                    d.weight,
                    d.contribution,
                    if d.range_mismatch { "CROSSES" } else { "" }
                );
            }
            let watch = diagnose::select_for_continuous_profiling(&diags, 0.9);
            println!("continuous-profiling watch set (90% of deviation mass): {watch:?}");
            let zero_weight = tpdbt_profile::metrics::zero_weight_regions(&inip, &nav);
            if !zero_weight.is_empty() {
                println!(
                    "regions with zero NAVEP entry weight (excluded from Sd.CP/Sd.LP): \
                     {zero_weight:?}"
                );
            }
            let regions = diagnose::diagnose_regions(&inip, &avep, &nav);
            println!("region diagnoses (worst {diagnose_n}):");
            for d in regions.iter().take(diagnose_n) {
                println!(
                    "  region {:>3} ({:?}) entry@{}: predicted {:.4} actual {:.4} weight {:.0}",
                    d.region,
                    d.kind,
                    inip.regions[d.region].entry_pc(),
                    d.predicted,
                    d.actual,
                    d.weight
                );
            }
        }
    }
    if let Some(path) = phases_path {
        let intervals = text::intervals_from_str(&std::fs::read_to_string(&path)?)?;
        let detected = phases::detect_phases(&intervals, eps);
        println!(
            "phase detection ({} intervals, eps {eps}): {} phase(s)",
            intervals.len(),
            detected.len()
        );
        for (i, ph) in detected.iter().enumerate() {
            println!(
                "  phase {i}: intervals {}..{} (ends at {} instructions, {} hot branches)",
                ph.start,
                ph.end,
                ph.end_instructions,
                ph.centroid.len()
            );
        }
    }
    if let (Some(t), Some(p)) = (&tracer, &trace_path) {
        tpdbt_trace::export::write_file(t, trace_format, p)?;
        eprintln!(
            "trace written to {p} ({} events retained, {} dropped)",
            t.len(),
            t.dropped()
        );
    }
    Ok(())
}
