//! `reproduce` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! reproduce [--scale tiny|small|paper] [--out DIR] [--jobs N]
//!           [--backend interp|cached-fused] [--opt-mode sync|async]
//!           [--cache-dir DIR] [--fleet-seed DIR]
//!           [--trace PATH [--trace-format jsonl|chrome]]
//!           [--max-retries N] [--fail-fast] [--watchdog-fuel N]
//!           [--inject SPEC] [FIGURE...]
//! ```
//!
//! `FIGURE` is any of `fig8` … `fig18` or `all` (default). Tables print
//! to stdout; with `--out DIR`, each table is also written as CSV.
//! `--jobs N` fans the sweep out over a worker pool; `--backend`
//! selects the guest execution backend (default `cached-fused`, the
//! fused translation cache with trace-compiled regions; `interp` is
//! the reference interpreter — both produce bitwise-identical
//! figures);
//! `--opt-mode` selects optimization scheduling (default `sync`, which
//! reproduces every figure byte-for-byte; `async` installs each region
//! a fixed number of guest instructions after its trigger — guest
//! outputs are identical but profiles freeze later, so async cells use
//! their own cache slots);
//! `--cache-dir DIR` persists profiles so identical reruns skip guest
//! execution.
//! `--trace PATH` attaches a structured-event tracer to the sweep, the
//! store, and every engine run, writing the collected events to `PATH`
//! (JSONL by default, or a Chrome `trace_event` timeline).
//!
//! The sweep is fault tolerant (DESIGN.md §9): a failed cell is
//! retried (`--max-retries`, default 2) when the cause is retryable and
//! otherwise dropped, with the damage reported at the end of the run —
//! `--fail-fast` aborts on the first failure instead. `--watchdog-fuel`
//! caps each guest's fuel budget so a runaway cell traps instead of
//! stalling the pool. `--inject` arms deterministic fault injection
//! (builds with the `fault-injection` feature only), e.g.
//! `--inject worker_panic:0,store_corrupt:1` or
//! `--inject seed=7,rate=5`. Exit status: 0 for a clean (possibly
//! retried) run, 3 when cells failed and were dropped.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use tpdbt_experiments::figures;
use tpdbt_experiments::runner::BenchResult;
use tpdbt_experiments::sweep::{run_sweep, SweepOptions};
use tpdbt_experiments::table::Table;
use tpdbt_faults::FaultPlan;
use tpdbt_suite::{all_names, fp_names, int_names, Scale};
use tpdbt_trace::{TraceFormat, Tracer};

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--scale tiny|small|paper] [--out DIR] [--jobs N]\n\
         \u{20}                [--backend interp|cached-fused] [--opt-mode sync|async]\n\
         \u{20}                [--cache-dir DIR] [--bench NAME]...\n\
         \u{20}                [--trace PATH [--trace-format jsonl|chrome]]\n\
         \u{20}                [--max-retries N] [--fail-fast] [--watchdog-fuel N]\n\
         \u{20}                [--inject SPEC] [TARGET...]\n\
         TARGET: fig8..fig18 | all   — the paper's figures\n\
         \u{20}        ext-train-regions    — Sd.CP(train)/Sd.LP(train) via offline regions (§5.3)\n\
         \u{20}        ext-continuous       — continuous vs two-phase profiling (§5)\n\
         \u{20}        ext-adaptive         — side-exit-triggered retranslation (§5)\n\
         \u{20}        ext-diagnose         — mis-prediction characterization (§5.1)\n\
         \u{20}        ext-thresholds       — per-benchmark threshold selection (§5.2)\n\
         \u{20}        ext-phases           — phase census via interval profiling\n\
         \u{20}        ext-static           — Wu-Larus static prediction baseline\n\
         \u{20}        ext-async            — asynchronous optimization drift (Sd.IP)\n\
         \u{20}        ext-backend          — trace-compiled backend speedup vs Sd.BP accuracy\n\
         \u{20}        ext-transfer         — INIP(transfer) vs INIP(train) over transfer pairs\n\
         \u{20}--fleet-seed DIR seeds INIP(train) from the fleet consensus store in DIR\n\
         Regenerates the tables/figures of 'The Accuracy of Initial Prediction in\n\
         Two-Phase Dynamic Binary Translators' (CGO 2004). Default: all figures at\n\
         small scale."
    );
    std::process::exit(2)
}

fn run_extensions(
    wanted: &[String],
    scale: Scale,
    jobs: usize,
    out_dir: Option<&str>,
) -> Vec<(String, Table)> {
    let names = all_names();
    let mut out = Vec::new();
    for w in wanted {
        let result = match w.as_str() {
            "ext-train-regions" => {
                tpdbt_experiments::extensions::train_regions(&names, scale, 2_000)
            }
            "ext-continuous" => {
                tpdbt_experiments::extensions::continuous_study(&names, scale, 2_000)
            }
            "ext-adaptive" => tpdbt_experiments::extensions::adaptive_study(&names, scale, 2_000),
            "ext-diagnose" => tpdbt_experiments::extensions::diagnose_suite(&names, scale, 2_000),
            "ext-thresholds" => tpdbt_experiments::extensions::threshold_selection(&names, scale),
            "ext-phases" => tpdbt_experiments::extensions::phase_census(&names, scale),
            "ext-static" => tpdbt_experiments::extensions::static_baseline(&names, scale, 2_000),
            "ext-async" => tpdbt_experiments::extensions::async_drift(&names, scale, 2_000),
            "ext-backend" => tpdbt_experiments::extensions::backend_study(&names, scale, 2_000),
            "ext-transfer" => tpdbt_experiments::extensions::transfer_study(scale, jobs),
            _ => continue,
        };
        match result {
            Ok(table) => out.push((w.clone(), table)),
            Err(e) => eprintln!("{w} failed: {e}"),
        }
    }
    let _ = out_dir;
    out
}

fn main() {
    let mut scale = Scale::Small;
    let mut out_dir: Option<String> = None;
    let mut figures_wanted: Vec<String> = Vec::new();
    let mut only: Vec<String> = Vec::new();
    let mut sweep_opts = SweepOptions::default();
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("tiny") => Scale::Tiny,
                    Some("small") => Scale::Small,
                    Some("paper") => Scale::Paper,
                    _ => usage(),
                }
            }
            "--out" => out_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--bench" => only.push(args.next().unwrap_or_else(|| usage())),
            "--jobs" => {
                sweep_opts.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--cache-dir" => {
                sweep_opts.cache_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--fleet-seed" => {
                sweep_opts.fleet_seed = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--backend" => {
                let value = args.next().unwrap_or_else(|| usage());
                sweep_opts.backend = value.parse().unwrap_or_else(|e: String| {
                    eprintln!("reproduce: {e}");
                    usage()
                });
            }
            "--opt-mode" => {
                sweep_opts.opt_mode = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-format" => {
                trace_format = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--max-retries" => {
                sweep_opts.policy.max_retries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--fail-fast" => sweep_opts.policy.fail_fast = true,
            "--watchdog-fuel" => {
                sweep_opts.policy.watchdog_fuel = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--inject" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match FaultPlan::parse(&spec) {
                    Ok(plan) => sweep_opts.policy.plan = Some(Arc::new(plan)),
                    Err(e) => {
                        eprintln!("--inject {spec}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => usage(),
            f if f.starts_with("fig") || f.starts_with("ext-") || f == "all" => {
                figures_wanted.push(f.to_string());
            }
            _ => usage(),
        }
    }
    if figures_wanted.is_empty() {
        figures_wanted.push("all".to_string());
    }
    if trace_path.is_some() {
        sweep_opts.tracer = Some(Arc::new(Tracer::new()));
    }

    // Extensions run standalone (they drive their own sweeps).
    let extension_targets: Vec<String> = figures_wanted
        .iter()
        .filter(|f| f.starts_with("ext-"))
        .cloned()
        .collect();
    figures_wanted.retain(|f| !f.starts_with("ext-"));
    if !extension_targets.is_empty() {
        eprintln!(
            "running {} extension studies at {scale:?} scale...",
            extension_targets.len()
        );
        for (name, table) in run_extensions(
            &extension_targets,
            scale,
            sweep_opts.jobs.max(1),
            out_dir.as_deref(),
        ) {
            println!("{}", table.to_text());
            if let Some(dir) = &out_dir {
                if let Err(e) = write_csv(dir, &name, &table) {
                    eprintln!("warning: could not write {name}.csv: {e}");
                }
            }
        }
        if figures_wanted.is_empty() {
            return;
        }
    }

    // Figures 9/11/16 need only INT; 12 only FP; everything else both.
    let need_int = figures_wanted.iter().any(|f| f != "fig12");
    let need_fp = figures_wanted
        .iter()
        .any(|f| !matches!(f.as_str(), "fig9" | "fig11" | "fig16"));
    let mut names: Vec<&str> = Vec::new();
    if need_int {
        names.extend(int_names());
    }
    if need_fp {
        names.extend(fp_names());
    }
    if names.len() == all_names().len() {
        names = all_names();
    }
    if !only.is_empty() {
        // The fleet-study families sit outside the paper's 26 but are
        // sweepable when named explicitly (CI's fleet smoke does).
        for extra in tpdbt_suite::fleet_names() {
            if only.iter().any(|o| o == extra) {
                names.push(extra);
            }
        }
        names.retain(|n| only.iter().any(|o| o == n));
        if names.is_empty() {
            eprintln!("--bench filter matched nothing (see tpdbt_suite::all_names)");
            std::process::exit(2);
        }
    }

    eprintln!(
        "sweeping {} benchmarks at {scale:?} scale ({} job(s){})...",
        names.len(),
        sweep_opts.jobs.max(1),
        sweep_opts
            .cache_dir
            .as_deref()
            .map_or_else(String::new, |d| format!(", cache {}", d.display()))
    );
    let t0 = Instant::now();
    let report = match run_sweep(&names, scale, &sweep_opts, |name| {
        eprintln!("  [{:>6.1}s] {name}", t0.elapsed().as_secs_f64());
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };
    if sweep_opts.cache_dir.is_some() || sweep_opts.tracer.is_some() {
        eprint!("{}", report.render_stats());
    } else {
        eprintln!(
            "sweep complete in {:.1}s ({} guest runs)",
            report.elapsed.as_secs_f64(),
            report.guest_runs
        );
        // render_stats includes this; print it in the terse path too so
        // degradation is never silent.
        eprint!("{}", report.degraded.render());
    }
    if let (Some(path), Some(tracer)) = (&trace_path, &sweep_opts.tracer) {
        match tpdbt_trace::export::write_file(tracer, trace_format, path) {
            Ok(()) => eprintln!(
                "trace written to {path} ({} events retained, {} dropped)",
                tracer.len(),
                tracer.dropped()
            ),
            Err(e) => eprintln!("warning: could not write trace to {path}: {e}"),
        }
    }
    let degraded = report.degraded.has_failures();
    let results = report.results;

    let selected: Vec<(String, Table)> = figures_wanted
        .iter()
        .flat_map(|f| select(f, &results))
        .collect();
    for (name, table) in &selected {
        println!("{}", table.to_text());
        if let Some(dir) = &out_dir {
            if let Err(e) = write_csv(dir, name, table) {
                eprintln!("warning: could not write {name}.csv: {e}");
            }
        }
    }
    if degraded {
        // Cells were dropped: the figures above are incomplete.
        std::process::exit(3);
    }
}

fn select(which: &str, results: &[BenchResult]) -> Vec<(String, Table)> {
    match which {
        "all" => vec![
            ("fig08".into(), figures::fig08(results)),
            ("fig09".into(), figures::fig09(results)),
            ("fig10".into(), figures::fig10(results)),
            ("fig11".into(), figures::fig11(results)),
            ("fig12".into(), figures::fig12(results)),
            ("fig13".into(), figures::fig13(results)),
            ("fig14".into(), figures::fig14(results)),
            ("fig15".into(), figures::fig15(results)),
            ("fig16".into(), figures::fig16(results)),
            ("fig17".into(), figures::fig17(results)),
            ("fig18".into(), figures::fig18(results)),
        ],
        "fig8" | "fig08" => vec![("fig08".into(), figures::fig08(results))],
        "fig9" | "fig09" => vec![("fig09".into(), figures::fig09(results))],
        "fig10" => vec![("fig10".into(), figures::fig10(results))],
        "fig11" => vec![("fig11".into(), figures::fig11(results))],
        "fig12" => vec![("fig12".into(), figures::fig12(results))],
        "fig13" => vec![("fig13".into(), figures::fig13(results))],
        "fig14" => vec![("fig14".into(), figures::fig14(results))],
        "fig15" => vec![("fig15".into(), figures::fig15(results))],
        "fig16" => vec![("fig16".into(), figures::fig16(results))],
        "fig17" => vec![("fig17".into(), figures::fig17(results))],
        "fig18" => vec![("fig18".into(), figures::fig18(results))],
        other => {
            eprintln!("unknown figure `{other}`");
            vec![]
        }
    }
}

fn write_csv(dir: &str, name: &str, table: &Table) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(format!("{name}.csv"));
    let mut f = std::fs::File::create(path)?;
    f.write_all(table.to_csv().as_bytes())
}
