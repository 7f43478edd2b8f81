//! `reproduce` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! reproduce [--scale tiny|small|paper] [--out DIR] [--jobs N]
//!           [--backend interp|cached-fused]
//!           [--cache-dir DIR] [--bench NAME]...
//!           [--trace PATH [--trace-format jsonl|chrome]]
//!           [--max-retries N] [--fail-fast] [--watchdog-fuel N]
//!           [--inject SPEC] [FIGURE...]
//! ```
//!
//! `FIGURE` is any of `fig8` … `fig18` or `all` (default), or one of
//! the `ext-*` extension studies listed by `--help`; an unknown target
//! exits 2 with usage. Tables print to stdout; with `--out DIR`, each
//! table is also written as CSV.
//! `--jobs N` fans the sweep out over a worker pool; `--backend`
//! selects the guest execution backend (default `cached-fused`, the
//! translation cache with trace-compiled regions; `interp` is
//! the reference interpreter — both produce bitwise-identical
//! figures);
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
//! stalling the pool. `--inject` arms deterministic fault injection,
//! e.g. `--inject worker_panic:0,store_corrupt:1` or
//! `--inject seed=7,rate=5` (rate per mille, at most 1000). Exit
//! status: 0 for a clean (possibly retried) run, 1 when an extension
//! study or the sweep fails, 2 for a usage error, 3 when cells failed
//! and were dropped.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use tpdbt_experiments::runner::BenchResult;
use tpdbt_experiments::sweep::{run_sweep, SweepOptions};
use tpdbt_experiments::table::Table;
use tpdbt_experiments::{extensions, figures};
use tpdbt_faults::FaultPlan;
use tpdbt_suite::{all_names, fp_names, int_names, Scale};
use tpdbt_trace::{TraceFormat, Tracer};

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--scale tiny|small|paper] [--out DIR] [--jobs N]\n\
         \u{20}                [--backend interp|cached-fused]\n\
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
         \u{20}        ext-backend          — trace-compiled backend speedup vs Sd.BP accuracy\n\
         Regenerates the tables/figures of 'The Accuracy of Initial Prediction in\n\
         Two-Phase Dynamic Binary Translators' (CGO 2004). Default: all figures at\n\
         small scale."
    );
    std::process::exit(2)
}

/// One extension study: `(benchmarks, scale) -> table`.
type Extension = fn(&[&str], Scale) -> tpdbt_experiments::Result<Table>;

/// The extension studies, by target name. Each drives its own sweeps.
const EXTENSIONS: [(&str, Extension); 8] = [
    ("ext-train-regions", |names, scale| {
        extensions::train_regions(names, scale, 2_000)
    }),
    ("ext-continuous", |names, scale| {
        extensions::continuous_study(names, scale, 2_000)
    }),
    ("ext-adaptive", |names, scale| {
        extensions::adaptive_study(names, scale, 2_000)
    }),
    ("ext-diagnose", |names, scale| {
        extensions::diagnose_suite(names, scale, 2_000)
    }),
    ("ext-thresholds", |names, scale| {
        extensions::threshold_selection(names, scale)
    }),
    ("ext-phases", |names, scale| {
        extensions::phase_census(names, scale)
    }),
    ("ext-static", |names, scale| {
        extensions::static_baseline(names, scale, 2_000)
    }),
    ("ext-backend", |names, scale| {
        extensions::backend_study(names, scale, 2_000)
    }),
];

/// One paper figure, rendered from the sweep's results.
type Figure = fn(&[BenchResult]) -> Table;

/// The paper's figures, by CSV name.
const FIGURES: [(&str, Figure); 11] = [
    ("fig08", figures::fig08),
    ("fig09", figures::fig09),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("fig16", figures::fig16),
    ("fig17", figures::fig17),
    ("fig18", figures::fig18),
];

/// Resolves a command-line target to its canonical name (`fig8` and
/// `fig08` alike name `fig08`), or `None` when no such target exists.
fn canonical_target(target: &str) -> Option<&'static str> {
    if target == "all" {
        return Some("all");
    }
    FIGURES
        .iter()
        .map(|&(name, _)| name)
        .chain(EXTENSIONS.iter().map(|&(name, _)| name))
        .find(|name| *name == target || name.replacen("fig0", "fig", 1) == target)
}

fn main() {
    let mut scale = Scale::Small;
    let mut out_dir: Option<String> = None;
    let mut figures_wanted: Vec<&str> = Vec::new();
    let mut only: Vec<String> = Vec::new();
    let mut sweep_opts = SweepOptions::default();
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_else(|| usage());
                scale = value.parse().unwrap_or_else(|_| usage());
            }
            "--out" => out_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--bench" => {
                let name = args.next().unwrap_or_else(|| usage());
                if !all_names().contains(&name.as_str()) {
                    eprintln!("reproduce: unknown benchmark `{name}`");
                    usage()
                }
                only.push(name);
            }
            "--jobs" => {
                sweep_opts.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--cache-dir" => {
                sweep_opts.cache_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--backend" => {
                let value = args.next().unwrap_or_else(|| usage());
                sweep_opts.backend = value.parse().unwrap_or_else(|e: String| {
                    eprintln!("reproduce: {e}");
                    usage()
                });
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
            f if !f.starts_with('-') => match canonical_target(f) {
                Some(target) => figures_wanted.push(target),
                None => {
                    eprintln!("reproduce: unknown target `{f}`");
                    usage()
                }
            },
            _ => usage(),
        }
    }
    if figures_wanted.is_empty() {
        figures_wanted.push("all");
    }
    if trace_path.is_some() {
        sweep_opts.tracer = Some(Arc::new(Tracer::new()));
    }

    // Extensions run standalone (they drive their own sweeps).
    let studies: Vec<(&str, Extension)> = figures_wanted
        .iter()
        .filter_map(|&f| EXTENSIONS.iter().find(|&&(name, _)| name == f).copied())
        .collect();
    figures_wanted.retain(|f| !f.starts_with("ext-"));
    if !studies.is_empty() {
        eprintln!(
            "running {} extension studies at {scale:?} scale...",
            studies.len()
        );
        let names = all_names();
        let mut failed = false;
        for (name, study) in studies {
            let table = match study(&names, scale) {
                Ok(table) => table,
                Err(e) => {
                    eprintln!("{name} failed: {e}");
                    failed = true;
                    continue;
                }
            };
            println!("{}", table.to_text());
            if let Some(dir) = &out_dir {
                if let Err(e) = write_csv(dir, name, &table) {
                    eprintln!("warning: could not write {name}.csv: {e}");
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        if figures_wanted.is_empty() {
            return;
        }
    }

    // Figures 9/11/16 need only INT; 12 only FP; everything else both.
    let need_int = figures_wanted.iter().any(|&f| f != "fig12");
    let need_fp = figures_wanted
        .iter()
        .any(|&f| !matches!(f, "fig09" | "fig11" | "fig16"));
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

/// The tables of figure target `which` (`all` or a canonical name).
fn select(which: &str, results: &[BenchResult]) -> Vec<(String, Table)> {
    FIGURES
        .iter()
        .filter(|&&(name, _)| which == "all" || which == name)
        .map(|&(name, figure)| (name.to_string(), figure(results)))
        .collect()
}

fn write_csv(dir: &str, name: &str, table: &Table) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(format!("{name}.csv"));
    let mut f = std::fs::File::create(path)?;
    f.write_all(table.to_csv().as_bytes())
}
