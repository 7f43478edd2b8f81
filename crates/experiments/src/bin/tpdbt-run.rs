//! `tpdbt-run` — run a guest binary (`.tpdb`) or assembly source
//! (`.s`) under the two-phase translator, the interpreter, or any
//! profiling mode; optionally write the profile dump.
//!
//! ```text
//! tpdbt-run FILE [--mode interp|noopt|twophase|continuous|adaptive]
//!                [--backend interp|cached-fused]
//!                [--threshold T]... [--input N,N,...] [--input-file PATH]
//!                [--dump PATH] [--stats] [--suite BENCH --scale S]
//!                [--cache-dir DIR]
//!                [--trace PATH [--trace-format jsonl|chrome]]
//!                [--max-retries N] [--fail-fast] [--watchdog-fuel N]
//!                [--inject SPEC]
//! ```
//!
//! `--trace PATH` attaches a structured-event tracer: the engine
//! reports translations, registrations, counter freezes, and region
//! lifecycle, and counts counter bumps without storing them (in sweep
//! mode, for every threshold's policy of the one guest execution); in
//! sweep mode the orchestrator adds per-cell and store events. The
//! collected events are written to `PATH` on exit (`--trace-format`
//! picks JSONL or a Chrome `trace_event` timeline).
//!
//! With `--suite BENCH`, runs a built-in SPEC2000 analog instead of a
//! file (use `--emit PATH` to write it out as a `.tpdb` binary first).
//!
//! `--backend` picks how translated guest code executes:
//! `cached-fused` (the default) runs blocks decoded once per guest into
//! one specialized micro-op per instruction, and in two-phase and adaptive mode
//! compiles each region to a straight-line guarded trace; `interp`
//! re-decodes each instruction on every execution and walks regions
//! block by block. Results are bitwise identical — only host-side
//! speed differs. (Distinct from `--mode interp`, which bypasses the
//! translator entirely.)
//!
//! Repeating `--threshold` switches to sweep mode (two-phase only): the
//! guest runs once, its `AVEP` and every requested threshold as
//! lockstep policies over that one execution, each `INIP(T)` is
//! analyzed against the guest's own `AVEP`, and
//! with `--cache-dir DIR` both the `AVEP` baseline and every cell are
//! served from the persistent profile store on reruns. Sweep cells are
//! fault isolated (DESIGN.md §9): `--max-retries`/`--fail-fast`/
//! `--watchdog-fuel` tune the policy and `--inject SPEC` arms
//! deterministic fault injection.

use std::sync::Arc;

use tpdbt_dbt::{Dbt, DbtConfig};
use tpdbt_experiments::sweep::{threshold_sweep, SuiteGuest, SweepOptions};
use tpdbt_faults::FaultPlan;
use tpdbt_isa::{asm, binfmt, BuiltProgram};
use tpdbt_profile::text;
use tpdbt_suite::{workload, InputKind, Scale};
use tpdbt_trace::{TraceFormat, Tracer};
use tpdbt_vm::Interpreter;

fn usage() -> ! {
    eprintln!(
        "usage: tpdbt-run FILE|--suite BENCH [--scale tiny|small|paper]\n\
         \u{20}                [--mode interp|noopt|twophase|continuous|adaptive]\n\
         \u{20}                [--backend interp|cached-fused]\n\
         \u{20}                [--threshold T]... [--input N,N,...] [--input-file PATH]\n\
         \u{20}                [--dump PATH] [--emit PATH] [--stats] [--list]\n\
         \u{20}                [--trace PATH [--trace-format jsonl|chrome]]\n\
         \u{20}                [--cache-dir DIR]   (multi-threshold sweep mode)\n\
         \u{20}                [--max-retries N] [--fail-fast] [--watchdog-fuel N] [--inject SPEC]"
    );
    std::process::exit(2)
}

/// Parses the value of `flag`, which must be at least 1: the engine
/// has no zero threshold.
fn at_least_one(flag: &str, value: Option<String>) -> u64 {
    match value.map(|v| v.parse::<u64>()) {
        Some(Ok(n)) if n >= 1 => n,
        Some(Ok(_)) => {
            eprintln!("tpdbt-run: {flag} must be at least 1");
            usage()
        }
        _ => usage(),
    }
}

/// Writes the collected trace (if one was requested) and reports where
/// it went.
fn write_trace(
    tracer: Option<&Arc<Tracer>>,
    path: Option<&str>,
    format: TraceFormat,
) -> tpdbt_experiments::Result<()> {
    if let (Some(tracer), Some(path)) = (tracer, path) {
        tpdbt_trace::export::write_file(tracer, format, path)?;
        eprintln!(
            "trace written to {path} ({} events retained, {} dropped)",
            tracer.len(),
            tracer.dropped()
        );
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn main() -> tpdbt_experiments::Result<()> {
    let mut file: Option<String> = None;
    let mut suite: Option<String> = None;
    let mut scale = Scale::Small;
    let mut mode = "twophase".to_string();
    let mut thresholds: Vec<u64> = Vec::new();
    let mut input: Vec<i64> = Vec::new();
    let mut dump: Option<String> = None;
    let mut emit: Option<String> = None;
    let mut show_stats = false;
    let mut sweep_opts = SweepOptions::default();
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--suite" => suite = Some(args.next().unwrap_or_else(|| usage())),
            "--scale" => {
                let value = args.next().unwrap_or_else(|| usage());
                scale = value.parse().unwrap_or_else(|_| usage());
            }
            "--mode" => mode = args.next().unwrap_or_else(|| usage()),
            "--backend" => {
                let value = args.next().unwrap_or_else(|| usage());
                sweep_opts.backend = value.parse().unwrap_or_else(|e: String| {
                    eprintln!("tpdbt-run: {e}");
                    usage()
                });
            }
            "--threshold" => thresholds.push(at_least_one("--threshold", args.next())),
            "--cache-dir" => {
                sweep_opts.cache_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-format" => trace_format = args.next().unwrap_or_else(|| usage()).parse()?,
            "--max-retries" => {
                sweep_opts.policy.max_retries = args.next().unwrap_or_else(|| usage()).parse()?;
            }
            "--fail-fast" => sweep_opts.policy.fail_fast = true,
            "--watchdog-fuel" => {
                sweep_opts.policy.watchdog_fuel =
                    Some(args.next().unwrap_or_else(|| usage()).parse()?);
            }
            "--inject" => {
                let spec = args.next().unwrap_or_else(|| usage());
                sweep_opts.policy.plan = Some(Arc::new(FaultPlan::parse(&spec)?));
            }
            "--input" => {
                let list = args.next().unwrap_or_else(|| usage());
                for tok in list.split(',').filter(|t| !t.is_empty()) {
                    input.push(tok.trim().parse()?);
                }
            }
            "--input-file" => {
                let path = args.next().unwrap_or_else(|| usage());
                for tok in std::fs::read_to_string(path)?.split_whitespace() {
                    input.push(tok.parse()?);
                }
            }
            "--dump" => dump = Some(args.next().unwrap_or_else(|| usage())),
            "--emit" => emit = Some(args.next().unwrap_or_else(|| usage())),
            "--stats" => show_stats = true,
            "--list" => {
                println!("INT: {}", tpdbt_suite::int_names().join(" "));
                println!("FP:  {}", tpdbt_suite::fp_names().join(" "));
                return Ok(());
            }
            "--help" | "-h" => usage(),
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            _ => usage(),
        }
    }

    let tracer: Option<Arc<Tracer>> = trace_path.as_ref().map(|_| Arc::new(Tracer::new()));

    let (built, guest_name): (BuiltProgram, String) = if let Some(bench) = &suite {
        let w = workload(bench, scale, InputKind::Ref)?;
        if input.is_empty() {
            input = w.input;
        }
        (w.binary, w.name.to_string())
    } else {
        let path = file.ok_or("expected a FILE or --suite BENCH")?;
        let name = std::path::Path::new(&path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("guest")
            .to_string();
        let built = if path.ends_with(".s") || path.ends_with(".asm") {
            asm::parse(&std::fs::read_to_string(&path)?)?
        } else {
            binfmt::read_program(&name, &std::fs::read(&path)?)?
        };
        (built, name)
    };

    if let Some(path) = emit {
        std::fs::write(&path, binfmt::write_program(&built))?;
        eprintln!("emitted {} ({} instructions)", path, built.program.len());
    }

    if mode == "interp" {
        if trace_path.is_some() {
            return Err("--trace applies to translated modes, not --mode interp".into());
        }
        let mut i = Interpreter::new(&built.program, &input);
        i.preload(&built.mem_image, &built.fmem_image);
        let stats = i.run()?;
        println!("{:?}", i.machine().output());
        if show_stats {
            eprintln!(
                "interpreted {} instructions ({} cond branches, {} taken)",
                stats.instructions, stats.cond_branches, stats.taken_branches
            );
        }
        return Ok(());
    }

    if thresholds.len() > 1 {
        if mode != "twophase" {
            return Err("multi-threshold sweep mode requires --mode twophase".into());
        }
        if dump.is_some() {
            return Err("--dump applies to single runs, not sweep mode".into());
        }
        sweep_opts.tracer = tracer.clone();
        // Files have no suite scale; the binary+input fingerprint in
        // the cache key is what actually disambiguates them.
        let guest = SuiteGuest::new(
            &guest_name,
            built,
            input,
            InputKind::Ref,
            suite.is_some().then_some(scale),
        );
        let sweep = threshold_sweep(&guest, &thresholds, &sweep_opts)?;
        let f = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"));
        println!(
            "{:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12} {:>12} {:>7}",
            "T", "Sd.BP", "BP-mis", "Sd.CP", "Sd.LP", "LP-mis", "prof-ops", "cycles", "regions"
        );
        for m in &sweep.per_threshold {
            println!(
                "{:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>12} {:>12} {:>7}",
                m.threshold,
                f(m.sd_bp),
                f(m.bp_mismatch),
                f(m.sd_cp),
                f(m.sd_lp),
                f(m.lp_mismatch),
                m.profiling_ops,
                m.cycles,
                m.regions
            );
        }
        let report = &sweep.report;
        if show_stats || sweep_opts.cache_dir.is_some() {
            eprint!("{}", report.render_stats());
        } else {
            eprint!("{}", report.degraded.render());
        }
        write_trace(tracer.as_ref(), trace_path.as_deref(), trace_format)?;
        if report.degraded.has_failures() {
            std::process::exit(3);
        }
        return Ok(());
    }
    let threshold = thresholds.first().copied().unwrap_or(2_000);

    let config = match mode.as_str() {
        "noopt" => DbtConfig::no_opt(),
        "twophase" => DbtConfig::two_phase(threshold),
        "continuous" => DbtConfig::continuous(threshold),
        "adaptive" => DbtConfig::adaptive(threshold),
        _ => usage(),
    };
    let mut dbt = Dbt::new(config.with_backend(sweep_opts.backend));
    if let Some(t) = &tracer {
        dbt = dbt.with_tracer(Arc::clone(t));
    }
    let out = dbt.run_built(&built, &input)?;
    println!("{:?}", out.output);
    if show_stats {
        eprintln!(
            "mode {mode} T={threshold}: {} instructions, {} cycles, {} regions, \
             {} side exits, {} completions, {} retirements",
            out.stats.instructions,
            out.stats.cycles,
            out.stats.regions_formed,
            out.stats.side_exits,
            out.stats.completions,
            out.stats.retirements,
        );
    }
    if let Some(path) = dump {
        std::fs::write(&path, text::inip_to_string(&out.inip))?;
        eprintln!("dump written to {path}");
    }
    write_trace(tracer.as_ref(), trace_path.as_deref(), trace_format)?;
    Ok(())
}
