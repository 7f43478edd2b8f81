//! `tpdbt-dump` — produce profile dump files for a benchmark, mirroring
//! the paper's methodology of collecting `INIP(T)`, `AVEP`, and
//! `INIP(train)` "into files" for offline analysis.
//!
//! ```text
//! tpdbt-dump BENCH DIR [--scale tiny|small|paper] [--threshold T]...
//!            [--intervals N] [--cache-dir DIR]
//!            [--trace PATH [--trace-format jsonl|chrome]]
//!            [--max-retries N] [--watchdog-fuel N] [--inject SPEC]
//! ```
//!
//! Writes `DIR/BENCH.avep`, `DIR/BENCH.train`, and one
//! `DIR/BENCH.inip.<T>` per requested threshold; with `--intervals N`,
//! also `DIR/BENCH.intervals` (an interval profile every N dynamic
//! instructions, for phase detection). Analyze them with
//! `tpdbt-analyze`.
//!
//! The `INIP(T)` ladder is one guest execution feeding every
//! threshold's translation policy ([`Lockstep`]), so there is no
//! `--jobs`. `--cache-dir DIR` serves the `AVEP` and `INIP(train)`
//! baselines from the persistent profile store on reruns (`INIP(T)`
//! dumps carry full region structure, which the store does not retain,
//! so they always execute; with `--intervals` the baselines also always
//! execute).
//! The cached baseline runs honor the fault-tolerance policy
//! (DESIGN.md §9): `--max-retries`/`--watchdog-fuel` tune it and
//! `--inject SPEC` arms deterministic fault injection.

use std::path::Path;
use std::sync::Arc;

use tpdbt_dbt::{Dbt, DbtConfig, Lockstep};
use tpdbt_experiments::sweep::{plain_profile_run, SuiteGuest, SweepOptions};
use tpdbt_faults::FaultPlan;
use tpdbt_profile::{text, PlainProfile};
use tpdbt_suite::{InputKind, Scale};
use tpdbt_trace::{TraceFormat, Tracer};

fn usage() -> ! {
    eprintln!(
        "usage: tpdbt-dump BENCH DIR [--scale tiny|small|paper] [--threshold T]...\n\
         \u{20}                 [--intervals N] [--cache-dir DIR]\n\
         \u{20}                 [--trace PATH [--trace-format jsonl|chrome]]\n\
         \u{20}                 [--max-retries N] [--watchdog-fuel N] [--inject SPEC]"
    );
    std::process::exit(2)
}

/// Parses the value of `flag`, which must be at least 1: the engine
/// has no zero threshold or interval.
fn at_least_one(flag: &str, value: Option<String>) -> u64 {
    match value.map(|v| v.parse::<u64>()) {
        Some(Ok(n)) if n >= 1 => n,
        Some(Ok(_)) => {
            eprintln!("tpdbt-dump: {flag} must be at least 1");
            usage()
        }
        _ => usage(),
    }
}

fn main() -> tpdbt_experiments::Result<()> {
    let mut args = std::env::args().skip(1);
    let bench = args.next().unwrap_or_else(|| usage());
    let dir = args.next().unwrap_or_else(|| usage());
    let mut scale = Scale::Small;
    let mut thresholds: Vec<u64> = Vec::new();
    let mut interval: Option<u64> = None;
    let mut sweep_opts = SweepOptions::default();
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_else(|| usage());
                scale = value.parse().unwrap_or_else(|_| usage());
            }
            "--threshold" => thresholds.push(at_least_one("--threshold", args.next())),
            "--intervals" => interval = Some(at_least_one("--intervals", args.next())),
            "--cache-dir" => {
                sweep_opts.cache_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-format" => trace_format = args.next().unwrap_or_else(|| usage()).parse()?,
            "--max-retries" => {
                sweep_opts.policy.max_retries = args.next().unwrap_or_else(|| usage()).parse()?;
            }
            "--watchdog-fuel" => {
                sweep_opts.policy.watchdog_fuel =
                    Some(args.next().unwrap_or_else(|| usage()).parse()?);
            }
            "--inject" => {
                let spec = args.next().unwrap_or_else(|| usage());
                sweep_opts.policy.plan = Some(Arc::new(FaultPlan::parse(&spec)?));
            }
            _ => usage(),
        }
    }
    let tracer: Option<Arc<Tracer>> = trace_path.as_ref().map(|_| Arc::new(Tracer::new()));
    sweep_opts.tracer = tracer.clone();
    if thresholds.is_empty() {
        thresholds.push(2_000 / scale.divisor() as u64);
    }
    std::fs::create_dir_all(&dir)?;
    let dir = Path::new(&dir);

    let reference = SuiteGuest::build(&bench, scale, InputKind::Ref)?;
    let training = SuiteGuest::build(&bench, scale, InputKind::Train)?;

    // Interval snapshots aren't retained by the store, so a profile
    // with `--intervals` always runs fresh.
    let avep_profile: PlainProfile = if let Some(n) = interval {
        let mut dbt = Dbt::new(DbtConfig::no_opt().with_interval(n));
        if let Some(t) = &tracer {
            dbt = dbt.with_tracer(Arc::clone(t));
        }
        let avep = dbt.run_built(reference.binary(), reference.input())?;
        std::fs::write(
            dir.join(format!("{bench}.intervals")),
            text::intervals_to_string(&avep.intervals),
        )?;
        println!(
            "wrote {bench}.intervals ({} intervals)",
            avep.intervals.len()
        );
        avep.as_plain_profile()
    } else {
        let (art, hit) = plain_profile_run(&reference, &sweep_opts)?;
        if hit {
            eprintln!("{bench}.avep served from cache");
        }
        art.profile
    };
    std::fs::write(
        dir.join(format!("{bench}.avep")),
        text::plain_to_string(&avep_profile),
    )?;
    println!("wrote {bench}.avep ({} blocks)", avep_profile.blocks.len());

    let (train_art, train_hit) = plain_profile_run(&training, &sweep_opts)?;
    if train_hit {
        eprintln!("{bench}.train served from cache");
    }
    std::fs::write(
        dir.join(format!("{bench}.train")),
        text::plain_to_string(&train_art.profile),
    )?;
    println!(
        "wrote {bench}.train ({} blocks)",
        train_art.profile.blocks.len()
    );

    let configs = thresholds.iter().map(|&t| DbtConfig::two_phase(t));
    let mut ladder = Lockstep::new(configs.collect());
    if let Some(t) = &tracer {
        ladder = ladder.with_tracer(Arc::clone(t));
    }
    let dumps = ladder.run_built(reference.binary(), reference.input())?;
    for (&t, out) in thresholds.iter().zip(&dumps) {
        std::fs::write(
            dir.join(format!("{bench}.inip.{t}")),
            text::inip_to_string(&out.inip),
        )?;
        println!(
            "wrote {bench}.inip.{t} ({} regions)",
            out.inip.regions.len()
        );
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
