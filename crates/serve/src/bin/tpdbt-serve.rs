//! `tpdbt-serve` — the profile-query daemon.
//!
//! ```text
//! tpdbt-serve --listen SPEC [--cache-dir DIR] [--jobs N] [--queue N]
//!             [--hot N] [--deadline-ms MS] [--backend interp|cached-fused]
//!             [--trace PATH [--trace-format jsonl|chrome]]
//!             [--inject SPEC]
//! ```
//!
//! `--listen` takes `unix:PATH` or `HOST:PORT` (port 0 picks an
//! ephemeral port; the bound address is printed). One accept thread
//! feeds one queue of at most `--queue` waiting connections, served by
//! `--jobs` workers; a connection that finds the queue full is answered
//! `overloaded`. `--cache-dir` shares the on-disk store with
//! `reproduce` and `tpdbt-run`, so a warm sweep serves queries with
//! zero guest runs. `--backend` picks the execution
//! backend for cold (computed) queries — `cached-fused` (default, the
//! translation cache plus trace-compiled regions) or `interp`
//! (the reference interpreter); results are bitwise identical either
//! way. The daemon prints exactly one `listening on ADDR` line to
//! stdout once ready, then blocks until a `shutdown` request drains
//! it.
//!
//! Startup is crash-safe (DESIGN.md §14): before the listener binds,
//! the cache directory is fsck'd (damaged entries removed, orphaned
//! temp files swept). The hot tier starts empty, so a restarted
//! daemon answers previously computed keys from the store. The
//! `stats` endpoint reports `orphans_swept` and `fsck_ms` under
//! `recovery`.
//!
//! Exit status: 0 after a clean drain, 1 on bind/setup failure, 2 on
//! usage errors (an unknown option is named on stderr before the usage
//! text; README, "Exit codes").

use std::sync::Arc;
use std::time::Duration;

use tpdbt_faults::FaultPlan;
use tpdbt_serve::{start, Bind, ProfileService, ServerConfig, ServiceConfig};
use tpdbt_trace::{TraceFormat, Tracer};

fn usage() -> ! {
    eprintln!(
        "usage: tpdbt-serve --listen SPEC [--cache-dir DIR] [--jobs N] [--queue N] \\\n       [--hot N] [--deadline-ms MS] \\\n       [--backend interp|cached-fused] \\\n       [--trace PATH [--trace-format jsonl|chrome]] [--inject SPEC]\n\nSPEC is unix:PATH or HOST:PORT (port 0 = ephemeral)."
    );
    std::process::exit(2)
}

fn fatal(message: impl std::fmt::Display) -> ! {
    eprintln!("tpdbt-serve: {message}");
    std::process::exit(1)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut listen: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut jobs: usize = 4;
    let mut queue: usize = 16;
    let mut hot: usize = 256;
    let mut deadline_ms: u64 = 30_000;
    let mut trace_path: Option<String> = None;
    let mut trace_format = TraceFormat::default();
    let mut inject: Option<String> = None;
    let mut backend = tpdbt_dbt::Backend::default();
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--listen" => listen = Some(value()),
            "--cache-dir" => cache_dir = Some(value()),
            "--jobs" => jobs = value().parse().unwrap_or_else(|_| usage()),
            "--queue" => queue = value().parse().unwrap_or_else(|_| usage()),
            "--hot" => hot = value().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => deadline_ms = value().parse().unwrap_or_else(|_| usage()),
            "--backend" => {
                backend = value().parse().unwrap_or_else(|e: String| {
                    eprintln!("tpdbt-serve: {e}");
                    usage()
                });
            }
            "--trace" => trace_path = Some(value()),
            "--trace-format" => trace_format = value().parse().unwrap_or_else(|_| usage()),
            "--inject" => inject = Some(value()),
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("tpdbt-serve: unknown option `{arg}`");
                usage()
            }
        }
    }
    let Some(listen) = listen else { usage() };
    let bind = Bind::parse(&listen).unwrap_or_else(|e| fatal(format_args!("--listen: {e}")));

    let mut service = ProfileService::new(ServiceConfig {
        cache_dir: cache_dir.map(Into::into),
        hot_capacity: hot,
        default_deadline: Duration::from_millis(deadline_ms.max(1)),
        backend,
    });
    let tracer = trace_path.as_ref().map(|_| Arc::new(Tracer::new()));
    if let Some(t) = &tracer {
        service = service.with_tracer(Arc::clone(t));
    }
    if let Some(spec) = &inject {
        match FaultPlan::parse(spec) {
            Ok(plan) => service = service.with_faults(Arc::new(plan)),
            Err(e) => fatal(format_args!("--inject {spec}: {e}")),
        }
    }

    let service = Arc::new(service);
    // The store self-check (fsck with repair) happens before the
    // listener exists: no connection is ever served from an unverified
    // store (DESIGN.md §14).
    service.startup_recovery();

    let handle = start(
        Arc::clone(&service),
        ServerConfig {
            bind,
            workers: jobs.max(1),
            queue_depth: queue.max(1),
            accept_shards: 1,
        },
    )
    .unwrap_or_else(|e| fatal(format_args!("bind {listen}: {e}")));

    // The readiness line scripts and tests wait for.
    println!("listening on {}", handle.addr());

    handle.wait();

    if let (Some(t), Some(p)) = (&tracer, &trace_path) {
        match tpdbt_trace::export::write_file(t, trace_format, p) {
            Ok(()) => eprintln!(
                "trace written to {p} ({} events retained, {} dropped)",
                t.len(),
                t.dropped()
            ),
            Err(e) => fatal(format_args!("writing trace {p}: {e}")),
        }
    }
}
