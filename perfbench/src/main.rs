//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload reproduce-small|guest-paper|serve-zipf
//!           --seed N --seconds S --trace 0|1
//! perfbench refs [--write]
//! ```
//!
//! Each invocation runs one workload in this process: it generates the
//! workload's inputs from `--seed`, sets up, measures whole passes of
//! ops for about `--seconds`, checks every op's output against the
//! interpreter references in `refs/`, prints a table of every metric
//! with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs an untraced half and a
//! traced half and reports the per-layer metrics. `refs` rebuilds the
//! references and fails when they differ from the kept copy. See
//! `NOTES.md` beside this crate for the workloads and metrics.

mod guest;
mod refs;
mod reproduce;
mod rng;
mod serve;
mod spans;
mod stats;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Identical setup rounds per run; `setup_s` scales their median.
pub const SETUP_ROUNDS: usize = 3;

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seeds every order and request stream of the run.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Working directory of this run (inside the benchmark directory).
    pub work: PathBuf,
}

/// What a workload measured. Times of ops are in milliseconds.
#[derive(Debug, Default)]
pub struct Measured {
    /// Setup work done once, before the first round, seconds.
    pub pre_rounds_s: f64,
    /// Duration of each setup round, seconds.
    pub setup_rounds_s: Vec<f64>,
    /// Latencies of the untraced timed phase: every op, or a uniform
    /// sample of them when there are very many.
    pub ops_ms: Vec<f64>,
    /// Ops completed in the untraced timed phase.
    pub timed_ops: u64,
    /// Wall time of the untraced timed phase, seconds.
    pub timed_wall_s: f64,
    /// Ops attempted over every phase.
    pub attempted: u64,
    /// Ops that failed over every phase.
    pub failed: u64,
    /// Run-level check failures (besides failed ops), described.
    pub problems: Vec<String>,
    /// Trace mode: latency of every traced op.
    pub traced_ops_ms: Vec<f64>,
    /// Trace mode: per-layer values with their sample counts.
    pub layers: HashMap<&'static str, (f64, usize)>,
    /// Trace mode: every recorded span, written out when the run ends.
    pub spans: Option<spans::SpanLog>,
}

impl Measured {
    /// Counts one op; `outcome` is its failure, if any.
    pub fn tally(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("failed op: {e}");
            }
        }
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.insert(name, (value, samples));
    }

    /// Records the median of `values` as a per-layer value.
    pub fn layer_median(&mut self, name: &'static str, values: &[f64]) {
        self.layer(name, stats::median(values), values.len());
    }
}

/// Every per-layer metric with its unit. A layer a workload does not
/// run reports 0 with 0 samples.
const PER_LAYER: [(&str, &str); 26] = [
    ("suite.workload_ms", "ms"),
    ("isa.decode_fuse_us_per_block", "us"),
    ("isa.fused_dispatch_ratio", "ratio"),
    ("dbt.noopt_run_ms", "ms"),
    ("dbt.base_run_ms", "ms"),
    ("dbt.ladder_run_ms", "ms"),
    ("dbt.fused_run_ms", "ms"),
    ("dbt.guest_minstr_per_s", "Minstr/s"),
    ("dbt.instructions", "count"),
    ("dbt.profiling_ops", "count"),
    ("dbt.blocks_translated", "count"),
    ("dbt.regions_formed", "count"),
    ("dbt.region_entries", "count"),
    ("dbt.side_exit_ratio", "ratio"),
    ("dbt.completion_ratio", "ratio"),
    ("profile.analyze_ms", "ms"),
    ("profile.analyze_train_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("experiments.sweep_self_ms", "ms"),
    ("experiments.figures_ms", "ms"),
    ("serve.respond_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.memory_share", "ratio"),
    ("serve.disk_share", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Sums of the `ExecStats` counters the per-layer report quotes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbtCounts {
    instructions: u64,
    profiling_ops: u64,
    blocks_translated: u64,
    regions_formed: u64,
    region_entries: u64,
    side_exits: u64,
    completions: u64,
}

impl DbtCounts {
    /// Guest instructions counted so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Adds one run's statistics.
    pub fn add(&mut self, s: &tpdbt_dbt::ExecStats) {
        self.instructions += s.instructions;
        self.profiling_ops += s.profiling_ops;
        self.blocks_translated += s.blocks_translated;
        self.regions_formed += s.regions_formed;
        self.region_entries += s.region_entries;
        self.side_exits += s.side_exits;
        self.completions += s.completions;
    }

    /// Reports one pass's counts, and the guest speed over `run_ms` of
    /// engine time spent on `instructions`.
    pub fn report(&self, m: &mut Measured, instructions: u64, run_ms: f64, runs: usize) {
        let ratio = |n: u64| n as f64 / self.region_entries.max(1) as f64;
        m.layer("dbt.instructions", self.instructions as f64, 1);
        m.layer("dbt.profiling_ops", self.profiling_ops as f64, 1);
        m.layer("dbt.blocks_translated", self.blocks_translated as f64, 1);
        m.layer("dbt.regions_formed", self.regions_formed as f64, 1);
        m.layer("dbt.region_entries", self.region_entries as f64, 1);
        m.layer("dbt.side_exit_ratio", ratio(self.side_exits), 1);
        m.layer("dbt.completion_ratio", ratio(self.completions), 1);
        m.layer(
            "dbt.guest_minstr_per_s",
            instructions as f64 / (run_ms / 1e3) / 1e6,
            runs,
        );
    }
}

/// Runs whole passes until `budget_s` has passed, at least one, and
/// returns the wall time taken. Whole passes keep the mix of ops the
/// same in every run, whatever the seed.
///
/// # Errors
///
/// The first error `pass` returns.
pub fn whole_passes(
    budget_s: f64,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let t = Instant::now();
    loop {
        pass()?;
        if t.elapsed().as_secs_f64() >= budget_s {
            return Ok(t.elapsed().as_secs_f64());
        }
    }
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A fresh, empty directory at `dir`.
///
/// # Errors
///
/// File-system failures.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

/// A latency percentile of `sorted`, a sample of `ops` ops.
fn latency(name: &str, sorted: &[f64], ops: u64, per_mille: u32) -> Metric {
    let n = sorted.len();
    let beyond = stats::beyond(n, per_mille);
    let mut note = if beyond >= stats::MIN_BEYOND {
        format!("{beyond} beyond")
    } else {
        format!(
            "{beyond} beyond; {} needs {} samples (highest supported: {})",
            stats::label(per_mille),
            stats::MIN_BEYOND * 1000 / (1000 - per_mille as usize),
            stats::highest_supported(n).map_or_else(|| "none".to_string(), stats::label)
        )
    };
    if (n as u64) < ops {
        note.push_str(&format!("; uniform sample of {ops} ops"));
    }
    Metric {
        name: name.to_string(),
        value: if n == 0 {
            0.0
        } else {
            stats::percentile(sorted, per_mille)
        },
        unit: "ms",
        samples: n,
        note,
    }
}

/// The end-to-end metrics of an untraced run; the first `reported`
/// go into the JSON line, the rest are printed only.
fn end_to_end(workload: &str, m: &Measured, pre_setup_s: f64) -> (Vec<Metric>, usize) {
    let sorted = stats::sorted(&m.ops_ms);
    let rounds = m.setup_rounds_s.len();
    let once = pre_setup_s + m.pre_rounds_s;
    let round = stats::median(&m.setup_rounds_s);
    let mut out = vec![
        Metric {
            name: "setup_s".into(),
            value: once + rounds as f64 * round,
            unit: "s",
            samples: rounds,
            note: format!(
                "{once:.3}s before round 1 + {rounds} x median of rounds {:.3?}s",
                m.setup_rounds_s
            ),
        },
        latency("op_p50_ms", &sorted, m.timed_ops, 500),
        Metric {
            name: "ops_per_s".into(),
            value: m.timed_ops as f64 / m.timed_wall_s.max(1e-9),
            unit: "1/s",
            samples: usize::try_from(m.timed_ops).unwrap_or(usize::MAX),
            note: format!("over {:.2}s of timed wall time", m.timed_wall_s),
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: peak_rss_mb(),
            unit: "MiB",
            samples: 1,
            note: "VmHWM".into(),
        },
    ];
    let reported = out.len();
    // Tail percentiles run-to-run are too noisy on reproduce-small to
    // gate on, and p99 is supported on serve-zipf only.
    out.push(latency("op_p90_ms", &sorted, m.timed_ops, 900));
    if workload == "serve-zipf" {
        out.push(latency("op_p99_ms", &sorted, m.timed_ops, 990));
    }
    out.push(Metric {
        name: "fail_frac".into(),
        value: m.failed as f64 / m.attempted.max(1) as f64,
        unit: "ratio",
        samples: usize::try_from(m.attempted).unwrap_or(usize::MAX),
        note: format!("{} of {} ops failed", m.failed, m.attempted),
    });
    (out, reported)
}

fn per_layer(m: &Measured) -> Vec<Metric> {
    let untraced = stats::median(&m.ops_ms);
    let traced = stats::median(&m.traced_ops_ms);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples, note) = if name == "bench.trace_overhead_frac" {
                (
                    (traced - untraced) / untraced.max(1e-12),
                    m.traced_ops_ms.len(),
                    format!("traced p50 {traced:.4} ms vs untraced {untraced:.4} ms"),
                )
            } else {
                match m.layers.get(name) {
                    Some(&(v, n)) => (v, n, String::new()),
                    None => (0.0, 0, "layer not run by this workload".to_string()),
                }
            };
            Metric {
                name: name.to_string(),
                value,
                unit,
                samples,
                note,
            }
        })
        .collect()
}

fn json_line(correct: bool, m: &Measured, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, x.name, x.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    )
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload reproduce-small|guest-paper|serve-zipf \
         --seed N --seconds S --trace 0|1\n       perfbench refs [--write]"
    );
    std::process::exit(2)
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("refs") {
        match args.get(1).map(String::as_str) {
            None => std::process::exit(refs::command(false)),
            Some("--write") => std::process::exit(refs::command(true)),
            Some(_) => usage(),
        }
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let work_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    let run = RunArgs {
        seed,
        seconds,
        trace,
        work: work_root.join(format!("{workload}-{}", std::process::id())),
    };

    let result = refs::Refs::load().and_then(|refs| {
        fresh_dir(&run.work)?;
        let pre_setup_s = started.elapsed().as_secs_f64();
        let measured = match workload.as_str() {
            "reproduce-small" => reproduce::run(&run, &refs),
            "guest-paper" => guest::run(&run, &refs),
            "serve-zipf" => serve::run(&run, &refs),
            other => Err(format!("unknown workload `{other}`")),
        };
        measured.map(|m| (m, pre_setup_s))
    });
    let _ = std::fs::remove_dir_all(&run.work);
    let (measured, pre_setup_s) = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(log) = &measured.spans {
        let path = work_root.join(format!("spans-{workload}.jsonl"));
        if let Err(e) = log.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    let (metrics, reported) = if trace {
        let all = per_layer(&measured);
        let n = all.len();
        (all, n)
    } else {
        end_to_end(&workload, &measured, pre_setup_s)
    };
    println!(
        "perfbench {workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    println!(
        "{:<30} {:>16} {:<9} {:>8}  note",
        "metric", "value", "unit", "samples"
    );
    for x in &metrics {
        println!(
            "{:<30} {:>16.6} {:<9} {:>8}  {}",
            x.name, x.value, x.unit, x.samples, x.note
        );
    }
    for p in &measured.problems {
        println!("problem: {p}");
    }
    let correct = measured.failed == 0 && measured.problems.is_empty() && measured.attempted > 0;
    println!("{}", json_line(correct, &measured, &metrics[..reported]));
}
