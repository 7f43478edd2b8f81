//! Cached, parallel sweep orchestration: the one executor of the
//! paper's methodology ([`crate::runner`]). Every `(benchmark,
//! ladder-point)` cell runs through two layers:
//!
//! * **Persistent profile store** — with a cache directory
//!   ([`SweepOptions::cache_dir`]), every guest execution's result is
//!   written to a [`ProfileStore`] keyed by the full identity of the
//!   run (workload, input kind, scale, profiling mode, threshold, and a
//!   content fingerprint of the guest binary + input words +
//!   [`DbtConfig::fingerprint`]). A warm rerun of an identical sweep
//!   performs **zero** guest re-executions and reproduces
//!   bitwise-identical metrics; any change to a benchmark generator or
//!   config knob changes the fingerprint and re-addresses fresh slots.
//! * **Scoped-thread worker pool** — independent cells execute
//!   concurrently ([`SweepOptions::jobs`]) over a shared work queue,
//!   with results committed by cell index so ordering and values are
//!   identical to serial execution.
//!
//! The sweep runs in two phases: first the per-benchmark baselines
//! (`AVEP`, `INIP(train)`, and the `T = 1` performance base — the most
//! expensive runs), then every `INIP(T)` ladder cell, each phase fanned
//! out over the pool. Per-cell hit/miss and timing stats are collected
//! in [`SweepReport::cells`] for end-of-sweep reporting.
//!
//! Every cell is additionally a fault-isolation domain (DESIGN.md §9):
//! its body runs under `catch_unwind`, failures are classified by
//! [`crate::resilience::CellFailure`], retryable ones (worker panics)
//! get up to [`FaultPolicy::max_retries`] exponential-backoff retries,
//! and fatal ones (deterministic guest traps, harness errors) fail the
//! cell alone — the sweep keeps going, drops the failed cell from the
//! results, and reports the damage in [`SweepReport::degraded`]. With
//! [`FaultPolicy::fail_fast`] the first failed cell aborts the sweep
//! instead. A [`FaultPolicy::plan`] arms deterministic fault injection
//! in the workers and the store; with no plan attached every site is
//! one branch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tpdbt_dbt::{Backend, Dbt, DbtConfig, DbtError, ProfilingMode, RunOutcome};
use tpdbt_faults::FaultSite;
use tpdbt_isa::{binfmt, BuiltProgram, PredecodedProgram};
use tpdbt_profile::report::{analyze, analyze_train, ThresholdMetrics, TrainMetrics};
use tpdbt_profile::PlainProfile;
use tpdbt_store::digest::{fnv64, fnv64_words, Fnv64};
use tpdbt_store::{Artifact, BaseArtifact, CacheKey, CellArtifact, PlainArtifact, ProfileStore};
use tpdbt_suite::{workload, BenchClass, InputKind, Scale, Workload};
use tpdbt_trace::stats::Histogram;
use tpdbt_trace::{EventKind, Tracer};
use tpdbt_vm::VmError;

use crate::resilience::{
    panic_message, CellFailure, CellIncident, DegradedReport, FaultPolicy, Incidents,
};
use crate::runner::{ladder, BenchResult, LadderPoint};
use crate::Result;

/// Ceiling on the per-retry exponential backoff.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// How a sweep is executed.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` or `1` runs serially.
    pub jobs: usize,
    /// Artifact cache directory; `None` disables the store.
    pub cache_dir: Option<PathBuf>,
    /// Structured-event collector shared with the engine and the store;
    /// `None` disables tracing (every emission site is one branch).
    pub tracer: Option<Arc<Tracer>>,
    /// Per-cell fault tolerance: retry budget, fail-fast, watchdog
    /// fuel, and the (optional) deterministic fault-injection plan.
    pub policy: FaultPolicy,
    /// Execution backend for every guest run. Backends are bitwise
    /// result-identical and excluded from cache fingerprints, so this
    /// only changes how fast cells execute — never what they produce
    /// or which store slots they address.
    pub backend: Backend,
}

/// Opens the profile store (if configured), attaching the sweep's
/// tracer so store hits/misses/evictions land in the same event stream
/// as the per-cell lifecycle events.
fn open_store(opts: &SweepOptions) -> Option<ProfileStore> {
    let mut store = ProfileStore::new(opts.cache_dir.as_ref()?);
    if let Some(t) = &opts.tracer {
        store = store.with_tracer(Arc::clone(t));
    }
    if let Some(plan) = &opts.policy.plan {
        store = store.with_faults(Arc::clone(plan));
    }
    // A previous sweep that died between temp-file create and rename
    // left its partial write behind; reclaim it before this run writes.
    store.sweep_orphans();
    Some(store)
}

/// One executed (or cache-served) unit of sweep work.
#[derive(Clone, Debug)]
pub struct CellStat {
    /// Benchmark (or guest) name.
    pub bench: String,
    /// Cell label: `"avep"`, `"train"`, `"base"`, or the ladder label.
    pub label: String,
    /// Whether the store served it without a guest run.
    pub hit: bool,
    /// Wall-clock time spent on this cell, in microseconds.
    pub micros: u64,
}

/// A completed sweep plus its execution statistics.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-benchmark results, in input-name order (identical for any
    /// [`SweepOptions::jobs`]).
    pub results: Vec<BenchResult>,
    /// Per-cell hit/miss + timing, baselines first, then ladder cells,
    /// both in deterministic (benchmark-major) order.
    pub cells: Vec<CellStat>,
    /// Guest executions actually performed.
    pub guest_runs: u64,
    /// Store lookups served from disk.
    pub cache_hits: u64,
    /// Store lookups that missed (including evictions).
    pub cache_misses: u64,
    /// Corrupt or stale entries deleted during the sweep.
    pub cache_evictions: u64,
    /// Total sweep wall-clock time.
    pub elapsed: Duration,
    /// Exact per-kind totals from the attached tracer, in name order
    /// (empty when [`SweepOptions::tracer`] is `None`).
    pub event_counts: Vec<(&'static str, u64)>,
    /// Wall-time distribution of the baseline cells (µs): `avep`,
    /// `train`, and `base`.
    pub baseline_times: Histogram,
    /// Wall-time distribution of the `INIP(T)` ladder cells (µs).
    pub ladder_times: Histogram,
    /// What partial failure the sweep absorbed: retried and failed
    /// cells with causes (empty for a clean sweep). Benchmarks whose
    /// baselines failed are dropped from [`SweepReport::results`];
    /// individual failed ladder cells are dropped from their
    /// benchmark's `per_threshold`.
    pub degraded: DegradedReport,
}

/// Splits per-cell wall times into the sweep's two phases: baselines
/// (`avep`/`train`/`base`) and ladder cells (everything else).
fn phase_histograms(cells: &[CellStat]) -> (Histogram, Histogram) {
    let mut baseline = Histogram::new();
    let mut ladder = Histogram::new();
    for c in cells {
        match c.label.as_str() {
            "avep" | "train" | "base" => baseline.record(c.micros),
            _ => ladder.record(c.micros),
        }
    }
    (baseline, ladder)
}

impl SweepReport {
    /// Renders the per-cell stats table plus a summary line.
    #[must_use]
    pub fn render_stats(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<10} {:>6} {:>5} {:>10}",
            "benchmark", "cell", "", "time"
        );
        for c in &self.cells {
            let _ = writeln!(
                s,
                "{:<10} {:>6} {:>5} {:>8.1}ms",
                c.bench,
                c.label,
                if c.hit { "hit" } else { "miss" },
                c.micros as f64 / 1000.0
            );
        }
        let _ = writeln!(
            s,
            "{} cells: {} cache hits, {} misses, {} evictions; \
             {} guest runs; {:.2}s",
            self.cells.len(),
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.guest_runs,
            self.elapsed.as_secs_f64()
        );
        s.push_str(&self.baseline_times.render("baseline cell time (us)"));
        s.push_str(&self.ladder_times.render("ladder cell time (us)"));
        if !self.event_counts.is_empty() {
            let _ = writeln!(s, "trace event totals:");
            for (name, n) in &self.event_counts {
                let _ = writeln!(s, "  {name:<18} {n:>12}");
            }
        }
        s.push_str(&self.degraded.render());
        s
    }
}

/// Maps `f` over `items` on a scoped worker pool, returning results in
/// item order regardless of completion order. With `jobs <= 1` (or a
/// single item) this is a plain serial map, bit-identical by
/// construction; with more, workers claim indices from a shared atomic
/// counter and commit into per-index slots, so only wall-clock order
/// varies. A panicking worker propagates when the scope joins — the
/// sweep never lets one get that far: every cell body runs inside the
/// `catch_unwind` isolation boundary of `Ctx::guarded`.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

fn mode_code(mode: ProfilingMode) -> u8 {
    match mode {
        ProfilingMode::TwoPhase => 0,
        ProfilingMode::NoOpt => 1,
        ProfilingMode::Continuous => 2,
        ProfilingMode::Adaptive => 3,
    }
}

fn input_code(kind: InputKind) -> u8 {
    match kind {
        InputKind::Ref => 0,
        InputKind::Train => 1,
    }
}

/// Shared per-sweep execution state.
struct Ctx<'a> {
    store: Option<&'a ProfileStore>,
    tracer: Option<&'a Arc<Tracer>>,
    guest_runs: AtomicU64,
    policy: &'a FaultPolicy,
    incidents: &'a Incidents,
    backend: Backend,
}

impl<'a> Ctx<'a> {
    fn new(
        store: Option<&'a ProfileStore>,
        opts: &'a SweepOptions,
        incidents: &'a Incidents,
    ) -> Self {
        Ctx {
            store,
            tracer: opts.tracer.as_ref(),
            guest_runs: AtomicU64::new(0),
            policy: &opts.policy,
            incidents,
            backend: opts.backend,
        }
    }
}

impl Ctx<'_> {
    /// Builds and emits `event` only when a tracer is attached.
    fn trace_emit(&self, event: impl FnOnce() -> EventKind) {
        if let Some(t) = self.tracer {
            t.emit(event());
        }
    }

    /// Consults the injection plan at a crash site: a planned
    /// occurrence aborts the whole process (the crash-restart harness
    /// supervises this).
    fn fire_crash(&self, site: FaultSite) {
        if let Some(plan) = &self.policy.plan {
            plan.fire_crash(site);
        }
    }

    /// Applies the fuel watchdog (if any) to a cell's config. Must run
    /// before the cache key is computed: fuel is part of
    /// [`DbtConfig::fingerprint`], so watchdogged runs address their
    /// own cache slots instead of aliasing unwatched ones.
    fn apply_watchdog(&self, cfg: DbtConfig) -> DbtConfig {
        match self.policy.watchdog_fuel {
            Some(fuel) => {
                let capped = fuel.min(cfg.fuel);
                cfg.with_fuel(capped)
            }
            None => cfg,
        }
    }

    /// Consults the injection plan once per cell attempt, in a fixed
    /// site order. With no plan attached this is one branch.
    fn inject_cell_faults(&self, bench: &str, label: &str) -> Result<()> {
        let Some(plan) = self.policy.plan.as_deref() else {
            return Ok(());
        };
        if let Some(occurrence) = plan.fire_indexed(FaultSite::WorkerPanic) {
            self.trace_emit(|| EventKind::FaultInjected {
                site: FaultSite::WorkerPanic.name(),
                occurrence,
            });
            panic!("injected worker panic at {bench}/{label}");
        }
        if let Some(occurrence) = plan.fire_indexed(FaultSite::SlowCell) {
            self.trace_emit(|| EventKind::FaultInjected {
                site: FaultSite::SlowCell.name(),
                occurrence,
            });
            std::thread::sleep(Duration::from_millis(25));
        }
        if let Some(occurrence) = plan.fire_indexed(FaultSite::GuestTrap) {
            self.trace_emit(|| EventKind::FaultInjected {
                site: FaultSite::GuestTrap.name(),
                occurrence,
            });
            return Err(Box::new(DbtError::Guest(VmError::DivideByZero { pc: 0 })));
        }
        if let Some(occurrence) = plan.fire_indexed(FaultSite::FuelExhaustion) {
            self.trace_emit(|| EventKind::FaultInjected {
                site: FaultSite::FuelExhaustion.name(),
                occurrence,
            });
            return Err(Box::new(DbtError::Guest(VmError::OutOfFuel {
                pc: 0,
                fuel: self.policy.watchdog_fuel.unwrap_or(0),
            })));
        }
        Ok(())
    }

    /// Records one cell's terminal failure: a `CellFailed` trace event,
    /// a degradation incident, and (under `--fail-fast`) the sweep-wide
    /// abort flag. Skipped cells are not incidents — they are the
    /// *consequence* of an abort, not a cause.
    fn record_failure(&self, bench: &str, label: &str, attempts: u32, failure: &CellFailure) {
        if matches!(failure, CellFailure::Skipped) {
            return;
        }
        let cause = failure.to_string();
        self.trace_emit(|| EventKind::CellFailed {
            bench: bench.to_string(),
            label: label.to_string(),
            cause: cause.clone(),
        });
        self.incidents.record_failed(CellIncident {
            bench: bench.to_string(),
            label: label.to_string(),
            attempts,
            cause,
        });
        if self.policy.fail_fast {
            self.incidents.abort();
        }
    }

    /// Runs one cell body inside the fault-isolation boundary: panics
    /// are caught, failures classified, retryable ones retried with
    /// exponential backoff up to [`FaultPolicy::max_retries`], terminal
    /// failures recorded. Cells queued after a `--fail-fast` abort
    /// return [`CellFailure::Skipped`] without running.
    fn guarded<T>(
        &self,
        bench: &str,
        label: &str,
        body: impl Fn() -> Result<T>,
    ) -> std::result::Result<T, CellFailure> {
        let mut attempt: u32 = 0;
        let mut last_cause = String::new();
        loop {
            if self.incidents.aborted() {
                return Err(CellFailure::Skipped);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.inject_cell_faults(bench, label)?;
                body()
            }));
            let failure = match outcome {
                Ok(Ok(v)) => {
                    if attempt > 0 {
                        self.incidents.record_retried(CellIncident {
                            bench: bench.to_string(),
                            label: label.to_string(),
                            attempts: attempt + 1,
                            cause: last_cause,
                        });
                    }
                    return Ok(v);
                }
                Ok(Err(e)) => CellFailure::classify(bench, e.as_ref()),
                Err(payload) => CellFailure::Panic(panic_message(payload.as_ref())),
            };
            let cause = failure.to_string();
            if failure.retryable() && attempt < self.policy.max_retries {
                attempt += 1;
                self.trace_emit(|| EventKind::CellRetried {
                    bench: bench.to_string(),
                    label: label.to_string(),
                    attempt,
                    cause: cause.clone(),
                });
                let backoff = self
                    .policy
                    .backoff
                    .saturating_mul(1_u32 << (attempt - 1).min(16))
                    .min(MAX_BACKOFF);
                std::thread::sleep(backoff);
                last_cause = cause;
                continue;
            }
            self.record_failure(bench, label, attempt + 1, &failure);
            return Err(failure);
        }
    }

    /// Emits the cache-resolution pair for one finished cell: a
    /// hit/miss verdict followed by the committed wall time.
    fn trace_cell_done(&self, bench: &str, label: &str, hit: bool, micros: u64) {
        self.trace_emit(|| {
            let (bench, label) = (bench.to_string(), label.to_string());
            if hit {
                EventKind::CellCacheHit { bench, label }
            } else {
                EventKind::CellCacheMiss { bench, label }
            }
        });
        self.trace_emit(|| EventKind::CellCommitted {
            bench: bench.to_string(),
            label: label.to_string(),
            micros,
        });
    }

    fn run_guest(&self, guest: &GuestId<'_>, config: DbtConfig) -> Result<RunOutcome> {
        self.guest_runs.fetch_add(1, Ordering::Relaxed);
        self.trace_emit(|| EventKind::GuestRun {
            name: guest.name.to_string(),
        });
        // The backend is applied here, after every cache key derived
        // from `config` has been computed: it is not part of the key.
        let mut dbt = Dbt::new(config.with_backend(self.backend))
            .with_predecoded(Arc::clone(&guest.predecoded));
        if let Some(t) = self.tracer {
            // The engine reports its own lifecycle (translations,
            // bumps, freezes, regions) into the same stream.
            dbt = dbt.with_tracer(Arc::clone(t));
        }
        Ok(dbt.run_built(guest.binary, guest.input)?)
    }
}

/// Identity of one guest program + input, hashed once per workload.
/// Also owns the guest's shared translation cache: one
/// [`PredecodedProgram`] that every cell run through this identity
/// reuses, so a `(guest, input)` pair decodes each block at most once
/// per sweep instead of once per ladder cell.
struct GuestId<'a> {
    name: &'a str,
    binary: &'a BuiltProgram,
    input: &'a [i64],
    /// Digest of the serialized binary (`binfmt::write_program`).
    binary_digest: u64,
    /// Digest of the input words, hashed once: key derivation sits on
    /// the serve hot path, where re-hashing the whole input per query
    /// would dwarf a memory-hot lookup.
    input_digest: u64,
    input_code: u8,
    scale_code: u8,
    /// Decode-once block cache shared by every run of this guest.
    predecoded: Arc<PredecodedProgram>,
}

impl<'a> GuestId<'a> {
    fn new(name: &'a str, binary: &'a BuiltProgram, input: &'a [i64], ic: u8, sc: u8) -> Self {
        GuestId {
            name,
            binary,
            input,
            binary_digest: fnv64(&binfmt::write_program(binary)),
            input_digest: fnv64_words(input),
            input_code: ic,
            scale_code: sc,
            predecoded: Arc::new(PredecodedProgram::new(&binary.program)),
        }
    }

    /// The full cache key of running this guest under `cfg`.
    fn key(&self, cfg: &DbtConfig) -> CacheKey {
        let mut h = Fnv64::new();
        h.write_u64(self.binary_digest);
        h.write_u64(self.input_digest);
        h.write_u64(cfg.fingerprint());
        CacheKey {
            workload: self.name.to_string(),
            input: self.input_code,
            scale: self.scale_code,
            mode: mode_code(cfg.mode),
            threshold: cfg.threshold,
            fingerprint: h.finish(),
        }
    }
}

/// Owned identity of one suite guest: the built binary, input words,
/// and the digests needed to form cache keys. This is the sweep's cell
/// machinery exposed for reuse — `tpdbt-serve` builds one per requested
/// `(workload, scale, input)` and resolves every query through the same
/// keys (and therefore the same on-disk artifacts) as a sweep, so a
/// warm sweep cache serves queries with zero guest runs and vice versa.
#[derive(Debug)]
pub struct SuiteGuest {
    /// Benchmark name.
    pub name: String,
    binary: BuiltProgram,
    input: Vec<i64>,
    input_code: u8,
    scale_code: u8,
    binary_digest: u64,
    input_digest: u64,
    /// Decode-once block cache shared by every query against this
    /// guest: a long-lived service decodes each block at most once,
    /// no matter how many cold queries execute it.
    predecoded: Arc<PredecodedProgram>,
}

impl SuiteGuest {
    /// Builds the named suite workload and hashes its identity once.
    ///
    /// # Errors
    ///
    /// Unknown benchmark names and generator failures (from
    /// [`tpdbt_suite::workload`]).
    pub fn build(name: &str, scale: Scale, input: InputKind) -> Result<SuiteGuest> {
        let w = workload(name, scale, input)?;
        Ok(SuiteGuest {
            name: w.name.to_string(),
            binary_digest: fnv64(&binfmt::write_program(&w.binary)),
            input_digest: fnv64_words(&w.input),
            predecoded: Arc::new(PredecodedProgram::new(&w.binary.program)),
            binary: w.binary,
            input: w.input,
            input_code: input_code(input),
            scale_code: scale.code(),
        })
    }

    fn id(&self) -> GuestId<'_> {
        GuestId {
            name: &self.name,
            binary: &self.binary,
            input: &self.input,
            binary_digest: self.binary_digest,
            input_digest: self.input_digest,
            input_code: self.input_code,
            scale_code: self.scale_code,
            predecoded: Arc::clone(&self.predecoded),
        }
    }

    /// The cache key of running this guest under `cfg` — identical to
    /// the key a sweep computes for the same cell.
    #[must_use]
    pub fn key(&self, cfg: &DbtConfig) -> CacheKey {
        self.id().key(cfg)
    }

    /// Executes the guest under `cfg`, reporting a
    /// [`EventKind::GuestRun`] (and the engine's own lifecycle events)
    /// into `tracer` when attached.
    ///
    /// # Errors
    ///
    /// Guest traps and harness failures from the engine.
    pub fn run(&self, cfg: DbtConfig, tracer: Option<&Arc<Tracer>>) -> Result<RunOutcome> {
        if let Some(t) = tracer {
            t.emit(EventKind::GuestRun {
                name: self.name.clone(),
            });
        }
        let mut dbt = Dbt::new(cfg).with_predecoded(Arc::clone(&self.predecoded));
        if let Some(t) = tracer {
            dbt = dbt.with_tracer(Arc::clone(t));
        }
        Ok(dbt.run_built(&self.binary, &self.input)?)
    }
}

/// Runs (or loads) a plain whole-run profile: `AVEP` or `INIP(train)`.
fn plain_run(ctx: &Ctx<'_>, guest: &GuestId<'_>, cfg: DbtConfig) -> Result<(PlainArtifact, bool)> {
    let cfg = ctx.apply_watchdog(cfg);
    let key = guest.key(&cfg);
    if let Some(store) = ctx.store {
        if let Some(p) = store.load_plain(&key) {
            return Ok((p, true));
        }
    }
    let out = ctx.run_guest(guest, cfg)?;
    let art = Artifact::Plain(PlainArtifact {
        profile: out.as_plain_profile(),
        output: out.output,
    });
    if let Some(store) = ctx.store {
        // Best-effort: a read-only cache dir degrades to a cold sweep.
        let _ = store.store(&key, &art);
        ctx.fire_crash(FaultSite::CrashSweepCommit);
    }
    let Artifact::Plain(p) = art else {
        unreachable!()
    };
    Ok((p, false))
}

/// Runs (or loads) the `T = 1` performance base (Figure 17).
fn base_run(
    ctx: &Ctx<'_>,
    guest: &GuestId<'_>,
    expected_output_digest: u64,
) -> Result<(BaseArtifact, bool)> {
    let cfg = ctx.apply_watchdog(DbtConfig::two_phase(1));
    let key = guest.key(&cfg);
    if let Some(store) = ctx.store {
        if let Some(b) = store.load_base(&key) {
            if b.output_digest == expected_output_digest {
                return Ok((b, true));
            }
        }
    }
    let out = ctx.run_guest(guest, cfg)?;
    let b = BaseArtifact {
        cycles: out.stats.cycles,
        output_digest: fnv64_words(&out.output),
    };
    if let Some(store) = ctx.store {
        let _ = store.store(&key, &Artifact::Base(b));
        ctx.fire_crash(FaultSite::CrashSweepCommit);
    }
    Ok((b, false))
}

/// Runs (or loads) one `INIP(T)` ladder cell, analyzed against `avep`.
fn cell_run(
    ctx: &Ctx<'_>,
    guest: &GuestId<'_>,
    threshold: u64,
    avep: &PlainProfile,
    avep_output_digest: u64,
) -> Result<(ThresholdMetrics, bool)> {
    let cfg = ctx.apply_watchdog(DbtConfig::two_phase(threshold));
    let key = guest.key(&cfg);
    if let Some(store) = ctx.store {
        if let Some(c) = store.load_cell(&key) {
            // Defense in depth beyond the key: the cached cell must
            // have been analyzed against the same guest computation.
            if c.metrics.threshold == threshold && c.output_digest == avep_output_digest {
                return Ok((c.metrics, true));
            }
        }
    }
    let out = ctx.run_guest(guest, cfg)?;
    let output_digest = fnv64_words(&out.output);
    // The guest must compute the same answer under every threshold.
    debug_assert_eq!(
        output_digest, avep_output_digest,
        "{} diverged at T={threshold}",
        guest.name
    );
    let metrics = analyze(&out.inip, avep)?;
    if let Some(store) = ctx.store {
        let _ = store.store(
            &key,
            &Artifact::Cell(CellArtifact {
                metrics,
                output_digest,
            }),
        );
        ctx.fire_crash(FaultSite::CrashSweepCommit);
    }
    Ok((metrics, false))
}

fn timed<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, u64)> {
    let t = Instant::now();
    let v = f()?;
    Ok((
        v,
        u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX),
    ))
}

/// Everything stage 1 produces for one benchmark.
struct Baselines {
    name: &'static str,
    class: BenchClass,
    reference: Workload,
    /// Binary digest of `reference`, computed once in stage 1 and
    /// reused by every stage-2 ladder cell (re-serializing the binary
    /// per cell was measurable at paper scale).
    ref_digest: u64,
    /// Digest of `reference`'s input words, likewise hashed once.
    ref_input_digest: u64,
    /// The reference guest's decode-once block cache, shared across
    /// every ladder cell of this benchmark.
    ref_predecoded: Arc<PredecodedProgram>,
    avep: PlainProfile,
    avep_output_digest: u64,
    avep_ops: u64,
    train: TrainMetrics,
    base_cycles: u64,
    stats: Vec<CellStat>,
}

impl Baselines {
    /// The reference guest's identity, rebuilt without re-hashing or
    /// re-decoding: ladder cells sharing this `(guest, input)` pair
    /// reuse the digest and translation cache from stage 1.
    fn ref_id(&self, scale: Scale) -> GuestId<'_> {
        GuestId {
            name: self.name,
            binary: &self.reference.binary,
            input: &self.reference.input,
            binary_digest: self.ref_digest,
            input_digest: self.ref_input_digest,
            input_code: input_code(InputKind::Ref),
            scale_code: scale.code(),
            predecoded: Arc::clone(&self.ref_predecoded),
        }
    }
}

/// Stage 1 for one benchmark. Any failed cell (after retries) fails the
/// whole benchmark — every ladder cell needs the AVEP baseline — and
/// returns the failure so [`run_sweep`] can drop it and keep going.
fn baselines_for(
    name: &str,
    scale: Scale,
    ctx: &Ctx<'_>,
) -> std::result::Result<Baselines, CellFailure> {
    let built = workload(name, scale, InputKind::Ref)
        .and_then(|r| workload(name, scale, InputKind::Train).map(|t| (r, t)));
    let (reference, training) = match built {
        Ok(v) => v,
        Err(e) => {
            let failure = CellFailure::Harness(e.to_string());
            ctx.record_failure(name, "workload", 1, &failure);
            return Err(failure);
        }
    };
    let sc = scale.code();
    for label in ["avep", "train", "base"] {
        ctx.trace_emit(|| EventKind::CellQueued {
            bench: reference.name.to_string(),
            label: label.to_string(),
        });
    }
    let mut stats = Vec::with_capacity(3);
    let mut stat = |label: &str, hit: bool, micros: u64| {
        ctx.trace_cell_done(reference.name, label, hit, micros);
        stats.push(CellStat {
            bench: reference.name.to_string(),
            label: label.to_string(),
            hit,
            micros,
        });
    };
    let started = |label: &'static str| {
        ctx.trace_emit(|| EventKind::CellStarted {
            bench: reference.name.to_string(),
            label: label.to_string(),
        });
    };

    let ref_id = GuestId::new(
        reference.name,
        &reference.binary,
        &reference.input,
        input_code(InputKind::Ref),
        sc,
    );
    started("avep");
    let ((avep_art, avep_hit), t) = ctx.guarded(reference.name, "avep", || {
        timed(|| plain_run(ctx, &ref_id, DbtConfig::no_opt()))
    })?;
    stat("avep", avep_hit, t);

    started("train");
    let train_id = GuestId::new(
        training.name,
        &training.binary,
        &training.input,
        input_code(InputKind::Train),
        sc,
    );
    let ((train_art, train_hit), t) = ctx.guarded(training.name, "train", || {
        timed(|| plain_run(ctx, &train_id, DbtConfig::no_opt()))
    })?;
    stat("train", train_hit, t);
    let train = analyze_train(&train_art.profile, &avep_art.profile);

    let avep_output_digest = fnv64_words(&avep_art.output);
    started("base");
    let ((base, base_hit), t) = ctx.guarded(reference.name, "base", || {
        timed(|| base_run(ctx, &ref_id, avep_output_digest))
    })?;
    stat("base", base_hit, t);

    let avep_ops = avep_art.profile.profiling_ops;
    let ref_digest = ref_id.binary_digest;
    let ref_input_digest = ref_id.input_digest;
    let ref_predecoded = Arc::clone(&ref_id.predecoded);
    Ok(Baselines {
        name: reference.name,
        class: reference.class,
        reference,
        ref_digest,
        ref_input_digest,
        ref_predecoded,
        avep: avep_art.profile,
        avep_output_digest,
        avep_ops,
        train,
        base_cycles: base.cycles,
        stats,
    })
}

/// Sweeps `names` at `scale` with caching and a worker pool.
///
/// Results are ordered by `names` and are value-identical for any
/// `jobs` (`jobs: 1` runs every cell serially). `progress` is
/// called once per benchmark as its baseline phase starts (possibly
/// from a worker thread).
///
/// # Errors
///
/// By default the sweep keeps going past per-cell failures (they are
/// dropped from the results and reported in [`SweepReport::degraded`]);
/// an error is returned only under [`FaultPolicy::fail_fast`], naming
/// the first failed cell.
pub fn run_sweep(
    names: &[&str],
    scale: Scale,
    opts: &SweepOptions,
    progress: impl Fn(&str) + Sync,
) -> Result<SweepReport> {
    let t0 = Instant::now();
    let store = open_store(opts);
    let incidents = Incidents::default();
    let ctx = Ctx::new(store.as_ref(), opts, &incidents);
    let jobs = opts.jobs.max(1);

    // Stage 1: baselines, fanned out per benchmark. The barrier before
    // stage 2 is real: every ladder cell needs its benchmark's AVEP.
    let baseline_results = parallel_map(jobs, names, |_, name| {
        progress(name);
        baselines_for(name, scale, &ctx)
    });

    let points = ladder(scale);
    // Keep-going: a benchmark whose baselines failed is dropped, and
    // its never-attempted ladder cells are recorded as failed so the
    // degradation report accounts for every planned cell.
    let mut baselines: Vec<Baselines> = Vec::with_capacity(names.len());
    for (name, res) in names.iter().zip(baseline_results) {
        match res {
            Ok(b) => baselines.push(b),
            Err(CellFailure::Skipped) => {}
            Err(failure) => {
                for point in &points {
                    incidents.record_failed(CellIncident {
                        bench: (*name).to_string(),
                        label: point.label.to_string(),
                        attempts: 0,
                        cause: format!("skipped: baselines failed ({failure})"),
                    });
                }
            }
        }
    }

    // Stage 2: every surviving (benchmark, ladder point) cell over one
    // pool.
    let cell_items: Vec<(usize, LadderPoint)> = (0..baselines.len())
        .flat_map(|b| points.iter().map(move |&p| (b, p)))
        .collect();
    for &(b, point) in &cell_items {
        ctx.trace_emit(|| EventKind::CellQueued {
            bench: baselines[b].name.to_string(),
            label: point.label.to_string(),
        });
    }
    let cell_results = parallel_map(jobs, &cell_items, |_, &(b, point)| {
        let bl = &baselines[b];
        ctx.trace_emit(|| EventKind::CellStarted {
            bench: bl.name.to_string(),
            label: point.label.to_string(),
        });
        let guest = bl.ref_id(scale);
        let res = ctx.guarded(bl.name, point.label, || {
            timed(|| cell_run(&ctx, &guest, point.actual, &bl.avep, bl.avep_output_digest))
        });
        if let Ok(((_, hit), micros)) = &res {
            ctx.trace_cell_done(bl.name, point.label, *hit, *micros);
        }
        res
    });

    // Assemble in deterministic order: baseline stats benchmark-major,
    // then ladder cells benchmark-major.
    let mut cells: Vec<CellStat> = Vec::new();
    for b in &mut baselines {
        cells.append(&mut b.stats);
    }
    let mut per_bench: Vec<Vec<(LadderPoint, ThresholdMetrics)>> =
        baselines.iter().map(|_| Vec::new()).collect();
    for (&(b, point), res) in cell_items.iter().zip(cell_results) {
        // A failed cell was already recorded by `guarded`; it is simply
        // absent from its benchmark's per_threshold ladder.
        let Ok(((metrics, hit), micros)) = res else {
            continue;
        };
        cells.push(CellStat {
            bench: baselines[b].name.to_string(),
            label: point.label.to_string(),
            hit,
            micros,
        });
        per_bench[b].push((point, metrics));
    }

    let results = baselines
        .into_iter()
        .zip(per_bench)
        .map(|(bl, per_threshold)| BenchResult {
            name: bl.name,
            class: bl.class,
            per_threshold,
            train: bl.train,
            avep: bl.avep,
            base_cycles: bl.base_cycles,
            avep_ops: bl.avep_ops,
        })
        .collect();

    let (hits, misses, evictions) = store
        .as_ref()
        .map_or((0, 0, 0), |s| (s.hits(), s.misses(), s.evictions()));
    let (baseline_times, ladder_times) = phase_histograms(&cells);
    let guest_runs = ctx.guest_runs.load(Ordering::Relaxed);
    if incidents.aborted() {
        return Err(fail_fast_error(&incidents));
    }
    let completed = cells.len();
    Ok(SweepReport {
        results,
        cells,
        guest_runs,
        cache_hits: hits,
        cache_misses: misses,
        cache_evictions: evictions,
        elapsed: t0.elapsed(),
        event_counts: opts.tracer.as_ref().map_or_else(Vec::new, |t| t.counts()),
        baseline_times,
        ladder_times,
        degraded: incidents.into_report(completed),
    })
}

/// The `--fail-fast` abort error, naming the first failed cell.
fn fail_fast_error(incidents: &Incidents) -> Box<dyn std::error::Error + Send + Sync> {
    incidents.first_failure().map_or_else(
        || "sweep aborted (--fail-fast)".into(),
        |i| {
            format!(
                "sweep aborted (--fail-fast): {}/{}: {}",
                i.bench, i.label, i.cause
            )
            .into()
        },
    )
}

/// Runs — or serves from `opts.cache_dir` — a plain no-opt profile of
/// one guest (the `AVEP` / `INIP(train)` shape, used by `tpdbt-dump`).
/// Returns the artifact and whether it came from the store.
///
/// # Errors
///
/// Propagates guest traps (classified as a [`CellFailure`], after the
/// policy's retries for retryable causes).
pub fn plain_profile_run(
    name: &str,
    binary: &BuiltProgram,
    input: &[i64],
    input_key: u8,
    scale_key: u8,
    opts: &SweepOptions,
) -> Result<(PlainArtifact, bool)> {
    let store = open_store(opts);
    let incidents = Incidents::default();
    let ctx = Ctx::new(store.as_ref(), opts, &incidents);
    let guest = GuestId::new(name, binary, input, input_key, scale_key);
    Ok(ctx.guarded(name, "avep", || {
        plain_run(&ctx, &guest, DbtConfig::no_opt())
    })?)
}

/// A multi-threshold sweep of one guest (the `tpdbt-run` path): metrics
/// per requested threshold, in request order.
#[derive(Debug)]
pub struct ThresholdSweep {
    /// One metric set per *completed* threshold, in request order
    /// (failed cells are dropped and reported in
    /// [`ThresholdSweep::degraded`]; each metric set carries its
    /// threshold).
    pub per_threshold: Vec<ThresholdMetrics>,
    /// Per-cell stats (the `avep` baseline first).
    pub cells: Vec<CellStat>,
    /// Guest executions actually performed.
    pub guest_runs: u64,
    /// Store lookups served from disk.
    pub cache_hits: u64,
    /// Store lookups that missed.
    pub cache_misses: u64,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Retried and failed cells with causes (empty for a clean sweep).
    pub degraded: DegradedReport,
}

/// Sweeps one guest program over `thresholds` with caching and a worker
/// pool. Works for arbitrary guests (not just suite benchmarks): the
/// cache key's fingerprint covers the serialized binary and input
/// words, so `scale_key` only disambiguates the human-readable side of
/// the key.
///
/// # Errors
///
/// A failed `avep` baseline (every cell needs it) and `--fail-fast`
/// aborts return errors; individually failed threshold cells are
/// dropped and reported in [`ThresholdSweep::degraded`].
pub fn threshold_sweep(
    name: &str,
    binary: &BuiltProgram,
    input: &[i64],
    scale_key: u8,
    thresholds: &[u64],
    opts: &SweepOptions,
) -> Result<ThresholdSweep> {
    let t0 = Instant::now();
    let store = open_store(opts);
    let incidents = Incidents::default();
    let ctx = Ctx::new(store.as_ref(), opts, &incidents);
    let guest = GuestId::new(name, binary, input, 0, scale_key);
    ctx.trace_emit(|| EventKind::CellQueued {
        bench: name.to_string(),
        label: "avep".to_string(),
    });
    for &threshold in thresholds {
        ctx.trace_emit(|| EventKind::CellQueued {
            bench: name.to_string(),
            label: format!("T={threshold}"),
        });
    }

    let mut cells = Vec::with_capacity(1 + thresholds.len());
    ctx.trace_emit(|| EventKind::CellStarted {
        bench: name.to_string(),
        label: "avep".to_string(),
    });
    let ((avep_art, avep_hit), t) = ctx.guarded(name, "avep", || {
        timed(|| plain_run(&ctx, &guest, DbtConfig::no_opt()))
    })?;
    ctx.trace_cell_done(name, "avep", avep_hit, t);
    cells.push(CellStat {
        bench: name.to_string(),
        label: "avep".to_string(),
        hit: avep_hit,
        micros: t,
    });
    let avep_output_digest = fnv64_words(&avep_art.output);

    let cell_results = parallel_map(opts.jobs.max(1), thresholds, |_, &threshold| {
        let label = format!("T={threshold}");
        ctx.trace_emit(|| EventKind::CellStarted {
            bench: name.to_string(),
            label: label.clone(),
        });
        let res = ctx.guarded(name, &label, || {
            timed(|| {
                cell_run(
                    &ctx,
                    &guest,
                    threshold,
                    &avep_art.profile,
                    avep_output_digest,
                )
            })
        });
        if let Ok(((_, hit), micros)) = &res {
            ctx.trace_cell_done(name, &label, *hit, *micros);
        }
        res
    });
    let mut per_threshold = Vec::with_capacity(thresholds.len());
    for (&threshold, res) in thresholds.iter().zip(cell_results) {
        let Ok(((metrics, hit), micros)) = res else {
            continue;
        };
        cells.push(CellStat {
            bench: name.to_string(),
            label: format!("T={threshold}"),
            hit,
            micros,
        });
        per_threshold.push(metrics);
    }

    let (hits, misses) = store.as_ref().map_or((0, 0), |s| (s.hits(), s.misses()));
    let guest_runs = ctx.guest_runs.load(Ordering::Relaxed);
    if incidents.aborted() {
        return Err(fail_fast_error(&incidents));
    }
    let completed = cells.len();
    Ok(ThresholdSweep {
        per_threshold,
        cells,
        guest_runs,
        cache_hits: hits,
        cache_misses: misses,
        elapsed: t0.elapsed(),
        degraded: incidents.into_report(completed),
    })
}

/// A serial, uncached tiny-scale sweep of `names` that must complete
/// every cell (the unit tests' figure input).
#[cfg(test)]
pub(crate) fn tiny_serial_sweep(names: &[&str]) -> Vec<BenchResult> {
    let opts = SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    };
    let report = run_sweep(names, Scale::Tiny, &opts, |_| {}).expect("sweep runs");
    assert!(
        !report.degraded.is_degraded(),
        "{}",
        report.degraded.render()
    );
    report.results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_is_order_preserving() {
        let items: Vec<usize> = (0..100).collect();
        let serial = parallel_map(1, &items, |i, &x| (i, x * x));
        let parallel = parallel_map(8, &items, |i, &x| (i, x * x));
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], (7, 49));
    }

    #[test]
    fn parallel_map_handles_fewer_items_than_jobs() {
        let items = [1u64];
        assert_eq!(parallel_map(16, &items, |_, &x| x + 1), vec![2]);
        let empty: [u64; 0] = [];
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
    }

    /// Ladder cells rebuild the reference identity from stage-1
    /// digests; the keys must equal a freshly hashed identity's.
    #[test]
    fn ref_id_reuses_stage_one_digests() {
        let opts = SweepOptions::default();
        let incidents = Incidents::default();
        let ctx = Ctx::new(None, &opts, &incidents);
        let bl = baselines_for("gzip", Scale::Tiny, &ctx).expect("tiny gzip baselines");
        assert_eq!(bl.ref_input_digest, fnv64_words(&bl.reference.input));
        let fresh = GuestId::new(
            bl.name,
            &bl.reference.binary,
            &bl.reference.input,
            input_code(InputKind::Ref),
            Scale::Tiny.code(),
        );
        let cfg = DbtConfig::two_phase(50);
        assert_eq!(bl.ref_id(Scale::Tiny).key(&cfg), fresh.key(&cfg));
    }

    #[test]
    fn mode_codes_are_stable() {
        // On-disk compatibility: these codes are part of the cache key.
        assert_eq!(mode_code(ProfilingMode::TwoPhase), 0);
        assert_eq!(mode_code(ProfilingMode::NoOpt), 1);
        assert_eq!(mode_code(ProfilingMode::Continuous), 2);
        assert_eq!(mode_code(ProfilingMode::Adaptive), 3);
        assert_eq!(input_code(InputKind::Ref), 0);
        assert_eq!(input_code(InputKind::Train), 1);
    }
}
