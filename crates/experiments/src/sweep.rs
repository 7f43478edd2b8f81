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
//! [`threshold_sweep`] (one guest, `tpdbt-run`) goes through the same
//! `avep` baseline cell, ladder-cell loop and report.
//!
//! This module is the one cell path of every producer and consumer of
//! stored artifacts. [`SuiteGuest`] is the only guest identity and
//! derives every cache key; [`Producer`] is the only code that runs a
//! guest for an artifact and builds it (`plain`, `base`, `cell`).
//! `tpdbt-dump` and `tpdbt-serve` use both, so an artifact means the
//! same thing, and has the same bytes, whoever computed it.
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
use tpdbt_faults::{FaultPlan, FaultSite};
use tpdbt_isa::{binfmt, BuiltProgram, PredecodedProgram};
use tpdbt_profile::report::{analyze, analyze_train, ThresholdMetrics, TrainMetrics};
use tpdbt_store::digest::{fnv64, fnv64_words, Fnv64};
use tpdbt_store::{
    BaseArtifact, CacheKey, CellArtifact, PlainArtifact, ProfileStore, TypedArtifact,
};
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
    store: Option<ProfileStore>,
    tracer: Option<&'a Arc<Tracer>>,
    guest_runs: AtomicU64,
    policy: &'a FaultPolicy,
    incidents: Incidents,
    backend: Backend,
    /// When the sweep began, for [`SweepReport::elapsed`].
    started: Instant,
}

impl<'a> Ctx<'a> {
    fn new(opts: &'a SweepOptions) -> Self {
        Ctx {
            started: Instant::now(),
            store: open_store(opts),
            tracer: opts.tracer.as_ref(),
            guest_runs: AtomicU64::new(0),
            policy: &opts.policy,
            incidents: Incidents::default(),
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

    /// Emits `CellQueued` for one planned cell.
    fn queued(&self, bench: &str, label: &str) {
        self.trace_emit(|| EventKind::CellQueued {
            bench: bench.to_string(),
            label: label.to_string(),
        });
    }

    /// The artifact producer for this sweep's cells.
    fn producer(&self) -> Producer<'_> {
        Producer {
            store: self.store.as_ref(),
            tracer: self.tracer,
            backend: self.backend,
            guest_runs: &self.guest_runs,
            commit_crash: self.policy.plan.as_deref(),
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

    /// Runs one cell start to finish: a `CellStarted` event, the body
    /// timed inside [`Ctx::guarded`], then the cache verdict and
    /// `CellCommitted` events. `body` returns its value and whether
    /// the store served it.
    fn run_cell<T>(
        &self,
        bench: &str,
        label: &str,
        body: impl Fn() -> Result<(T, bool)>,
    ) -> std::result::Result<(T, CellStat), CellFailure> {
        self.trace_emit(|| EventKind::CellStarted {
            bench: bench.to_string(),
            label: label.to_string(),
        });
        let ((value, hit), micros) = self.guarded(bench, label, || timed(&body))?;
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
        let stat = CellStat {
            bench: bench.to_string(),
            label: label.to_string(),
            hit,
            micros,
        };
        Ok((value, stat))
    }

    /// The `avep` baseline cell of `guest`, which every ladder cell of
    /// the guest is analyzed against.
    fn avep_cell(
        &self,
        guest: &SuiteGuest,
    ) -> std::result::Result<(PlainArtifact, CellStat), CellFailure> {
        self.run_cell(&guest.name, "avep", || {
            plain_run(self, guest, DbtConfig::no_opt())
        })
    }

    /// Stage 2: queues every `INIP(T)` cell, then runs them over one
    /// pool. A failed cell (already recorded by `guarded`) yields
    /// `None`, so it is simply absent from its guest's ladder.
    fn run_ladder(
        &self,
        jobs: usize,
        cells: &[LadderCell<'_>],
    ) -> Vec<Option<(ThresholdMetrics, CellStat)>> {
        for c in cells {
            self.queued(&c.guest.name, &c.label);
        }
        parallel_map(jobs, cells, |_, c| {
            self.run_cell(&c.guest.name, &c.label, || {
                cell_run(self, c.guest, c.threshold, c.avep)
            })
            .ok()
        })
    }

    /// The report tail of both sweeps: the `--fail-fast` check, store
    /// counters, guest runs and the degradation report.
    fn report(self, results: Vec<BenchResult>, cells: Vec<CellStat>) -> Result<SweepReport> {
        if self.incidents.aborted() {
            return Err(fail_fast_error(&self.incidents));
        }
        let (cache_hits, cache_misses, cache_evictions) = self
            .store
            .as_ref()
            .map_or((0, 0, 0), |s| (s.hits(), s.misses(), s.evictions()));
        let (baseline_times, ladder_times) = phase_histograms(&cells);
        let completed = cells.len();
        Ok(SweepReport {
            results,
            cells,
            guest_runs: self.guest_runs.into_inner(),
            cache_hits,
            cache_misses,
            cache_evictions,
            elapsed: self.started.elapsed(),
            event_counts: self.tracer.map_or_else(Vec::new, |t| t.counts()),
            baseline_times,
            ladder_times,
            degraded: self.incidents.into_report(completed),
        })
    }
}

/// The scale byte in the cache keys of guests loaded from files, which
/// carry no suite scale.
const NO_SCALE: u8 = 255;

/// Identity of one guest program + input: the built binary, the input
/// words, the digests that form its cache keys, and its translation
/// cache. It is the one guest identity of every producer and consumer
/// of stored artifacts — the sweep, `tpdbt-run`, `tpdbt-dump` and
/// `tpdbt-serve` — so a cell keyed by any of them addresses the same
/// store slot, and a warm sweep cache serves queries with zero guest
/// runs and vice versa.
#[derive(Debug)]
pub struct SuiteGuest {
    /// Benchmark (or guest file) name.
    pub name: String,
    binary: BuiltProgram,
    input: Vec<i64>,
    input_code: u8,
    scale_code: u8,
    /// Digest of the serialized binary (`binfmt::write_program`).
    binary_digest: u64,
    /// Digest of the input words, hashed once: key derivation sits on
    /// the serve hot path, where re-hashing the whole input per query
    /// would dwarf a memory-hot lookup.
    input_digest: u64,
    /// Decode-once block cache shared by every run of this guest: a
    /// sweep benchmark or a long-lived service decodes each block at
    /// most once, however many cells execute it.
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
        Ok(SuiteGuest::new(
            w.name,
            w.binary,
            w.input,
            input,
            Some(scale),
        ))
    }

    /// A guest from any program and input words: a `.tpdb` or `.s`
    /// file (`scale` is `None`), or a suite binary run on other input
    /// words. The key's fingerprint covers the serialized binary and
    /// the input words; `input` and `scale` only label the key.
    #[must_use]
    pub fn new(
        name: &str,
        binary: BuiltProgram,
        input: Vec<i64>,
        kind: InputKind,
        scale: Option<Scale>,
    ) -> SuiteGuest {
        SuiteGuest {
            name: name.to_string(),
            binary_digest: fnv64(&binfmt::write_program(&binary)),
            input_digest: fnv64_words(&input),
            predecoded: Arc::new(PredecodedProgram::new(&binary.program)),
            binary,
            input,
            input_code: input_code(kind),
            scale_code: scale.map_or(NO_SCALE, Scale::code),
        }
    }

    /// The guest binary.
    #[must_use]
    pub fn binary(&self) -> &BuiltProgram {
        &self.binary
    }

    /// The guest's input words.
    #[must_use]
    pub fn input(&self) -> &[i64] {
        &self.input
    }

    /// The full cache key of running this guest under `cfg`.
    #[must_use]
    pub fn key(&self, cfg: &DbtConfig) -> CacheKey {
        let mut h = Fnv64::new();
        h.write_u64(self.binary_digest);
        h.write_u64(self.input_digest);
        h.write_u64(cfg.fingerprint());
        CacheKey {
            workload: self.name.clone(),
            input: self.input_code,
            scale: self.scale_code,
            mode: mode_code(cfg.mode),
            threshold: cfg.threshold,
            fingerprint: h.finish(),
        }
    }
}

/// The one producer of stored artifacts: runs a guest, builds the
/// artifact, and commits it to the store under the guest's key. The
/// sweep and `tpdbt-serve` both produce through it, so an artifact
/// either one computes is byte-identical on disk. Lookups stay with
/// the callers, which validate (sweep) or tier (serve) them.
pub struct Producer<'a> {
    /// Where artifacts are committed (best-effort); `None` keeps them
    /// in memory only.
    pub store: Option<&'a ProfileStore>,
    /// Receives one [`EventKind::GuestRun`] per execution, then the
    /// engine's own lifecycle events.
    pub tracer: Option<&'a Arc<Tracer>>,
    /// Execution backend. It is applied after the key is derived and
    /// is not part of it: backends are bitwise result-identical.
    pub backend: Backend,
    /// Counts guest executions.
    pub guest_runs: &'a AtomicU64,
    /// A plan consulted at [`FaultSite::CrashSweepCommit`] after each
    /// store write (the sweep's commit window).
    pub commit_crash: Option<&'a FaultPlan>,
}

impl Producer<'_> {
    fn run(&self, guest: &SuiteGuest, config: DbtConfig) -> Result<RunOutcome> {
        self.guest_runs.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.tracer {
            t.emit(EventKind::GuestRun {
                name: guest.name.clone(),
            });
        }
        let mut dbt = Dbt::new(config.with_backend(self.backend))
            .with_predecoded(Arc::clone(&guest.predecoded));
        if let Some(t) = self.tracer {
            dbt = dbt.with_tracer(Arc::clone(t));
        }
        Ok(dbt.run_built(&guest.binary, &guest.input)?)
    }

    fn commit<A: TypedArtifact>(&self, key: &CacheKey, artifact: A) -> A {
        let Some(store) = self.store else {
            return artifact;
        };
        let artifact = artifact.into_artifact();
        // A write failure degrades the cache, not the result; the
        // store's own counters and trace events record it.
        let _ = store.store(key, &artifact);
        if let Some(plan) = self.commit_crash {
            plan.fire_crash(FaultSite::CrashSweepCommit);
        }
        A::from_artifact(artifact).expect("an artifact keeps its kind")
    }

    /// Runs `guest` under `cfg` for a plain whole-run profile: `AVEP`
    /// on the ref input, `INIP(train)` on the train input.
    ///
    /// # Errors
    ///
    /// Guest traps and harness failures from the engine.
    pub fn plain(&self, guest: &SuiteGuest, cfg: DbtConfig) -> Result<PlainArtifact> {
        let key = guest.key(&cfg);
        let out = self.run(guest, cfg)?;
        let artifact = PlainArtifact {
            profile: out.as_plain_profile(),
            output: out.output,
        };
        Ok(self.commit(&key, artifact))
    }

    /// Runs `guest` under `cfg` (`T = 1`) for the Figure 17
    /// performance base.
    ///
    /// # Errors
    ///
    /// Guest traps and harness failures from the engine.
    pub fn base(&self, guest: &SuiteGuest, cfg: DbtConfig) -> Result<BaseArtifact> {
        let key = guest.key(&cfg);
        let out = self.run(guest, cfg)?;
        let artifact = BaseArtifact {
            cycles: out.stats.cycles,
            output_digest: fnv64_words(&out.output),
        };
        Ok(self.commit(&key, artifact))
    }

    /// Runs `guest` under the two-phase `cfg` and analyzes its
    /// `INIP(T)` against `avep`.
    ///
    /// # Errors
    ///
    /// Guest traps, harness and analysis failures.
    pub fn cell(
        &self,
        guest: &SuiteGuest,
        cfg: DbtConfig,
        avep: &PlainArtifact,
    ) -> Result<CellArtifact> {
        let key = guest.key(&cfg);
        let out = self.run(guest, cfg)?;
        let output_digest = fnv64_words(&out.output);
        // The guest must compute the same answer under every threshold.
        debug_assert_eq!(
            output_digest,
            fnv64_words(&avep.output),
            "{} diverged at T={}",
            guest.name,
            cfg.threshold
        );
        let artifact = CellArtifact {
            metrics: analyze(&out.inip, &avep.profile)?,
            output_digest,
        };
        Ok(self.commit(&key, artifact))
    }
}

/// One `INIP(T)` ladder cell: the guest, the `AVEP` its metrics are
/// analyzed against, and the threshold.
struct LadderCell<'a> {
    guest: &'a SuiteGuest,
    avep: &'a PlainArtifact,
    threshold: u64,
    label: String,
}

/// Loads or produces a plain whole-run profile: `AVEP` or
/// `INIP(train)`.
fn plain_run(ctx: &Ctx<'_>, guest: &SuiteGuest, cfg: DbtConfig) -> Result<(PlainArtifact, bool)> {
    let cfg = ctx.apply_watchdog(cfg);
    if let Some(p) = ctx
        .store
        .as_ref()
        .and_then(|s| s.load_plain(&guest.key(&cfg)))
    {
        return Ok((p, true));
    }
    Ok((ctx.producer().plain(guest, cfg)?, false))
}

/// Loads or produces the `T = 1` performance base (Figure 17).
fn base_run(
    ctx: &Ctx<'_>,
    guest: &SuiteGuest,
    expected_output_digest: u64,
) -> Result<(BaseArtifact, bool)> {
    let cfg = ctx.apply_watchdog(DbtConfig::two_phase(1));
    let cached = ctx
        .store
        .as_ref()
        .and_then(|s| s.load_base(&guest.key(&cfg)))
        .filter(|b| b.output_digest == expected_output_digest);
    if let Some(b) = cached {
        return Ok((b, true));
    }
    Ok((ctx.producer().base(guest, cfg)?, false))
}

/// Loads or produces one `INIP(T)` ladder cell, analyzed against
/// `avep`.
fn cell_run(
    ctx: &Ctx<'_>,
    guest: &SuiteGuest,
    threshold: u64,
    avep: &PlainArtifact,
) -> Result<(ThresholdMetrics, bool)> {
    let cfg = ctx.apply_watchdog(DbtConfig::two_phase(threshold));
    let avep_output_digest = fnv64_words(&avep.output);
    // Defense in depth beyond the key: the cached cell must have been
    // analyzed against the same guest computation.
    let cached = ctx
        .store
        .as_ref()
        .and_then(|s| s.load_cell(&guest.key(&cfg)))
        .filter(|c| c.metrics.threshold == threshold && c.output_digest == avep_output_digest);
    if let Some(c) = cached {
        return Ok((c.metrics, true));
    }
    Ok((ctx.producer().cell(guest, cfg, avep)?.metrics, false))
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
    /// The reference guest, hashed and decoded once in stage 1; every
    /// stage-2 ladder cell of this benchmark borrows it.
    reference: SuiteGuest,
    avep: PlainArtifact,
    train: TrainMetrics,
    base_cycles: u64,
    stats: Vec<CellStat>,
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
    let (name, class) = (reference.name, reference.class);
    for label in ["avep", "train", "base"] {
        ctx.queued(name, label);
    }
    let guest = |w: Workload, kind| SuiteGuest::new(w.name, w.binary, w.input, kind, Some(scale));
    let reference = guest(reference, InputKind::Ref);
    let (avep, avep_stat) = ctx.avep_cell(&reference)?;

    let training = guest(training, InputKind::Train);
    let (train_art, train_stat) = ctx.run_cell(name, "train", || {
        plain_run(ctx, &training, DbtConfig::no_opt())
    })?;
    let train = analyze_train(&train_art.profile, &avep.profile);

    let avep_output_digest = fnv64_words(&avep.output);
    let (base, base_stat) = ctx.run_cell(name, "base", || {
        base_run(ctx, &reference, avep_output_digest)
    })?;

    Ok(Baselines {
        name,
        class,
        reference,
        avep,
        train,
        base_cycles: base.cycles,
        stats: vec![avep_stat, train_stat, base_stat],
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
    let ctx = Ctx::new(opts);
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
                    ctx.incidents.record_failed(CellIncident {
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
    let items: Vec<(usize, LadderPoint)> = (0..baselines.len())
        .flat_map(|b| points.iter().map(move |&p| (b, p)))
        .collect();
    let ladder_cells: Vec<LadderCell<'_>> = items
        .iter()
        .map(|&(b, point)| LadderCell {
            guest: &baselines[b].reference,
            avep: &baselines[b].avep,
            threshold: point.actual,
            label: point.label.to_string(),
        })
        .collect();
    let cell_results = ctx.run_ladder(jobs, &ladder_cells);

    // Assemble in deterministic order: baseline stats benchmark-major,
    // then ladder cells benchmark-major.
    let mut cells: Vec<CellStat> = Vec::new();
    for b in &mut baselines {
        cells.append(&mut b.stats);
    }
    let mut per_bench: Vec<Vec<(LadderPoint, ThresholdMetrics)>> =
        baselines.iter().map(|_| Vec::new()).collect();
    for (&(b, point), res) in items.iter().zip(cell_results) {
        if let Some((metrics, stat)) = res {
            cells.push(stat);
            per_bench[b].push((point, metrics));
        }
    }

    let results = baselines
        .into_iter()
        .zip(per_bench)
        .map(|(bl, per_threshold)| BenchResult {
            name: bl.name,
            class: bl.class,
            per_threshold,
            train: bl.train,
            avep_ops: bl.avep.profile.profiling_ops,
            avep: bl.avep.profile,
            base_cycles: bl.base_cycles,
        })
        .collect();
    ctx.report(results, cells)
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

/// Loads — or produces into `opts.cache_dir` — the plain no-opt
/// profile of `guest` (the `AVEP` / `INIP(train)` shape, used by
/// `tpdbt-dump`). Returns the artifact and whether it came from the
/// store.
///
/// # Errors
///
/// Propagates guest traps (classified as a [`CellFailure`], after the
/// policy's retries for retryable causes).
pub fn plain_profile_run(guest: &SuiteGuest, opts: &SweepOptions) -> Result<(PlainArtifact, bool)> {
    let ctx = Ctx::new(opts);
    Ok(ctx.guarded(&guest.name, "avep", || {
        plain_run(&ctx, guest, DbtConfig::no_opt())
    })?)
}

/// A multi-threshold sweep of one guest (the `tpdbt-run` path).
#[derive(Debug)]
pub struct ThresholdSweep {
    /// One metric set per *completed* threshold, in request order
    /// (failed cells are dropped and reported in the report's
    /// `degraded`; each metric set carries its threshold).
    pub per_threshold: Vec<ThresholdMetrics>,
    /// Cells (the `avep` baseline first), store counters, guest runs
    /// and degradation; `results` is empty.
    pub report: SweepReport,
}

/// Sweeps `guest` over `thresholds` with caching and a worker pool,
/// through the same baseline and ladder-cell code as [`run_sweep`].
///
/// # Errors
///
/// A failed `avep` baseline (every cell needs it) and `--fail-fast`
/// aborts return errors; individually failed threshold cells are
/// dropped and reported in the report's `degraded`.
pub fn threshold_sweep(
    guest: &SuiteGuest,
    thresholds: &[u64],
    opts: &SweepOptions,
) -> Result<ThresholdSweep> {
    let ctx = Ctx::new(opts);
    ctx.queued(&guest.name, "avep");
    let (avep, avep_stat) = ctx.avep_cell(guest)?;
    let ladder_cells: Vec<LadderCell<'_>> = thresholds
        .iter()
        .map(|&threshold| LadderCell {
            guest,
            avep: &avep,
            threshold,
            label: format!("T={threshold}"),
        })
        .collect();
    let mut cells = vec![avep_stat];
    let mut per_threshold = Vec::with_capacity(thresholds.len());
    for (metrics, stat) in ctx
        .run_ladder(opts.jobs.max(1), &ladder_cells)
        .into_iter()
        .flatten()
    {
        cells.push(stat);
        per_threshold.push(metrics);
    }
    Ok(ThresholdSweep {
        per_threshold,
        report: ctx.report(Vec::new(), cells)?,
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
