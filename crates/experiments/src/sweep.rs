//! Cached, parallel sweep orchestration: the one executor of the
//! paper's methodology ([`crate::runner`]). The work unit is one
//! benchmark input, and it runs through two layers:
//!
//! * **Persistent profile store** — with a cache directory
//!   ([`SweepOptions::cache_dir`]), every cell's artifact is written to
//!   a [`ProfileStore`] keyed by the full identity of the run
//!   (workload, input kind, scale, profiling mode, threshold, and a
//!   content fingerprint of the guest binary + input words +
//!   [`DbtConfig::fingerprint`]). A warm rerun of an identical sweep
//!   performs **zero** guest re-executions and reproduces
//!   bitwise-identical metrics; any change to a benchmark generator or
//!   config knob changes the fingerprint and re-addresses fresh slots.
//! * **Scoped-thread worker pool** — independent units execute
//!   concurrently ([`SweepOptions::jobs`]) over a shared work queue,
//!   with results committed by unit index so ordering and values are
//!   identical to serial execution.
//!
//! A benchmark is two units. The ref unit holds `AVEP`, the `T = 1`
//! performance base and every `INIP(T)` ladder cell; the train unit
//! holds `INIP(train)`. Each cell looks itself up in the store, and the
//! cells that missed share one guest execution: a [`Lockstep`] run
//! that steps the guest once and feeds one translation policy per
//! distinct key, each outcome bitwise equal to that config's single
//! run. So a cold ref unit is one guest run, not one per cell. Per-cell
//! hit/miss and timing stats are collected in [`SweepReport::cells`]
//! for end-of-sweep reporting. [`threshold_sweep`] (one guest,
//! `tpdbt-run`) runs one such unit.
//!
//! This module is the one cell path of every producer and consumer of
//! stored artifacts. [`SuiteGuest`] is the only guest identity and
//! derives every cache key; [`Producer`] is the only code that runs a
//! guest for an artifact and builds it, with one builder per kind
//! (`plain`, `base`, `cell`). `tpdbt-dump` and `tpdbt-serve` use both,
//! so an artifact means the same thing, and has the same bytes,
//! whoever computed it.
//!
//! Every cell is additionally a fault-isolation domain (DESIGN.md §9):
//! its store lookup, and the guest execution it shares with the other
//! cells of its unit, run under `catch_unwind` (the lookup with the
//! cell's fault injection), failures are classified by
//! [`crate::resilience::CellFailure`], retryable ones (worker panics)
//! get up to [`FaultPolicy::max_retries`] exponential-backoff retries,
//! and fatal ones (deterministic guest traps, harness errors) fail the
//! cell alone — the sweep keeps going, drops the failed cell from the
//! results, and reports the damage in [`SweepReport::degraded`]. A
//! shared execution that keeps panicking reruns each policy alone, so
//! only the cells whose own policy panics are lost; a guest trap fails
//! every cell that needed the execution, since they all trap alike. A
//! failed baseline (`avep`, `base`, `train`) drops its benchmark.
//! With [`FaultPolicy::fail_fast`] the first failed cell aborts the
//! sweep instead. A [`FaultPolicy::plan`] arms deterministic fault
//! injection in the workers and the store; with no plan attached every
//! site is one branch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tpdbt_dbt::{Backend, Dbt, DbtConfig, DbtError, Lockstep, ProfilingMode, RunOutcome};
use tpdbt_faults::{FaultPlan, FaultSite};
use tpdbt_isa::{binfmt, BuiltProgram, PredecodedProgram};
use tpdbt_profile::report::{analyze, analyze_train, ThresholdMetrics};
use tpdbt_store::digest::{fnv64, fnv64_words, Fnv64};
use tpdbt_store::{
    BaseArtifact, CacheKey, CellArtifact, PlainArtifact, ProfileStore, TypedArtifact,
};
use tpdbt_suite::{workload, BenchClass, InputKind, Scale};
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
    /// Wall-clock time attributed to this cell, in microseconds. A
    /// store hit is its own lookup. The cells a unit computed share one
    /// guest execution, so they split the unit's wall time, less its
    /// hits' lookups, evenly. The cells of a sweep therefore add up to
    /// at most [`SweepReport::elapsed`] under `jobs = 1`.
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
    /// Guest executions actually performed: one per unit that had a
    /// cell to compute (two when a stored artifact failed the check
    /// against a freshly computed `AVEP`, and more when a panic made
    /// the unit retry or rerun its policies alone).
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

/// Splits per-cell wall times into baselines (`avep`/`train`/`base`)
/// and ladder cells (everything else).
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

    /// Runs `body` inside the fault-isolation boundary of the cells
    /// `labels`: panics are caught, failures classified, and retryable
    /// ones retried with exponential backoff up to
    /// [`FaultPolicy::max_retries`]. A success after retries is a
    /// retried incident of every cell; a terminal failure comes back
    /// with its attempt count, for the caller to record. Cells queued
    /// after a `--fail-fast` abort return [`CellFailure::Skipped`]
    /// without running.
    fn retrying<T>(
        &self,
        bench: &str,
        labels: &[&str],
        body: impl Fn() -> Result<T>,
    ) -> std::result::Result<T, (CellFailure, u32)> {
        let mut attempt: u32 = 0;
        let mut last_cause = String::new();
        loop {
            if self.incidents.aborted() {
                return Err((CellFailure::Skipped, attempt + 1));
            }
            let failure = match isolated(bench, &body) {
                Ok(v) => {
                    if attempt > 0 {
                        for label in labels {
                            self.retried(bench, label, attempt + 1, &last_cause);
                        }
                    }
                    return Ok(v);
                }
                Err(failure) => failure,
            };
            let cause = failure.to_string();
            if !failure.retryable() || attempt >= self.policy.max_retries {
                return Err((failure, attempt + 1));
            }
            attempt += 1;
            for label in labels {
                self.trace_emit(|| EventKind::CellRetried {
                    bench: bench.to_string(),
                    label: (*label).to_string(),
                    attempt,
                    cause: cause.clone(),
                });
            }
            let backoff = self
                .policy
                .backoff
                .saturating_mul(1_u32 << (attempt - 1).min(16))
                .min(MAX_BACKOFF);
            std::thread::sleep(backoff);
            last_cause = cause;
        }
    }

    /// Records a cell that failed `attempts - 1` times before it
    /// succeeded.
    fn retried(&self, bench: &str, label: &str, attempts: u32, cause: &str) {
        self.incidents.record_retried(CellIncident {
            bench: bench.to_string(),
            label: label.to_string(),
            attempts,
            cause: cause.to_string(),
        });
    }

    /// Runs one cell's body with the cell's fault injection under
    /// [`Ctx::retrying`], recording a terminal failure.
    fn guarded<T>(
        &self,
        bench: &str,
        label: &str,
        body: impl Fn() -> Result<T>,
    ) -> std::result::Result<T, CellFailure> {
        self.retrying(bench, &[label], || {
            self.inject_cell_faults(bench, label)?;
            body()
        })
        .map_err(|(failure, attempts)| {
            self.record_failure(bench, label, attempts, &failure);
            failure
        })
    }

    /// Looks up one cell's artifact in the store. A ladder cell's
    /// artifact must also carry the cell's own threshold.
    fn load(&self, guest: &SuiteGuest, cell: &UnitCell) -> Option<Yield> {
        let store = self.store.as_ref()?;
        let key = guest.key(&cell.cfg);
        match cell.kind {
            CellKind::Plain => store.load_plain(&key).map(Yield::Plain),
            CellKind::Base => store.load_base(&key).map(Yield::Base),
            CellKind::Ladder => store
                .load_cell(&key)
                .filter(|c| c.metrics.threshold == cell.cfg.threshold)
                .map(Yield::Ladder),
        }
    }

    /// Runs one unit: every cell of `cells` on `guest`, the plain
    /// profile first and baselines before ladder cells.
    ///
    /// Each cell is a fault-isolation domain for its store lookup,
    /// which runs inside [`Ctx::guarded`] with the cell's fault
    /// injection. A failed baseline stops the unit: later cells never
    /// run (`None`). The cells that missed the store then share one
    /// guest execution ([`Producer`]'s lockstep run), cells with
    /// identical keys sharing one policy, and each builds and commits
    /// its artifact from its outcome. That execution is retried and
    /// isolated per policy as [`Ctx::execute`] describes.
    ///
    /// Stored artifacts must match the plain profile's output. When the
    /// plain profile itself missed, that check waits for the execution,
    /// and a stored artifact that fails it is recomputed by a second
    /// one.
    fn run_unit(&self, guest: &SuiteGuest, cells: &[UnitCell]) -> Vec<CellOutcome> {
        let started = Instant::now();
        let bench = guest.name.as_str();
        let mut slots: Vec<Slot> = Vec::with_capacity(cells.len());
        let mut baseline_failed = false;
        for c in cells {
            if baseline_failed {
                slots.push(Slot::NotRun);
                continue;
            }
            self.trace_emit(|| EventKind::CellStarted {
                bench: bench.to_string(),
                label: c.label.clone(),
            });
            let looked = self.guarded(bench, &c.label, || timed(|| Ok(self.load(guest, c))));
            slots.push(match looked {
                Ok((Some(found), micros)) => Slot::Stored(found, micros),
                Ok((None, _)) => Slot::Missing,
                Err(failure) => {
                    baseline_failed = c.kind != CellKind::Ladder;
                    Slot::Failed(failure)
                }
            });
        }
        loop {
            let (plain, rest) = slots.split_at_mut(1);
            if let Slot::Stored(Yield::Plain(p), _) | Slot::Computed(Yield::Plain(p)) = &plain[0] {
                let expected = fnv64_words(&p.output);
                for slot in rest {
                    if matches!(slot, Slot::Stored(found, _) if found.output_digest() != expected) {
                        *slot = Slot::Missing;
                    }
                }
            }
            let pending: Vec<usize> = (0..slots.len())
                .filter(|&i| matches!(slots[i], Slot::Missing))
                .collect();
            if pending.is_empty() {
                break;
            }
            self.compute(guest, cells, &pending, &mut slots);
        }

        // Stored cells keep their lookup time; the cells the unit
        // computed split the rest of its wall time evenly.
        let stored: u64 = slots
            .iter()
            .map(|s| match s {
                Slot::Stored(_, micros) => *micros,
                _ => 0,
            })
            .sum();
        let computed = slots
            .iter()
            .filter(|s| matches!(s, Slot::Computed(_)))
            .count() as u64;
        let share = micros_since(started).saturating_sub(stored) / computed.max(1);
        slots
            .into_iter()
            .zip(cells)
            .map(|(slot, c)| match slot {
                Slot::NotRun => None,
                Slot::Failed(failure) => Some(Err(failure)),
                Slot::Stored(found, micros) => {
                    Some(Ok((found, self.committed(bench, c, true, micros))))
                }
                Slot::Computed(found) => Some(Ok((found, self.committed(bench, c, false, share)))),
                Slot::Missing => unreachable!("every missing cell was computed or failed"),
            })
            .collect()
    }

    /// Computes the `pending` cells of a unit from one guest execution
    /// ([`Ctx::execute`]) and fills their slots, in cell order: each
    /// cell builds its artifact from its policy's outcome, or fails
    /// with it. A cell whose artifact cannot be built fails alone.
    fn compute(
        &self,
        guest: &SuiteGuest,
        cells: &[UnitCell],
        pending: &[usize],
        slots: &mut [Slot],
    ) {
        let bench = guest.name.as_str();
        // Identical keys share one policy.
        let keys: Vec<CacheKey> = pending.iter().map(|&i| guest.key(&cells[i].cfg)).collect();
        let mut configs = Vec::new();
        let mut policy_of = Vec::with_capacity(pending.len());
        for (j, key) in keys.iter().enumerate() {
            let policy = match keys[..j].iter().position(|k| k == key) {
                Some(first) => policy_of[first],
                None => {
                    configs.push(cells[pending[j]].cfg);
                    configs.len() - 1
                }
            };
            policy_of.push(policy);
        }
        let labels: Vec<&str> = pending.iter().map(|&i| cells[i].label.as_str()).collect();
        let producer = self.producer();
        let (mut outcomes, rerun) = self.execute(guest, &producer, &configs, &labels);
        for (j, &i) in pending.iter().enumerate() {
            let policy = policy_of[j];
            // The last cell reading a policy's outcome takes it.
            let out = if policy_of[j + 1..].contains(&policy) {
                outcomes[policy].clone()
            } else {
                std::mem::replace(&mut outcomes[policy], Err((CellFailure::Skipped, 0)))
            };
            let (plain, rest) = slots.split_at_mut(1);
            let avep = match &plain[0] {
                Slot::Stored(Yield::Plain(p), _) | Slot::Computed(Yield::Plain(p)) => Some(p),
                _ => None,
            };
            let c = &cells[i];
            let built = out.and_then(|out| {
                isolated(bench, || {
                    Ok(match c.kind {
                        CellKind::Plain => Yield::Plain(producer.build_plain(guest, c.cfg, out)),
                        CellKind::Base => Yield::Base(producer.build_base(guest, c.cfg, out)),
                        CellKind::Ladder => {
                            let avep =
                                avep.ok_or("a ladder cell needs its unit's plain profile")?;
                            Yield::Ladder(producer.build_cell(guest, c.cfg, out, avep)?)
                        }
                    })
                })
                .map_err(|failure| (failure, 1))
            });
            let slot = match built {
                Ok(found) => {
                    if let Some((cause, attempts)) = &rerun {
                        self.retried(bench, &c.label, *attempts, cause);
                    }
                    Slot::Computed(found)
                }
                Err((failure, attempts)) => {
                    self.record_failure(bench, &c.label, attempts, &failure);
                    Slot::Failed(failure)
                }
            };
            if i == 0 {
                plain[0] = slot;
            } else {
                rest[i - 1] = slot;
            }
        }
    }

    /// Runs `guest` once under every policy of `configs` inside the
    /// fault-isolation boundary of the cells `labels`, and returns each
    /// policy's outcome or failure with its attempt count. A retryable
    /// failure is retried ([`Ctx::retrying`]); when it persists, each
    /// policy runs alone once more, so only the cells of a policy that
    /// fails on its own are lost. The cause and attempt count of such a
    /// rerun come back too: a cell that completes from it was retried.
    /// Any other failure (a guest trap, an abort) is every policy's:
    /// all of them share the guest execution.
    fn execute(
        &self,
        guest: &SuiteGuest,
        producer: &Producer<'_>,
        configs: &[DbtConfig],
        labels: &[&str],
    ) -> (PolicyOutcomes, Option<(String, u32)>) {
        let bench = guest.name.as_str();
        match self.retrying(bench, labels, || producer.run_lockstep(guest, configs)) {
            Ok(outcomes) => (outcomes.into_iter().map(Ok).collect(), None),
            Err((failure, attempts)) if failure.retryable() && configs.len() > 1 => {
                let alone = configs
                    .iter()
                    .map(|&cfg| {
                        isolated(bench, || producer.run_lockstep(guest, &[cfg]))
                            .map(|mut outcome| outcome.pop().expect("one config, one outcome"))
                            .map_err(|failure| (failure, attempts + 1))
                    })
                    .collect();
                (alone, Some((failure.to_string(), attempts + 1)))
            }
            Err(shared) => (vec![Err(shared); configs.len()], None),
        }
    }

    /// Emits a finished cell's cache verdict and `CellCommitted`, and
    /// returns its stat.
    fn committed(&self, bench: &str, cell: &UnitCell, hit: bool, micros: u64) -> CellStat {
        self.trace_emit(|| {
            let (bench, label) = (bench.to_string(), cell.label.clone());
            if hit {
                EventKind::CellCacheHit { bench, label }
            } else {
                EventKind::CellCacheMiss { bench, label }
            }
        });
        self.trace_emit(|| EventKind::CellCommitted {
            bench: bench.to_string(),
            label: cell.label.clone(),
            micros,
        });
        CellStat {
            bench: bench.to_string(),
            label: cell.label.clone(),
            hit,
            micros,
        }
    }

    /// Builds the suite workload `name` on `kind` input and runs its
    /// unit. A workload that cannot be built fails the unit.
    fn sweep_unit(
        &self,
        name: &str,
        scale: Scale,
        kind: InputKind,
        cells: &[UnitCell],
    ) -> std::result::Result<UnitResult, CellFailure> {
        let w = match workload(name, scale, kind) {
            Ok(w) => w,
            Err(e) => {
                let failure = CellFailure::Harness(e.to_string());
                self.record_failure(name, "workload", 1, &failure);
                return Err(failure);
            }
        };
        let (name, class) = (w.name, w.class);
        let guest = SuiteGuest::new(name, w.binary, w.input, kind, Some(scale));
        Ok(UnitResult {
            name,
            class,
            cells: self.run_unit(&guest, cells),
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
/// either one computes is byte-identical on disk. Each kind has one
/// builder, fed by a single run (`plain`, `base`, `cell`: serve's
/// one-cell queries) or by one outcome of the sweep's lockstep run
/// over a unit. Lookups stay with the callers, which validate (sweep)
/// or tier (serve) them.
pub struct Producer<'a> {
    /// Where artifacts are committed (best-effort); `None` keeps them
    /// in memory only.
    pub store: Option<&'a ProfileStore>,
    /// Receives one [`EventKind::GuestRun`] per execution and the
    /// engine's lifecycle events of every run, lockstep or single.
    pub tracer: Option<&'a Arc<Tracer>>,
    /// Execution backend. It is applied after the key is derived and
    /// is not part of it: backends are bitwise result-identical.
    pub backend: Backend,
    /// Counts guest executions: one per run, lockstep or single.
    pub guest_runs: &'a AtomicU64,
    /// A plan consulted at [`FaultSite::CrashSweepCommit`] after each
    /// store write (the sweep's commit window).
    pub commit_crash: Option<&'a FaultPlan>,
}

impl Producer<'_> {
    fn count_run(&self, guest: &SuiteGuest) {
        self.guest_runs.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.tracer {
            t.emit(EventKind::GuestRun {
                name: guest.name.clone(),
            });
        }
    }

    fn run(&self, guest: &SuiteGuest, config: DbtConfig) -> Result<RunOutcome> {
        self.count_run(guest);
        let mut dbt = Dbt::new(config.with_backend(self.backend))
            .with_predecoded(Arc::clone(&guest.predecoded));
        if let Some(t) = self.tracer {
            dbt = dbt.with_tracer(Arc::clone(t));
        }
        Ok(dbt.run_built(&guest.binary, &guest.input)?)
    }

    /// Runs `guest` once under every config of `configs` in lockstep:
    /// one guest execution, one outcome per config.
    fn run_lockstep(&self, guest: &SuiteGuest, configs: &[DbtConfig]) -> Result<Vec<RunOutcome>> {
        let configs = configs
            .iter()
            .map(|c| c.with_backend(self.backend))
            .collect();
        let mut lockstep = Lockstep::new(configs).with_predecoded(Arc::clone(&guest.predecoded));
        if let Some(t) = self.tracer {
            lockstep = lockstep.with_tracer(Arc::clone(t));
        }
        self.count_run(guest);
        Ok(lockstep.run_built(&guest.binary, &guest.input)?)
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
        let out = self.run(guest, cfg)?;
        Ok(self.build_plain(guest, cfg, out))
    }

    fn build_plain(&self, guest: &SuiteGuest, cfg: DbtConfig, out: RunOutcome) -> PlainArtifact {
        let artifact = PlainArtifact {
            profile: out.as_plain_profile(),
            output: out.output,
        };
        self.commit(&guest.key(&cfg), artifact)
    }

    /// Runs `guest` under `cfg` (`T = 1`) for the Figure 17
    /// performance base.
    ///
    /// # Errors
    ///
    /// Guest traps and harness failures from the engine.
    pub fn base(&self, guest: &SuiteGuest, cfg: DbtConfig) -> Result<BaseArtifact> {
        let out = self.run(guest, cfg)?;
        Ok(self.build_base(guest, cfg, out))
    }

    fn build_base(&self, guest: &SuiteGuest, cfg: DbtConfig, out: RunOutcome) -> BaseArtifact {
        let artifact = BaseArtifact {
            cycles: out.stats.cycles,
            output_digest: fnv64_words(&out.output),
        };
        self.commit(&guest.key(&cfg), artifact)
    }

    /// Runs `guest` under the two-phase `cfg` and analyzes its
    /// `INIP(T)` against `avep`.
    ///
    /// # Errors
    ///
    /// Guest traps, harness and analysis failures, and a run whose
    /// output differs from `avep`'s (nothing is committed then).
    pub fn cell(
        &self,
        guest: &SuiteGuest,
        cfg: DbtConfig,
        avep: &PlainArtifact,
    ) -> Result<CellArtifact> {
        let out = self.run(guest, cfg)?;
        self.build_cell(guest, cfg, out, avep)
    }

    fn build_cell(
        &self,
        guest: &SuiteGuest,
        cfg: DbtConfig,
        out: RunOutcome,
        avep: &PlainArtifact,
    ) -> Result<CellArtifact> {
        // The guest must compute the same answer under every threshold;
        // a run that does not is no profile of the keyed computation.
        let output_digest = fnv64_words(&out.output);
        let expected = fnv64_words(&avep.output);
        if output_digest != expected {
            return Err(format!(
                "{} diverged at T={}: output digest {output_digest:016x}, AVEP's {expected:016x}",
                guest.name, cfg.threshold
            )
            .into());
        }
        let artifact = CellArtifact {
            metrics: analyze(&out.inip, &avep.profile)?,
            output_digest,
        };
        Ok(self.commit(&guest.key(&cfg), artifact))
    }
}

/// What a unit cell produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CellKind {
    /// A plain whole-run profile: `AVEP` (ref) or `INIP(train)`.
    Plain,
    /// The `T = 1` performance base.
    Base,
    /// An `INIP(T)` cell, analyzed against the unit's `AVEP`.
    Ladder,
}

/// One cell of a unit.
struct UnitCell {
    label: String,
    kind: CellKind,
    /// The cell's config, watchdog applied: its key derives from it.
    cfg: DbtConfig,
}

/// A finished cell's artifact.
enum Yield {
    Plain(PlainArtifact),
    Base(BaseArtifact),
    Ladder(CellArtifact),
}

impl Yield {
    /// The digest of the guest output the artifact was computed from.
    fn output_digest(&self) -> u64 {
        match self {
            Yield::Plain(p) => fnv64_words(&p.output),
            Yield::Base(b) => b.output_digest,
            Yield::Ladder(c) => c.output_digest,
        }
    }

    fn into_plain(self) -> PlainArtifact {
        match self {
            Yield::Plain(p) => p,
            _ => unreachable!("a plain cell yields a plain profile"),
        }
    }

    fn into_base(self) -> BaseArtifact {
        match self {
            Yield::Base(b) => b,
            _ => unreachable!("a base cell yields a base"),
        }
    }

    fn into_metrics(self) -> ThresholdMetrics {
        match self {
            Yield::Ladder(c) => c.metrics,
            _ => unreachable!("a ladder cell yields metrics"),
        }
    }
}

/// A cell's state while its unit runs.
enum Slot {
    /// Never attempted: a baseline before it failed.
    NotRun,
    Failed(CellFailure),
    /// Served by the store, with its lookup time.
    Stored(Yield, u64),
    /// Needs the guest.
    Missing,
    /// Produced by the unit's guest execution.
    Computed(Yield),
}

/// Each policy's outcome of a unit's execution, or its failure with the
/// attempts made.
type PolicyOutcomes = Vec<std::result::Result<RunOutcome, (CellFailure, u32)>>;

/// One cell's fate: `None` when a failed baseline before it kept it
/// from running.
type CellOutcome = Option<std::result::Result<(Yield, CellStat), CellFailure>>;

/// A suite unit's cells, with the workload's identity.
struct UnitResult {
    name: &'static str,
    class: BenchClass,
    cells: Vec<CellOutcome>,
}

/// Runs `body` under `catch_unwind`, classifying an error or a panic
/// of the cells of `bench` as a [`CellFailure`].
fn isolated<T>(
    bench: &str,
    body: impl FnOnce() -> Result<T>,
) -> std::result::Result<T, CellFailure> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(CellFailure::classify(bench, e.as_ref())),
        Err(payload) => Err(CellFailure::Panic(panic_message(payload.as_ref()))),
    }
}

fn timed<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, u64)> {
    let t = Instant::now();
    let v = f()?;
    Ok((v, micros_since(t)))
}

fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The cells of a suite benchmark's unit on `kind` input: `avep`, the
/// `T = 1` base and one cell per ladder point on ref; `train` on
/// train.
fn suite_cells(ctx: &Ctx<'_>, kind: InputKind, points: &[LadderPoint]) -> Vec<UnitCell> {
    let cell = |label: &str, kind, cfg| UnitCell {
        label: label.to_string(),
        kind,
        cfg: ctx.apply_watchdog(cfg),
    };
    match kind {
        InputKind::Train => vec![cell("train", CellKind::Plain, DbtConfig::no_opt())],
        InputKind::Ref => {
            let mut cells = vec![
                cell("avep", CellKind::Plain, DbtConfig::no_opt()),
                cell("base", CellKind::Base, DbtConfig::two_phase(1)),
            ];
            cells.extend(
                points
                    .iter()
                    .map(|p| cell(p.label, CellKind::Ladder, DbtConfig::two_phase(p.actual))),
            );
            cells
        }
    }
}

/// One benchmark's result from its two units, or `None` when a
/// baseline failed. A dropped benchmark's ladder cells that did not
/// fail on their own are recorded as skipped, so the degradation
/// report accounts for every planned cell.
fn bench_result(
    ctx: &Ctx<'_>,
    name: &str,
    points: &[LadderPoint],
    reference: std::result::Result<UnitResult, CellFailure>,
    training: std::result::Result<UnitResult, CellFailure>,
    cells: (&mut Vec<CellStat>, &mut Vec<CellStat>),
) -> Option<BenchResult> {
    let (baseline_stats, ladder_stats) = cells;
    let (mut ladder, baselines) = match (reference, training) {
        (Ok(r), Ok(t)) => {
            let mut cells = r.cells.into_iter();
            let (avep, base) = (cells.next().flatten(), cells.next().flatten());
            let train = t.cells.into_iter().next().flatten();
            let ladder: Vec<CellOutcome> = cells.collect();
            let baselines = match (avep, train, base) {
                (Some(Ok(avep)), Some(Ok(train)), Some(Ok(base))) => {
                    Ok((r.name, r.class, avep, train, base))
                }
                (avep, train, base) => Err([avep, train, base]
                    .into_iter()
                    .find_map(|c| c.and_then(std::result::Result::err))
                    .unwrap_or(CellFailure::Skipped)),
            };
            (ladder, baselines)
        }
        (Err(failure), _) | (_, Err(failure)) => (Vec::new(), Err(failure)),
    };
    ladder.resize_with(points.len(), || None);
    match baselines {
        Ok((name, class, (avep, avep_stat), (train, train_stat), (base, base_stat))) => {
            let avep = avep.into_plain();
            baseline_stats.extend([avep_stat, train_stat, base_stat]);
            let mut per_threshold = Vec::with_capacity(points.len());
            for (&point, cell) in points.iter().zip(ladder) {
                if let Some(Ok((found, stat))) = cell {
                    ladder_stats.push(stat);
                    per_threshold.push((point, found.into_metrics()));
                }
            }
            Some(BenchResult {
                name,
                class,
                per_threshold,
                train: analyze_train(&train.into_plain().profile, &avep.profile),
                avep_ops: avep.profile.profiling_ops,
                avep: avep.profile,
                base_cycles: base.into_base().cycles,
            })
        }
        Err(CellFailure::Skipped) => None,
        Err(failure) => {
            for (point, cell) in points.iter().zip(ladder) {
                if !matches!(cell, Some(Err(_))) {
                    ctx.incidents.record_failed(CellIncident {
                        bench: name.to_string(),
                        label: point.label.to_string(),
                        attempts: 0,
                        cause: format!("skipped: baselines failed ({failure})"),
                    });
                }
            }
            None
        }
    }
}

/// Sweeps `names` at `scale` with caching and a worker pool.
///
/// The work unit is one benchmark input: the ref unit computes `AVEP`,
/// the `T = 1` base and every ladder cell that missed the store from
/// one guest execution, and the train unit computes `INIP(train)`. The
/// pool runs two units per benchmark. Results are ordered by `names`
/// and are value-identical for any `jobs` (`jobs: 1` runs every unit
/// serially). `progress` is called once per benchmark as its ref unit
/// starts (possibly from a worker thread).
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
    let points = ladder(scale);
    let units: Vec<(&str, InputKind)> = names
        .iter()
        .flat_map(|&name| [(name, InputKind::Ref), (name, InputKind::Train)])
        .collect();
    let cells = |kind| suite_cells(&ctx, kind, &points);
    let (ref_cells, train_cells) = (cells(InputKind::Ref), cells(InputKind::Train));
    let cells_of = |kind| match kind {
        InputKind::Ref => &ref_cells,
        InputKind::Train => &train_cells,
    };
    for &(name, kind) in &units {
        for c in cells_of(kind) {
            ctx.queued(name, &c.label);
        }
    }
    let mut outcomes = parallel_map(opts.jobs.max(1), &units, |_, &(name, kind)| {
        if kind == InputKind::Ref {
            progress(name);
        }
        ctx.sweep_unit(name, scale, kind, cells_of(kind))
    })
    .into_iter();

    // Assemble in deterministic order: baseline stats benchmark-major,
    // then ladder cells benchmark-major.
    let (mut baseline_stats, mut ladder_stats) = (Vec::new(), Vec::new());
    let mut results = Vec::with_capacity(names.len());
    for name in names {
        let (Some(reference), Some(training)) = (outcomes.next(), outcomes.next()) else {
            unreachable!("two units per benchmark");
        };
        let stats = (&mut baseline_stats, &mut ladder_stats);
        results.extend(bench_result(
            &ctx, name, &points, reference, training, stats,
        ));
    }
    baseline_stats.append(&mut ladder_stats);
    ctx.report(results, baseline_stats)
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
    let cell = UnitCell {
        label: "avep".to_string(),
        kind: CellKind::Plain,
        cfg: ctx.apply_watchdog(DbtConfig::no_opt()),
    };
    match ctx.run_unit(guest, &[cell]).pop().flatten() {
        Some(Ok((found, stat))) => Ok((found.into_plain(), stat.hit)),
        Some(Err(failure)) => Err(Box::new(failure)),
        None => unreachable!("a one-cell unit runs its cell"),
    }
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

/// Sweeps `guest` over `thresholds` with caching, as one unit of
/// [`run_sweep`]: the `avep` cell and every threshold cell that missed
/// the store come from one guest execution, so `opts.jobs` does not
/// matter here.
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
    let mut cells = vec![UnitCell {
        label: "avep".to_string(),
        kind: CellKind::Plain,
        cfg: ctx.apply_watchdog(DbtConfig::no_opt()),
    }];
    cells.extend(thresholds.iter().map(|&threshold| UnitCell {
        label: format!("T={threshold}"),
        kind: CellKind::Ladder,
        cfg: ctx.apply_watchdog(DbtConfig::two_phase(threshold)),
    }));
    for c in &cells {
        ctx.queued(&guest.name, &c.label);
    }
    let mut outcomes = ctx.run_unit(guest, &cells).into_iter();
    let avep_stat = match outcomes.next().flatten() {
        Some(Ok((_, stat))) => stat,
        Some(Err(failure)) => return Err(Box::new(failure)),
        None => unreachable!("the avep cell always runs"),
    };
    let mut stats = vec![avep_stat];
    let mut per_threshold = Vec::with_capacity(thresholds.len());
    for (found, stat) in outcomes.flatten().flatten() {
        stats.push(stat);
        per_threshold.push(found.into_metrics());
    }
    Ok(ThresholdSweep {
        per_threshold,
        report: ctx.report(Vec::new(), stats)?,
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

    /// A tiny gzip ref unit (`avep`, `base`, `T=10`, `T=20`) whose
    /// `T=10` cell runs under `t10`, with `max_retries = 1`: its
    /// stats, `(retried, failed)` incidents, guest runs and outcomes.
    fn unit_with(t10: DbtConfig) -> (Vec<CellOutcome>, DegradedReport, u64) {
        let opts = SweepOptions {
            jobs: 1,
            policy: FaultPolicy {
                max_retries: 1,
                backoff: Duration::ZERO,
                ..FaultPolicy::default()
            },
            ..SweepOptions::default()
        };
        let ctx = Ctx::new(&opts);
        let guest = SuiteGuest::build("gzip", Scale::Tiny, InputKind::Ref).unwrap();
        let cell = |label: &str, kind, cfg| UnitCell {
            label: label.to_string(),
            kind,
            cfg,
        };
        let cells = [
            cell("avep", CellKind::Plain, DbtConfig::no_opt()),
            cell("base", CellKind::Base, DbtConfig::two_phase(1)),
            cell("T=10", CellKind::Ladder, t10),
            cell("T=20", CellKind::Ladder, DbtConfig::two_phase(20)),
        ];
        let outcomes = ctx.run_unit(&guest, &cells);
        let guest_runs = ctx.guest_runs.load(Ordering::Relaxed);
        (outcomes, ctx.incidents.into_report(0), guest_runs)
    }

    /// The `T=10` metrics of a unit, which must have completed.
    fn t10_metrics(outcomes: Vec<CellOutcome>) -> ThresholdMetrics {
        match outcomes.into_iter().nth(2) {
            Some(Some(Ok((found, _)))) => found.into_metrics(),
            _ => panic!("T=10 completed"),
        }
    }

    /// A real (not injected) panic in a unit's shared execution: one
    /// config's fuel differs, so building the lockstep run panics every
    /// time. The shared run is retried, then each policy runs alone and
    /// every cell completes with the clean unit's results, reported as
    /// retried.
    #[test]
    fn a_panicking_shared_execution_is_retried_then_run_per_policy() {
        let (clean, report, runs) = unit_with(DbtConfig::two_phase(10));
        assert!(!report.is_degraded());
        assert_eq!(runs, 1);
        let odd_fuel = DbtConfig::two_phase(10).with_fuel(DbtConfig::two_phase(10).fuel - 1);
        let (outcomes, report, runs) = unit_with(odd_fuel);
        assert!(outcomes.iter().all(|c| matches!(c, Some(Ok(_)))));
        assert_eq!(runs, 4, "no shared execution started; four lone runs");
        assert!(report.failed.is_empty());
        let labels: Vec<(&str, u32)> = report
            .retried
            .iter()
            .map(|i| (i.label.as_str(), i.attempts))
            .collect();
        assert_eq!(labels, [("T=10", 3), ("T=20", 3), ("avep", 3), ("base", 3)]);
        assert!(report.retried[0].cause.contains("share backend and fuel"));
        assert_eq!(t10_metrics(outcomes), t10_metrics(clean));
    }

    /// A policy that panics on its own (a cost model whose cycle count
    /// overflows, caught by the test profile's overflow checks) loses
    /// its cell alone: the baselines and the other ladder cell
    /// complete from the lone reruns.
    #[cfg(debug_assertions)]
    #[test]
    fn a_policy_that_keeps_panicking_fails_only_its_cell() {
        let cost = tpdbt_dbt::CostModel {
            profile_op_cost: u64::MAX,
            ..tpdbt_dbt::CostModel::default()
        };
        let (outcomes, report, runs) = unit_with(DbtConfig::two_phase(10).with_cost(cost));
        assert_eq!(runs, 2 + 4, "two shared attempts, then four lone runs");
        let done: Vec<bool> = outcomes.iter().map(|c| matches!(c, Some(Ok(_)))).collect();
        assert_eq!(done, [true, true, false, true]);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(
            (report.failed[0].label.as_str(), report.failed[0].attempts),
            ("T=10", 3)
        );
        assert!(
            report.failed[0].cause.contains("overflow"),
            "{}",
            report.failed[0].cause
        );
        let retried: Vec<&str> = report.retried.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(retried, ["T=20", "avep", "base"]);
    }

    /// A run whose output differs from the AVEP it is analyzed against
    /// is refused in every build, and nothing reaches the store.
    #[test]
    fn divergent_cell_output_is_an_error_and_commits_nothing() {
        let dir = std::env::temp_dir().join(format!("tpdbt-divergent-{}", std::process::id()));
        let store = ProfileStore::new(&dir);
        let guest = SuiteGuest::build("gzip", Scale::Tiny, InputKind::Ref).unwrap();
        let guest_runs = AtomicU64::new(0);
        let producer = Producer {
            store: Some(&store),
            tracer: None,
            backend: Backend::default(),
            guest_runs: &guest_runs,
            commit_crash: None,
        };
        let out = Dbt::new(DbtConfig::no_opt())
            .run_built(guest.binary(), guest.input())
            .unwrap();
        let mut output = out.output.clone();
        output[0] = output[0].wrapping_add(1);
        let avep = PlainArtifact {
            profile: out.as_plain_profile(),
            output,
        };
        let err = producer
            .cell(&guest, DbtConfig::two_phase(10), &avep)
            .expect_err("a divergent run must not become a cell");
        assert!(err.to_string().contains("diverged"), "{err}");
        assert_eq!(guest_runs.load(Ordering::Relaxed), 1);
        let written = std::fs::read_dir(&dir).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "tpst"))
                .count()
        });
        assert_eq!(written, 0, "nothing is committed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
