//! Fault tolerance for the sweep: failure taxonomy, retry policy, and
//! the end-of-run degradation report.
//!
//! The sweep treats every cell as an isolation domain: a panicking
//! worker, a trapping guest, or a flaky filesystem fails *that cell*,
//! not the sweep. Failures are classified (see [`CellFailure`]) into
//! retryable causes — worker panics and transient I/O, which get a
//! bounded exponential-backoff retry — and fatal ones — deterministic
//! guest traps and harness errors, where retrying would reproduce the
//! same failure. What happened is collected into a [`DegradedReport`]
//! rendered with the end-of-sweep stats and reflected in the
//! `reproduce` exit code.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tpdbt_dbt::DbtError;
use tpdbt_faults::FaultPlan;
use tpdbt_vm::VmError;

/// How the sweep reacts to per-cell failure.
#[derive(Clone, Debug)]
pub struct FaultPolicy {
    /// Retries per cell for retryable failures (`--max-retries`,
    /// default 2; the cell runs at most `max_retries + 1` times).
    pub max_retries: u32,
    /// Abort the whole sweep on the first failed cell instead of the
    /// default keep-going semantics (`--fail-fast`).
    pub fail_fast: bool,
    /// Base of the exponential backoff between retries (doubles per
    /// attempt, capped at 500 ms).
    pub backoff: Duration,
    /// Per-cell fuel watchdog: caps every guest's fuel budget at this
    /// value so a runaway cell traps `OutOfFuel` instead of stalling
    /// the pool (`--watchdog-fuel`). Changes `DbtConfig::fingerprint`,
    /// so watchdogged runs address their own cache slots.
    pub watchdog_fuel: Option<u64>,
    /// Deterministic fault-injection plan shared with the store and the
    /// workers; `None` injects nothing.
    pub plan: Option<Arc<FaultPlan>>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 2,
            fail_fast: false,
            backoff: Duration::from_millis(5),
            watchdog_fuel: None,
            plan: None,
        }
    }
}

/// Why one cell attempt (or cell) failed.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum CellFailure {
    /// The worker panicked; caught at the cell boundary. Retryable —
    /// panics are assumed environmental until retries run out.
    Panic(String),
    /// The guest trapped. Deterministic for a given workload and
    /// config, so never retried; the trapping workload is named.
    GuestTrap {
        /// The workload that trapped.
        workload: String,
        /// The trap, rendered (`VmError` display).
        trap: String,
        /// `true` for fuel exhaustion — a watchdog/budget kill rather
        /// than a guest-program defect.
        out_of_fuel: bool,
    },
    /// A harness error (workload construction, analyzer, …). Fatal.
    Harness(String),
    /// The cell never ran: the sweep was already aborting
    /// (`--fail-fast` after another cell's failure).
    Skipped,
}

impl CellFailure {
    /// Classifies an error bubbling out of a cell body, naming
    /// `workload` in guest traps.
    #[must_use]
    pub fn classify(workload: &str, e: &(dyn std::error::Error + 'static)) -> Self {
        let trap = e
            .downcast_ref::<DbtError>()
            .and_then(DbtError::as_guest_trap)
            .or_else(|| e.downcast_ref::<VmError>());
        match trap {
            Some(t) => CellFailure::GuestTrap {
                workload: workload.to_string(),
                trap: t.to_string(),
                out_of_fuel: t.is_resource_exhaustion(),
            },
            None => CellFailure::Harness(e.to_string()),
        }
    }

    /// Whether a retry could plausibly succeed.
    #[must_use]
    pub fn retryable(&self) -> bool {
        matches!(self, CellFailure::Panic(_))
    }
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Panic(msg) => write!(f, "worker panic: {msg}"),
            CellFailure::GuestTrap {
                workload,
                trap,
                out_of_fuel: true,
            } => write!(f, "fuel watchdog killed {workload}: {trap}"),
            CellFailure::GuestTrap {
                workload,
                trap,
                out_of_fuel: false,
            } => write!(f, "guest trap in {workload}: {trap}"),
            CellFailure::Harness(msg) => write!(f, "harness error: {msg}"),
            CellFailure::Skipped => write!(f, "skipped: sweep aborting (--fail-fast)"),
        }
    }
}

impl std::error::Error for CellFailure {}

/// One cell's brush with failure, for the degradation report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellIncident {
    /// Benchmark (or guest) name.
    pub bench: String,
    /// Cell label (`"avep"`, ladder label, …).
    pub label: String,
    /// Times the cell ran (0 = never attempted, e.g. skipped because
    /// its benchmark's baselines failed).
    pub attempts: u32,
    /// Rendered cause of the (last) failure.
    pub cause: String,
}

/// What partial failure the sweep absorbed: completed / retried /
/// failed cells with causes. Rendered in end-of-run stats and reflected
/// in the `reproduce` exit code.
#[derive(Debug, Default)]
pub struct DegradedReport {
    /// Cells that produced a result (including after retries).
    pub completed: usize,
    /// Cells that failed at least once but eventually succeeded.
    pub retried: Vec<CellIncident>,
    /// Cells dropped from the results, with their final cause.
    pub failed: Vec<CellIncident>,
}

impl DegradedReport {
    /// Whether anything at all went wrong (retried or failed cells).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.retried.is_empty() || !self.failed.is_empty()
    }

    /// Whether cells are missing from the results.
    #[must_use]
    pub fn has_failures(&self) -> bool {
        !self.failed.is_empty()
    }

    /// Renders the report (empty string for a clean sweep).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        if !self.is_degraded() {
            return String::new();
        }
        let mut s = String::new();
        let _ = writeln!(
            s,
            "DEGRADED sweep: {} cell(s) completed, {} retried, {} failed",
            self.completed,
            self.retried.len(),
            self.failed.len()
        );
        for i in &self.retried {
            let _ = writeln!(
                s,
                "  retried {:<24} attempts={} last failure: {}",
                format!("{}/{}", i.bench, i.label),
                i.attempts,
                i.cause
            );
        }
        for i in &self.failed {
            let _ = writeln!(
                s,
                "  FAILED  {:<24} attempts={} {}",
                format!("{}/{}", i.bench, i.label),
                i.attempts,
                i.cause
            );
        }
        s
    }
}

/// Thread-safe incident collector shared by the sweep workers.
#[derive(Debug, Default)]
pub(crate) struct Incidents {
    retried: Mutex<Vec<CellIncident>>,
    failed: Mutex<Vec<CellIncident>>,
    aborted: AtomicBool,
}

impl Incidents {
    pub(crate) fn record_retried(&self, incident: CellIncident) {
        self.retried
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(incident);
    }

    pub(crate) fn record_failed(&self, incident: CellIncident) {
        self.failed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(incident);
    }

    /// Flags the sweep as aborting (`--fail-fast`): workers skip cells
    /// they have not started yet.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
    }

    pub(crate) fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// The first failure recorded (recording order), for `--fail-fast`
    /// error messages.
    pub(crate) fn first_failure(&self) -> Option<CellIncident> {
        self.failed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .first()
            .cloned()
    }

    /// Drains into a report, sorting incidents by (bench, label) so the
    /// rendering is deterministic regardless of worker scheduling.
    pub(crate) fn into_report(self, completed: usize) -> DegradedReport {
        let sort = |mut v: Vec<CellIncident>| {
            v.sort_by(|a, b| (&a.bench, &a.label).cmp(&(&b.bench, &b.label)));
            v
        };
        DegradedReport {
            completed,
            retried: sort(self.retried.into_inner().unwrap_or_else(|e| e.into_inner())),
            failed: sort(self.failed.into_inner().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

/// Renders a caught panic payload (the `&str` / `String` cases panics
/// almost always carry).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_payloads_render() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(s.as_ref()), "kaboom");
        let s: Box<dyn std::any::Any + Send> = Box::new(17_u8);
        assert_eq!(panic_message(s.as_ref()), "opaque panic payload");
    }

    #[test]
    fn classification_names_the_trapping_workload() {
        let trap: Box<dyn std::error::Error + Send + Sync> =
            Box::new(DbtError::Guest(VmError::DivideByZero { pc: 7 }));
        let f = CellFailure::classify("mcf", trap.as_ref());
        match &f {
            CellFailure::GuestTrap {
                workload,
                out_of_fuel,
                ..
            } => {
                assert_eq!(workload, "mcf");
                assert!(!out_of_fuel);
            }
            other => panic!("expected GuestTrap, got {other:?}"),
        }
        assert!(!f.retryable(), "guest traps are deterministic");
        assert!(f.to_string().contains("mcf"), "{f}");
    }

    #[test]
    fn fuel_exhaustion_is_reported_as_a_watchdog_kill() {
        let trap: Box<dyn std::error::Error + Send + Sync> =
            Box::new(VmError::OutOfFuel { pc: 3, fuel: 100 });
        let f = CellFailure::classify("gzip", trap.as_ref());
        assert!(matches!(
            &f,
            CellFailure::GuestTrap {
                out_of_fuel: true,
                ..
            }
        ));
        assert!(f.to_string().contains("watchdog"), "{f}");
        assert!(f.to_string().contains("gzip"), "{f}");
    }

    #[test]
    fn non_trap_errors_are_harness_failures() {
        let e: Box<dyn std::error::Error + Send + Sync> = "no such benchmark".into();
        let f = CellFailure::classify("x", e.as_ref());
        assert!(matches!(f, CellFailure::Harness(_)));
        assert!(!f.retryable());
        assert!(CellFailure::Panic("boom".into()).retryable());
    }

    #[test]
    fn report_renders_sorted_and_flags_degradation() {
        let incidents = Incidents::default();
        assert!(!incidents.aborted());
        incidents.record_failed(CellIncident {
            bench: "mcf".into(),
            label: "avep".into(),
            attempts: 1,
            cause: "guest trap".into(),
        });
        incidents.record_retried(CellIncident {
            bench: "gzip".into(),
            label: "T=2000".into(),
            attempts: 2,
            cause: "worker panic: injected".into(),
        });
        let report = incidents.into_report(41);
        assert!(report.is_degraded());
        assert!(report.has_failures());
        let s = report.render();
        assert!(s.contains("DEGRADED sweep: 41 cell(s) completed, 1 retried, 1 failed"));
        assert!(s.contains("retried gzip/T=2000"), "{s}");
        assert!(s.contains("FAILED  mcf/avep"), "{s}");

        let clean = DegradedReport::default();
        assert!(!clean.is_degraded());
        assert_eq!(clean.render(), "");
    }

    #[test]
    fn default_policy_keeps_going_with_two_retries() {
        let p = FaultPolicy::default();
        assert_eq!(p.max_retries, 2);
        assert!(!p.fail_fast);
        assert!(p.watchdog_fuel.is_none());
        assert!(p.plan.is_none());
    }
}
