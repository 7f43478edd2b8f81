//! The profile service: tiered artifact resolution behind the wire
//! protocol.
//!
//! Every query resolves through three tiers:
//!
//! 1. the in-memory [`HotTier`] (LRU of decoded artifacts),
//! 2. the on-disk [`ProfileStore`] (shared with `reproduce` and
//!    `tpdbt-run`, so a warm sweep cache serves queries with zero
//!    guest runs),
//! 3. a fresh guest execution by the sweep's own artifact
//!    [`Producer`], keyed by the same [`SuiteGuest`], so a computed
//!    artifact is byte-identical to the one a sweep writes.
//!
//! Tiers 2–3 run under [`SingleFlight`], so N concurrent requests for
//! the same uncached cell perform exactly one guest execution and the
//! other N−1 share its artifact. The service is synchronous and
//! `Sync`; the server supplies the thread pool.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tpdbt_dbt::{Backend, DbtConfig};
use tpdbt_experiments::sweep::{Producer, SuiteGuest};
use tpdbt_faults::{FaultPlan, FaultSite};
use tpdbt_store::digest::fnv64_words;
use tpdbt_store::{Artifact, ProfileStore, StoreStats, TypedArtifact};
use tpdbt_suite::{InputKind, Scale};
use tpdbt_trace::stats::Histogram;
use tpdbt_trace::Tracer;

use crate::hot::{HotStats, HotTier};
use crate::json::Json;
use crate::lock::lock_recover;
use crate::proto::{
    self, base_payload, cell_payload, input_name, plain_payload, Envelope, ErrorCode, Request,
    Source,
};
use crate::singleflight::{FlightOutcome, SingleFlight};

/// Payload fields plus the source tier for artifact queries, or a
/// structured failure — the intermediate shape `respond` renders.
type RespondResult = Result<(Vec<(&'static str, Json)>, Option<Source>), ServeFailure>;

/// How the service is assembled.
pub struct ServiceConfig {
    /// On-disk store directory; `None` serves purely from memory and
    /// recomputes across restarts.
    pub cache_dir: Option<PathBuf>,
    /// Hot-tier capacity in artifacts (0 disables the tier).
    pub hot_capacity: usize,
    /// Deadline applied when a request carries none.
    pub default_deadline: Duration,
    /// Execution backend for computed (tier-3) queries. Backends are
    /// bitwise result-identical; this only changes cold-query latency.
    pub backend: Backend,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_dir: None,
            hot_capacity: 256,
            default_deadline: proto::DEFAULT_DEADLINE,
            backend: Backend::default(),
        }
    }
}

/// A resolution failure, mapped onto the wire error codes.
#[derive(Clone, Debug)]
pub enum ServeFailure {
    /// The request named an unknown workload or invalid parameter.
    BadRequest(String),
    /// The guest execution or analysis failed.
    Compute(String),
    /// The deadline passed before the artifact was available.
    DeadlineExceeded,
}

impl ServeFailure {
    /// The wire error code of this failure.
    #[must_use]
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeFailure::BadRequest(_) => ErrorCode::BadRequest,
            ServeFailure::Compute(_) => ErrorCode::ComputeFailed,
            ServeFailure::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        }
    }

    /// The human-readable message of this failure.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            ServeFailure::BadRequest(m) | ServeFailure::Compute(m) => m,
            ServeFailure::DeadlineExceeded => "deadline exceeded",
        }
    }
}

/// A successfully resolved artifact plus where it came from.
#[derive(Clone, Debug)]
pub struct Resolved {
    /// The artifact.
    pub artifact: Arc<Artifact>,
    /// The tier that produced it.
    pub source: Source,
}

/// The query engine: owns the cache tiers, the single-flight group,
/// and the memoized guest builds.
pub struct ProfileService {
    store: Option<ProfileStore>,
    hot: HotTier,
    flights: SingleFlight<(Arc<Artifact>, Source)>,
    guests: Mutex<HashMap<String, Arc<SuiteGuest>>>,
    guest_runs: AtomicU64,
    tracer: Option<Arc<Tracer>>,
    faults: Option<Arc<FaultPlan>>,
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
    default_deadline: Duration,
    backend: Backend,
    /// Startup bookkeeping, set by [`ProfileService::startup_recovery`]:
    /// orphaned temp files swept and the startup fsck's wall time.
    orphans_swept: AtomicU64,
    fsck_ms: AtomicU64,
    /// Set by [`ProfileService::panic_next_respond_for_tests`].
    panic_next_respond: AtomicBool,
}

impl ProfileService {
    /// Builds the service; creates the store directory lazily on first
    /// write (the store itself handles that).
    #[must_use]
    pub fn new(config: ServiceConfig) -> ProfileService {
        ProfileService {
            store: config.cache_dir.map(ProfileStore::new),
            hot: HotTier::new(config.hot_capacity),
            flights: SingleFlight::new(),
            guests: Mutex::new(HashMap::new()),
            guest_runs: AtomicU64::new(0),
            tracer: None,
            faults: None,
            latency: Mutex::new(BTreeMap::new()),
            default_deadline: config.default_deadline,
            backend: config.backend,
            orphans_swept: AtomicU64::new(0),
            fsck_ms: AtomicU64::new(0),
            panic_next_respond: AtomicBool::new(false),
        }
    }

    /// Attaches a structured-event tracer (request lifecycle events,
    /// store events, engine events of computed cells).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> ProfileService {
        if let Some(store) = self.store.take() {
            self.store = Some(store.with_tracer(Arc::clone(&tracer)));
        }
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a fault plan (serve-side sites plus the store's own).
    #[must_use]
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> ProfileService {
        if let Some(store) = self.store.take() {
            self.store = Some(store.with_faults(Arc::clone(&plan)));
        }
        self.faults = Some(plan);
        self
    }

    /// The tracer, if one is attached (the server shares it).
    #[must_use]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The fault plan, if one is attached (the server shares it).
    #[must_use]
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The deadline to apply to a request carrying none.
    #[must_use]
    pub fn default_deadline(&self) -> Duration {
        self.default_deadline
    }

    /// Total guest executions performed since startup.
    #[must_use]
    pub fn guest_runs(&self) -> u64 {
        self.guest_runs.load(Ordering::Relaxed)
    }

    fn guest(
        &self,
        name: &str,
        scale: Scale,
        input: InputKind,
    ) -> Result<Arc<SuiteGuest>, ServeFailure> {
        let memo_key = format!("{name}/{}/{}", scale.name(), input_name(input));
        if let Some(g) = lock_recover(&self.guests).get(&memo_key) {
            return Ok(Arc::clone(g));
        }
        // Built outside the lock: generation is not free, and a losing
        // racer just drops its duplicate.
        let built = Arc::new(
            SuiteGuest::build(name, scale, input)
                .map_err(|e| ServeFailure::BadRequest(e.to_string()))?,
        );
        let mut guests = lock_recover(&self.guests);
        Ok(Arc::clone(guests.entry(memo_key).or_insert(built)))
    }

    fn check_deadline(deadline: Instant) -> Result<(), ServeFailure> {
        if Instant::now() >= deadline {
            Err(ServeFailure::DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    fn trace_emit(&self, event: impl FnOnce() -> tpdbt_trace::EventKind) {
        if let Some(t) = &self.tracer {
            t.emit(event());
        }
    }

    /// Consults the injection plan at a crash site: a planned
    /// occurrence aborts the whole process (the crash-restart harness
    /// supervises this).
    fn fire_crash(&self, site: FaultSite) {
        if let Some(plan) = &self.faults {
            plan.fire_crash(site);
        }
    }

    /// Store self-check, run once before the server accepts
    /// connections (the `tpdbt-serve` binary calls this;
    /// transport-free embedders may skip it).
    ///
    /// With a cache dir configured this runs a repairing
    /// [`tpdbt_store::fsck()`] scan: damaged entries are removed and
    /// re-derived on demand, orphaned temp files are swept. The
    /// `orphans_swept` / `fsck_ms` counters in `stats` report what
    /// happened. The hot tier starts empty; previously computed keys
    /// answer from disk.
    pub fn startup_recovery(&self) {
        let Some(dir) = self.store.as_ref().map(|s| s.dir().to_path_buf()) else {
            return;
        };
        match tpdbt_store::fsck(&dir, tpdbt_store::FsckOptions { repair: true }) {
            Ok(report) => {
                self.fsck_ms.store(
                    u64::try_from(report.elapsed.as_millis()).unwrap_or(u64::MAX),
                    Ordering::Relaxed,
                );
                self.orphans_swept
                    .store(report.orphans_swept, Ordering::Relaxed);
                self.trace_emit(|| tpdbt_trace::EventKind::FsckRun {
                    valid: report.valid,
                    corrupt: (report.corrupt.len() + report.mismatched.len()) as u64,
                    orphans: report.orphans.len() as u64,
                    micros: u64::try_from(report.elapsed.as_micros()).unwrap_or(u64::MAX),
                });
                if !report.clean() {
                    eprintln!(
                        "startup fsck repaired {}: {} damaged, {} orphans",
                        dir.display(),
                        report.repaired,
                        report.orphans_swept
                    );
                }
            }
            Err(e) => eprintln!("startup fsck of {} failed: {e}", dir.display()),
        }
    }

    fn fire_compute_fault(&self) -> Result<(), ServeFailure> {
        if let Some(plan) = &self.faults {
            if plan.fire(FaultSite::ServeCompute) {
                return Err(ServeFailure::Compute(
                    "injected fault: serve_compute".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Tiered resolution: hot tier, then (under single-flight) disk,
    /// then `compute`. The leader fills both caches on a compute.
    fn resolve(
        &self,
        key_digest: u64,
        deadline: Instant,
        load_disk: impl FnOnce() -> Option<Artifact>,
        compute: impl FnOnce() -> Result<Artifact, ServeFailure>,
    ) -> Result<Resolved, ServeFailure> {
        if let Some(artifact) = self.hot.get(key_digest) {
            return Ok(Resolved {
                artifact,
                source: Source::Memory,
            });
        }
        Self::check_deadline(deadline)?;
        let outcome = self.flights.run(key_digest, deadline, || {
            if let Some(found) = load_disk() {
                let artifact = Arc::new(found);
                self.hot.insert(key_digest, Arc::clone(&artifact));
                return Ok((artifact, Source::Disk));
            }
            // A request that spent its deadline queueing (or on the
            // disk probe) must not start the expensive guest run: the
            // caller is gone, the worker would compute for nobody.
            Self::check_deadline(deadline)?;
            self.fire_compute_fault()?;
            let artifact = Arc::new(compute()?);
            // Crash window: the computed artifact is already durable on
            // disk (compute persists it) but not yet installed in
            // memory; a restart serves it from the store.
            self.fire_crash(FaultSite::CrashServeInstall);
            self.hot.insert(key_digest, Arc::clone(&artifact));
            Ok((artifact, Source::Computed))
        })?;
        match outcome {
            FlightOutcome::Led((artifact, source)) => Ok(Resolved { artifact, source }),
            FlightOutcome::Joined((artifact, _)) => Ok(Resolved {
                artifact,
                source: Source::Coalesced,
            }),
            FlightOutcome::TimedOut => Err(ServeFailure::DeadlineExceeded),
            // The flight's leader died (panic or error) before
            // publishing; this follower reports a compute failure
            // rather than blocking until its own deadline.
            FlightOutcome::LeaderFailed => Err(ServeFailure::Compute(
                "coalesced leader failed before publishing".to_string(),
            )),
        }
    }

    /// A disk-tier lookup through one of the store's typed loads, so a
    /// key is only ever answered with the kind of artifact it names (a
    /// cell also with its own threshold); anything else is a miss.
    fn load_disk<A: TypedArtifact>(
        &self,
        load: impl FnOnce(&ProfileStore) -> Option<A>,
    ) -> Option<Artifact> {
        self.store.as_ref().and_then(load).map(A::into_artifact)
    }

    /// Computes one artifact through the sweep's producer, which runs
    /// the guest, counts it in `guest_runs` and persists the result.
    /// A failed guest run or analysis is a compute failure.
    fn produce<A: TypedArtifact>(
        &self,
        f: impl FnOnce(&Producer<'_>) -> tpdbt_experiments::Result<A>,
    ) -> Result<Artifact, ServeFailure> {
        let producer = Producer {
            store: self.store.as_ref(),
            tracer: self.tracer.as_ref(),
            backend: self.backend,
            guest_runs: &self.guest_runs,
            commit_crash: None,
        };
        f(&producer)
            .map(A::into_artifact)
            .map_err(|e| ServeFailure::Compute(e.to_string()))
    }

    /// Resolves a plain whole-run profile (`AVEP` on ref input,
    /// `INIP(train)` on train input).
    ///
    /// # Errors
    ///
    /// [`ServeFailure`] on unknown workloads, compute failures, or a
    /// passed deadline.
    pub fn resolve_plain(
        &self,
        workload: &str,
        scale: Scale,
        input: InputKind,
        deadline: Instant,
    ) -> Result<Resolved, ServeFailure> {
        let guest = self.guest(workload, scale, input)?;
        let cfg = DbtConfig::no_opt();
        let key = guest.key(&cfg);
        self.resolve(
            key.digest(),
            deadline,
            || self.load_disk(|s| s.load_plain(&key)),
            || self.produce(|p| p.plain(&guest, cfg)),
        )
    }

    /// Resolves one analyzed `INIP(T)` sweep cell. A cold cell first
    /// resolves the workload's AVEP (itself tiered and deduplicated),
    /// then executes the two-phase run and analyzes it.
    ///
    /// # Errors
    ///
    /// [`ServeFailure`]; a zero threshold is a bad request (the engine
    /// requires `T >= 1`).
    pub fn resolve_cell(
        &self,
        workload: &str,
        scale: Scale,
        threshold: u64,
        deadline: Instant,
    ) -> Result<Resolved, ServeFailure> {
        if threshold == 0 {
            return Err(ServeFailure::BadRequest(
                "threshold must be at least 1".to_string(),
            ));
        }
        let guest = self.guest(workload, scale, InputKind::Ref)?;
        let cfg = DbtConfig::two_phase(threshold);
        let key = guest.key(&cfg);
        self.resolve(
            key.digest(),
            deadline,
            || self.load_disk(|s| s.load_cell(&key)),
            || {
                let avep = self.resolve_plain(workload, scale, InputKind::Ref, deadline)?;
                let Artifact::Plain(avep) = &*avep.artifact else {
                    return Err(ServeFailure::Compute(
                        "AVEP resolution produced a non-plain artifact".to_string(),
                    ));
                };
                // The AVEP leg may itself have consumed the deadline;
                // re-check before the second guest run.
                Self::check_deadline(deadline)?;
                self.produce(|p| p.cell(&guest, cfg, avep))
            },
        )
    }

    /// Resolves the `T = 1` performance baseline.
    ///
    /// # Errors
    ///
    /// [`ServeFailure`].
    pub fn resolve_base(
        &self,
        workload: &str,
        scale: Scale,
        deadline: Instant,
    ) -> Result<Resolved, ServeFailure> {
        let guest = self.guest(workload, scale, InputKind::Ref)?;
        let cfg = DbtConfig::two_phase(1);
        let key = guest.key(&cfg);
        self.resolve(
            key.digest(),
            deadline,
            || self.load_disk(|s| s.load_base(&key)),
            || self.produce(|p| p.base(&guest, cfg)),
        )
    }

    /// Records one request latency sample under its op name.
    pub fn record_latency(&self, op: &'static str, micros: u64) {
        lock_recover(&self.latency)
            .entry(op)
            .or_default()
            .record(micros);
    }

    /// Test hook: poisons the hot-tier lock the way a worker panicking
    /// under it would, so regression tests can assert the daemon
    /// recovers instead of cascading panics.
    #[doc(hidden)]
    pub fn poison_hot_for_tests(&self) {
        self.hot.poison_for_tests();
    }

    /// Test hook: makes the next [`ProfileService::respond`] panic the
    /// way a handler bug would, so regression tests can assert that
    /// the server answers the frame and keeps the worker.
    #[doc(hidden)]
    pub fn panic_next_respond_for_tests(&self) {
        self.panic_next_respond.store(true, Ordering::SeqCst);
    }

    /// The `stats` payload: tier counters, single-flight counters,
    /// guest runs, and per-endpoint latency summaries.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        let HotStats {
            hits,
            misses,
            inserts,
            evictions,
            poisoned,
        } = self.hot.stats();
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("guest_runs", Json::num(self.guest_runs())),
            (
                "hot",
                Json::obj([
                    ("hits", Json::num(hits)),
                    ("misses", Json::num(misses)),
                    ("inserts", Json::num(inserts)),
                    ("evictions", Json::num(evictions)),
                    ("poisoned", Json::num(poisoned)),
                    ("len", Json::num(self.hot.len() as u64)),
                ]),
            ),
            (
                "singleflight",
                Json::obj([
                    ("leaders", Json::num(self.flights.leaders())),
                    ("followers", Json::num(self.flights.followers())),
                    ("timeouts", Json::num(self.flights.timeouts())),
                    ("leader_failures", Json::num(self.flights.leader_failures())),
                ]),
            ),
        ];
        fields.push((
            "recovery",
            Json::obj([
                (
                    "orphans_swept",
                    Json::num(self.orphans_swept.load(Ordering::Relaxed)),
                ),
                ("fsck_ms", Json::num(self.fsck_ms.load(Ordering::Relaxed))),
            ]),
        ));
        if let Some(store) = &self.store {
            let StoreStats {
                hits,
                misses,
                evictions,
                io_retries,
                quarantined,
                orphans_swept,
            } = store.stats();
            fields.push((
                "store",
                Json::obj([
                    ("hits", Json::num(hits)),
                    ("misses", Json::num(misses)),
                    ("evictions", Json::num(evictions)),
                    ("io_retries", Json::num(io_retries)),
                    ("quarantined", Json::num(quarantined)),
                    ("orphans_swept", Json::num(orphans_swept)),
                ]),
            ));
        }
        let latency = lock_recover(&self.latency);
        let endpoints: BTreeMap<String, Json> = latency
            .iter()
            .map(|(op, h)| {
                (
                    (*op).to_string(),
                    Json::obj([
                        ("count", Json::num(h.count())),
                        ("sum_us", Json::num(h.sum())),
                        ("min_us", h.min().map_or(Json::Null, Json::num)),
                        ("max_us", h.max().map_or(Json::Null, Json::num)),
                        ("mean_us", Json::opt(h.mean())),
                    ]),
                )
            })
            .collect();
        fields.push(("latency", Json::Obj(endpoints)));
        Json::obj(fields)
    }

    /// Serves one parsed request end to end, producing the response
    /// body and (for artifact queries) the source tier for tracing.
    /// `Shutdown` is the server's concern and answered here with a bare
    /// ack, letting transport-free tests drive the full matrix.
    #[must_use]
    pub fn respond(&self, env: &Envelope) -> (Json, Option<Source>) {
        if self.panic_next_respond.load(Ordering::Relaxed)
            && self.panic_next_respond.swap(false, Ordering::SeqCst)
        {
            panic!("injected respond panic");
        }
        let started = Instant::now();
        let deadline = started
            + env
                .deadline_ms
                .map_or(self.default_deadline, Duration::from_millis);
        let result: RespondResult = match &env.request {
            Request::Ping => Ok((vec![("pong", Json::Bool(true))], None)),
            Request::Shutdown => Ok((vec![("stopping", Json::Bool(true))], None)),
            Request::Stats => Ok((vec![("stats", self.stats_json())], None)),
            Request::Plain {
                workload,
                scale,
                input,
            } => self
                .resolve_plain(workload, *scale, *input, deadline)
                .map(|r| {
                    let Artifact::Plain(p) = &*r.artifact else {
                        unreachable!("plain key resolved to non-plain artifact")
                    };
                    let payload = plain_payload(p, fnv64_words(&p.output));
                    (vec![("profile", payload)], Some(r.source))
                }),
            Request::Cell {
                workload,
                scale,
                threshold,
            } => self
                .resolve_cell(workload, *scale, *threshold, deadline)
                .map(|r| {
                    let Artifact::Cell(c) = &*r.artifact else {
                        unreachable!("cell key resolved to non-cell artifact")
                    };
                    (vec![("cell", cell_payload(c))], Some(r.source))
                }),
            Request::Base { workload, scale } => {
                self.resolve_base(workload, *scale, deadline).map(|r| {
                    let Artifact::Base(b) = &*r.artifact else {
                        unreachable!("base key resolved to non-base artifact")
                    };
                    (vec![("base", base_payload(b))], Some(r.source))
                })
            }
        };
        let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.record_latency(env.request.op(), elapsed);
        match result {
            Ok((mut payload, source)) => {
                if let Some(s) = source {
                    payload.push(("source", Json::str(s.name())));
                    payload.push(("coalesced", Json::Bool(s == Source::Coalesced)));
                }
                payload.push(("elapsed_us", Json::num(elapsed)));
                (proto::ok_response(env.id, payload), source)
            }
            Err(failure) => (
                proto::error_response(env.id, failure.code(), failure.message()),
                None,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_store::BaseArtifact;

    fn svc(dir: Option<PathBuf>) -> ProfileService {
        ProfileService::new(ServiceConfig {
            cache_dir: dir,
            hot_capacity: 16,
            default_deadline: Duration::from_secs(60),
            ..ServiceConfig::default()
        })
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn unknown_workload_is_a_bad_request() {
        let s = svc(None);
        let err = s
            .resolve_base("not-a-benchmark", Scale::Tiny, far())
            .unwrap_err();
        assert!(matches!(err, ServeFailure::BadRequest(_)));
    }

    #[test]
    fn zero_threshold_is_a_bad_request() {
        let s = svc(None);
        let err = s.resolve_cell("gzip", Scale::Tiny, 0, far()).unwrap_err();
        assert!(matches!(err, ServeFailure::BadRequest(_)));
    }

    #[test]
    fn second_lookup_hits_the_hot_tier() {
        let s = svc(None);
        let first = s.resolve_base("gzip", Scale::Tiny, far()).unwrap();
        assert_eq!(first.source, Source::Computed);
        let second = s.resolve_base("gzip", Scale::Tiny, far()).unwrap();
        assert_eq!(second.source, Source::Memory);
        assert_eq!(s.guest_runs(), 1);
        assert_eq!(first.artifact, second.artifact);
    }

    #[test]
    fn cell_resolution_needs_avep_plus_cell_run() {
        let s = svc(None);
        let cell = s.resolve_cell("gzip", Scale::Tiny, 50, far()).unwrap();
        assert_eq!(cell.source, Source::Computed);
        assert_eq!(s.guest_runs(), 2, "AVEP + INIP(T)");
        // Another threshold reuses the hot AVEP: one more run only.
        let cell2 = s.resolve_cell("gzip", Scale::Tiny, 500, far()).unwrap();
        assert_eq!(cell2.source, Source::Computed);
        assert_eq!(s.guest_runs(), 3);
    }

    #[test]
    fn disk_store_serves_across_service_instances() {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tpdbt-serve-test-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        let a = svc(Some(dir.clone()));
        let first = a.resolve_base("gzip", Scale::Tiny, far()).unwrap();
        assert_eq!(first.source, Source::Computed);
        drop(a);
        let b = svc(Some(dir.clone()));
        let warm = b.resolve_base("gzip", Scale::Tiny, far()).unwrap();
        assert_eq!(warm.source, Source::Disk);
        assert_eq!(b.guest_runs(), 0);
        assert_eq!(first.artifact, warm.artifact);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn respond_round_trips_the_protocol() {
        let s = svc(None);
        let (reply, source) = s.respond(&Envelope {
            id: 11,
            deadline_ms: None,
            request: Request::Base {
                workload: "gzip".into(),
                scale: Scale::Tiny,
            },
        });
        assert_eq!(source, Some(Source::Computed));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(11));
        assert_eq!(reply.get("source").and_then(Json::as_str), Some("computed"));
        assert!(reply
            .get("base")
            .and_then(|b| b.get("output_digest"))
            .and_then(Json::as_hex_u64)
            .is_some());
        let (stats, _) = s.respond(&Envelope {
            id: 12,
            deadline_ms: None,
            request: Request::Stats,
        });
        let guest_runs = stats
            .get("stats")
            .and_then(|v| v.get("guest_runs"))
            .and_then(Json::as_u64);
        assert_eq!(guest_runs, Some(1));
    }

    #[test]
    fn expired_deadline_is_reported_not_computed() {
        let s = svc(None);
        let past = Instant::now() - Duration::from_millis(1);
        let err = s.resolve_base("gzip", Scale::Tiny, past).unwrap_err();
        assert!(matches!(err, ServeFailure::DeadlineExceeded));
        assert_eq!(s.guest_runs(), 0);
    }

    #[test]
    fn deadline_spent_before_compute_skips_the_guest_run() {
        // The deadline is alive at admission but dies during the disk
        // probe; the cold path must notice *before* computing, not
        // after burning a worker on an answer nobody is waiting for.
        let s = svc(None);
        let computed = AtomicU64::new(0);
        let err = s
            .resolve(
                0xFEED,
                Instant::now() + Duration::from_millis(20),
                || {
                    std::thread::sleep(Duration::from_millis(60));
                    None
                },
                || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    Ok(BaseArtifact {
                        cycles: 1,
                        output_digest: 1,
                    }
                    .into_artifact())
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeFailure::DeadlineExceeded));
        assert_eq!(computed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn poisoned_hot_tier_recovers_and_service_keeps_answering() {
        let s = svc(None);
        let first = s.resolve_base("gzip", Scale::Tiny, far()).unwrap();
        assert_eq!(first.source, Source::Computed);
        // Simulate a worker panicking while holding the hot-tier lock.
        s.poison_hot_for_tests();
        // The tier cleared and the service recomputes without panicking.
        let again = s.resolve_base("gzip", Scale::Tiny, far()).unwrap();
        assert_eq!(again.source, Source::Computed);
        assert_eq!(first.artifact, again.artifact);
        let stats = s.stats_json();
        let poisoned = stats
            .get("hot")
            .and_then(|h| h.get("poisoned"))
            .and_then(Json::as_u64);
        assert_eq!(poisoned, Some(1));
    }

    #[test]
    fn restart_answers_from_disk_and_reports_counters() {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tpdbt-serve-restart-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        let a = svc(Some(dir.clone()));
        a.startup_recovery();
        let first = a.resolve_base("gzip", Scale::Tiny, far()).unwrap();
        assert_eq!(first.source, Source::Computed);
        drop(a);

        let b = svc(Some(dir.clone()));
        b.startup_recovery();
        let restarted = b.resolve_base("gzip", Scale::Tiny, far()).unwrap();
        assert_eq!(
            restarted.source,
            Source::Disk,
            "a restarted daemon answers a computed key from the store"
        );
        assert_eq!(b.guest_runs(), 0);
        assert_eq!(first.artifact, restarted.artifact);
        let recovery = b.stats_json().get("recovery").cloned().expect("recovery");
        assert_eq!(
            recovery.get("orphans_swept").and_then(Json::as_u64),
            Some(0)
        );
        assert!(recovery.get("fsck_ms").and_then(Json::as_u64).is_some());
        assert!(recovery.get("recovered").is_none(), "no reload to count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_recovery_sweeps_orphans_and_heals_damage() {
        static UNIQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tpdbt-serve-fsck-{}-{}",
            std::process::id(),
            UNIQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(format!("gzip-0000000000000001.tpst.tmp.{}.0", u32::MAX)),
            b"torn",
        )
        .unwrap();
        std::fs::write(dir.join("gzip-0000000000000002.tpst"), b"garbage").unwrap();
        let s = svc(Some(dir.clone()));
        s.startup_recovery();
        let recovery = s.stats_json().get("recovery").cloned().expect("recovery");
        assert_eq!(
            recovery.get("orphans_swept").and_then(Json::as_u64),
            Some(1)
        );
        let report = tpdbt_store::fsck(&dir, tpdbt_store::FsckOptions::default()).unwrap();
        assert!(report.clean(), "startup recovery must repair the dir");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
