//! `serve-zipf`: the query path users wait on. Setup fills a fresh
//! store once with every tiny-scale `plain`, `base` and `cell` key of
//! the 26 benchmarks (one tiny `run_sweep`); each setup round then
//! starts an in-process `tpdbt_serve` server on loopback whose cold hot
//! tier holds a quarter of the keys, so a steady share of replies comes
//! from disk, and warms it up. Load is a
//! closed loop over two connections, each sending a seeded Zipf stream
//! over those keys; one op is one request's round trip. Guest execution
//! does no work here: a `computed` reply is a failed op.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use tpdbt_dbt::{DbtConfig, OptMode};
use tpdbt_experiments::runner::ladder;
use tpdbt_experiments::sweep::{run_sweep, SuiteGuest, SweepOptions};
use tpdbt_serve::json::Json;
use tpdbt_serve::proto::{Envelope, Request};
use tpdbt_serve::snapshot::snapshot_path;
use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServerHandle, ServiceConfig};
use tpdbt_store::{CacheKey, ProfileStore};
use tpdbt_suite::{all_names, InputKind, Scale};

use crate::refs::Refs;
use crate::rng::{seeded, shuffle, Zipf};
use crate::spans::SpanLog;
use crate::stats::Reservoir;
use crate::{fresh_dir, Measured, RunArgs, SETUP_ROUNDS};

/// Client connections (and server workers): the host has two cores.
const CONNECTIONS: usize = 2;

/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.0;

/// The hot tier holds `keys / HOT_FRACTION` artifacts.
const HOT_FRACTION: usize = 4;

/// Latencies kept per connection and phase (a uniform sample beyond
/// that), so memory does not grow with the run.
const SAMPLE_CAP: usize = 50_000;

/// Requests per connection in each setup round's warm-up.
const WARM_UP_REQUESTS: usize = 60_000;

/// Stream ids: the popularity permutation, then one request stream per
/// phase and connection.
const PERM_STREAM: u64 = 3;
const REQUEST_STREAMS: u64 = 16;

/// One queryable key with what a correct reply must carry.
struct Key {
    request: Request,
    /// Reference output digest of the guest run behind the artifact.
    digest: u64,
    /// The store key the artifact lives under.
    cache_key: CacheKey,
}

fn keys(refs: &Refs) -> Result<Vec<Key>, String> {
    let mut keys = Vec::new();
    let sync = |cfg: DbtConfig| cfg.with_opt_mode(OptMode::Sync);
    for name in all_names() {
        let guest =
            |kind| SuiteGuest::build(name, Scale::Tiny, kind).map_err(|e| format!("{name}: {e}"));
        let digest = |kind| {
            refs.tiny_digest(name, kind)
                .ok_or_else(|| format!("no reference digest for {name}"))
        };
        let (reference, training) = (guest(InputKind::Ref)?, guest(InputKind::Train)?);
        let ref_digest = digest(InputKind::Ref)?;
        for (g, kind) in [(&reference, InputKind::Ref), (&training, InputKind::Train)] {
            keys.push(Key {
                request: Request::Plain {
                    workload: name.to_string(),
                    scale: Scale::Tiny,
                    input: kind,
                },
                digest: digest(kind)?,
                cache_key: g.key(&DbtConfig::no_opt()),
            });
        }
        keys.push(Key {
            request: Request::Base {
                workload: name.to_string(),
                scale: Scale::Tiny,
            },
            digest: ref_digest,
            cache_key: reference.key(&sync(DbtConfig::two_phase(1))),
        });
        for point in ladder(Scale::Tiny) {
            keys.push(Key {
                request: Request::Cell {
                    workload: name.to_string(),
                    scale: Scale::Tiny,
                    threshold: point.actual,
                },
                digest: ref_digest,
                cache_key: reference.key(&sync(DbtConfig::two_phase(point.actual))),
            });
        }
    }
    Ok(keys)
}

/// Where a correct reply came from, or why it is wrong.
fn check_reply(reply: &Json, key: &Key) -> Result<Source, String> {
    let what = || format!("{:?}", key.request);
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: {}", what(), reply.render()));
    }
    let source = match reply.get("source").and_then(Json::as_str) {
        Some("memory") => Source::Memory,
        Some("disk") => Source::Disk,
        Some("coalesced") => Source::Coalesced,
        other => return Err(format!("{}: served from {other:?}", what())),
    };
    let payload = match &key.request {
        Request::Plain { .. } => reply.get("profile"),
        Request::Base { .. } => reply.get("base"),
        Request::Cell { threshold, .. } => {
            let cell = reply.get("cell");
            if cell.and_then(|c| c.get("threshold")).and_then(Json::as_u64) != Some(*threshold) {
                return Err(format!("{}: wrong threshold", what()));
            }
            cell
        }
        _ => None,
    };
    let digest = payload
        .and_then(|p| p.get("output_digest"))
        .and_then(Json::as_hex_u64);
    if digest == Some(key.digest) {
        Ok(source)
    } else {
        Err(format!(
            "{}: output digest {digest:?} differs from the reference",
            what()
        ))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    Memory,
    Disk,
    Coalesced,
}

/// How one phase's load is generated.
#[derive(Clone, Copy)]
enum Phase {
    /// Untraced in-process `ProfileService::respond` calls, `n` per
    /// thread: they fill the hot tier without the scheduling noise of
    /// loopback round trips.
    WarmUp(usize),
    /// Untraced round trips until the deadline.
    Timed(Instant),
    /// Traced round trips until the deadline; disk replies also time a
    /// direct store load of the same key.
    Traced(Instant),
    /// Traced in-process `ProfileService::respond` calls until the
    /// deadline.
    InProcess(Instant),
}

impl Phase {
    fn done(self, ops: u64) -> bool {
        match self {
            Phase::WarmUp(n) => ops >= n as u64,
            Phase::Timed(end) | Phase::Traced(end) | Phase::InProcess(end) => Instant::now() >= end,
        }
    }
}

/// One connection's results.
struct Conn {
    latencies_ms: Reservoir,
    memory: u64,
    disk: u64,
    attempted: u64,
    failed: u64,
    /// The first few failures, for the log.
    errors: Vec<String>,
    log: SpanLog,
}

impl Conn {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(error);
        }
    }
}

/// The server side of one setup round.
struct Server {
    service: Arc<ProfileService>,
    handle: ServerHandle,
}

struct Load<'a> {
    keys: Vec<Key>,
    zipf: Zipf,
    perm: Vec<usize>,
    seed: u64,
    store_dir: &'a Path,
    origin: Instant,
}

impl Load<'_> {
    /// Runs `phase` over [`CONNECTIONS`] client threads; `stream`
    /// selects the request streams.
    fn drive(&self, server: &Server, phase: Phase, stream: u64) -> Result<Vec<Conn>, String> {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CONNECTIONS as u64)
                .map(|c| {
                    let rng = seeded(self.seed, REQUEST_STREAMS + stream * 8 + c);
                    let sample_rng = seeded(self.seed, REQUEST_STREAMS + stream * 8 + c + 4);
                    scope.spawn(move || self.connection(server, phase, rng, sample_rng))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().map_err(|_| "load thread panicked".to_string())?)
                .collect()
        })
    }

    fn connection(
        &self,
        server: &Server,
        phase: Phase,
        mut rng: StdRng,
        sample_rng: StdRng,
    ) -> Result<Conn, String> {
        let connect = || Client::connect(server.handle.addr()).map_err(|e| format!("connect: {e}"));
        // In-process phases call the service directly: no socket.
        let mut client = match phase {
            Phase::WarmUp(_) | Phase::InProcess(_) => None,
            Phase::Timed(_) | Phase::Traced(_) => Some(connect()?),
        };
        let store = ProfileStore::new(self.store_dir);
        let mut conn = Conn {
            latencies_ms: Reservoir::new(SAMPLE_CAP, sample_rng),
            memory: 0,
            disk: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            log: SpanLog::new(self.origin),
        };
        let mut id = 0;
        while !phase.done(conn.attempted) {
            let key = &self.keys[self.perm[self.zipf.sample(&mut rng)]];
            let t = Instant::now();
            let socket = client.as_mut();
            let reply = match phase {
                Phase::Timed(_) => socket
                    .expect("socket phases connect")
                    .request(key.request.clone(), None),
                Phase::Traced(_) => {
                    let c = socket.expect("socket phases connect");
                    conn.log
                        .span("serve.round_trip", || c.request(key.request.clone(), None))
                }
                Phase::WarmUp(_) | Phase::InProcess(_) => {
                    id += 1;
                    let env = Envelope {
                        id,
                        deadline_ms: None,
                        request: key.request.clone(),
                    };
                    let respond = || server.service.respond(&env).0;
                    Ok(match phase {
                        Phase::InProcess(_) => conn.log.span("serve.respond", respond),
                        _ => respond(),
                    })
                }
            };
            conn.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            conn.attempted += 1;
            let reply = match reply {
                Ok(r) => r,
                Err(e) => {
                    conn.fail(format!("transport: {e}"));
                    client = Some(connect()?);
                    continue;
                }
            };
            match check_reply(&reply, key) {
                Ok(Source::Memory) => conn.memory += 1,
                Ok(Source::Disk) => {
                    conn.disk += 1;
                    if matches!(phase, Phase::Traced(_))
                        && conn
                            .log
                            .span("store.load", || store.load(&key.cache_key))
                            .is_none()
                    {
                        conn.fail(format!("{:?}: not in the store", key.request));
                    }
                }
                Ok(Source::Coalesced) => {}
                Err(e) => conn.fail(e),
            }
        }
        Ok(conn)
    }
}

/// Fills a fresh store at `store_dir` with every key's artifact (one
/// tiny `run_sweep`) and checks that each key loads.
fn fill_store(store_dir: &Path, keys: &[Key]) -> Result<(), String> {
    fresh_dir(store_dir)?;
    let opts = SweepOptions {
        jobs: 1,
        cache_dir: Some(store_dir.to_path_buf()),
        ..SweepOptions::default()
    };
    let report = run_sweep(&all_names(), Scale::Tiny, &opts, |_| {})
        .map_err(|e| format!("store fill: {e}"))?;
    if report.degraded.is_degraded() {
        return Err(format!("store fill degraded\n{}", report.degraded.render()));
    }
    let store = ProfileStore::new(store_dir);
    match keys.iter().find(|k| store.load(&k.cache_key).is_none()) {
        Some(k) => Err(format!("store fill left {:?} out", k.request)),
        None => Ok(()),
    }
}

/// One setup round: derives the keys and their seeded popularity,
/// starts a server with a cold hot tier over the filled store and warms
/// it up.
fn setup_round<'a>(
    args: &RunArgs,
    refs: &Refs,
    store_dir: &'a Path,
    origin: Instant,
) -> Result<(Load<'a>, Server), String> {
    let keys = keys(refs)?;
    let mut perm: Vec<usize> = (0..keys.len()).collect();
    shuffle(&mut perm, &mut seeded(args.seed, PERM_STREAM));
    let load = Load {
        zipf: Zipf::new(keys.len(), ZIPF_S),
        keys,
        perm,
        seed: args.seed,
        store_dir,
        origin,
    };
    let service = Arc::new(ProfileService::new(ServiceConfig {
        cache_dir: Some(store_dir.to_path_buf()),
        hot_capacity: load.keys.len() / HOT_FRACTION,
        default_deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    }));
    service.startup_recovery();
    let handle = start(
        Arc::clone(&service),
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: CONNECTIONS,
            queue_depth: 16,
            accept_shards: 1,
        },
    )
    .map_err(|e| format!("starting the server: {e}"))?;
    let server = Server { service, handle };
    for conn in load.drive(&server, Phase::WarmUp(WARM_UP_REQUESTS), 0)? {
        if let Some(e) = conn.errors.first() {
            server.handle.shutdown();
            return Err(format!("warm-up: {e}"));
        }
    }
    Ok((load, server))
}

/// Folds one phase's connections into `m` and `log`; returns the
/// phase's latency sample and its (memory, disk, all) reply counts.
fn collect(m: &mut Measured, log: &mut SpanLog, conns: Vec<Conn>) -> (Vec<f64>, [u64; 3]) {
    let mut latencies = Vec::new();
    let mut sources = [0; 3];
    for conn in conns {
        m.attempted += conn.attempted;
        m.failed += conn.failed;
        for e in &conn.errors {
            eprintln!("failed op: {e}");
        }
        sources[0] += conn.memory;
        sources[1] += conn.disk;
        sources[2] += conn.attempted;
        latencies.extend(conn.latencies_ms.into_values());
        log.absorb(conn.log);
    }
    (latencies, sources)
}

/// Runs the workload.
///
/// # Errors
///
/// Setup failures: store fill, missing keys, server start, warm-up.
pub fn run(args: &RunArgs, refs: &Refs) -> Result<Measured, String> {
    let mut m = Measured::default();
    let origin = Instant::now();
    let store_dir = args.work.join("store");
    // The store is filled once: its writes are fsync-bound, so
    // repeating them would put the shared disk's jitter into every
    // round.
    let t = Instant::now();
    fill_store(&store_dir, &keys(refs)?)?;
    m.pre_rounds_s = t.elapsed().as_secs_f64();
    let mut round: Option<(Load<'_>, Server)> = None;
    for _ in 0..SETUP_ROUNDS {
        // Tearing the previous round down is not setup work: rounds
        // time identical work only. Its graceful drain left a hot-tier
        // snapshot, which would warm the next round's hot tier.
        if let Some((_, old)) = round.take() {
            old.handle.shutdown();
            let snapshot = snapshot_path(&store_dir);
            match std::fs::remove_file(&snapshot) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("removing {}: {e}", snapshot.display()));
                }
                _ => {}
            }
        }
        let t = Instant::now();
        round = Some(setup_round(args, refs, &store_dir, origin)?);
        m.setup_rounds_s.push(t.elapsed().as_secs_f64());
    }
    let (load, server) = round.expect("SETUP_ROUNDS is positive");

    let result = measure(args, &mut m, &load, &server);
    let guest_runs = server.service.guest_runs();
    server.handle.shutdown();
    result?;
    if guest_runs != 0 {
        m.problems.push(format!(
            "{guest_runs} guest runs: replies were computed, not served"
        ));
    }
    Ok(m)
}

fn measure(
    args: &RunArgs,
    m: &mut Measured,
    load: &Load<'_>,
    server: &Server,
) -> Result<(), String> {
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut log = SpanLog::new(load.origin);
    let t = Instant::now();
    let conns = load.drive(server, Phase::Timed(t + Duration::from_secs_f64(budget)), 1)?;
    m.timed_wall_s = t.elapsed().as_secs_f64();
    let (ops, [.., all]) = collect(m, &mut log, conns);
    m.ops_ms = ops;
    m.timed_ops = all;
    if !args.trace {
        return Ok(());
    }
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let conns = load.drive(server, Phase::InProcess(Instant::now() + quarter), 2)?;
    collect(m, &mut log, conns);
    let conns = load.drive(server, Phase::Traced(Instant::now() + quarter), 3)?;
    let (traced, [memory, disk, all]) = collect(m, &mut log, conns);
    m.traced_ops_ms = traced;

    let respond = log.durations_ms("serve.respond");
    let round_trip = log.durations_ms("serve.round_trip");
    let respond_us = crate::stats::median(&respond) * 1e3;
    m.layer("serve.respond_us", respond_us, respond.len());
    m.layer(
        "serve.transport_us",
        crate::stats::median(&round_trip) * 1e3 - respond_us,
        round_trip.len(),
    );
    let share = |n: u64| n as f64 / all.max(1) as f64;
    let replies = usize::try_from(all).unwrap_or(usize::MAX);
    m.layer("serve.memory_share", share(memory), replies);
    m.layer("serve.disk_share", share(disk), replies);
    m.layer_median("store.load_ms", &log.durations_ms("store.load"));
    copy_store(&load.keys, load.store_dir, &args.work.join("copy"), &mut log)?;
    m.layer_median("store.save_ms", &log.durations_ms("store.save"));
    m.spans = Some(log);
    Ok(())
}

/// Saves every key's artifact, as the fill sweep wrote it, into a fresh
/// store at `to`, with a span around each save.
fn copy_store(keys: &[Key], from: &Path, to: &Path, log: &mut SpanLog) -> Result<(), String> {
    fresh_dir(to)?;
    let (src, dst) = (ProfileStore::new(from), ProfileStore::new(to));
    for k in keys {
        let artifact = src
            .load(&k.cache_key)
            .ok_or_else(|| format!("{:?}: not in the store", k.request))?;
        log.span("store.save", || dst.store(&k.cache_key, &artifact))
            .map_err(|e| format!("saving {}: {e}", k.cache_key.file_name()))?;
    }
    Ok(())
}
