//! End-to-end acceptance tests over a real listener: two concurrent
//! clients, one uncached cell, exactly one guest execution,
//! bitwise-identical artifacts, disk-warm restart with zero guest
//! runs, plus the malformed-frame and shutdown contracts. A
//! transport-free test pins that the sweep and the service share one
//! store: same keys, same artifact bytes.
//!
//! The listener is TCP on an ephemeral loopback port so the suite runs
//! unchanged on any platform; the Unix transport is covered by the CI
//! smoke leg and shares every code path above the socket.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdbt_experiments::runner::ladder;
use tpdbt_experiments::sweep::{run_sweep, SweepOptions};
use tpdbt_serve::json::Json;
use tpdbt_serve::proto::{Request, Source};
use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServiceConfig};
use tpdbt_suite::{InputKind, Scale};

fn fresh_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tpdbt-serve-e2e-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(cache_dir: Option<PathBuf>) -> tpdbt_serve::ServerHandle {
    let service = ProfileService::new(ServiceConfig {
        cache_dir,
        hot_capacity: 64,
        default_deadline: Duration::from_secs(120),
        ..ServiceConfig::default()
    });
    start(
        Arc::new(service),
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 4,
            queue_depth: 8,
            accept_shards: 1,
        },
    )
    .expect("bind ephemeral port")
}

fn guest_runs(addr: &str) -> u64 {
    let mut c = Client::connect(addr).expect("connect for stats");
    let reply = c.request(Request::Stats, None).expect("stats");
    reply
        .get("stats")
        .and_then(|s| s.get("guest_runs"))
        .and_then(Json::as_u64)
        .expect("guest_runs counter")
}

fn cell_request() -> Request {
    Request::Cell {
        workload: "gzip".to_string(),
        scale: Scale::Tiny,
        threshold: 100,
    }
}

#[test]
fn concurrent_cold_cell_runs_guest_once_and_restart_serves_from_disk() {
    let dir = fresh_dir("accept");
    let server = start_server(Some(dir.clone()));
    let addr = server.addr().to_string();

    // Prime the AVEP so the cold-cell delta below isolates the cell's
    // own guest execution (a cold cell inherently needs AVEP + INIP).
    let mut primer = Client::connect(&addr).expect("connect primer");
    let avep = primer
        .request(
            Request::Plain {
                workload: "gzip".to_string(),
                scale: Scale::Tiny,
                input: tpdbt_suite::InputKind::Ref,
            },
            None,
        )
        .expect("prime AVEP");
    assert_eq!(avep.get("ok").and_then(Json::as_bool), Some(true));
    let before = guest_runs(&addr);

    // Two clients race for the same uncached cell.
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect racer");
                c.request(cell_request(), None).expect("cell query")
            })
        })
        .collect();
    let replies: Vec<Json> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    for reply in &replies {
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert!(
            matches!(
                reply.get("source").and_then(Json::as_str),
                Some("computed" | "coalesced" | "memory")
            ),
            "unexpected source in {}",
            reply.render()
        );
    }
    // Bitwise-identical artifacts: strip the per-request fields and the
    // remaining payload must match exactly.
    let strip = |r: &Json| {
        let mut v = r.clone();
        if let Json::Obj(m) = &mut v {
            m.remove("elapsed_us");
            m.remove("source");
            m.remove("coalesced");
            m.remove("id");
        }
        v.render()
    };
    assert_eq!(strip(&replies[0]), strip(&replies[1]));

    // The acceptance criterion: exactly one guest execution for the
    // racing cell queries (the AVEP was primed above).
    let after = guest_runs(&addr);
    assert_eq!(after - before, 1, "single-flight must dedup the guest run");

    // Graceful shutdown over the protocol.
    let mut closer = Client::connect(&addr).expect("connect closer");
    let ack = closer.request(Request::Shutdown, None).expect("shutdown");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    server.wait();

    // Restart over the same store: the cell must come from disk with
    // zero guest runs.
    let server = start_server(Some(dir.clone()));
    let addr = server.addr().to_string();
    let mut warm = Client::connect(&addr).expect("connect warm");
    let reply = warm.request(cell_request(), None).expect("warm cell");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("source").and_then(Json::as_str), Some("disk"));
    assert_eq!(strip(&reply), strip(&replies[0]), "disk artifact identical");
    assert_eq!(guest_runs(&addr), 0, "warm restart must not run guests");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_frame_gets_structured_error_and_connection_survives() {
    let server = start_server(None);
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let reply = c.send_raw(b"this is not json").expect("error frame");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("malformed_frame")
    );

    // A parseable frame with a bad op is distinguished.
    let reply = c.send_raw(br#"{"op":"evil","id":9}"#).expect("bad op");
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request")
    );

    // The connection is still usable after both rejections.
    let pong = c.request(Request::Ping, None).expect("ping after errors");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
}

#[test]
fn unknown_workload_and_deadline_errors_are_structured() {
    let server = start_server(None);
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let reply = c
        .request(
            Request::Base {
                workload: "no-such-benchmark".to_string(),
                scale: Scale::Tiny,
            },
            None,
        )
        .expect("bad workload reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request")
    );

    // A zero deadline expires before resolution starts.
    let reply = c.request(cell_request(), Some(0)).expect("deadline reply");
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("deadline_exceeded")
    );

    server.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_round_trips() {
    let dir = fresh_dir("unix");
    std::fs::create_dir_all(&dir).expect("socket dir");
    let sock = dir.join("serve.sock");
    let service = ProfileService::new(ServiceConfig {
        cache_dir: None,
        hot_capacity: 8,
        default_deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    });
    let server = start(
        Arc::new(service),
        ServerConfig {
            bind: Bind::Unix(sock.clone()),
            workers: 2,
            queue_depth: 4,
            accept_shards: 1,
        },
    )
    .expect("bind unix socket");
    assert_eq!(server.addr(), format!("unix:{}", sock.display()));

    let mut c = Client::connect(server.addr()).expect("connect over unix");
    let pong = c.request(Request::Ping, None).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
    assert!(!sock.exists(), "socket file removed on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

fn service(cache_dir: PathBuf) -> ProfileService {
    ProfileService::new(ServiceConfig {
        cache_dir: Some(cache_dir),
        hot_capacity: 64,
        default_deadline: Duration::from_secs(120),
        ..ServiceConfig::default()
    })
}

/// The store `.tpst` files in `dir`, by name.
fn tpst_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tpst"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read artifact"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn sweep_and_service_share_one_store() {
    let swept = fresh_dir("swept");
    let report = run_sweep(
        &["gzip"],
        Scale::Tiny,
        &SweepOptions {
            cache_dir: Some(swept.clone()),
            ..SweepOptions::default()
        },
        |_| {},
    )
    .expect("tiny gzip sweep");
    assert!(!report.degraded.is_degraded());
    let far = Instant::now() + Duration::from_secs(120);

    // A service over the sweep's store answers every key from disk.
    let warm = service(swept.clone());
    for input in [InputKind::Ref, InputKind::Train] {
        let r = warm.resolve_plain("gzip", Scale::Tiny, input, far).unwrap();
        assert_eq!(r.source, Source::Disk, "plain {input:?}");
    }
    let base = warm.resolve_base("gzip", Scale::Tiny, far).unwrap();
    assert_eq!(base.source, Source::Disk, "base");
    for point in ladder(Scale::Tiny) {
        let r = warm
            .resolve_cell("gzip", Scale::Tiny, point.actual, far)
            .unwrap();
        assert_eq!(r.source, Source::Disk, "cell {}", point.label);
    }
    assert_eq!(warm.guest_runs(), 0);

    // A service over an empty store computes the same bytes.
    let computed = fresh_dir("computed");
    let cold = service(computed.clone());
    let point = ladder(Scale::Tiny)[4];
    cold.resolve_plain("gzip", Scale::Tiny, InputKind::Ref, far)
        .unwrap();
    cold.resolve_base("gzip", Scale::Tiny, far).unwrap();
    let cell = cold
        .resolve_cell("gzip", Scale::Tiny, point.actual, far)
        .unwrap();
    assert_eq!(cell.source, Source::Computed);
    assert_eq!(cold.guest_runs(), 3, "AVEP, base and one cell");
    let written = tpst_files(&computed);
    assert_eq!(written.len(), 3, "one file per computed artifact");
    let swept_files = tpst_files(&swept);
    for (name, bytes) in &written {
        let same = swept_files.iter().find(|(n, _)| n == name);
        assert_eq!(
            same.map(|(_, b)| b),
            Some(bytes),
            "{name} differs from the sweep's"
        );
    }
    let _ = std::fs::remove_dir_all(&swept);
    let _ = std::fs::remove_dir_all(&computed);
}
