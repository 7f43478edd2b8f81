//! Crash-safety and misbehaving-peer coverage over a real listener
//! (DESIGN.md §14): a stalled reader must not pin a worker past the
//! write deadline, the retrying client must ride out a daemon restart,
//! and a restarted daemon must answer what the last one computed from
//! the store, with no guest run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdbt_serve::json::Json;
use tpdbt_serve::proto::Request;
use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServiceConfig};
use tpdbt_suite::Scale;

fn fresh_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tpdbt-serve-robust-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(cache_dir: Option<PathBuf>) -> ProfileService {
    ProfileService::new(ServiceConfig {
        cache_dir,
        hot_capacity: 64,
        default_deadline: Duration::from_secs(120),
        ..ServiceConfig::default()
    })
}

fn server_on(bind: Bind, cache_dir: Option<PathBuf>, workers: usize) -> tpdbt_serve::ServerHandle {
    let svc = Arc::new(service(cache_dir));
    // The bins run startup recovery before binding; mirror that here.
    svc.startup_recovery();
    start(
        svc,
        ServerConfig {
            bind,
            workers,
            queue_depth: 8,
            accept_shards: 1,
        },
    )
    .expect("bind")
}

fn base_request() -> Request {
    Request::Base {
        workload: "gzip".to_string(),
        scale: Scale::Tiny,
    }
}

/// A client that pipelines requests and never reads its responses
/// eventually fills the server's send buffer. The per-connection write
/// deadline must then disconnect it and return the (sole) worker to
/// the pool, so a well-behaved second client still gets served.
#[cfg(unix)]
#[test]
fn stalled_reader_is_disconnected_and_frees_the_worker() {
    let dir = fresh_dir("stall");
    std::fs::create_dir_all(&dir).expect("socket dir");
    let sock = dir.join("serve.sock");
    let server = server_on(Bind::Unix(sock.clone()), None, 1);
    let addr = server.addr().to_string();

    let stall_addr = addr.clone();
    let staller = std::thread::spawn(move || {
        let mut c = Client::connect(&stall_addr).expect("connect staller");
        // Each `stats` response is an order of magnitude larger than
        // its request, so the server->client buffer fills long before
        // the client->server one; the client blocks mid-write until
        // the server's write deadline severs the connection.
        let mut sent = 0u32;
        for _ in 0..20_000 {
            if c.send_request(Request::Stats, None).is_err() {
                break;
            }
            sent += 1;
        }
        sent
    });

    // Give the staller time to saturate the buffers and stall the
    // worker mid-write.
    std::thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    let mut probe = Client::connect(&addr).expect("connect probe");
    let pong = probe.request(Request::Ping, None).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "worker was pinned for {:?}",
        started.elapsed()
    );

    let sent = staller.join().expect("staller thread");
    assert!(
        sent < 20_000,
        "the stalled connection must be severed, not drained"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Client::with_retries` must survive the daemon being shut down and
/// restarted on the same address mid-session: the first attempt fails
/// on the dead connection, the retry reconnects to the new daemon.
#[cfg(unix)]
#[test]
fn retrying_client_rides_out_a_daemon_restart() {
    let dir = fresh_dir("restart");
    std::fs::create_dir_all(&dir).expect("socket dir");
    let sock = dir.join("serve.sock");
    let addr = format!("unix:{}", sock.display());

    let first = server_on(Bind::Unix(sock.clone()), None, 2);
    let mut client = Client::connect(&addr).expect("connect").with_retries(5);
    let pong = client.request(Request::Ping, None).expect("ping daemon 1");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    // Kill the daemon under the client, then bring up a fresh one on
    // the same socket path.
    let mut closer = Client::connect(&addr).expect("connect closer");
    closer.request(Request::Shutdown, None).expect("shutdown");
    first.wait();
    let second = server_on(Bind::Unix(sock.clone()), None, 2);

    // The client's connection is dead; the retry must reconnect.
    let pong = client.request(Request::Ping, None).expect("ping daemon 2");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    // A worker serves a connection until it closes; free it so the
    // two-worker pool has room for the two connections below.
    drop(client);

    // Without retries the same situation is a hard error.
    let mut brittle = Client::connect(&addr).expect("connect brittle");
    let mut closer = Client::connect(&addr).expect("connect closer 2");
    closer.request(Request::Shutdown, None).expect("shutdown 2");
    second.wait();
    assert!(brittle.request(Request::Ping, None).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full restart loop through the server: a key computed by one
/// daemon answers from disk (not a recompute) after a graceful drain
/// and restart, with the recovery counters visible in `stats` and no
/// snapshot file left behind.
#[test]
fn restart_serves_from_disk_and_reports_recovery_counters() {
    let dir = fresh_dir("restart-disk");
    let server = server_on(Bind::Tcp("127.0.0.1:0".to_string()), Some(dir.clone()), 2);
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr).expect("connect");
    let reply = c.request(base_request(), None).expect("cold base");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("source").and_then(Json::as_str), Some("computed"));
    let base = reply.get("base").cloned();
    assert!(base.is_some(), "base payload: {}", reply.render());

    let mut closer = Client::connect(&addr).expect("connect closer");
    closer.request(Request::Shutdown, None).expect("shutdown");
    server.wait();
    assert!(
        !tpdbt_serve::snapshot::snapshot_path(&dir).exists(),
        "the drain writes no snapshot"
    );

    let server = server_on(Bind::Tcp("127.0.0.1:0".to_string()), Some(dir.clone()), 2);
    let addr = server.addr().to_string();
    let mut restarted = Client::connect(&addr).expect("connect restarted");
    let reply = restarted
        .request(base_request(), None)
        .expect("restarted base");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        reply.get("source").and_then(Json::as_str),
        Some("disk"),
        "first post-restart query answers from the store: {}",
        reply.render()
    );
    assert_eq!(reply.get("base").cloned(), base, "same artifact bytes");

    let stats = restarted.request(Request::Stats, None).expect("stats");
    let recovery = stats
        .get("stats")
        .and_then(|s| s.get("recovery"))
        .cloned()
        .expect("recovery counters");
    assert_eq!(
        recovery.get("orphans_swept").and_then(Json::as_u64),
        Some(0)
    );
    assert!(recovery.get("fsck_ms").and_then(Json::as_u64).is_some());
    assert!(
        recovery.get("recovered").is_none(),
        "no reload to count: {}",
        recovery.render()
    );
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("guest_runs"))
            .and_then(Json::as_u64),
        Some(0),
        "a restart must not run guests"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
