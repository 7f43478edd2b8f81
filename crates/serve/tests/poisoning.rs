//! Panic-resilience regressions over a live server: an injected worker
//! panic under the hot-tier lock must not take the daemon down, a
//! recovery is visible in `stats`, a panic while answering a request
//! costs that request and not the worker, and a failed single-flight
//! leader frees its wire followers long before their deadlines instead
//! of stranding them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdbt_serve::json::Json;
use tpdbt_serve::proto::Request;
use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServiceConfig};
use tpdbt_suite::Scale;

/// Starts a server and keeps a handle on the service so tests can
/// inject panics the way a crashing worker would.
fn start_with_service(
    config: ServiceConfig,
    workers: usize,
) -> (Arc<ProfileService>, tpdbt_serve::ServerHandle) {
    let service = Arc::new(ProfileService::new(config));
    let server = start(
        Arc::clone(&service),
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers,
            queue_depth: 8,
            accept_shards: 1,
        },
    )
    .expect("bind ephemeral port");
    (service, server)
}

fn base_request(workload: &str) -> Request {
    Request::Base {
        workload: workload.to_string(),
        scale: Scale::Tiny,
    }
}

fn error_code(reply: &Json) -> Option<&str> {
    reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

fn hot_poisoned(reply: &Json) -> u64 {
    reply
        .get("stats")
        .and_then(|s| s.get("hot"))
        .and_then(|h| h.get("poisoned"))
        .and_then(Json::as_u64)
        .expect("hot.poisoned counter in stats")
}

#[test]
fn injected_panic_under_the_hot_tier_lock_does_not_kill_the_daemon() {
    let (service, server) = start_with_service(
        ServiceConfig {
            cache_dir: None,
            hot_capacity: 32,
            default_deadline: Duration::from_secs(120),
            ..ServiceConfig::default()
        },
        4,
    );
    let addr = server.addr().to_string();

    // Warm the tier so the poisoned tier has contents to discard.
    let mut c = Client::connect(&addr).expect("connect");
    let warm = c.request(base_request("gzip"), None).expect("warm");
    assert_eq!(warm.get("ok").and_then(Json::as_bool), Some(true));
    let hit = c.request(base_request("gzip"), None).expect("memory hit");
    assert_eq!(hit.get("source").and_then(Json::as_str), Some("memory"));

    // A worker panics while holding the tier lock. Before the
    // recovery sweep this poisoned every later .lock().expect(...) on
    // the same mutex, cascading one crash into a dead daemon.
    service.poison_hot_for_tests();

    // The same connection and fresh connections both keep getting
    // served; the cleared tier just means a recompute.
    let after = c.request(base_request("gzip"), None).expect("post-poison");
    assert_eq!(
        after.get("ok").and_then(Json::as_bool),
        Some(true),
        "request after the panic failed: {}",
        after.render()
    );
    // The tier was cleared and there is no store: the answer is a
    // fresh guest run, not a stale memory hit.
    assert_eq!(after.get("source").and_then(Json::as_str), Some("computed"));
    for _ in 0..3 {
        let mut fresh = Client::connect(&addr).expect("fresh connect");
        let reply = fresh.request(base_request("mcf"), None).expect("serve");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    }

    // The recovery is observable: exactly one clear-and-continue.
    let stats = c.request(Request::Stats, None).expect("stats");
    assert_eq!(hot_poisoned(&stats), 1);

    server.shutdown();
}

#[test]
fn a_panic_while_answering_is_compute_failed_and_the_worker_survives() {
    // One worker: if the panic killed it, nothing would answer again.
    let (service, server) = start_with_service(ServiceConfig::default(), 1);
    let addr = server.addr().to_string();

    service.panic_next_respond_for_tests();
    let mut c = Client::connect(&addr).expect("connect");
    let failed = c
        .request(Request::Ping, None)
        .expect("the panicking request is answered");
    assert_eq!(
        error_code(&failed),
        Some("compute_failed"),
        "a handler panic is the structured compute error: {}",
        failed.render()
    );
    // The same connection keeps being served by the same worker...
    let pong = c.request(Request::Ping, None).expect("same connection");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    drop(c);
    // ...and so is a new one, once the worker is free.
    let mut fresh = Client::connect(&addr).expect("fresh connect");
    let pong = fresh.request(Request::Ping, None).expect("new connection");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    server.shutdown();
}

#[test]
fn failed_leader_frees_wire_followers_long_before_their_deadline() {
    use tpdbt_faults::FaultPlan;

    const RACERS: usize = 6;
    const DEADLINE_MS: u64 = 30_000;

    let plan = FaultPlan::parse("serve_compute:0").expect("parse plan");
    let service = Arc::new(
        ProfileService::new(ServiceConfig {
            cache_dir: None,
            hot_capacity: 32,
            default_deadline: Duration::from_secs(120),
            ..ServiceConfig::default()
        })
        .with_faults(Arc::new(plan)),
    );
    let server = start(
        Arc::clone(&service),
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: RACERS + 1,
            queue_depth: RACERS * 2,
            accept_shards: 1,
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // N clients race for the same cold cell with generous deadlines.
    // The first leader's compute fails (injected); anyone coalesced
    // behind it must get a prompt error — not sit out 30 s — and any
    // racer that retries leadership afterwards computes normally.
    let barrier = Arc::new(std::sync::Barrier::new(RACERS));
    let started = Instant::now();
    let threads: Vec<_> = (0..RACERS)
        .map(|_| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect racer");
                barrier.wait();
                c.request(
                    Request::Cell {
                        workload: "gzip".to_string(),
                        scale: Scale::Tiny,
                        threshold: 100,
                    },
                    Some(DEADLINE_MS),
                )
                .expect("racer reply")
            })
        })
        .collect();
    let replies: Vec<Json> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let elapsed = started.elapsed();

    assert!(
        elapsed < Duration::from_secs(20),
        "every racer answered in {elapsed:?}, nobody waited out the {DEADLINE_MS} ms deadline"
    );
    let failed = replies
        .iter()
        .filter(|r| r.get("ok").and_then(Json::as_bool) == Some(false))
        .count();
    assert!(failed >= 1, "the injected leader failure surfaced");
    for r in &replies {
        if r.get("ok").and_then(Json::as_bool) == Some(false) {
            assert_eq!(
                error_code(r),
                Some("compute_failed"),
                "failures are the structured compute error: {}",
                r.render()
            );
        }
    }

    // The fault fired once; a fresh request serves normally.
    let mut c = Client::connect(&addr).expect("connect after failure");
    let reply = c
        .request(
            Request::Cell {
                workload: "gzip".to_string(),
                scale: Scale::Tiny,
                threshold: 100,
            },
            Some(DEADLINE_MS),
        )
        .expect("recovered cell");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
}
