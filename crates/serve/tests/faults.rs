//! Fault-injection coverage of the three serve-side sites: a dropped
//! accepted connection (`serve_listener`), a forced frame-decode
//! failure (`serve_decode`), and a forced compute failure
//! (`serve_compute`). Each fault fires once (occurrence 0) and the
//! service must degrade to a structured error — never a hang or a
//! poisoned server.

use std::sync::Arc;
use std::time::Duration;

use tpdbt_faults::FaultPlan;
use tpdbt_serve::json::Json;
use tpdbt_serve::proto::Request;
use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServiceConfig};
use tpdbt_suite::Scale;

fn start_with_plan(spec: &str) -> tpdbt_serve::ServerHandle {
    let plan = FaultPlan::parse(spec).expect("parse plan");
    let service = ProfileService::new(ServiceConfig {
        cache_dir: None,
        hot_capacity: 8,
        default_deadline: Duration::from_secs(60),
        ..ServiceConfig::default()
    })
    .with_faults(Arc::new(plan));
    start(
        Arc::new(service),
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            queue_depth: 4,
            accept_shards: 1,
        },
    )
    .expect("bind")
}

fn error_code(reply: &Json) -> Option<&str> {
    reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

#[test]
fn injected_compute_failure_is_a_structured_error_then_recovers() {
    let server = start_with_plan("serve_compute:0");
    let mut c = Client::connect(server.addr()).expect("connect");
    let req = || Request::Base {
        workload: "gzip".to_string(),
        scale: Scale::Tiny,
    };
    let reply = c.request(req(), None).expect("faulted reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&reply), Some("compute_failed"));

    // Occurrence 0 has fired; the retry computes normally.
    let reply = c.request(req(), None).expect("recovered reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("source").and_then(Json::as_str), Some("computed"));
    server.shutdown();
}

#[test]
fn injected_decode_failure_rejects_one_frame_only() {
    let server = start_with_plan("serve_decode:0");
    let mut c = Client::connect(server.addr()).expect("connect");
    let reply = c.request(Request::Ping, None).expect("faulted frame");
    assert_eq!(error_code(&reply), Some("malformed_frame"));

    // The connection and the server survive; the next frame decodes.
    let pong = c.request(Request::Ping, None).expect("clean ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn injected_listener_drop_loses_one_connection_only() {
    let server = start_with_plan("serve_listener:0");
    // The first connection is accepted then dropped: the client sees a
    // closed connection at (or shortly after) its first read.
    let mut doomed = Client::connect(server.addr()).expect("tcp connect succeeds");
    assert!(
        doomed.request(Request::Ping, None).is_err(),
        "dropped connection cannot serve a request"
    );
    // The next connection is served normally.
    let mut c = Client::connect(server.addr()).expect("reconnect");
    let pong = c.request(Request::Ping, None).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}
