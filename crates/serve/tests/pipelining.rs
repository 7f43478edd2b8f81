//! Pipelining and frame edge cases over a real listener: many frames in
//! flight on one connection are answered in order, an oversized length
//! prefix is refused and closes the connection, a frame cut short by
//! EOF is dropped without harming the daemon, and a multi-request
//! `batch` frame is refused as a whole while the connection survives.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tpdbt_serve::json::Json;
use tpdbt_serve::proto::{self, Request};
use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServiceConfig, MAX_FRAME};
use tpdbt_suite::Scale;

fn start_server() -> tpdbt_serve::ServerHandle {
    let service = ProfileService::new(ServiceConfig {
        cache_dir: None,
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

#[test]
fn oversized_frame_is_refused_and_the_connection_closes() {
    let server = start_server();
    let mut raw = TcpStream::connect(server.addr()).expect("raw connect");

    // A length prefix above MAX_FRAME — the body never needs to be
    // sent; the server must refuse before allocating.
    let hostile = (MAX_FRAME + 1).to_le_bytes();
    raw.write_all(&hostile).expect("write hostile prefix");
    raw.flush().expect("flush");

    let frame = proto::read_frame(&mut raw)
        .expect("error frame readable")
        .expect("server answered before closing");
    let reply = tpdbt_serve::json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_code(&reply), Some("frame_too_large"));

    // Framing is unrecoverable after a hostile prefix: the server
    // closes, it does not try to resynchronize.
    assert_eq!(
        proto::read_frame(&mut raw).expect("clean close").as_deref(),
        None,
        "connection closed after the error frame"
    );

    // The daemon itself is unharmed.
    let mut c = Client::connect(server.addr()).expect("fresh connect");
    let pong = c.request(Request::Ping, None).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
}

#[test]
fn partial_frame_eof_is_harmless() {
    let server = start_server();

    {
        let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
        // A frame that promises 512 bytes but delivers only a prefix of
        // the body, then EOF: the server must treat the connection as
        // broken — no response, no panic, no stall.
        let body = br#"{"op":"cell","id":9,"workload":"gzip","#;
        raw.write_all(&512u32.to_le_bytes()).expect("prefix");
        raw.write_all(body).expect("partial body");
        raw.flush().expect("flush");
        raw.shutdown(std::net::Shutdown::Write).expect("half-close");

        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("drain");
        assert!(
            rest.is_empty(),
            "no bytes are sent for an incomplete frame, got {rest:?}"
        );
    }

    // The worker that hit the broken connection keeps serving.
    let mut c = Client::connect(server.addr()).expect("fresh connect");
    for request in [Request::Ping, base_request("mcf")] {
        let reply = c.request(request, None).expect("reply after broken peer");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    }

    server.shutdown();
}

#[test]
fn batch_envelope_errors_fail_the_whole_frame_and_spare_the_connection() {
    let server = start_server();
    let mut c = Client::connect(server.addr()).expect("connect");

    // One frame carries one request: a `batch` envelope is an unknown
    // op whatever its slots hold, and the whole frame gets one
    // bad_request answer — no slot is ever run.
    for body in [
        &br#"{"op":"batch","id":5,"requests":[]}"#[..],
        br#"{"op":"batch","id":6,"requests":"nope"}"#,
        br#"{"op":"batch","id":7,"requests":[{"op":"ping","id":1},{"op":"ping","id":2}]}"#,
    ] {
        let reply = c.send_raw(body).expect("batch frame answered");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(error_code(&reply), Some("bad_request"));
        assert!(reply.get("responses").is_none(), "no per-slot answers");
    }

    // Framing was never lost: the connection keeps working.
    let pong = c.request(Request::Ping, None).expect("ping after errors");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
}

#[test]
fn pipelined_singles_are_answered_in_order() {
    let server = start_server();
    let mut c = Client::connect(server.addr()).expect("connect");

    // Many frames in flight before the first read: responses come back
    // strictly in request order on one connection.
    let ids: Vec<u64> = (0..8)
        .map(|i| {
            let workload = if i % 2 == 0 { "gzip" } else { "equake" };
            c.send_request(base_request(workload), None)
                .expect("pipelined send")
        })
        .collect();
    for want in ids {
        let reply = c.read_reply().expect("pipelined reply");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(want));
    }

    server.shutdown();
}
