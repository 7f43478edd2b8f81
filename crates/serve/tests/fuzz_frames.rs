//! Property tests for the protocol surface a hostile or corrupted peer
//! can reach: the JSON parser, the request decoder, and the frame
//! reassembler. The contract everywhere is *never panic* — any
//! input yields a structured error, a parsed value, or a clean EOF —
//! plus a live-server leg asserting that raw garbage on the wire gets
//! an error frame or a clean close and never takes the daemon down.

use std::io::Cursor;

use proptest::prelude::*;

use tpdbt_serve::json;
use tpdbt_serve::proto::{self, Envelope, Request, MAX_FRAME};

/// A valid envelope body to mutate: bit flips over well-formed input
/// probe deeper decoder states than uniformly random bytes ever reach.
fn valid_body(id: u64, threshold: u64) -> String {
    Envelope {
        id,
        deadline_ms: Some(1000),
        request: Request::Cell {
            workload: "gzip".to_string(),
            scale: tpdbt_suite::Scale::Tiny,
            threshold,
        },
    }
    .render()
}

/// Frames `body` exactly as the client would put it on the wire.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, body).expect("frame fits");
    wire
}

/// Drains frames from `bytes` until EOF or the first error, counting
/// iterations so a decoder bug looping forever fails fast instead of
/// hanging the suite.
fn drain_frames(bytes: &[u8]) {
    let mut cursor = Cursor::new(bytes);
    for _ in 0..64 {
        match proto::read_frame(&mut cursor) {
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => return,
        }
    }
    panic!("read_frame failed to consume input in 64 frames");
}

proptest! {
    /// Arbitrary printable-ish text (including braces, quotes, and
    /// backslashes, so escape handling is exercised) never panics the
    /// JSON parser or the request decoder.
    #[test]
    fn arbitrary_text_never_panics_the_parsers(
        body in "[ -~\n\t]{0,300}",
    ) {
        let _ = json::parse(&body);
        let _ = Envelope::parse(&body);
    }

    /// A single corrupted byte in a well-formed envelope body either
    /// still parses (the flip hit a don't-care position) or fails with
    /// a structured error — never a panic.
    #[test]
    fn bit_flipped_envelopes_never_panic(
        id in 0u64..u64::MAX,
        threshold in 1u64..5_000_000,
        pos_seed in 0usize..usize::MAX,
        flip in 1u8..=255,
    ) {
        let mut bytes = valid_body(id, threshold).into_bytes();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        // Not-UTF-8 flips are answered by the server before parsing.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = Envelope::parse(text);
        }
    }

    /// Raw garbage byte streams never panic the frame reassembler:
    /// every prefix is a frame, a clean EOF, or an error.
    #[test]
    fn garbage_byte_streams_never_panic_read_frame(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        drain_frames(&bytes);
    }

    /// Truncating a valid framed message at any point yields a frame
    /// (cut past the body), clean EOF (cut at a boundary), or an error
    /// (cut mid-prefix or mid-body) — never a panic and never a
    /// fabricated frame.
    #[test]
    fn truncated_frames_never_panic(
        id in 0u64..u64::MAX,
        threshold in 1u64..5_000_000,
        cut_seed in 0usize..usize::MAX,
    ) {
        let wire = framed(valid_body(id, threshold).as_bytes());
        let cut = cut_seed % wire.len();
        drain_frames(&wire[..cut]);
    }

    /// A corrupted length prefix either reads as a (short) frame, an
    /// oversized-frame error, or EOF-mid-frame — never a panic or an
    /// allocation driven past [`MAX_FRAME`].
    #[test]
    fn corrupted_length_prefixes_never_panic(
        len_bytes in prop::collection::vec(0u8..=255, 4),
        body in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let mut wire = len_bytes.clone();
        wire.extend_from_slice(&body);
        let declared = u32::from_le_bytes([
            len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3],
        ]);
        let mut cursor = Cursor::new(&wire[..]);
        match proto::read_frame(&mut cursor) {
            Ok(Some(frame)) => prop_assert_eq!(frame.len() as u32, declared),
            Ok(None) => prop_assert!(false, "4-byte prefix cannot be clean EOF"),
            Err(_) => prop_assert!(
                declared > MAX_FRAME || (declared as usize) > body.len(),
                "error on a satisfiable frame"
            ),
        }
    }
}

/// The live-server contract: raw garbage on a real connection gets a
/// structured error frame or a clean close, and the daemon survives to
/// serve the next client. Uses a fixed xorshift stream rather than
/// proptest so the server spins up once for all payloads.
#[test]
fn live_server_survives_garbage_connections() {
    use std::io::{Read as _, Write as _};
    use std::sync::Arc;
    use std::time::Duration;

    use tpdbt_serve::json::Json;
    use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServiceConfig};

    let service = ProfileService::new(ServiceConfig {
        cache_dir: None,
        hot_capacity: 8,
        default_deadline: Duration::from_secs(30),
        ..ServiceConfig::default()
    });
    let server = start(
        Arc::new(service),
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            queue_depth: 8,
            accept_shards: 1,
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let mut state = 0x243F_6A88_85A3_08D3u64; // fixed seed: deterministic
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for round in 0..24 {
        let mut payload = Vec::new();
        let words = 1 + (next() % 64) as usize;
        for _ in 0..words {
            payload.extend_from_slice(&next().to_le_bytes());
        }
        let mut sock = std::net::TcpStream::connect(&addr).expect("connect garbage");
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(&payload).expect("write garbage");
        // Half-close so the server sees EOF once it has consumed (or
        // rejected) whatever framing it could extract.
        sock.shutdown(std::net::Shutdown::Write).ok();
        // The server may answer any number of error frames (each
        // "frame" of garbage that decodes as non-JSON gets one) before
        // closing; it must never hang past the read timeout.
        let mut sink = Vec::new();
        match sock.read_to_end(&mut sink) {
            Ok(_) => {}
            Err(e) => panic!("round {round}: server hung on garbage: {e}"),
        }
    }

    // The daemon is still healthy after two dozen hostile connections.
    let mut probe = Client::connect(&addr).expect("connect probe");
    let pong = probe
        .request(tpdbt_serve::proto::Request::Ping, None)
        .expect("ping after garbage");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}
