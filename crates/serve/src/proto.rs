//! The wire protocol: length-prefixed JSON frames plus the typed
//! request/response model (DESIGN.md §10).
//!
//! ```text
//! frame    = length(u32 LE) ++ body(JSON, UTF-8, `length` bytes)
//! ```
//!
//! Every request is one frame carrying an object with an `op` field;
//! every response is one frame carrying an object with `ok` and either
//! the result payload or an `error` object (`code` + `message`). A
//! connection carries any number of request/response pairs in order.
//! Frames above [`MAX_FRAME`] are refused before allocation, so a
//! hostile length prefix cannot balloon memory.

use std::io::{self, Read, Write};
use std::time::Duration;

use tpdbt_store::{BaseArtifact, CellArtifact, PlainArtifact};
use tpdbt_suite::{InputKind, Scale};

use crate::json::{self, Json};

/// Hard cap on a frame body, requests and responses alike.
pub const MAX_FRAME: u32 = 1 << 20;

/// Default per-request deadline when the client does not send one.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Machine-readable error codes a response can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON or not a valid request object.
    MalformedFrame,
    /// The request parsed but named an unknown workload/scale/etc.
    BadRequest,
    /// The server's bounded queue was full; retry later.
    Overloaded,
    /// The request's deadline passed before a worker could finish it.
    DeadlineExceeded,
    /// The guest execution or analysis behind the query failed.
    ComputeFailed,
    /// The server is draining; no new requests are accepted.
    ShuttingDown,
    /// The length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge,
}

impl ErrorCode {
    /// The stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ComputeFailed => "compute_failed",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::FrameTooLarge => "frame_too_large",
        }
    }
}

/// Where a served artifact came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The in-memory hot tier.
    Memory,
    /// The on-disk profile store.
    Disk,
    /// A fresh guest execution performed for this request.
    Computed,
    /// Another in-flight request for the same cell computed it; this
    /// request waited on the single-flight and shared the result.
    Coalesced,
}

impl Source {
    /// The stable wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Source::Memory => "memory",
            Source::Disk => "disk",
            Source::Computed => "computed",
            Source::Coalesced => "coalesced",
        }
    }
}

/// One profile query (or control operation).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server counters and per-endpoint latency histograms.
    Stats,
    /// Graceful shutdown: drain in-flight requests, then exit.
    Shutdown,
    /// A plain whole-run profile (`AVEP` on ref, `INIP(train)` on
    /// train).
    Plain {
        /// Benchmark name.
        workload: String,
        /// Suite scale.
        scale: Scale,
        /// Ref or train input.
        input: InputKind,
    },
    /// One analyzed `INIP(T)` sweep cell (metrics vs the AVEP).
    Cell {
        /// Benchmark name.
        workload: String,
        /// Suite scale.
        scale: Scale,
        /// Retranslation threshold `T`.
        threshold: u64,
    },
    /// The `T = 1` performance baseline.
    Base {
        /// Benchmark name.
        workload: String,
        /// Suite scale.
        scale: Scale,
    },
}

impl Request {
    /// The stable operation name (trace events, latency histograms).
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Plain { .. } => "plain",
            Request::Cell { .. } => "cell",
            Request::Base { .. } => "base",
        }
    }
}

/// A request frame: the operation plus per-request options.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Per-request deadline override, milliseconds.
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub request: Request,
}

/// The wire name of an input kind.
#[must_use]
pub fn input_name(input: InputKind) -> &'static str {
    match input {
        InputKind::Ref => "ref",
        InputKind::Train => "train",
    }
}

impl Envelope {
    /// Parses one request frame body.
    ///
    /// # Errors
    ///
    /// The error code plus a human-readable description of the first
    /// problem: [`ErrorCode::MalformedFrame`] for a body that is not a
    /// JSON object with an `op`, [`ErrorCode::BadRequest`] for an
    /// unknown op or a bad argument.
    pub fn parse(body: &str) -> Result<Envelope, (ErrorCode, String)> {
        let v = json::parse(body).map_err(|e| (ErrorCode::MalformedFrame, e.to_string()))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| (ErrorCode::MalformedFrame, "missing `op` field".to_string()))?;
        let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
        let deadline_ms = v.get("deadline_ms").and_then(Json::as_u64);
        let bad = |msg: String| (ErrorCode::BadRequest, msg);
        let workload = || {
            v.get("workload")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad("missing `workload`".to_string()))
        };
        let scale = || {
            let name = v
                .get("scale")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing `scale`".to_string()))?;
            name.parse::<Scale>().map_err(bad)
        };
        let request = match op {
            "ping" => Request::Ping,
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            "plain" => {
                let input = match v.get("input").and_then(Json::as_str) {
                    None | Some("ref") => InputKind::Ref,
                    Some("train") => InputKind::Train,
                    Some(other) => return Err(bad(format!("unknown input `{other}` (ref|train)"))),
                };
                Request::Plain {
                    workload: workload()?,
                    scale: scale()?,
                    input,
                }
            }
            "cell" => Request::Cell {
                workload: workload()?,
                scale: scale()?,
                threshold: v
                    .get("threshold")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing or non-integer `threshold`".to_string()))?,
            },
            "base" => Request::Base {
                workload: workload()?,
                scale: scale()?,
            },
            other => return Err(bad(format!("unknown op `{other}`"))),
        };
        Ok(Envelope {
            id,
            deadline_ms,
            request,
        })
    }

    /// Renders the request frame body (the client side of
    /// [`Envelope::parse`]).
    #[must_use]
    pub fn render(&self) -> String {
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("op", Json::str(self.request.op())),
            ("id", Json::num(self.id)),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::num(ms)));
        }
        match &self.request {
            Request::Ping | Request::Stats | Request::Shutdown => {}
            Request::Plain {
                workload,
                scale,
                input,
            } => {
                fields.push(("workload", Json::str(workload.clone())));
                fields.push(("scale", Json::str(scale.name())));
                fields.push(("input", Json::str(input_name(*input))));
            }
            Request::Cell {
                workload,
                scale,
                threshold,
            } => {
                fields.push(("workload", Json::str(workload.clone())));
                fields.push(("scale", Json::str(scale.name())));
                fields.push(("threshold", Json::num(*threshold)));
            }
            Request::Base { workload, scale } => {
                fields.push(("workload", Json::str(workload.clone())));
                fields.push(("scale", Json::str(scale.name())));
            }
        }
        Json::obj(fields).render()
    }
}

/// Builds an error response body.
#[must_use]
pub fn error_response(id: u64, code: ErrorCode, message: &str) -> Json {
    Json::obj([
        ("id", Json::num(id)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([
                ("code", Json::str(code.name())),
                ("message", Json::str(message)),
            ]),
        ),
    ])
}

/// Builds a success response body around `payload` fields.
#[must_use]
pub fn ok_response(id: u64, payload: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut fields = vec![("id", Json::num(id)), ("ok", Json::Bool(true))];
    fields.extend(payload);
    Json::obj(fields)
}

/// The `cell` payload: every §2 metric plus the output digest, with
/// undefined metrics (`Sd.CP` of a region-free run, …) as `null`.
#[must_use]
pub fn cell_payload(cell: &CellArtifact) -> Json {
    let m = &cell.metrics;
    Json::obj([
        ("threshold", Json::num(m.threshold)),
        ("sd_bp", Json::opt(m.sd_bp)),
        ("bp_mismatch", Json::opt(m.bp_mismatch)),
        ("sd_cp", Json::opt(m.sd_cp)),
        ("sd_lp", Json::opt(m.sd_lp)),
        ("lp_mismatch", Json::opt(m.lp_mismatch)),
        ("profiling_ops", Json::num(m.profiling_ops)),
        ("cycles", Json::num(m.cycles)),
        ("regions", Json::num(m.regions as u64)),
        ("output_digest", Json::hex(cell.output_digest)),
    ])
}

/// The `plain` payload: a profile summary (block count, dynamic
/// instruction count, profiling ops) plus the output digest. The full
/// block map stays server-side — consumers that need it run a sweep.
#[must_use]
pub fn plain_payload(plain: &PlainArtifact, output_digest: u64) -> Json {
    Json::obj([
        ("blocks", Json::num(plain.profile.blocks.len() as u64)),
        ("entry", Json::num(plain.profile.entry as u64)),
        ("instructions", Json::num(plain.profile.instructions)),
        ("profiling_ops", Json::num(plain.profile.profiling_ops)),
        ("output_len", Json::num(plain.output.len() as u64)),
        ("output_digest", Json::hex(output_digest)),
    ])
}

/// The `base` payload.
#[must_use]
pub fn base_payload(base: &BaseArtifact) -> Json {
    Json::obj([
        ("cycles", Json::num(base.cycles)),
        ("output_digest", Json::hex(base.output_digest)),
    ])
}

/// Reads one frame; `Ok(None)` is a clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors, an oversized length prefix
/// ([`io::ErrorKind::InvalidData`], message `frame_too_large`), or EOF
/// mid-frame.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match stream.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame_too_large: {len} bytes (max {MAX_FRAME})"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes one frame.
///
/// # Errors
///
/// I/O errors; bodies above [`MAX_FRAME`] are a caller bug reported as
/// [`io::ErrorKind::InvalidData`].
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "response frame exceeds MAX_FRAME",
            )
        })?;
    // One buffer, one write: a split length/body write costs ~40 ms per
    // hop on TCP (Nagle vs delayed ACK) for these small frames.
    let mut msg = Vec::with_capacity(4 + body.len());
    msg.extend_from_slice(&len.to_le_bytes());
    msg.extend_from_slice(body);
    stream.write_all(&msg)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_render_parse_round_trips() {
        let cases = [
            Envelope {
                id: 7,
                deadline_ms: Some(1500),
                request: Request::Cell {
                    workload: "gzip".into(),
                    scale: Scale::Tiny,
                    threshold: 100,
                },
            },
            Envelope {
                id: 0,
                deadline_ms: None,
                request: Request::Plain {
                    workload: "mcf".into(),
                    scale: Scale::Paper,
                    input: InputKind::Train,
                },
            },
            Envelope {
                id: 1,
                deadline_ms: None,
                request: Request::Base {
                    workload: "gcc".into(),
                    scale: Scale::Small,
                },
            },
            Envelope {
                id: 2,
                deadline_ms: None,
                request: Request::Ping,
            },
            Envelope {
                id: 3,
                deadline_ms: None,
                request: Request::Shutdown,
            },
            Envelope {
                id: 4,
                deadline_ms: None,
                request: Request::Stats,
            },
        ];
        for e in cases {
            assert_eq!(Envelope::parse(&e.render()).unwrap(), e);
        }
    }

    #[test]
    fn malformed_and_bad_requests_are_distinguished() {
        let malformed = Envelope::parse("not json").unwrap_err();
        assert_eq!(malformed.0, ErrorCode::MalformedFrame);
        let missing_op = Envelope::parse("{}").unwrap_err();
        assert_eq!(missing_op.0, ErrorCode::MalformedFrame);
        let bad_op = Envelope::parse(r#"{"op":"evil"}"#).unwrap_err();
        assert_eq!(bad_op.0, ErrorCode::BadRequest);
        let bad_scale =
            Envelope::parse(r#"{"op":"cell","workload":"gzip","scale":"huge","threshold":1}"#)
                .unwrap_err();
        assert_eq!(bad_scale.0, ErrorCode::BadRequest);
        let no_threshold =
            Envelope::parse(r#"{"op":"cell","workload":"gzip","scale":"tiny"}"#).unwrap_err();
        assert_eq!(no_threshold.0, ErrorCode::BadRequest);
    }
    #[test]
    fn frames_round_trip_and_refuse_hostile_lengths() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"{\"op\":\"ping\"}"[..])
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some(&b"second"[..])
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");

        let hostile = u32::MAX.to_le_bytes();
        let mut cursor = std::io::Cursor::new(hostile.to_vec());
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A truncated body is an error, not a clean EOF.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(&8u32.to_le_bytes());
        truncated.extend_from_slice(b"abc");
        assert!(read_frame(&mut std::io::Cursor::new(truncated)).is_err());
    }

    #[test]
    fn error_codes_and_sources_have_stable_names() {
        let codes = [
            ErrorCode::MalformedFrame,
            ErrorCode::BadRequest,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ComputeFailed,
            ErrorCode::ShuttingDown,
            ErrorCode::FrameTooLarge,
        ];
        let names: std::collections::BTreeSet<&str> = codes.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), codes.len());
        assert_eq!(Source::Memory.name(), "memory");
        assert_eq!(Source::Disk.name(), "disk");
        assert_eq!(Source::Computed.name(), "computed");
        assert_eq!(Source::Coalesced.name(), "coalesced");
    }
}
