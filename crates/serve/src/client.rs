//! A blocking protocol client, used by `tpdbt-query`, the benchmarks,
//! and the integration tests. One client is one connection.
//! [`Client::request`] is strictly in-order (send, then read the
//! matching response); [`Client::send_request`] + [`Client::read_reply`]
//! pipeline many frames before reading.
//!
//! With [`Client::with_retries`], a transport failure on an
//! *idempotent* request (`ping` / `plain` / `cell` / `base`) triggers
//! reconnect with capped exponential backoff — a restarting daemon
//! (crash, deploy, graceful restart) costs the caller latency, not an
//! error. Non-idempotent operations (`shutdown`) and explicit
//! pipelining never retry: the caller cannot know whether the lost
//! request was applied.

use std::io;
use std::time::Duration;

use crate::json::{self, Json};
use crate::proto::{self, Envelope, Request};
use crate::server::Stream;

/// First backoff delay after a failed idempotent request.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Backoff ceiling (the exponential doubling stops here).
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// A connected client.
pub struct Client {
    stream: Stream,
    next_id: u64,
    spec: String,
    retries: u32,
}

impl Client {
    /// Dials `spec`: `unix:PATH` or `host:port`.
    ///
    /// # Errors
    ///
    /// Connection failures and malformed specs.
    pub fn connect(spec: &str) -> io::Result<Client> {
        Ok(Client {
            stream: Stream::connect(spec)?,
            next_id: 1,
            spec: spec.to_string(),
            retries: 0,
        })
    }

    /// Retries idempotent [`Client::request`] calls up to `retries`
    /// times after transport failures, reconnecting before each
    /// attempt with exponential backoff (10 ms doubling, capped at
    /// 500 ms). The default is 0: fail fast, exactly as before.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Client {
        self.retries = retries;
        self
    }

    /// Whether a lost instance of `request` is safe to resend: pure
    /// reads and the liveness probe are; `shutdown` is not (the caller
    /// cannot know whether the first copy was applied), and `stats` is
    /// excluded so a retried probe never muddies counters it is trying
    /// to observe.
    fn is_idempotent(request: &Request) -> bool {
        matches!(
            request,
            Request::Ping | Request::Plain { .. } | Request::Cell { .. } | Request::Base { .. }
        )
    }

    /// Sends `request` and reads its response. The response `id` is
    /// checked against the request's. With [`Client::with_retries`],
    /// transport failures on idempotent requests reconnect and resend.
    ///
    /// # Errors
    ///
    /// Transport failures (after any configured retries), a
    /// server-closed connection, an unparseable response, or an id
    /// mismatch. Protocol-level failures (`ok: false`) are *not*
    /// errors — the caller inspects the body.
    pub fn request(&mut self, request: Request, deadline_ms: Option<u64>) -> io::Result<Json> {
        let budget = if Self::is_idempotent(&request) {
            self.retries
        } else {
            0
        };
        let mut attempt = 0u32;
        loop {
            let result = self.request_once(request.clone(), deadline_ms);
            match result {
                Ok(reply) => return Ok(reply),
                Err(e) if attempt < budget => {
                    attempt += 1;
                    let backoff = RETRY_BACKOFF_BASE
                        .saturating_mul(1u32 << (attempt - 1).min(16))
                        .min(RETRY_BACKOFF_CAP);
                    std::thread::sleep(backoff);
                    // A failed reconnect is tolerated here: the next
                    // attempt (if any budget remains) tries again, so a
                    // daemon mid-restart just costs backoff time.
                    if let Ok(stream) = Stream::connect(&self.spec) {
                        self.stream = stream;
                    }
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn request_once(&mut self, request: Request, deadline_ms: Option<u64>) -> io::Result<Json> {
        let id = self.next_id;
        self.next_id += 1;
        let env = Envelope {
            id,
            deadline_ms,
            request,
        };
        let reply = self.send_raw(env.render().as_bytes())?;
        let got = reply.get("id").and_then(Json::as_u64);
        // Connection-level rejections (overloaded, shutting_down for a
        // queued connection) carry id 0 because no request was read.
        if got != Some(id) && got != Some(0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {got:?} does not match request id {id}"),
            ));
        }
        Ok(reply)
    }

    /// Sends `request` *without* reading the response, for pipelining:
    /// many frames go out back-to-back, then [`Client::read_reply`]
    /// collects the responses in order. Returns the request id.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send_request(&mut self, request: Request, deadline_ms: Option<u64>) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let env = Envelope {
            id,
            deadline_ms,
            request,
        };
        proto::write_frame(&mut self.stream, env.render().as_bytes())?;
        Ok(id)
    }

    /// Sends an arbitrary frame body and reads one response frame.
    /// Exists so tests can deliver deliberately malformed frames.
    ///
    /// # Errors
    ///
    /// Transport failures, a closed connection, or a response that is
    /// not valid JSON.
    pub fn send_raw(&mut self, body: &[u8]) -> io::Result<Json> {
        proto::write_frame(&mut self.stream, body)?;
        self.read_reply()
    }

    /// Reads one response frame without sending anything (e.g. the
    /// rejection frame of an overloaded connection).
    ///
    /// # Errors
    ///
    /// As [`Client::send_raw`].
    pub fn read_reply(&mut self) -> io::Result<Json> {
        let frame = proto::read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        let text = std::str::from_utf8(&frame)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
        json::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
