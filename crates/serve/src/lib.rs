//! `tpdbt-serve`: a concurrent profile-query service over the
//! persistent profile store.
//!
//! A sweep (`reproduce`, or `tpdbt-run` over one guest) computes the
//! benchmark × threshold matrix and leaves its artifacts in the
//! on-disk [`tpdbt_store`] cache. This crate turns that cache into a long-running service:
//! many consumers query per-cell INIP/AVEP artifacts and paper metrics
//! (`Sd.BP`, `Sd.CP`, `Sd.LP`, mismatch rates) over a length-prefixed
//! JSON protocol (DESIGN.md §10) without each paying for guest
//! executions.
//!
//! The moving parts, bottom up:
//!
//! - [`json`] — the workspace's hand-rolled JSON, re-exported from
//!   `tpdbt-trace` (the build is offline; no serde),
//! - [`proto`] — frames, the request/response model, error codes,
//! - [`lock`] — the poison-recovering lock helper shared by the tiers
//!   below,
//! - [`singleflight`] — N concurrent requests for one uncached cell
//!   perform exactly one guest execution,
//! - [`hot`] — a small exact-counter LRU of decoded artifacts in front
//!   of the disk store,
//! - [`service`] — tiered resolution (memory → disk → compute); keys
//!   and computed artifacts come from the sweep's own `SuiteGuest` and
//!   `Producer`, so both write the same bytes under the same keys,
//! - [`server`] — listener, bounded connection queue with explicit
//!   backpressure, worker pool, graceful drain,
//! - [`snapshot`] — only the name of the hot-tier snapshot file older
//!   daemons wrote; the store is the daemon's one on-disk format
//!   (DESIGN.md §14),
//! - [`client`] — the blocking client behind `tpdbt-query`, with
//!   optional reconnect-and-retry for idempotent requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod hot;
pub mod lock;
pub mod proto;
pub mod server;
pub mod service;
pub mod singleflight;
pub mod snapshot;

pub use client::Client;
pub use hot::{HotStats, HotTier};
pub use proto::{Envelope, ErrorCode, Request, Source, MAX_FRAME};
pub use server::{start, Bind, ConnQueue, ServerConfig, ServerHandle};
pub use service::{ProfileService, Resolved, ServeFailure, ServiceConfig};
pub use singleflight::{FlightOutcome, SingleFlight};
pub use tpdbt_trace::json;
