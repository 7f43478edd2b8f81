//! Background optimization service for the two-phase DBT.
//!
//! The source paper's two-phase model optimizes a candidate *at the
//! moment* its use counter hits the threshold — profiling stops, the
//! optimizer runs, execution resumes. Production two-phase translators
//! decouple the phases: the execution thread keeps running (and keeps
//! profiling) while optimizer threads form regions in the background,
//! and finished translations are installed atomically. This crate is
//! that decoupling, kept deliberately engine-agnostic so the scheduling
//! machinery can be tested exhaustively without a guest program:
//!
//! * [`OptService`] — a bounded hot-candidate queue drained by N worker
//!   threads; completions are collected and handed back to the
//!   submitting thread on its terms (non-blocking [`OptService::drain`]
//!   during execution, blocking [`OptService::flush`] at shutdown).
//! * [`Coordinator`] — per-key epochs implementing the *stale-candidate
//!   discard* protocol: a job stamps the epochs of every block it read;
//!   if any stamped epoch moved while the job was queued or running
//!   (the block was retired, reformed, or otherwise invalidated), the
//!   result must be discarded, never installed.
//!
//! Everything here is plain `std` (threads, mutexes, condvars) — the
//! workspace builds offline with no external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod service;

pub use coordinator::Coordinator;
pub use service::{OptService, ServiceStats};
