//! Structured tracing for the two-phase DBT reproduction.
//!
//! The engine (`tpdbt-dbt`), the profile store (`tpdbt-store`), and the
//! sweep orchestrator (`tpdbt-experiments`) all report lifecycle events
//! into a shared [`Tracer`] — block translation, registration and
//! counter freezes, region formation / re-formation / retirement,
//! store hits/misses, and per-cell sweep progress. Counter bumps are
//! too many to keep one by one: each run adds its bump total to the
//! tracer's `counter_bump` count ([`Tracer::tally`]) and stores no
//! event. The collected trace is the
//! observability layer the ROADMAP's production north star calls for,
//! and the instrument that *proves* runtime invariants (e.g. the frozen
//! initial profile's `T ≤ use ≤ 2T` bound) instead of asserting them in
//! one test.
//!
//! Design points:
//!
//! * **Typed events** ([`EventKind`]) — no format strings in hot paths;
//!   exporters serialize once, at the end.
//! * **Bounded collection** — a ring buffer retains the most recent
//!   events while per-kind totals stay exact ([`Tracer::counts`]),
//!   so tracing a billion-instruction run cannot exhaust memory.
//! * **Pay only when attached** — subsystems hold `Option<&Tracer>` /
//!   `Option<Arc<Tracer>>`; without a tracer, each site is one branch
//!   and builds no event payload.
//! * **Two export formats** ([`export`]) — JSONL for grepping and
//!   Chrome `trace_event` for timeline visualization; both render
//!   through [`json`], the workspace's one hand-rolled JSON writer and
//!   parser (the build is offline, no serde).
//! * **Histograms** ([`stats::Histogram`]) — log2-bucketed timing
//!   summaries for end-of-sweep reports.
//!
//! # Example
//!
//! ```
//! use tpdbt_trace::{EventKind, TraceFormat, Tracer};
//!
//! let tracer = Tracer::new();
//! tracer.emit(EventKind::Registered { pc: 7, use_count: 100 });
//! tracer.emit(EventKind::RegisteredTwice { pc: 7, use_count: 200 });
//! assert_eq!(tracer.count("registered_twice"), 1);
//! let jsonl = tpdbt_trace::export::render(&tracer, TraceFormat::Jsonl);
//! assert!(jsonl.contains("\"use\":200"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod ring;
pub mod stats;

pub use event::{Event, EventKind, TraceRegionKind};
pub use export::TraceFormat;
pub use ring::Tracer;
