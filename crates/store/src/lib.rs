//! Persistent profile store for the two-phase DBT reproduction.
//!
//! A full sweep executes every `(benchmark, ladder-point)` cell from
//! scratch even though the expensive baselines — `AVEP` and
//! `INIP(train)`, one guest run each — and every analyzed cell are pure
//! functions of the workload and translator configuration. This crate
//! makes them cacheable:
//!
//! * [`profilefmt`] — a compact, versioned, checksummed binary format
//!   (`"TPST"`, little-endian, varint-packed) for [`PlainArtifact`]
//!   profiles and per-threshold [`CellArtifact`] / [`BaseArtifact`]
//!   sweep results, hand-rolled in the style of the `tpdb` guest binary
//!   format;
//! * [`cache`] — an on-disk [`ProfileStore`] addressing artifacts by
//!   the content digest of a [`CacheKey`] (workload, input kind, scale,
//!   profiling mode, threshold, config/binary/input fingerprint), with
//!   corrupt or stale entries evicted and recomputed rather than
//!   trusted;
//! * [`digest`] — the FNV-1a 64 content digest used throughout.
//!
//! Decoders never panic on malformed input: corruption surfaces as
//! [`StoreError`] and the cache heals by recomputation. The cache layer
//! additionally retries transient I/O errors, fsyncs before publishing
//! an entry, and quarantines entries that decode corrupt twice in a
//! row (see DESIGN.md §9, "Fault tolerance and injection"); a
//! `tpdbt_faults::FaultPlan` can be attached to prove those paths
//! deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod digest;
mod error;
pub mod fsck;
pub mod profilefmt;

pub use cache::{CacheKey, ProfileStore, StoreStats};
pub use error::StoreError;
pub use fsck::{fsck, FsckOptions, FsckReport};
pub use profilefmt::{Artifact, BaseArtifact, CellArtifact, PlainArtifact, TypedArtifact};
