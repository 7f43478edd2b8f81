//! Deterministic fault injection for the tpdbt experiment pipeline.
//!
//! The paper's data is the product of hundreds of long guest runs per
//! threshold ladder; a production-scale sweep must *survive* individual
//! failures — a panicking worker, a flaky filesystem, a corrupt cache
//! entry — rather than discard every completed cell. This crate is the
//! harness that *proves* that property: the store, the sweep workers,
//! and the guest runner consult a shared [`FaultPlan`] at well-known
//! [`FaultSite`]s, and the plan decides — deterministically — which
//! occurrence of each site fails.
//!
//! Design points:
//!
//! * **Keyed by site + occurrence index** — `store_read:2` means "the
//!   third store read fails". Within one thread (or a `--jobs 1`
//!   sweep) occurrence order is fully deterministic; across a worker
//!   pool the *set* of fired faults per site is still exact, only the
//!   assignment to cells follows scheduling.
//! * **Seeded pseudo-random plans** — [`FaultPlan::seeded`] fires each
//!   site occurrence with a fixed per-mille probability derived from a
//!   seed via SplitMix64, so "5‰ of store reads fail" replays
//!   identically for the same seed.
//! * **Inert until armed** — there is one build. Every site is a
//!   single `Option<Arc<FaultPlan>>` check, so with no plan attached a
//!   site costs one branch, and an empty plan only counts occurrences.
//!   `--inject` specs that do not parse are rejected, never ignored.
//!
//! # Example
//!
//! ```
//! use tpdbt_faults::{FaultPlan, FaultSite};
//!
//! let plan = FaultPlan::new().inject(FaultSite::StoreRead, 1);
//! assert!(!plan.fire(FaultSite::StoreRead)); // occurrence 0
//! assert!(plan.fire(FaultSite::StoreRead)); // occurrence 1
//! assert_eq!(plan.fired(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod site;

pub use plan::{FaultPlan, PlanError};
pub use site::FaultSite;
