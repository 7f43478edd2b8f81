//! # tpdbt — two-phase dynamic binary translation, reproduced
//!
//! Facade crate for the reproduction of *"The Accuracy of Initial
//! Prediction in Two-Phase Dynamic Binary Translators"* (Wu, Breternitz,
//! Quek, Etzion, Fang — CGO 2004).
//!
//! The workspace is organised as one crate per subsystem; this crate
//! re-exports them under stable module names:
//!
//! * [`isa`] — the guest instruction set and program builders.
//! * [`vm`] — the reference interpreter.
//! * [`linalg`] — dense/sparse solvers and Markov frequency propagation
//!   (the paper used Intel MKL for this step).
//! * [`dbt`] — the two-phase translator runtime: profiling-phase
//!   translation with `use`/`taken` counters, retranslation thresholds,
//!   region formation, optimized execution, and the cost model.
//! * [`profile`] — the offline analysis toolkit: `INIP(T)` / `AVEP`
//!   dumps, NAVEP normalization, `Sd.BP` / `Sd.CP` / `Sd.LP`, and
//!   range-based mismatch rates.
//! * [`suite`] — 26 synthetic SPEC CPU2000 analog workloads with ref and
//!   train inputs.
//! * [`staticpred`] — static CFG analysis and Wu–Larus branch-prediction
//!   heuristics: the zero-profile baseline below both the initial profile
//!   and the training input.
//!
//! # Quickstart
//!
//! ```
//! use tpdbt::dbt::{Dbt, DbtConfig};
//! use tpdbt::suite::{self, InputKind, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Load a workload (a synthetic analog of SPEC2000 gzip) and run it
//! // under the two-phase translator with a retranslation threshold of
//! // 500, then inspect the initial profile it produced.
//! let workload = suite::workload("gzip", Scale::Tiny, InputKind::Ref)?;
//! let config = DbtConfig::two_phase(500);
//! let outcome = Dbt::new(config).run_built(&workload.binary, &workload.input)?;
//! println!(
//!     "{} regions, {} profiling ops",
//!     outcome.inip.regions.len(),
//!     outcome.inip.profiling_ops
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use tpdbt_dbt as dbt;
/// Execution-backend selection, re-exported at the root: pick
/// [`Backend::Interp`] (reference interpreter) or
/// [`Backend::CachedFused`] (fused translation cache plus
/// trace-compiled regions, the default) via
/// [`dbt::DbtConfig::with_backend`]. Backends are bitwise
/// result-identical; only host-side speed differs.
pub use tpdbt_dbt::Backend;
pub use tpdbt_isa as isa;
pub use tpdbt_linalg as linalg;
pub use tpdbt_profile as profile;
pub use tpdbt_staticpred as staticpred;
pub use tpdbt_suite as suite;
pub use tpdbt_vm as vm;
