//! Synthetic SPEC CPU2000 analog workloads for the two-phase DBT study.
//!
//! SPEC CPU2000 is proprietary, so this crate provides 26 named analogs
//! (12 INT, 14 FP) built from three guest-program templates:
//!
//! * **loop-nest processors** ([`gen::loopnest`]) — read input records
//!   and run data-dependent inner loops and steering branches
//!   (compressors, solvers, annealers, stencils);
//! * **bytecode interpreters** ([`gen::interp`]) — a jump-table dispatch
//!   loop whose opcode mix is the input (perlbmk, gap);
//! * **recursive searchers** ([`gen::search`]) — call/ret tree walks
//!   steered by input bits (crafty, eon, vortex).
//!
//! Every benchmark has a **ref** and a **train** input. The *dynamic*
//! behaviour the paper reports per benchmark — Mcf's phase changes and
//! trip-count inversion, Gzip's warm-up that ends near 1 000 block
//! visits, Perlbmk's wildly unrepresentative training input, Wupwise's
//! bias shift that persists until ~1M visits, Lucas/Apsi's training
//! inputs in a different trip-count regime, FP's heavily-biased stable
//! branches — is encoded in each analog's input-segment specification
//! (see [`registry`] for the full table with paper citations).
//!
//! # Example
//!
//! ```
//! use tpdbt_suite::{workload, InputKind, Scale};
//!
//! # fn main() -> Result<(), tpdbt_suite::SuiteError> {
//! let w = workload("mcf", Scale::Tiny, InputKind::Ref)?;
//! assert_eq!(w.name, "mcf");
//! assert!(w.input.len() > 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod gen;
pub mod registry;
mod spec;
mod workload;

pub use error::SuiteError;
pub use registry::{all_names, fp_names, int_names, workload};
pub use spec::{fields, BenchClass, Segment};
pub use workload::{InputKind, Scale, Workload};
