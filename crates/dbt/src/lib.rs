//! The two-phase dynamic binary translator runtime.
//!
//! This crate is the reproduction's stand-in for Intel's IA32EL (Baraz
//! et al., MICRO-36 2003), the infrastructure the CGO 2004 paper
//! instruments. It implements the architecture the paper describes:
//!
//! * **Profiling phase** — each guest basic block is translated quickly
//!   on first execution and instrumented to collect a `use` count (times
//!   visited) and a `taken` count (times its conditional branch was
//!   taken). The run counts the instructions, dispatches and counter
//!   increments of unoptimized blocks.
//! * **Retranslation threshold** — when a block's `use` count reaches the
//!   threshold `T`, the block is registered in a pool of candidate
//!   blocks. When the pool is full, or a block is registered twice
//!   (`use == 2T`), the optimization phase runs.
//! * **Optimization phase** — candidate blocks seed **regions**: traces
//!   grown along likely successors using `taken/use` branch
//!   probabilities, with hammock (if-then / if-else diamond) inclusion
//!   and **loop regions** when the trace closes back on its entry.
//!   Blocks may be duplicated into multiple regions. Optimized blocks
//!   stop profiling — a registered block's counter freezes with
//!   `T ≤ use ≤ 2T` (the upper bound is reached exactly when the
//!   registered-twice rule fires the optimizer at `use == 2T`;
//!   pool-full triggers freeze strictly below it), which is precisely
//!   the paper's *initial profile*. Non-candidate blocks pulled into a
//!   region as hammock arms may freeze below `T`.
//! * **Optimized execution** — region code runs at a faster
//!   per-instruction price; leaving a region anywhere but its designated
//!   tail is a *side exit* and pays a penalty. Region formation itself
//!   costs optimization cycles. A run only counts these events
//!   ([`ExecStats`]); [`CostModel::price`], the only code that computes
//!   cycles, prices them into the paper's Figure 17 performance curve.
//!
//! Running with [`ProfilingMode::NoOpt`] never optimizes and yields the
//! whole-run average profile (`AVEP`, or `INIP(train)` on a training
//! input). [`ProfilingMode::Continuous`] implements the paper's
//! future-work continuous profiling (counters never freeze, regions are
//! re-formed when stale) and is used for ablation studies.
//!
//! A run is an executor (the guest machine's per-block code) feeding a
//! translation policy (counters, pool, regions, event counts).
//! [`Dbt::run`] feeds one policy; [`Lockstep::run`] steps the guest
//! once and feeds one policy per configuration, so the paper's AVEP,
//! `T = 1` base and threshold ladder on one input cost one guest
//! execution. Each lockstep outcome is bitwise equal to its
//! configuration's single run.
//!
//! How translated code executes on the *host* is a separate axis,
//! selected by [`Backend`]: reference interpretation (`interp`, the
//! differential oracle) or a translation cache of blocks decoded to one
//! specialized micro-op per instruction (`cached-fused`, the default;
//! DESIGN.md §16). An installed region runs in one of two ways: the policy's
//! automaton walks it block by block, or a single run on
//! `cached-fused` in two-phase or adaptive mode, whose regions never
//! re-form, runs it as a guarded compiled trace. Backends never change
//! observable results — output, stats, profiles, and intervals are
//! bitwise identical across both.
//!
//! # Example
//!
//! ```
//! use tpdbt_isa::{structured, Cond, ProgramBuilder, Reg};
//! use tpdbt_dbt::{Dbt, DbtConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A program with one hot loop.
//! let mut b = ProgramBuilder::new();
//! let r = Reg::new(0);
//! structured::counted_loop(&mut b, r, 0, 1, Cond::Lt, 10_000, |_| {})?;
//! b.halt();
//! let program = b.build()?;
//!
//! let outcome = Dbt::new(DbtConfig::two_phase(100)).run(&program, &[])?;
//! assert_eq!(outcome.inip.regions.len(), 1); // the loop became a region
//! assert!(outcome.stats.loop_backs > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod engine;
mod error;
mod exec;
pub mod offline;
mod policy;
mod region;
mod trace;

#[cfg(test)]
#[path = "../tests/support/programs.rs"]
mod programs;

pub use backend::Backend;
pub use config::{AdaptPolicy, CostModel, DbtConfig, OptMode, ProfilingMode, RegionPolicy};
pub use engine::{Dbt, Lockstep, RunOutcome};
pub use error::DbtError;
pub use policy::ExecStats;
