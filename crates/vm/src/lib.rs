//! Reference interpreter for the `tpdbt` guest ISA.
//!
//! The interpreter serves two roles in the reproduction:
//!
//! 1. **Validation substrate** — workload generators check their
//!    programs behave as intended by running them here, independent of
//!    the translator.
//! 2. **Execution semantics** — the two-phase translator in `tpdbt-dbt`
//!    reuses [`step`] so translated code is guaranteed to compute exactly
//!    what the interpreter computes; the translator only changes *when
//!    profiling and optimization happen*, never the architectural state.
//!
//! # Example
//!
//! ```
//! use tpdbt_isa::{ProgramBuilder, Reg, Cond};
//! use tpdbt_vm::{Machine, Interpreter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let r = Reg::new(0);
//! b.input(r);
//! b.muli(r, r, 2);
//! b.out(r);
//! b.halt();
//! let p = b.build()?;
//!
//! let mut interp = Interpreter::new(&p, &[21]);
//! let stats = interp.run()?;
//! assert_eq!(interp.machine().output(), &[42]);
//! assert_eq!(stats.instructions, 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exec;
mod machine;
mod run;
mod step;

pub use error::VmError;
pub use exec::{exec_body, exec_op, exec_term};
pub use machine::{Machine, MAX_CALL_DEPTH};
pub use run::{run_collect, Interpreter, RunStats, DEFAULT_FUEL};
pub use step::{step, Flow};
