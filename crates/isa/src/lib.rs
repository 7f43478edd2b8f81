//! Guest instruction set for the `tpdbt` two-phase dynamic binary
//! translator reproduction.
//!
//! The CGO 2004 paper this project reproduces studies IA32EL, which
//! translates IA-32 guest binaries. IA-32 and its binaries are not
//! available here, so this crate defines a compact register-machine guest
//! ISA with the control-flow shapes that matter for the study:
//! conditional branches (the source of `taken/use` branch probabilities),
//! unconditional jumps, indirect jumps through jump tables (switch
//! dispatch), calls/returns, and data-dependent loops.
//!
//! A guest [`Program`] is a flat vector of [`Instr`] plus an entry point;
//! instruction addresses are indices into that vector. Programs are
//! usually built with [`ProgramBuilder`] (label-based assembly) or the
//! higher-level [`structured`] helpers (while loops, if/else, switch).
//!
//! # Example
//!
//! ```
//! use tpdbt_isa::{ProgramBuilder, Reg, Cond};
//!
//! # fn main() -> Result<(), tpdbt_isa::IsaError> {
//! let mut b = ProgramBuilder::new();
//! let loop_top = b.fresh_label("loop");
//! let done = b.fresh_label("done");
//! let (n, i) = (Reg::new(1), Reg::new(2));
//! b.movi(n, 10);
//! b.movi(i, 0);
//! b.bind(loop_top)?;
//! b.addi(i, i, 1);
//! b.br_reg(Cond::Lt, i, n, loop_top);
//! b.bind(done)?;
//! b.halt();
//! let program = b.build()?;
//! assert!(program.len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod binfmt;
mod block;
mod builder;
mod disasm;
mod error;
mod instr;
mod predecode;
mod program;
mod reg;
pub mod structured;

pub use block::{decode_block, Block, StaticSuccs, Terminator};
pub use builder::{BuiltProgram, Label, ProgramBuilder};
pub use error::IsaError;
pub use instr::{AluOp, Cond, FpuOp, Instr, Operand};
pub use predecode::{
    BlockBody, DecodedBlock, MicroOp, MicroOperand, MicroTerm, PredecodedProgram, TermView,
};
pub use program::{Pc, Program};
pub use reg::{FReg, Reg, NUM_FREGS, NUM_REGS};
