//! The execute half of instruction semantics, operating on pre-decoded
//! micro-ops.
//!
//! [`crate::step`] (the reference interpreter's dispatch) decodes each
//! guest instruction into a [`MicroOp`] / [`TermView`] and immediately
//! executes it here; the translation cache in `tpdbt-dbt` decodes once
//! at translation time and replays the stored micro-ops through the
//! same two functions, in cached blocks and compiled traces alike.
//! Because every path shares this single implementation, translated
//! code computes exactly what the interpreter computes — including trap
//! payloads, which carry the guest `pc` passed in explicitly.
//!
//! # Handler layout
//!
//! A [`MicroOp`] is already specialized by operation and operand form,
//! so [`exec_op`] is one `match` with one arm per op and nothing left to
//! decode inside an arm. [`exec_body`] runs a block body through it, one
//! dispatch per guest instruction; every execution backend funnels
//! through it, which is what makes bitwise backend parity hold by
//! construction.

use tpdbt_isa::{MicroOp, MicroOperand, Pc, TermView};

use crate::error::VmError;
use crate::machine::Machine;
use crate::step::Flow;

#[inline]
fn operand(m: &Machine, op: MicroOperand) -> i64 {
    match op {
        MicroOperand::Reg(r) => m.reg(r as usize),
        MicroOperand::Imm(v) => v,
    }
}

/// `r[dst] = f(r[a], y)`.
#[inline(always)]
fn alu(m: &mut Machine, dst: u8, a: u8, y: i64, f: impl FnOnce(i64, i64) -> i64) {
    let v = f(m.reg(a as usize), y);
    m.set_reg(dst as usize, v);
}

/// `fregs[dst] = f(fregs[a], fregs[b])`.
#[inline(always)]
fn fpu(m: &mut Machine, dst: u8, a: u8, b: u8, f: impl FnOnce(f64, f64) -> f64) {
    let v = f(m.freg(a as usize), m.freg(b as usize));
    m.set_freg(dst as usize, v);
}

/// `r[dst] = r[a] / y` or `r[a] % y`, trapping at `pc` when `y == 0`.
#[inline(always)]
fn divide(
    m: &mut Machine,
    dst: u8,
    a: u8,
    y: i64,
    pc: Pc,
    f: impl FnOnce(i64, i64) -> i64,
) -> Result<(), VmError> {
    if y == 0 {
        return Err(VmError::DivideByZero { pc });
    }
    alu(m, dst, a, y, f);
    Ok(())
}

#[inline(always)]
fn shl(x: i64, y: i64) -> i64 {
    x.wrapping_shl((y & 63) as u32)
}

#[inline(always)]
fn shr(x: i64, y: i64) -> i64 {
    x.wrapping_shr((y & 63) as u32)
}

/// Executes one straight-line micro-op located at guest address `pc`
/// (used only for trap payloads), updating architectural state.
///
/// # Errors
///
/// Returns a [`VmError`] trap for division by zero or out-of-bounds
/// memory, exactly as the instruction at `pc` would under
/// [`crate::step`].
// Always inlined: the one dispatch per instruction sits directly in
// every body loop (cached blocks, trace segments, `step`).
#[inline(always)]
pub fn exec_op(op: &MicroOp, pc: Pc, m: &mut Machine) -> Result<(), VmError> {
    let r = |m: &Machine, i: u8| m.reg(i as usize);
    match *op {
        MicroOp::AddRR { dst, a, b } => alu(m, dst, a, r(m, b), i64::wrapping_add),
        MicroOp::AddRI { dst, a, imm } => alu(m, dst, a, imm, i64::wrapping_add),
        MicroOp::SubRR { dst, a, b } => alu(m, dst, a, r(m, b), i64::wrapping_sub),
        MicroOp::SubRI { dst, a, imm } => alu(m, dst, a, imm, i64::wrapping_sub),
        MicroOp::MulRR { dst, a, b } => alu(m, dst, a, r(m, b), i64::wrapping_mul),
        MicroOp::MulRI { dst, a, imm } => alu(m, dst, a, imm, i64::wrapping_mul),
        MicroOp::DivRR { dst, a, b } => divide(m, dst, a, r(m, b), pc, i64::wrapping_div)?,
        MicroOp::DivRI { dst, a, imm } => divide(m, dst, a, imm, pc, i64::wrapping_div)?,
        MicroOp::RemRR { dst, a, b } => divide(m, dst, a, r(m, b), pc, i64::wrapping_rem)?,
        MicroOp::RemRI { dst, a, imm } => divide(m, dst, a, imm, pc, i64::wrapping_rem)?,
        MicroOp::AndRR { dst, a, b } => alu(m, dst, a, r(m, b), |x, y| x & y),
        MicroOp::AndRI { dst, a, imm } => alu(m, dst, a, imm, |x, y| x & y),
        MicroOp::OrRR { dst, a, b } => alu(m, dst, a, r(m, b), |x, y| x | y),
        MicroOp::OrRI { dst, a, imm } => alu(m, dst, a, imm, |x, y| x | y),
        MicroOp::XorRR { dst, a, b } => alu(m, dst, a, r(m, b), |x, y| x ^ y),
        MicroOp::XorRI { dst, a, imm } => alu(m, dst, a, imm, |x, y| x ^ y),
        MicroOp::ShlRR { dst, a, b } => alu(m, dst, a, r(m, b), shl),
        MicroOp::ShlRI { dst, a, imm } => alu(m, dst, a, imm, shl),
        MicroOp::ShrRR { dst, a, b } => alu(m, dst, a, r(m, b), shr),
        MicroOp::ShrRI { dst, a, imm } => alu(m, dst, a, imm, shr),
        MicroOp::Mov { dst, src } => m.set_reg(dst as usize, r(m, src)),
        MicroOp::MovI { dst, imm } => m.set_reg(dst as usize, imm),
        MicroOp::FAdd { dst, a, b } => fpu(m, dst, a, b, |x, y| x + y),
        MicroOp::FSub { dst, a, b } => fpu(m, dst, a, b, |x, y| x - y),
        MicroOp::FMul { dst, a, b } => fpu(m, dst, a, b, |x, y| x * y),
        MicroOp::FDiv { dst, a, b } => fpu(m, dst, a, b, |x, y| x / y),
        MicroOp::FMax { dst, a, b } => fpu(m, dst, a, b, f64::max),
        MicroOp::FMin { dst, a, b } => fpu(m, dst, a, b, f64::min),
        MicroOp::FMov { dst, src } => m.set_freg(dst as usize, m.freg(src as usize)),
        MicroOp::FMovI { dst, imm } => m.set_freg(dst as usize, imm),
        MicroOp::IToF { dst, src } => m.set_freg(dst as usize, r(m, src) as f64),
        MicroOp::FToI { dst, src } => {
            let v = m.freg(src as usize);
            m.set_reg(dst as usize, if v.is_nan() { 0 } else { v as i64 });
        }
        MicroOp::FCmpLt { dst, a, b } => {
            let v = i64::from(m.freg(a as usize) < m.freg(b as usize));
            m.set_reg(dst as usize, v);
        }
        MicroOp::Load { dst, base, offset } => {
            let idx = m.mem_index(r(m, base), offset, pc)?;
            m.set_reg(dst as usize, m.mem(idx));
        }
        MicroOp::Store { src, base, offset } => {
            let idx = m.mem_index(r(m, base), offset, pc)?;
            m.set_mem(idx, r(m, src));
        }
        MicroOp::FLoad { dst, base, offset } => {
            let idx = m.fmem_index(r(m, base), offset, pc)?;
            m.set_freg(dst as usize, m.fmem(idx));
        }
        MicroOp::FStore { src, base, offset } => {
            let idx = m.fmem_index(r(m, base), offset, pc)?;
            m.set_fmem(idx, m.freg(src as usize));
        }
        MicroOp::In { dst } => {
            let v = m.next_input();
            m.set_reg(dst as usize, v);
        }
        MicroOp::Out { src } => m.push_output(r(m, src)),
    }
    Ok(())
}

/// Runs a block body whose first instruction sits at guest address
/// `start`, one [`exec_op`] dispatch per instruction, leaving the
/// machine exactly as stepping the instructions would. The op at index
/// `i` is the instruction at `start + i`.
///
/// Every execution backend (cached blocks, compiled traces) funnels
/// straight-line execution through this one function, which is what
/// makes bitwise backend parity hold by construction.
///
/// # Errors
///
/// Propagates the first trap, with the trapping instruction's guest pc
/// in the payload; the ops before it have committed.
#[inline(always)]
pub fn exec_body(ops: &[MicroOp], start: Pc, m: &mut Machine) -> Result<(), VmError> {
    for (pc, op) in (start..).zip(ops) {
        exec_op(op, pc, m)?;
    }
    Ok(())
}

/// Executes a pre-decoded terminator located at guest address `pc`
/// (used for trap payloads and the call return address check) and
/// reports where control goes.
///
/// # Errors
///
/// Returns a [`VmError`] trap for call-stack violations, exactly as
/// the instruction at `pc` would under [`crate::step`].
#[inline]
pub fn exec_term(term: TermView<'_>, pc: Pc, m: &mut Machine) -> Result<Flow, VmError> {
    Ok(match term {
        TermView::Jump { target } => Flow::Jump {
            target,
            taken: true,
        },
        TermView::Branch {
            cond, a, b, taken, ..
        } => {
            if cond.eval(m.reg(a as usize), operand(m, b)) {
                Flow::Jump {
                    target: taken,
                    taken: true,
                }
            } else {
                Flow::Next
            }
        }
        TermView::Switch { selector, table } => {
            let raw = m.reg(selector as usize);
            let idx = (raw.rem_euclid(table.len() as i64)) as usize;
            Flow::Jump {
                target: table[idx],
                taken: true,
            }
        }
        TermView::Call { target, next } => {
            m.push_call(next, pc)?;
            Flow::Jump {
                target,
                taken: true,
            }
        }
        TermView::Return => {
            let target = m.pop_call(pc)?;
            Flow::Jump {
                target,
                taken: true,
            }
        }
        TermView::Halt => Flow::Halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_isa::{Cond, DecodedBlock, Instr, ProgramBuilder, Reg};

    /// Pre-decoded execution of a whole block equals stepping the same
    /// instructions through the interpreter dispatch.
    #[test]
    fn decoded_block_replay_matches_step() {
        let mut b = ProgramBuilder::new();
        b.reserve_mem(8);
        let top = b.fresh_label("top");
        b.movi(Reg::new(1), 3); // 0
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 5); // 1
        b.store(Reg::new(0), Reg::new(1), 0); // 2
        b.out(Reg::new(0)); // 3
        b.br_imm(Cond::Lt, Reg::new(0), 20, top); // 4
        b.halt(); // 5
        let p = b.build().unwrap();

        let mut by_step = Machine::new(&p, &[]);
        let mut by_replay = by_step.clone();

        let block = DecodedBlock::decode(&p, 0).unwrap();
        exec_body(block.body.ops(), block.start, &mut by_replay).unwrap();
        by_replay.set_pc(block.term_pc());
        let replay_flow = exec_term(block.term.view(), block.term_pc(), &mut by_replay).unwrap();

        let mut step_flow = Flow::Halted;
        for pc in block.start..block.end {
            by_step.set_pc(pc);
            step_flow = crate::step(&p, &mut by_step).unwrap();
        }
        assert_eq!(replay_flow, step_flow);
        assert_eq!(by_replay, by_step);
    }

    #[test]
    fn traps_carry_the_guest_pc() {
        let mut b = ProgramBuilder::new();
        b.reserve_mem(1);
        b.load(Reg::new(0), Reg::new(1), 7); // 0: oob
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p, &[]);
        let op = MicroOp::from_instr(p.get(0).unwrap()).unwrap();
        assert!(matches!(
            exec_op(&op, 0, &mut m),
            Err(VmError::MemOutOfBounds { pc: 0, addr: 7, .. })
        ));
        let div = MicroOp::DivRI {
            dst: 0,
            a: 0,
            imm: 0,
        };
        assert_eq!(
            exec_op(&div, 9, &mut m),
            Err(VmError::DivideByZero { pc: 9 })
        );
        assert_eq!(
            exec_term(TermView::Return, 4, &mut m),
            Err(VmError::StackUnderflow { pc: 4 })
        );
    }

    /// An op trapping at index `k` of a body reports guest pc
    /// `start + k`, and the ops before it have committed.
    #[test]
    fn body_traps_carry_the_instruction_pc() {
        let mut b = ProgramBuilder::new();
        b.reserve_fmem(4);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p, &[]);

        // The float load reads past the 4-word fmem through the base
        // the add just wrote.
        let body = [
            MicroOp::AddRI {
                dst: 1,
                a: 1,
                imm: 41,
            },
            MicroOp::FLoad {
                dst: 0,
                base: 1,
                offset: 0,
            },
            MicroOp::MovI { dst: 2, imm: 7 },
        ];
        assert!(matches!(
            exec_body(&body, 20, &mut m),
            Err(VmError::MemOutOfBounds { pc: 21, .. })
        ));
        assert_eq!((m.reg(1), m.reg(2)), (41, 0));
    }

    #[test]
    fn call_pushes_decoded_return_address() {
        let mut b = ProgramBuilder::new();
        let f = b.fresh_label("f");
        b.call(f); // 0
        b.halt(); // 1
        b.bind(f).unwrap();
        b.ret(); // 2
        let p = b.build().unwrap();
        let mut m = Machine::new(&p, &[]);
        let term = TermView::of_instr(p.get(0).unwrap(), 0).unwrap();
        assert_eq!(
            exec_term(term, 0, &mut m).unwrap(),
            Flow::Jump {
                target: 2,
                taken: true
            }
        );
        assert_eq!(m.call_depth(), 1);
        assert_eq!(
            exec_term(TermView::Return, 2, &mut m).unwrap(),
            Flow::Jump {
                target: 1,
                taken: true
            }
        );
    }

    /// Every ALU operation in both operand forms, and every FPU
    /// operation, computes what its guest instruction specifies. The
    /// interpreter shares these handlers, so this is checked against
    /// plain Rust arithmetic rather than against `step`.
    #[test]
    fn every_alu_and_fpu_op_computes_its_operation() {
        use tpdbt_isa::{AluOp, FReg, FpuOp, Operand};
        let alu = |op: AluOp, x: i64, y: i64| match op {
            AluOp::Add => x.wrapping_add(y),
            AluOp::Sub => x.wrapping_sub(y),
            AluOp::Mul => x.wrapping_mul(y),
            AluOp::Div => x.wrapping_div(y),
            AluOp::Rem => x.wrapping_rem(y),
            AluOp::And => x & y,
            AluOp::Or => x | y,
            AluOp::Xor => x ^ y,
            AluOp::Shl => x.wrapping_shl((y & 63) as u32),
            AluOp::Shr => x.wrapping_shr((y & 63) as u32),
        };
        let ops = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
        ];
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p, &[]);
        for op in ops {
            for (x, y) in [(-7, 3), (i64::MIN, -1), (12345, 70), (-1, 65)] {
                for b in [Operand::Reg(Reg::new(3)), Operand::Imm(y)] {
                    let instr = Instr::Alu {
                        op,
                        dst: Reg::new(1),
                        a: Reg::new(2),
                        b,
                    };
                    m.set_reg(2, x);
                    m.set_reg(3, y);
                    exec_op(&MicroOp::from_instr(&instr).unwrap(), 0, &mut m).unwrap();
                    assert_eq!(m.reg(1), alu(op, x, y), "{op:?} {x} {b:?}");
                }
            }
        }
        let fpu = [
            (FpuOp::Add, 2.5 + -4.0),
            (FpuOp::Sub, 2.5 - -4.0),
            (FpuOp::Mul, 2.5 * -4.0),
            (FpuOp::Div, 2.5 / -4.0),
            (FpuOp::Max, 2.5),
            (FpuOp::Min, -4.0),
        ];
        for (op, want) in fpu {
            let instr = Instr::Fpu {
                op,
                dst: FReg::new(0),
                a: FReg::new(1),
                b: FReg::new(2),
            };
            m.set_freg(1, 2.5);
            m.set_freg(2, -4.0);
            exec_op(&MicroOp::from_instr(&instr).unwrap(), 0, &mut m).unwrap();
            assert_eq!(m.freg(0), want, "{op:?}");
        }
    }

    /// `step`'s decode half produces micro-ops that round-trip every
    /// straight-line instruction kind.
    #[test]
    fn every_straight_line_instr_predecodes() {
        use tpdbt_isa::FReg;
        let instrs = [
            Instr::Mov {
                dst: Reg::new(1),
                src: Reg::new(2),
            },
            Instr::FMov {
                dst: FReg::new(1),
                src: FReg::new(2),
            },
            Instr::IToF {
                dst: FReg::new(0),
                src: Reg::new(0),
            },
            Instr::FCmpLt {
                dst: Reg::new(0),
                a: FReg::new(0),
                b: FReg::new(1),
            },
            Instr::In { dst: Reg::new(0) },
        ];
        for i in &instrs {
            assert!(MicroOp::from_instr(i).is_some(), "{i:?}");
        }
    }
}
