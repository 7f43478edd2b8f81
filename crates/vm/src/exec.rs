//! The execute half of instruction semantics, operating on pre-decoded
//! micro-ops.
//!
//! [`crate::step`] (the reference interpreter's dispatch) decodes each
//! guest instruction into a [`MicroOp`] / [`TermView`] and immediately
//! executes it here; the translation cache in `tpdbt-dbt` decodes once
//! at translation time and replays the stored micro-ops through the
//! same two functions. Because both paths share this single
//! implementation, translated code computes exactly what the
//! interpreter computes — including trap payloads, which carry the
//! guest `pc` passed in explicitly.
//!
//! # Handler layout
//!
//! Dispatch is split by operation class. The integer ALU / move /
//! memory / I/O arms — the hot classes on the integer-dominated guest
//! workloads — are matched first and stay inline in [`exec_op`]; the
//! floating-point class lives in a separate out-of-line handler so the
//! hot dispatch loop stays small. Fused superinstructions
//! ([`FusedOp`]) get dedicated handlers in [`exec_fused`] that perform
//! the same architectural writes in the same order as their
//! constituents and trap with the constituent's guest pc, so fusion is
//! observationally invisible. [`exec_body`] runs either block
//! representation through the matching handler set; every execution
//! backend funnels through it, which is what makes bitwise backend
//! parity hold by construction.

use tpdbt_isa::{AluOp, BlockBody, FpuOp, FusedOp, MicroOp, MicroOperand, Pc, TermView};

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

/// The 1:1 ALU evaluator, including the `Div`/`Rem` traps. Fused
/// handlers use [`alu_nt`], which agrees with it on every op the fuser
/// admits.
#[inline(always)]
fn alu_eval(op: AluOp, x: i64, y: i64, pc: Pc) -> Result<i64, VmError> {
    Ok(match op {
        AluOp::Add => x.wrapping_add(y),
        AluOp::Sub => x.wrapping_sub(y),
        AluOp::Mul => x.wrapping_mul(y),
        AluOp::Div => {
            if y == 0 {
                return Err(VmError::DivideByZero { pc });
            }
            x.wrapping_div(y)
        }
        AluOp::Rem => {
            if y == 0 {
                return Err(VmError::DivideByZero { pc });
            }
            x.wrapping_rem(y)
        }
        AluOp::And => x & y,
        AluOp::Or => x | y,
        AluOp::Xor => x ^ y,
        AluOp::Shl => x.wrapping_shl((y & 63) as u32),
        AluOp::Shr => x.wrapping_shr((y & 63) as u32),
    })
}

/// The trap-free ALU evaluator for [`tpdbt_isa::AluSpec`] constituents
/// — the fuser guarantees `Div`/`Rem` never reach here, which lets the
/// hot fused handlers skip `Result` plumbing entirely.
#[inline(always)]
fn alu_nt(op: AluOp, x: i64, y: i64) -> i64 {
    match op {
        AluOp::Add => x.wrapping_add(y),
        AluOp::Sub => x.wrapping_sub(y),
        AluOp::Mul => x.wrapping_mul(y),
        AluOp::Div | AluOp::Rem => {
            unreachable!("trapping ALU op in a trap-free fused constituent")
        }
        AluOp::And => x & y,
        AluOp::Or => x | y,
        AluOp::Xor => x ^ y,
        AluOp::Shl => x.wrapping_shl((y & 63) as u32),
        AluOp::Shr => x.wrapping_shr((y & 63) as u32),
    }
}

/// One shared FPU evaluator used by the 1:1 handler and the fused FPU
/// handlers. FPU ops never trap.
#[inline(always)]
fn fpu_eval(op: FpuOp, x: f64, y: f64) -> f64 {
    match op {
        FpuOp::Add => x + y,
        FpuOp::Sub => x - y,
        FpuOp::Mul => x * y,
        FpuOp::Div => x / y,
        FpuOp::Max => x.max(y),
        FpuOp::Min => x.min(y),
    }
}

/// Executes one straight-line micro-op located at guest address `pc`
/// (used only for trap payloads), updating architectural state.
///
/// # Errors
///
/// Returns a [`VmError`] trap for division by zero or out-of-bounds
/// memory, exactly as the instruction at `pc` would under
/// [`crate::step`].
#[inline]
pub fn exec_op(op: &MicroOp, pc: Pc, m: &mut Machine) -> Result<(), VmError> {
    match *op {
        MicroOp::Alu { op, dst, a, b } => {
            let v = alu_eval(op, m.reg(a as usize), operand(m, b), pc)?;
            m.set_reg(dst as usize, v);
        }
        MicroOp::MovI { dst, imm } => {
            m.set_reg(dst as usize, imm);
        }
        MicroOp::Mov { dst, src } => {
            m.set_reg(dst as usize, m.reg(src as usize));
        }
        MicroOp::Load { dst, base, offset } => {
            let idx = m.mem_index(m.reg(base as usize), offset, pc)?;
            m.set_reg(dst as usize, m.mem(idx));
        }
        MicroOp::Store { src, base, offset } => {
            let idx = m.mem_index(m.reg(base as usize), offset, pc)?;
            m.set_mem(idx, m.reg(src as usize));
        }
        MicroOp::In { dst } => {
            let v = m.next_input();
            m.set_reg(dst as usize, v);
        }
        MicroOp::Out { src } => {
            m.push_output(m.reg(src as usize));
        }
        ref float => return exec_float_op(float, pc, m),
    }
    Ok(())
}

/// The floating-point handler class, kept out of line so the integer
/// dispatch above stays compact. Only float-class ops are routed here.
#[inline(never)]
fn exec_float_op(op: &MicroOp, pc: Pc, m: &mut Machine) -> Result<(), VmError> {
    match *op {
        MicroOp::Fpu { op, dst, a, b } => {
            let v = fpu_eval(op, m.freg(a as usize), m.freg(b as usize));
            m.set_freg(dst as usize, v);
        }
        MicroOp::FMov { dst, src } => {
            m.set_freg(dst as usize, m.freg(src as usize));
        }
        MicroOp::FMovI { dst, imm } => {
            m.set_freg(dst as usize, imm);
        }
        MicroOp::IToF { dst, src } => {
            m.set_freg(dst as usize, m.reg(src as usize) as f64);
        }
        MicroOp::FToI { dst, src } => {
            let v = m.freg(src as usize);
            let out = if v.is_nan() { 0 } else { v as i64 };
            m.set_reg(dst as usize, out);
        }
        MicroOp::FCmpLt { dst, a, b } => {
            let v = i64::from(m.freg(a as usize) < m.freg(b as usize));
            m.set_reg(dst as usize, v);
        }
        MicroOp::FLoad { dst, base, offset } => {
            let idx = m.fmem_index(m.reg(base as usize), offset, pc)?;
            m.set_freg(dst as usize, m.fmem(idx));
        }
        MicroOp::FStore { src, base, offset } => {
            let idx = m.fmem_index(m.reg(base as usize), offset, pc)?;
            m.set_fmem(idx, m.freg(src as usize));
        }
        ref int => unreachable!("integer-class op routed to the float handler: {int:?}"),
    }
    Ok(())
}

/// Executes one fused superinstruction whose first constituent sits at
/// guest address `pc`.
///
/// Each variant performs the same architectural writes in the same
/// order as its constituent micro-ops; a constituent at offset `k`
/// within the window traps with guest pc `pc + k`. The ALU and FPU
/// idioms cannot trap; [`FusedOp::AluFLoad`]'s load traps at `pc + 1`,
/// and [`FusedOp::One`] replays its op through [`exec_op`].
///
/// # Errors
///
/// Exactly the traps the constituent micro-ops would raise, with the
/// constituent's own guest pc in the payload.
#[inline(always)]
pub fn exec_fused(f: &FusedOp, pc: Pc, m: &mut Machine) -> Result<(), VmError> {
    match *f {
        FusedOp::AluAlu { s1, s2 } => {
            let v = alu_nt(s1.op, m.reg(s1.a as usize), operand(m, s1.b));
            m.set_reg(s1.dst as usize, v);
            let v = alu_nt(s2.op, m.reg(s2.a as usize), operand(m, s2.b));
            m.set_reg(s2.dst as usize, v);
        }
        FusedOp::AluAlu3 { s1, s2, s3 } => {
            let v = alu_nt(s1.op, m.reg(s1.a as usize), operand(m, s1.b));
            m.set_reg(s1.dst as usize, v);
            let v = alu_nt(s2.op, m.reg(s2.a as usize), operand(m, s2.b));
            m.set_reg(s2.dst as usize, v);
            let v = alu_nt(s3.op, m.reg(s3.a as usize), operand(m, s3.b));
            m.set_reg(s3.dst as usize, v);
        }
        FusedOp::FpuFpu {
            op1,
            d1,
            a1,
            b1,
            op2,
            d2,
            a2,
            b2,
        } => {
            let v = fpu_eval(op1, m.freg(a1 as usize), m.freg(b1 as usize));
            m.set_freg(d1 as usize, v);
            let v = fpu_eval(op2, m.freg(a2 as usize), m.freg(b2 as usize));
            m.set_freg(d2 as usize, v);
        }
        FusedOp::AluFLoad {
            s,
            ld_dst,
            base,
            offset,
        } => {
            let v = alu_nt(s.op, m.reg(s.a as usize), operand(m, s.b));
            m.set_reg(s.dst as usize, v);
            let idx = m.fmem_index(m.reg(base as usize), offset, pc + 1)?;
            m.set_freg(ld_dst as usize, m.fmem(idx));
        }
        FusedOp::One(ref x) => exec_op(x, pc, m)?,
    }
    Ok(())
}

/// Runs a whole block body — flat or fused — whose first instruction
/// sits at guest address `start`, leaving the machine exactly as
/// stepping the constituent instructions would.
///
/// Every execution backend (interpreter replay, cached chains, fused
/// traces) funnels straight-line execution through this one function,
/// which is what makes bitwise backend parity hold by construction.
///
/// # Errors
///
/// Propagates the first constituent trap, with that constituent's
/// guest pc in the payload.
#[inline]
pub fn exec_body(body: &BlockBody, start: Pc, m: &mut Machine) -> Result<(), VmError> {
    match body {
        BlockBody::Flat(ops) => {
            for (pc, op) in (start..).zip(ops.iter()) {
                exec_op(op, pc, m)?;
            }
        }
        BlockBody::Fused(ops) => {
            let mut pc = start;
            for f in ops.iter() {
                exec_fused(f, pc, m)?;
                pc += f.width();
            }
        }
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
        let mut by_fused = by_step.clone();

        let block = DecodedBlock::decode(&p, 0).unwrap();
        exec_body(&block.body, block.start, &mut by_replay).unwrap();
        by_replay.set_pc(block.term_pc());
        let replay_flow = exec_term(block.term.view(), block.term_pc(), &mut by_replay).unwrap();

        // The fused representation of the same block is indistinguishable.
        let fused = block.fused();
        exec_body(&fused.body, fused.start, &mut by_fused).unwrap();
        by_fused.set_pc(fused.term_pc());
        let fused_flow = exec_term(fused.term.view(), fused.term_pc(), &mut by_fused).unwrap();

        let mut step_flow = Flow::Halted;
        for pc in block.start..block.end {
            by_step.set_pc(pc);
            step_flow = crate::step(&p, &mut by_step).unwrap();
        }
        assert_eq!(replay_flow, step_flow);
        assert_eq!(by_replay, by_step);
        assert_eq!(fused_flow, step_flow);
        assert_eq!(by_fused, by_step);
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
        let div = MicroOp::Alu {
            op: tpdbt_isa::AluOp::Div,
            dst: 0,
            a: 0,
            b: MicroOperand::Imm(0),
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

    /// A constituent trapping at offset `k` of a fused window reports
    /// guest pc `base + k`, exactly as the unfused replay would.
    #[test]
    fn fused_traps_carry_the_constituent_pc() {
        let mut b = ProgramBuilder::new();
        b.reserve_fmem(4);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p, &[]);

        // AluFLoad whose float load reads past the 4-word fmem through
        // the base the ALU half just wrote: trap pc is the load's
        // address (base + 1), and the ALU write committed.
        let window = [
            MicroOp::Alu {
                op: AluOp::Add,
                dst: 1,
                a: 1,
                b: MicroOperand::Imm(41),
            },
            MicroOp::FLoad {
                dst: 0,
                base: 1,
                offset: 0,
            },
        ];
        let fused = tpdbt_isa::fuse_ops(&window);
        assert!(matches!(fused[..], [FusedOp::AluFLoad { .. }]));
        assert!(matches!(
            exec_fused(&fused[0], 20, &mut m),
            Err(VmError::MemOutOfBounds { pc: 21, .. })
        ));
        assert_eq!(m.reg(1), 41);
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
