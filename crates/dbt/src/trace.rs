//! Trace compilation: a single run on `cached-fused` in a mode whose
//! regions never re-form (two-phase, adaptive) runs each installed
//! region as a straight-line trace of [`TraceSegment`]s, one per region
//! copy. Every other region is walked block by block by the policy's
//! automaton ([`crate::policy`]).
//!
//! A segment holds its copy's decoded body and pre-decoded terminator;
//! the terminator is pre-resolved to a [`Guard`] — the compiled form of
//! the region's internal edge table. Conditional branches evaluate
//! inline and map straight to the next segment, and direct jumps
//! follow their one compiled edge; leaving through a direction the
//! edge table does not cover is a *side exit* ([`EXIT`]).
//!
//! Invariants: executing segment `i` leaves the machine exactly as
//! stepping copy `i` would (bodies run through the one
//! [`tpdbt_vm::exec_body`]; guards evaluate precisely
//! [`tpdbt_vm::exec_term`]'s expression), so
//! per-copy bookkeeping is identical to the walked region. Terminators
//! with executor-visible bookkeeping (a return numbers each new target's
//! edge, a call pushes the shadow stack) compile to [`Guard::Other`],
//! which defers to the executor's generic path instead of guessing.

use std::sync::Arc;

use tpdbt_isa::{Cond, DecodedBlock, MicroOp, MicroOperand, MicroTerm, Pc};
use tpdbt_profile::{RegionEdge, SuccSlot};
use tpdbt_vm::Machine;

/// Successor sentinel: control leaves the region (side exit or tail
/// completion — the policy distinguishes by comparing against the
/// region's tail copy).
pub(crate) const EXIT: u32 = u32::MAX;

/// A segment's pre-resolved terminator decision. The fast variants are
/// trap-free and read-only; everything with traps or executor-visible
/// side effects is [`Guard::Other`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Guard {
    /// Conditional branch: evaluate inline, follow the compiled edge.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// Left operand register index.
        a: u8,
        /// Right operand.
        b: MicroOperand,
        /// Guest target when taken.
        taken: Pc,
        /// Guest target when not taken.
        fall: Pc,
        /// Next segment when taken ([`EXIT`] = leave region).
        on_taken: u32,
        /// Next segment when not taken.
        on_fall: u32,
    },
    /// Unconditional jump with a statically known target.
    Direct {
        /// Next segment.
        next: u32,
        /// Guest target.
        target: Pc,
    },
    /// Anything with traps or executor bookkeeping (call, return,
    /// switch, halt): the executor runs its generic terminator +
    /// outcome path.
    Other,
}

impl Guard {
    /// Evaluates a fast guard against the machine, returning the next
    /// segment index and guest target. `None` means [`Guard::Other`]:
    /// the caller must run the generic terminator path. Trap-free and
    /// read-only: exactly [`tpdbt_vm::exec_term`]'s branch expression.
    #[inline]
    pub(crate) fn quick_eval(self, m: &Machine) -> Option<(u32, Pc)> {
        match self {
            Guard::Branch {
                cond,
                a,
                b,
                taken,
                fall,
                on_taken,
                on_fall,
            } => {
                let y = match b {
                    MicroOperand::Reg(r) => m.reg(r as usize),
                    MicroOperand::Imm(v) => v,
                };
                Some(if cond.eval(m.reg(a as usize), y) {
                    (on_taken, taken)
                } else {
                    (on_fall, fall)
                })
            }
            Guard::Direct { next, target } => Some((next, target)),
            Guard::Other => None,
        }
    }
}

/// One region copy lowered for trace execution.
#[derive(Clone, Debug)]
pub(crate) struct TraceSegment {
    /// The copy's block id in the executor's translation cache.
    pub block: usize,
    /// Guest address of the copy's first instruction.
    pub start: Pc,
    /// Instruction count including the terminator (the policy's
    /// per-block `instructions` / cycle accounting quantum).
    pub len: u32,
    /// Guest address of the terminator.
    pub term_pc: Pc,
    /// The compiled successor decision.
    pub guard: Guard,
    /// The straight-line body (terminator excluded), one op per
    /// instruction.
    pub body: Box<[MicroOp]>,
    /// The pre-decoded terminator, for [`Guard::Other`] segments.
    pub term: MicroTerm,
}

/// An optimized region compiled into a straight-line trace (one
/// [`TraceSegment`] per region copy, entry first).
///
/// Compiled by a single run from the executor's translation cache at
/// the region's first entry and executed by
/// [`crate::exec::Executor::run_trace`].
#[derive(Clone, Debug)]
pub(crate) struct CompiledTrace {
    pub segs: Box<[TraceSegment]>,
}

#[cfg(test)]
impl CompiledTrace {
    /// The guest start address of each segment, in copy order.
    pub(crate) fn starts(&self) -> Vec<Pc> {
        self.segs.iter().map(|s| s.start).collect()
    }

    /// How many segments carry a fast guard (anything but
    /// [`Guard::Other`]).
    pub(crate) fn fast_guards(&self) -> usize {
        self.segs
            .iter()
            .filter(|s| !matches!(s.guard, Guard::Other))
            .count()
    }
}

/// Compiles a region into a guarded trace. `chain` is the copy list
/// resolved to block ids and decoded blocks (parallel to
/// `copies`); `edges` is the region's internal edge table. Returns
/// `None` when the chain does not cover the copy list.
pub(crate) fn compile_trace(
    copies: &[Pc],
    edges: &[RegionEdge],
    chain: &[(usize, Arc<DecodedBlock>)],
) -> Option<CompiledTrace> {
    if chain.len() != copies.len() || copies.is_empty() {
        return None;
    }
    let mut segs = Vec::with_capacity(copies.len());
    for (i, (id, block)) in chain.iter().enumerate() {
        if block.start != copies[i] {
            return None;
        }
        segs.push(TraceSegment {
            block: *id,
            start: block.start,
            len: (block.end - block.start) as u32,
            term_pc: block.term_pc(),
            guard: lower_guard(i, block, edges),
            body: block.body.ops().into(),
            term: block.term.clone(),
        });
    }
    Some(CompiledTrace {
        segs: segs.into_boxed_slice(),
    })
}

/// Pre-resolves copy `i`'s terminator into a guard over the region's
/// edge table.
fn lower_guard(i: usize, block: &DecodedBlock, edges: &[RegionEdge]) -> Guard {
    let succ = |slot: SuccSlot| -> u32 {
        edges
            .iter()
            .find(|e| e.from == i && e.slot == slot)
            .map_or(EXIT, |e| e.to as u32)
    };
    match block.term {
        MicroTerm::Branch {
            cond,
            a,
            b,
            taken,
            fallthrough,
        } => Guard::Branch {
            cond,
            a,
            b,
            taken,
            fall: fallthrough,
            on_taken: succ(SuccSlot::Taken),
            on_fall: succ(SuccSlot::Fallthrough),
        },
        MicroTerm::Jump { target } => Guard::Direct {
            next: succ(SuccSlot::Other(0)),
            target,
        },
        _ => Guard::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_isa::{Cond, Program, ProgramBuilder, Reg};
    use tpdbt_profile::RegionEdge;

    /// The translation cache's unit: a decoded block.
    fn decoded(p: &Program, pc: Pc) -> Arc<DecodedBlock> {
        Arc::new(DecodedBlock::decode(p, pc).unwrap())
    }

    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 1); // 0
        b.addi(Reg::new(1), Reg::new(1), 2); // 1
        b.br_imm(Cond::Lt, Reg::new(0), 10, top); // 2
        b.halt(); // 3
        b.build().unwrap()
    }

    fn latch_edges() -> Vec<RegionEdge> {
        vec![RegionEdge {
            from: 0,
            slot: SuccSlot::Taken,
            to: 0,
        }]
    }

    /// A two-block loop: entry with a conditional latch back to itself.
    #[test]
    fn compiles_branch_guards_with_edge_table() {
        let p = loop_program();
        let block = decoded(&p, 0);
        let trace = compile_trace(&[0], &latch_edges(), &[(0, Arc::clone(&block))]).unwrap();
        assert_eq!(trace.segs.len(), 1);
        assert_eq!(trace.starts(), vec![0]);
        assert_eq!(trace.fast_guards(), 1);
        let seg = &trace.segs[0];
        assert_eq!((seg.start, seg.len, seg.term_pc), (0, 3, 2));
        // One specialized op per add-immediate.
        assert!(matches!(
            seg.body[..],
            [MicroOp::AddRI { .. }, MicroOp::AddRI { .. }]
        ));
        match seg.guard {
            Guard::Branch {
                on_taken, on_fall, ..
            } => {
                assert_eq!(on_taken, 0, "loop back to entry");
                assert_eq!(on_fall, EXIT, "fall-through leaves the region");
            }
            ref g => panic!("expected a branch guard, got {g:?}"),
        }
    }

    #[test]
    fn mismatched_chain_refuses_to_compile() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let block = decoded(&p, 0);
        assert!(compile_trace(&[0, 1], &[], &[(0, Arc::clone(&block))]).is_none());
        assert!(compile_trace(&[3], &[], &[(0, block)]).is_none());
        // An empty region refuses to compile too.
        assert!(compile_trace(&[], &[], &[]).is_none());
    }

    #[test]
    fn quick_eval_matches_exec_term_on_both_directions() {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 1);
        b.br_imm(Cond::Lt, Reg::new(0), 2, top);
        b.halt();
        let p = b.build().unwrap();
        let trace = compile_trace(&[0], &latch_edges(), &[(0, decoded(&p, 0))]).unwrap();
        let guard = trace.segs[0].guard;
        let mut m = Machine::new(&p, &[]);
        // r0 = 1 < 2: taken.
        m.set_reg(0, 1);
        assert_eq!(guard.quick_eval(&m), Some((0, 0)));
        // r0 = 5: not taken, exits to the fall-through pc.
        m.set_reg(0, 5);
        assert_eq!(guard.quick_eval(&m), Some((EXIT, 2)));
    }
}
