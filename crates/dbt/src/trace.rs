//! Trace compilation: a single run on `cached-fused` in a mode whose
//! regions never re-form (two-phase, adaptive) runs each installed
//! region as a straight-line trace of [`TraceSegment`]s, one per region
//! copy. Every other region is walked block by block by the policy's
//! automaton ([`crate::policy`]).
//!
//! A segment holds its copy's decoded body and pre-decoded terminator;
//! the terminator is pre-resolved to a [`Guard`] — the compiled form of
//! the region's internal edge table. A conditional branch becomes a
//! [`Guard::Branch`] carrying both directions' next segments, and a
//! direct jump a [`Guard::Direct`] with its one compiled edge; leaving
//! through a direction the edge table does not cover is a *side exit*
//! ([`EXIT`]). [`crate::exec::Executor::run_trace`] decides a branch
//! guard with a host branch on the guest's compare, never a select:
//! each direction is its own path to its own next segment or exit, so
//! the host predicts the guest branch (DESIGN.md §16).
//!
//! Invariants: executing segment `i` leaves the machine exactly as
//! stepping copy `i` would (bodies run through the one
//! [`tpdbt_vm::exec_body`]; a branch guard compares the operands
//! [`tpdbt_vm::exec_term`] compares, and its condition is
//! [`tpdbt_isa::Cond::eval`] tabulated over the three orders of two
//! values), so per-copy bookkeeping is identical to the walked region.
//! Terminators with executor-visible bookkeeping (a return numbers each
//! new target's edge, a call pushes the shadow stack) compile to
//! [`Guard::Other`], which defers to the executor's generic path
//! instead of guessing.

use std::sync::Arc;

use tpdbt_isa::{DecodedBlock, MicroOp, MicroOperand, MicroTerm, Pc};
use tpdbt_profile::{RegionEdge, SuccSlot};

/// Successor sentinel: control leaves the region (side exit or tail
/// completion — the policy distinguishes by comparing against the
/// region's tail copy).
pub(crate) const EXIT: u32 = u32::MAX;

/// A segment's pre-resolved terminator decision. The fast variants are
/// trap-free and read-only; everything with traps or executor-visible
/// side effects is [`Guard::Other`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Guard {
    /// Conditional branch: compare inline, then follow the taken or
    /// the fall-through direction's compiled edge.
    Branch {
        /// The orders of `a` against `b` that take the branch: bit
        /// [`order`] is set when the guest's condition holds in that
        /// order.
        holds: u8,
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

/// The order of `a` against `b` as a bit index of
/// [`Guard::Branch`]'s `holds`: 0 greater, 1 equal, 2 less. One compare
/// pair and a bit test decide every condition, so a branch guard is one
/// host branch whatever its condition.
#[inline(always)]
pub(crate) fn order(a: i64, b: i64) -> u32 {
    (u32::from(a < b) << 1) | u32::from(a == b)
}

/// One region copy lowered for trace execution.
#[derive(Clone, Debug)]
pub(crate) struct TraceSegment {
    /// The copy's block id in the executor's translation cache.
    pub block: usize,
    /// Guest address of the copy's first instruction.
    pub start: Pc,
    /// Instruction count including the terminator (the policy's
    /// per-block `instructions` accounting quantum).
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
            holds: [(1, 0), (0, 0), (0, 1)]
                .into_iter()
                .fold(0, |m, (x, y)| m | u8::from(cond.eval(x, y)) << order(x, y)),
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
                holds,
                on_taken,
                on_fall,
                ..
            } => {
                assert_eq!(holds, 1 << order(0, 10), "`<` holds only when less");
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
}
