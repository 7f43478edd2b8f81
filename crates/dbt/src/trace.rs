//! Trace compilation: a single run on `cached-fused` in a mode whose
//! regions never re-form (two-phase, adaptive) runs each installed
//! region as a straight-line trace of [`TraceSegment`]s, one per region
//! copy. Every other region is walked block by block by the policy's
//! automaton ([`crate::policy`]).
//!
//! A segment copies its block's translation-cache record
//! ([`crate::exec::CachedBlock`]): start, length, terminator pc, body
//! and decoded terminator, and the exit translation resolved once
//! ([`crate::exec::BlockExit`]). Compiling adds only each direction's
//! successor in the region's internal edge table, giving a [`Guard`]:
//! a conditional branch becomes a [`Guard::Branch`] carrying the
//! block's [`BranchExit`] and both directions' next segments, and a
//! direct jump a [`Guard::Direct`] with its one compiled edge; leaving
//! through a direction the edge table does not cover is a *side exit*
//! ([`EXIT`]). [`crate::exec::Executor::run_trace`] decides a branch
//! guard with a host branch on the guest's compare, never a select:
//! each direction is its own path to its own next segment or exit, so
//! the host predicts the guest branch (DESIGN.md §16).
//!
//! Invariants: executing segment `i` leaves the machine exactly as
//! stepping copy `i` would (bodies run through the one
//! [`tpdbt_vm::exec_body`]; a branch guard is the same resolved exit
//! [`crate::exec::Executor::step`] decides with), so per-copy
//! bookkeeping is identical to the walked region. Terminators with
//! executor-visible bookkeeping (a return numbers each new target's
//! edge, a call pushes the shadow stack) compile to [`Guard::Other`],
//! which defers to the executor's generic path instead of guessing.

use tpdbt_isa::{MicroOp, MicroTerm, Pc};
use tpdbt_profile::{RegionEdge, SuccSlot};

use crate::exec::{BlockExit, BranchExit, CachedBlock};

/// Successor sentinel: control leaves the region (side exit or tail
/// completion — the policy distinguishes by comparing against the
/// region's tail copy).
pub(crate) const EXIT: u32 = u32::MAX;

/// A segment's pre-resolved terminator decision: the copy's
/// [`BlockExit`] with each direction's next segment. The fast variants
/// are trap-free and read-only; everything with traps or
/// executor-visible side effects is [`Guard::Other`].
// An explicit tag: with the niche of the branch operand's tag, telling
// the variants apart took a select before the guard's own branch.
#[derive(Clone, Copy, Debug)]
#[repr(u8)]
pub(crate) enum Guard {
    /// Conditional branch: compare inline, then follow the taken or
    /// the fall-through direction's compiled edge.
    Branch {
        /// The block's branch, as translation resolved it.
        exit: BranchExit,
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
/// resolved to block ids and their translation-cache entries (parallel
/// to `copies`); `edges` is the region's internal edge table. Returns
/// `None` when the chain does not cover the copy list or a copy has no
/// decoded code.
pub(crate) fn compile_trace(
    copies: &[Pc],
    edges: &[RegionEdge],
    chain: &[(usize, &CachedBlock)],
) -> Option<CompiledTrace> {
    if chain.len() != copies.len() || copies.is_empty() {
        return None;
    }
    let mut segs = Vec::with_capacity(copies.len());
    for (i, &(id, block)) in chain.iter().enumerate() {
        let decoded = block.code.as_ref()?;
        if block.start != copies[i] {
            return None;
        }
        segs.push(TraceSegment {
            block: id,
            start: block.start,
            len: block.len,
            term_pc: block.term_pc(),
            guard: lower_guard(i, &block.exit, edges),
            body: decoded.body.ops().into(),
            term: decoded.term.clone(),
        });
    }
    Some(CompiledTrace {
        segs: segs.into_boxed_slice(),
    })
}

/// Copy `i`'s exit with each direction's successor in the region's
/// edge table.
fn lower_guard(i: usize, exit: &BlockExit, edges: &[RegionEdge]) -> Guard {
    let succ = |slot: SuccSlot| -> u32 {
        edges
            .iter()
            .find(|e| e.from == i && e.slot == slot)
            .map_or(EXIT, |e| e.to as u32)
    };
    match *exit {
        BlockExit::Branch(exit) => Guard::Branch {
            exit,
            on_taken: succ(SuccSlot::Taken),
            on_fall: succ(SuccSlot::Fallthrough),
        },
        BlockExit::Jump { target, .. } => Guard::Direct {
            next: succ(SuccSlot::Other(0)),
            target,
        },
        BlockExit::Other(_) => Guard::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{order, Executor};
    use crate::Backend;
    use tpdbt_isa::{Cond, Program, ProgramBuilder, Reg};
    use tpdbt_profile::RegionEdge;
    use tpdbt_vm::Machine;

    /// An executor on `backend` that has translated the block at pc 0.
    fn translated(p: &Program, backend: Backend) -> Executor<'_> {
        let mut exec = Executor::new(p, backend, u64::MAX, None);
        exec.step(0, &mut Machine::new(p, &[])).unwrap();
        exec
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

    /// A one-block loop: the entry's conditional latch back to itself.
    /// The guard is the block's translated branch plus its successors.
    #[test]
    fn compiles_branch_guards_with_edge_table() {
        let p = loop_program();
        let exec = translated(&p, Backend::CachedFused);
        let block = &exec.code.blocks[0];
        let trace = compile_trace(&[0], &latch_edges(), &[(0, block)]).unwrap();
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
        let BlockExit::Branch(lowered) = block.exit else {
            panic!("the block ends in a branch: {:?}", block.exit);
        };
        match seg.guard {
            Guard::Branch {
                exit,
                on_taken,
                on_fall,
            } => {
                assert_eq!(exit.holds, 1 << order(0, 10), "`<` holds only when less");
                assert_eq!(
                    exit.holds, lowered.holds,
                    "the guard copies the block's branch"
                );
                assert_eq!((exit.first, exit.taken, exit.fall), (0, 0, 3));
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
        let exec = translated(&p, Backend::CachedFused);
        let block = &exec.code.blocks[0];
        assert!(compile_trace(&[0], &[], &[(0, block)]).is_some());
        assert!(compile_trace(&[0, 1], &[], &[(0, block)]).is_none());
        assert!(compile_trace(&[3], &[], &[(0, block)]).is_none());
        // An empty region refuses to compile too.
        assert!(compile_trace(&[], &[], &[]).is_none());
        // So does a block with no decoded code.
        let interp = translated(&p, Backend::Interp);
        assert!(compile_trace(&[0], &[], &[(0, &interp.code.blocks[0])]).is_none());
    }
}
