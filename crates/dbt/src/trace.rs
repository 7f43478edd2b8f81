//! Trace compilation: in a single run, every installed region runs as
//! a straight-line trace of [`TraceSegment`]s, one per region copy.
//! (A lockstep run walks the same edge table block by block instead;
//! see [`crate::policy`].)
//!
//! A segment's terminator is pre-resolved to a [`Guard`] — the compiled
//! form of the region's internal edge table. Conditional branches
//! evaluate inline and map straight to the next segment, and direct
//! jumps follow their one compiled edge; leaving through a direction the
//! edge table does not cover is a *side exit* ([`EXIT`]). The segment
//! form is picked once per region, when it is compiled:
//!
//! * **Guarded** (`cached-fused`, all modes but continuous): fused
//!   superinstruction bodies, fast guards for branches and jumps.
//! * **Observed** (`cached-fused`, continuous): the same bodies, but
//!   every guard is [`Guard::Other`], so the policy sees each block's
//!   flow and keeps counting inside the region.
//! * **Stepped** (`interp`): every guard is [`Guard::Other`] and every
//!   instruction runs through [`tpdbt_vm::step`], so the interpreter
//!   stays an independent oracle for the other forms.
//!
//! Invariants: executing segment `i` leaves the machine exactly as
//! stepping copy `i` would (fused bodies are sequential compositions;
//! guards evaluate precisely [`tpdbt_vm::exec_term`]'s expression), so
//! per-copy bookkeeping is identical in every form. Terminators with
//! executor-visible bookkeeping (returns number `ret_targets`, calls
//! push the shadow stack) compile to [`Guard::Other`], which defers to
//! the executor's generic path instead of guessing.

use std::sync::Arc;

use tpdbt_isa::{BlockBody, Cond, DecodedBlock, MicroOperand, MicroTerm, Pc, Program};
use tpdbt_profile::{RegionEdge, SuccSlot};
use tpdbt_vm::{exec_body, exec_term, step, Flow, Machine, VmError};

use crate::backend::step_block;

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

/// How a segment's code executes: the per-form half of a
/// [`TraceSegment`]. The executor's region loop is generic over it, so
/// each form runs its own monomorphized loop, with no per-segment
/// branch on the form.
pub(crate) trait SegmentCode: Sized {
    /// Runs the straight-line body `[seg.start, seg.term_pc)`.
    fn run_body(seg: &TraceSegment<Self>, program: &Program, m: &mut Machine) -> VmResult<()>;

    /// Runs the terminator; the machine pc already rests on it.
    fn run_term(seg: &TraceSegment<Self>, program: &Program, m: &mut Machine) -> VmResult<Flow>;
}

type VmResult<T> = Result<T, VmError>;

/// Replayed code: the copy's decoded body (fused where fusion pays)
/// and its pre-decoded terminator.
#[derive(Clone, Debug)]
pub(crate) struct Replay {
    /// The straight-line body (terminator excluded).
    pub body: BlockBody,
    /// The pre-decoded terminator, for [`Guard::Other`] segments.
    pub term: MicroTerm,
}

impl SegmentCode for Replay {
    #[inline]
    fn run_body(seg: &TraceSegment<Self>, _: &Program, m: &mut Machine) -> VmResult<()> {
        exec_body(&seg.code.body, seg.start, m)
    }

    #[inline]
    fn run_term(seg: &TraceSegment<Self>, _: &Program, m: &mut Machine) -> VmResult<Flow> {
        exec_term(seg.code.term.view(), seg.term_pc, m)
    }
}

/// Stepped code: every instruction, terminator included, goes through
/// per-instruction [`tpdbt_vm::step`] on the guest program.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Step;

impl SegmentCode for Step {
    fn run_body(seg: &TraceSegment<Self>, program: &Program, m: &mut Machine) -> VmResult<()> {
        step_block(program, seg.start, seg.term_pc, m).map(drop)
    }

    fn run_term(_: &TraceSegment<Self>, program: &Program, m: &mut Machine) -> VmResult<Flow> {
        step(program, m)
    }
}

/// One region copy lowered for trace execution.
#[derive(Clone, Debug)]
pub(crate) struct TraceSegment<C> {
    /// Guest address of the copy's first instruction.
    pub start: Pc,
    /// Instruction count including the terminator (the policy's
    /// per-block `instructions` / cycle accounting quantum).
    pub len: u32,
    /// Guest address of the terminator.
    pub term_pc: Pc,
    /// The compiled successor decision.
    pub guard: Guard,
    /// How the body and a [`Guard::Other`] terminator execute.
    pub code: C,
}

/// A compiled trace's segments, in one of the two code forms.
#[derive(Clone, Debug)]
pub(crate) enum Segments {
    /// Guarded or observed: decoded bodies replayed.
    Replay(Box<[TraceSegment<Replay>]>),
    /// The interpreter's form: every instruction stepped.
    Step(Box<[TraceSegment<Step>]>),
}

/// An optimized region compiled into a straight-line trace (one
/// `TraceSegment` per region copy, entry first).
///
/// Compiled by a single run from the executor's translation cache at
/// the region's first entry after formation or re-formation; executed
/// by the executor's one region loop.
/// Opaque outside the crate — tests can observe shape through
/// [`CompiledTrace::starts`].
#[derive(Clone, Debug)]
pub struct CompiledTrace {
    pub(crate) segs: Segments,
}

impl CompiledTrace {
    /// Number of segments (== region copies).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.segs {
            Segments::Replay(s) => s.len(),
            Segments::Step(s) => s.len(),
        }
    }

    /// Whether the trace has no segments (never true for a compiled
    /// region, which has at least its entry copy).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The guest start address of each segment, in copy order — the
    /// trace's identity for staleness checks.
    #[must_use]
    pub fn starts(&self) -> Vec<Pc> {
        match &self.segs {
            Segments::Replay(s) => s.iter().map(|s| s.start).collect(),
            Segments::Step(s) => s.iter().map(|s| s.start).collect(),
        }
    }

    /// How many segments carry a fast guard (anything but
    /// [`Guard::Other`]). Zero for the observed and stepped forms.
    #[cfg(test)]
    pub(crate) fn fast_guards(&self) -> usize {
        match &self.segs {
            Segments::Replay(s) => s
                .iter()
                .filter(|s| !matches!(s.guard, Guard::Other))
                .count(),
            Segments::Step(_) => 0,
        }
    }
}

/// Compiles a region into a replayed trace. `chain` is the copy list
/// resolved to fused decoded blocks (parallel to `copies`); `edges` is
/// the region's internal edge table. With `guarded` unset every
/// segment is [`Guard::Other`] (the observed form). Returns `None` when
/// the chain does not cover the copy list.
pub(crate) fn compile_trace(
    copies: &[Pc],
    edges: &[RegionEdge],
    chain: &[Arc<DecodedBlock>],
    guarded: bool,
) -> Option<CompiledTrace> {
    if chain.len() != copies.len() || copies.is_empty() {
        return None;
    }
    let mut segs = Vec::with_capacity(copies.len());
    for (i, block) in chain.iter().enumerate() {
        if block.start != copies[i] {
            return None;
        }
        let guard = if guarded {
            lower_guard(i, block, edges)
        } else {
            Guard::Other
        };
        segs.push(TraceSegment {
            start: block.start,
            len: (block.end - block.start) as u32,
            term_pc: block.term_pc(),
            guard,
            code: Replay {
                body: block.body.clone(),
                term: block.term.clone(),
            },
        });
    }
    Some(CompiledTrace {
        segs: Segments::Replay(segs.into_boxed_slice()),
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

/// Compiles a region into the interpreter's stepped trace: one
/// [`Guard::Other`] segment per copy, `ends` giving each copy's block
/// end. Returns `None` when a copy's extent is unknown.
pub(crate) fn step_trace(copies: &[Pc], ends: impl Fn(Pc) -> Option<Pc>) -> Option<CompiledTrace> {
    if copies.is_empty() {
        return None;
    }
    let segs = copies
        .iter()
        .map(|&start| {
            let end = ends(start)?;
            Some(TraceSegment {
                start,
                len: (end - start) as u32,
                term_pc: end - 1,
                guard: Guard::Other,
                code: Step,
            })
        })
        .collect::<Option<Box<[_]>>>()?;
    Some(CompiledTrace {
        segs: Segments::Step(segs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_isa::{Cond, ProgramBuilder, Reg};
    use tpdbt_profile::RegionEdge;

    /// The translation cache's unit: a decoded block in fused form.
    fn fused(p: &Program, pc: Pc) -> Arc<DecodedBlock> {
        Arc::new(DecodedBlock::decode(p, pc).unwrap().fused())
    }

    fn replay(trace: &CompiledTrace) -> &[TraceSegment<Replay>] {
        match &trace.segs {
            Segments::Replay(segs) => segs,
            Segments::Step(_) => panic!("expected a replayed trace"),
        }
    }

    fn loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 1); // 0
        b.addi(Reg::new(1), Reg::new(1), 2); // 1 (fuses with 0)
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
        let block = fused(&p, 0);
        let trace = compile_trace(&[0], &latch_edges(), &[Arc::clone(&block)], true).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.starts(), vec![0]);
        assert_eq!(trace.fast_guards(), 1);
        let seg = &replay(&trace)[0];
        assert_eq!((seg.start, seg.len, seg.term_pc), (0, 3, 2));
        // The two add-immediates fused into one superinstruction.
        assert_eq!(seg.code.body.instr_count(), 2);
        if let BlockBody::Fused(ops) = &seg.code.body {
            assert_eq!(ops.len(), 1);
        } else {
            panic!("trace bodies are fused");
        }
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

    /// The observed form keeps the fused bodies whole and defers every
    /// terminator to the executor's generic path.
    #[test]
    fn observed_form_has_no_fast_guards() {
        let p = loop_program();
        let block = fused(&p, 0);
        let trace = compile_trace(&[0], &latch_edges(), &[Arc::clone(&block)], false).unwrap();
        assert_eq!(trace.fast_guards(), 0);
        let seg = &replay(&trace)[0];
        assert!(matches!(seg.guard, Guard::Other));
        assert_eq!(seg.code.body, block.body);
        assert_eq!(seg.code.term, block.term);
    }

    #[test]
    fn stepped_form_covers_each_copy_extent() {
        let trace = step_trace(&[0, 0], |pc| (pc == 0).then_some(3)).unwrap();
        assert_eq!(trace.starts(), vec![0, 0]);
        assert_eq!(trace.fast_guards(), 0);
        let Segments::Step(segs) = &trace.segs else {
            panic!("expected a stepped trace");
        };
        assert_eq!((segs[1].start, segs[1].len, segs[1].term_pc), (0, 3, 2));
        assert!(matches!(segs[1].guard, Guard::Other));
        // Unknown extents and empty regions refuse to compile.
        assert!(step_trace(&[0, 1], |pc| (pc == 0).then_some(3)).is_none());
        assert!(step_trace(&[], |_| Some(1)).is_none());
    }

    #[test]
    fn mismatched_chain_refuses_to_compile() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let block = fused(&p, 0);
        assert!(compile_trace(&[0, 1], &[], &[block], true).is_none());
        assert!(compile_trace(&[], &[], &[], true).is_none());
        let wrong = fused(&p, 0);
        assert!(compile_trace(&[3], &[], &[wrong], true).is_none());
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
        let trace = compile_trace(&[0], &latch_edges(), &[fused(&p, 0)], true).unwrap();
        let guard = replay(&trace)[0].guard;
        let mut m = Machine::new(&p, &[]);
        // r0 = 1 < 2: taken.
        m.set_reg(0, 1);
        assert_eq!(guard.quick_eval(&m), Some((0, 0)));
        // r0 = 5: not taken, exits to the fall-through pc.
        m.set_reg(0, 5);
        assert_eq!(guard.quick_eval(&m), Some((EXIT, 2)));
    }
}
