//! The executor: the guest [`Machine`]'s per-block code. It owns the
//! code half of the translation cache ([`Code`]), runs the guest one
//! block at a time and reports each executed block as a
//! [`BlockEvent`]. Profiles, regions and event counts are the
//! [`crate::policy::Policy`]'s business.
//!
//! The executor numbers what it translates, once, for every policy:
//! each block gets a dense [`BlockId`] in first-execution order, and
//! each of its successor slots a dense [`EdgeId`] (two for a branch,
//! one for a jump or call, one per deduplicated switch target, and one
//! per return target as it first appears). A policy keeps its counters
//! in flat vectors indexed by these numbers; the [`Code::edges`] table
//! turns an edge back into its slot and target when a profile record
//! is built.
//!
//! Each block is lowered once, at translation, into a [`CachedBlock`]:
//! its start, length, decoded body and its exit resolved with its edges
//! ([`BlockExit`]), the one copy of the exit that every reader uses. A
//! conditional branch becomes a [`BranchExit`]: the condition tabulated
//! over the three orders of two values ([`order`]), the operands, the
//! first edge and both targets.
//! A direct jump keeps its edge and target. Calls, returns, switches
//! and halts are [`BlockExit::Other`]: their terminator runs and its
//! flow maps to an edge, so return targets are numbered on first sight.
//! [`Executor::step`] reads the record on `cached-fused` (body, then
//! one compare for a branch), a region's compiled trace copies it
//! ([`crate::trace`]), and a profile record states its exit's kind
//! ([`BlockExit::kind`]), which is all region formation knows of it;
//! `interp` steps the extent and maps every flow, the oracle both are
//! tested against.
//!
//! Guest execution does not depend on the translation policy: every
//! policy's run takes the same block sequence, and a block's event is a
//! function of that sequence alone. So one executor pass can feed any
//! number of policies ([`crate::Lockstep`]), chunk by chunk. A single
//! run that compiles traces steps profiling-phase blocks one at a time
//! ([`Steps`], the policy's event source) and runs each region as a
//! guarded compiled trace ([`Executor::run_trace`]), which reports at
//! region grain.

use std::sync::Arc;

use tpdbt_isa::{
    decode_block, Cond, DecodedBlock, MicroOperand, Pc, PredecodedProgram, Program, TermView,
    Terminator,
};
use tpdbt_profile::{RegionDump, SuccSlot, TermKind};
use tpdbt_vm::{exec_body, exec_term, Flow, Machine, VmError};

use crate::backend::{step_block, Backend};
use crate::error::DbtError;
use crate::policy::{Events, Exit, Policy, Totals};
use crate::trace::{compile_trace, CompiledTrace, Guard, EXIT};

/// A translated block's number: dense, in first-execution order.
pub(crate) type BlockId = u32;

/// A successor edge's number: dense over the whole run.
pub(crate) type EdgeId = u32;

/// The edge and column of a block that halted the guest.
pub(crate) const HALT: u32 = u32::MAX;

/// The successor column of a conditional branch's taken slot.
pub(crate) const TAKEN: u32 = 0;

/// Index entry of a pc no block starts at yet.
const UNTRANSLATED: BlockId = BlockId::MAX;

/// A successor slot's column in a region's successor table.
#[inline]
pub(crate) fn slot_column(slot: SuccSlot) -> u32 {
    match slot {
        SuccSlot::Taken => TAKEN,
        SuccSlot::Fallthrough => 1,
        SuccSlot::Other(n) => n.saturating_add(2),
    }
}

/// One executed block: which block, how many instructions it ran and
/// how it left. `edge` and `column` are [`HALT`] when it halted the
/// guest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BlockEvent {
    pub block: BlockId,
    pub len: u32,
    pub edge: EdgeId,
    /// The successor slot's [`slot_column`].
    pub column: u32,
}

impl BlockEvent {
    /// Whether the block halted the guest.
    #[inline]
    pub fn halted(&self) -> bool {
        self.edge == HALT
    }
}

/// The order of `a` against `b` as a bit index of
/// [`BranchExit::holds`]: 0 greater, 1 equal, 2 less. One compare pair
/// and a bit test decide every condition, so a branch is one host
/// branch whatever its condition.
#[inline(always)]
pub(crate) fn order(a: i64, b: i64) -> u32 {
    (u32::from(a < b) << 1) | u32::from(a == b)
}

/// The orders of two values in which `cond` holds: bit [`order`] is
/// set when it does. The one place a branch's condition is tabulated.
fn holds(cond: Cond) -> u8 {
    [(1, 0), (0, 0), (0, 1)]
        .into_iter()
        .fold(0, |m, (x, y)| m | u8::from(cond.eval(x, y)) << order(x, y))
}

/// A conditional branch, resolved at translation: its compare as a
/// table over the operands' order, its two edges and its two targets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BranchExit {
    /// The orders of `a` against `b` that take the branch ([`holds`]).
    pub holds: u8,
    /// Left operand register index.
    pub a: u8,
    /// Right operand.
    pub b: MicroOperand,
    /// The taken edge; the fall-through is `first + 1`.
    pub first: EdgeId,
    /// Guest target when taken.
    pub taken: Pc,
    /// Guest target when not taken.
    pub fall: Pc,
}

impl BranchExit {
    /// Whether the branch is taken on `machine`'s registers: the
    /// compare [`tpdbt_vm::exec_term`] makes, decided by one bit test.
    #[inline(always)]
    pub fn is_taken(&self, machine: &Machine) -> bool {
        let y = match self.b {
            MicroOperand::Reg(r) => machine.reg(r as usize),
            MicroOperand::Imm(v) => v,
        };
        (self.holds >> order(machine.reg(self.a as usize), y)) & 1 != 0
    }
}

/// A translated block's exit, resolved once at translation with its
/// successor edges numbered: what [`Executor::step`] decides with and
/// what [`crate::trace::compile_trace`] copies into a guard.
// An explicit tag, as `Guard`'s: one load and a jump tell the
// variants apart.
#[derive(Debug)]
#[repr(u8)]
pub(crate) enum BlockExit {
    /// A conditional branch: decided from the registers alone.
    Branch(BranchExit),
    /// An unconditional jump: one edge to one target.
    Jump { edge: EdgeId, target: Pc },
    /// A call, return, switch or halt: the terminator runs, and its
    /// flow maps to an edge ([`CachedBlock::outcome`]).
    Other(Exits),
}

impl BlockExit {
    /// The terminator's kind, as a profile record states it.
    pub fn kind(&self) -> TermKind {
        match self {
            BlockExit::Branch(_) => TermKind::Cond,
            BlockExit::Jump { .. } => TermKind::Jump,
            BlockExit::Other(Exits::Call(_)) => TermKind::Call,
            BlockExit::Other(Exits::Switch { .. }) => TermKind::Switch,
            BlockExit::Other(Exits::Return(_)) => TermKind::Return,
            BlockExit::Other(Exits::Halt) => TermKind::Halt,
        }
    }
}

/// The edges of a terminator that must run to be decided.
#[derive(Debug)]
pub(crate) enum Exits {
    /// A call: one edge.
    Call(EdgeId),
    /// The deduplicated, sorted target table; target `i` is slot
    /// `Other(i)` and edge `first + i`.
    Switch {
        first: EdgeId,
        targets: Box<[Pc]>,
    },
    /// Targets in first-occurrence order; target `i` is slot
    /// `Other(i)`.
    Return(Vec<(Pc, EdgeId)>),
    Halt,
}

/// One translated block, lowered once: what every later execution,
/// trace compile and profile record reads. Its exit lives only here,
/// resolved; a record states it as [`BlockExit::kind`].
#[derive(Debug)]
pub(crate) struct CachedBlock {
    /// Guest address of the block's first instruction.
    pub start: Pc,
    /// The block's decoded body and terminator under `cached-fused`,
    /// shared through the run's [`PredecodedProgram`]; `None` under
    /// `interp`, which steps the extent `[start, start + len)`.
    pub code: Option<Arc<DecodedBlock>>,
    /// Instructions, terminator included.
    pub len: u32,
    pub exit: BlockExit,
}

// Every block event indexes the cache by this entry's size.
const _: () = assert!(std::mem::size_of::<CachedBlock>() <= 72);

impl CachedBlock {
    /// Guest address of the terminator.
    #[inline(always)]
    pub fn term_pc(&self) -> Pc {
        self.start + self.len as usize - 1
    }

    /// The taken edge, when the block ends in a conditional branch.
    pub fn taken_edge(&self) -> Option<EdgeId> {
        match self.exit {
            BlockExit::Branch(br) => Some(br.first),
            _ => None,
        }
    }

    /// Maps an executed terminator outcome to its edge, successor
    /// column and next pc (`None` when the guest halted), numbering a
    /// return target on first sight. The `interp` form reads every
    /// exit through here, and the `cached-fused` form its
    /// [`BlockExit::Other`] exits.
    ///
    /// # Errors
    ///
    /// [`DbtError::Translation`] when `flow` is not an outcome of the
    /// block's terminator.
    #[inline]
    fn outcome(
        &mut self,
        flow: &Flow,
        edges: &mut Vec<(SuccSlot, Pc)>,
    ) -> Result<(EdgeId, u32, Option<Pc>), DbtError> {
        let pc = self.start;
        Ok(match (&mut self.exit, *flow) {
            (BlockExit::Other(Exits::Halt), Flow::Halted) => (HALT, HALT, None),
            (BlockExit::Branch(br), Flow::Jump { target, .. }) => (br.first, TAKEN, Some(target)),
            (BlockExit::Branch(br), Flow::Next) => (br.first + 1, 1, Some(br.fall)),
            (
                BlockExit::Jump { edge, .. } | BlockExit::Other(Exits::Call(edge)),
                Flow::Jump { target, .. },
            ) => (*edge, slot_column(SuccSlot::Other(0)), Some(target)),
            (BlockExit::Other(Exits::Switch { first, targets }), Flow::Jump { target, .. }) => {
                let i = targets
                    .binary_search(&target)
                    .map_err(|_| DbtError::Translation { pc })?;
                let i = i as u32;
                (*first + i, slot_column(SuccSlot::Other(i)), Some(target))
            }
            (BlockExit::Other(Exits::Return(targets)), Flow::Jump { target, .. }) => {
                let i = match targets.iter().position(|&(t, _)| t == target) {
                    Some(i) => i,
                    None => {
                        let slot = SuccSlot::Other(targets.len() as u32);
                        targets.push((target, new_edge(edges, slot, target, pc)?));
                        targets.len() - 1
                    }
                };
                let column = slot_column(SuccSlot::Other(i as u32));
                (targets[i].1, column, Some(target))
            }
            _ => return Err(DbtError::Translation { pc }),
        })
    }
}

/// Numbers a new edge of the block at `pc`.
fn new_edge(
    edges: &mut Vec<(SuccSlot, Pc)>,
    slot: SuccSlot,
    target: Pc,
    pc: Pc,
) -> Result<EdgeId, DbtError> {
    let id = EdgeId::try_from(edges.len())
        .ok()
        .filter(|&id| id != HALT)
        .ok_or(DbtError::Translation { pc })?;
    edges.push((slot, target));
    Ok(id)
}

/// The code half of the translation cache: translated blocks by id,
/// the pc → id index, and every numbered edge's slot and target.
#[derive(Debug)]
pub(crate) struct Code {
    pub blocks: Vec<CachedBlock>,
    index: Vec<BlockId>,
    /// Slot and target by [`EdgeId`].
    pub edges: Vec<(SuccSlot, Pc)>,
}

impl Code {
    /// The id of the block starting at `pc`, if translated.
    #[inline]
    pub fn id_of(&self, pc: Pc) -> Option<usize> {
        match self.index.get(pc) {
            Some(&id) if id != UNTRANSLATED => Some(id as usize),
            _ => None,
        }
    }

    /// The start address of block `id`.
    #[inline]
    pub fn pc_of(&self, id: usize) -> Pc {
        self.blocks[id].start
    }
}

/// Runs the guest block by block over one translation cache.
pub(crate) struct Executor<'p> {
    program: &'p Program,
    /// The decode-once source of decoded blocks under `cached-fused`;
    /// `None` under `interp`.
    pub predecoded: Option<Arc<PredecodedProgram>>,
    pub code: Code,
    fuel: u64,
    /// Guest instructions executed so far (the fuel meter).
    instructions: u64,
}

impl<'p> Executor<'p> {
    /// An executor with an empty translation cache. `shared` is the
    /// caller's decode-once cache; `cached-fused` uses it when it was
    /// sized for this program and a private one otherwise.
    pub fn new(
        program: &'p Program,
        backend: Backend,
        fuel: u64,
        shared: Option<&Arc<PredecodedProgram>>,
    ) -> Self {
        let predecoded = match backend {
            Backend::Interp => None,
            Backend::CachedFused => Some(
                shared
                    .filter(|p| p.len() == program.len())
                    .map_or_else(|| Arc::new(PredecodedProgram::new(program)), Arc::clone),
            ),
        };
        Executor {
            program,
            predecoded,
            code: Code {
                blocks: Vec::new(),
                index: vec![UNTRANSLATED; program.len()],
                edges: Vec::new(),
            },
            fuel,
            instructions: 0,
        }
    }

    fn out_of_fuel(&self, pc: Pc) -> DbtError {
        DbtError::Guest(VmError::OutOfFuel {
            pc,
            fuel: self.fuel,
        })
    }

    /// Translates the block at `pc` on first sight: numbers it and its
    /// static edges, resolves its exit, and keeps its decoded form (or,
    /// for `interp`, just its extent) for every later execution and
    /// trace compile.
    ///
    /// # Errors
    ///
    /// [`VmError::BadPc`] when no block starts at `pc`.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, pc: Pc) -> Result<usize, DbtError> {
        let block = decode_block(self.program, pc).ok_or(VmError::BadPc { pc })?;
        let id = self.code.blocks.len();
        let index = BlockId::try_from(id)
            .ok()
            .filter(|&id| id != UNTRANSLATED)
            .ok_or(DbtError::Translation { pc })?;
        let term_pc = block.end - 1;
        let edges = &mut self.code.edges;
        let exit = match &block.terminator {
            Terminator::Branch { taken, fallthrough } => {
                let term = self.program.get(term_pc);
                let Some(TermView::Branch { cond, a, b, .. }) =
                    term.and_then(|t| TermView::of_instr(t, term_pc))
                else {
                    return Err(DbtError::Translation { pc });
                };
                let first = new_edge(edges, SuccSlot::Taken, *taken, pc)?;
                new_edge(edges, SuccSlot::Fallthrough, *fallthrough, pc)?;
                BlockExit::Branch(BranchExit {
                    holds: holds(cond),
                    a,
                    b,
                    first,
                    taken: *taken,
                    fall: *fallthrough,
                })
            }
            Terminator::Jump { target } => BlockExit::Jump {
                edge: new_edge(edges, SuccSlot::Other(0), *target, pc)?,
                target: *target,
            },
            Terminator::Call { target, .. } => BlockExit::Other(Exits::Call(new_edge(
                edges,
                SuccSlot::Other(0),
                *target,
                pc,
            )?)),
            Terminator::Switch { targets } => {
                let mut uniq = targets.clone();
                uniq.sort_unstable();
                uniq.dedup();
                let first =
                    EdgeId::try_from(edges.len()).map_err(|_| DbtError::Translation { pc })?;
                for (i, &t) in uniq.iter().enumerate() {
                    new_edge(edges, SuccSlot::Other(i as u32), t, pc)?;
                }
                BlockExit::Other(Exits::Switch {
                    first,
                    targets: uniq.into_boxed_slice(),
                })
            }
            Terminator::Return => BlockExit::Other(Exits::Return(Vec::new())),
            Terminator::Halt => BlockExit::Other(Exits::Halt),
        };
        let code = self
            .predecoded
            .as_ref()
            .map(|p| p.translate(self.program, &block));
        self.code.index[pc] = index;
        self.code.blocks.push(CachedBlock {
            start: pc,
            code,
            len: (block.end - block.start) as u32,
            exit,
        });
        Ok(id)
    }

    /// Executes the block at `pc` in its cached form, translating it on
    /// first sight. Returns its event and the next pc (`None` when the
    /// guest halted).
    ///
    /// # Errors
    ///
    /// Fuel exhaustion before the block, guest traps inside it, and
    /// [`VmError::BadPc`] when control left the program.
    // Inlined into every run loop: as a call, the event round trip
    // through memory costs the profiling phase a sixth of its speed.
    #[inline(always)]
    pub fn step(
        &mut self,
        pc: Pc,
        machine: &mut Machine,
    ) -> Result<(BlockEvent, Option<Pc>), DbtError> {
        let id = self.code.id_of(pc);
        self.step_at(pc, id, machine)
    }

    /// [`Executor::step`] with `pc`'s block id already looked up
    /// ([`Code::id_of`]). On `cached-fused`, the body runs and a branch
    /// or jump exit is decided from its resolved [`BlockExit`]; every
    /// other exit, and every `interp` block, runs its terminator and
    /// maps the flow.
    #[inline(always)]
    fn step_at(
        &mut self,
        pc: Pc,
        id: Option<usize>,
        machine: &mut Machine,
    ) -> Result<(BlockEvent, Option<Pc>), DbtError> {
        if self.instructions >= self.fuel {
            return Err(self.out_of_fuel(pc));
        }
        let id = match id {
            Some(id) => id,
            None => self.insert(pc)?,
        };
        let program = self.program;
        let Code { blocks, edges, .. } = &mut self.code;
        let b = &mut blocks[id];
        let (edge, column, next) = match &b.code {
            Some(decoded) => {
                exec_body(decoded.body.ops(), b.start, machine)?;
                machine.set_pc(b.term_pc());
                match &b.exit {
                    BlockExit::Branch(br) => {
                        if br.is_taken(machine) {
                            (br.first, TAKEN, Some(br.taken))
                        } else {
                            (br.first + 1, 1, Some(br.fall))
                        }
                    }
                    &BlockExit::Jump { edge, target } => {
                        (edge, slot_column(SuccSlot::Other(0)), Some(target))
                    }
                    BlockExit::Other(_) => {
                        let flow = exec_term(decoded.term.view(), b.term_pc(), machine)?;
                        b.outcome(&flow, edges)?
                    }
                }
            }
            None => {
                let end = b.start + b.len as usize;
                let flow = step_block(program, b.start, end, machine)?;
                b.outcome(&flow, edges)?
            }
        };
        self.instructions += u64::from(b.len);
        let ev = BlockEvent {
            block: id as BlockId,
            len: b.len,
            edge,
            column,
        };
        Ok((ev, next))
    }

    /// Compiles `dump` into the guarded trace a single run executes,
    /// from its members' lowered translation-cache entries.
    ///
    /// # Errors
    ///
    /// [`DbtError::Translation`] when a member has no decoded code: it
    /// was never translated, or the run is on `interp`.
    pub fn compile(&self, dump: &RegionDump) -> Result<CompiledTrace, DbtError> {
        let entry = DbtError::Translation {
            pc: dump.copies.first().copied().unwrap_or_default(),
        };
        let chain = dump
            .copies
            .iter()
            .map(|&pc| {
                let id = self.code.id_of(pc)?;
                Some((id, &self.code.blocks[id]))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| entry.clone())?;
        compile_trace(&dump.copies, &dump.edges, &chain).ok_or(entry)
    }

    /// Runs region `ri`, already entered, through its compiled trace,
    /// reporting the exit to `policy` with the instruction and
    /// loop-back totals. Returns the next guest pc, or `None` when the
    /// guest halted inside the region.
    ///
    /// Segments run straight-line with their pre-resolved guards. A
    /// branch guard decides by a host branch on the guest's compare,
    /// never by a select: each direction is its own control path to
    /// its own next segment (or its own exit) with its own loop-back
    /// count, so the host predicts the guest branch and fetches the
    /// next segment before the compare resolves. [`Guard::Other`] terminators (call / return / switch / halt)
    /// take the generic terminator-and-outcome path, which keeps the
    /// edge numbering exact. Fuel is checked before each segment; a
    /// trap propagates and discards the run with its totals.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion and guest traps, as [`Executor::step`].
    pub fn run_trace(
        &mut self,
        policy: &mut Policy,
        ri: usize,
        trace: &CompiledTrace,
        machine: &mut Machine,
    ) -> Result<Option<Pc>, DbtError> {
        // Hot-loop totals accumulate in locals and reach the policy at
        // the exit; a trap discards the whole run, so no error path
        // needs them, and a segment counts before its terminator runs.
        let base = self.instructions;
        let mut instr = 0u64;
        let mut loops = 0u64;
        let mut cur = 0usize;
        let (exit, target) = loop {
            let seg = &trace.segs[cur];
            if base + instr >= self.fuel {
                return Err(self.out_of_fuel(seg.start));
            }
            exec_body(&seg.body, seg.start, machine)?;
            machine.set_pc(seg.term_pc);
            instr += u64::from(seg.len);
            let (next, target) = match seg.guard {
                Guard::Branch {
                    exit,
                    on_taken,
                    on_fall,
                } => {
                    // Two arms, each ending in its own next segment or
                    // exit: a shared `(next, target)` compiles to a
                    // select on the compare.
                    if exit.is_taken(machine) {
                        if on_taken == EXIT {
                            break (policy.exit_at(ri, cur), Some(exit.taken));
                        }
                        loops += u64::from(on_taken == 0);
                        cur = on_taken as usize;
                    } else {
                        if on_fall == EXIT {
                            break (policy.exit_at(ri, cur), Some(exit.fall));
                        }
                        loops += u64::from(on_fall == 0);
                        cur = on_fall as usize;
                    }
                    continue;
                }
                Guard::Direct { next, target } => (next, target),
                Guard::Other => {
                    let flow = exec_term(seg.term.view(), seg.term_pc, machine)?;
                    let Code { blocks, edges, .. } = &mut self.code;
                    let (_, column, next) = blocks[seg.block].outcome(&flow, edges)?;
                    let Some(target) = next else {
                        break (Exit::Halt, None);
                    };
                    (policy.succ(ri, cur, column), target)
                }
            };
            if next == EXIT {
                break (policy.exit_at(ri, cur), Some(target));
            }
            loops += u64::from(next == 0);
            cur = next as usize;
        };
        self.instructions += instr;
        policy.leave(&self.code, ri, exit, Totals::new(instr, loops));
        Ok(target)
    }
}

/// The executor as the profiling phase's event source
/// ([`Policy::profile`]): each event taken steps the guest one block.
pub(crate) struct Steps<'a, 'p> {
    exec: &'a mut Executor<'p>,
    machine: &'a mut Machine,
    /// The pc the next block runs at.
    pc: Pc,
    /// Its block id, when [`Events::peek`] found it translated.
    id: Option<usize>,
    halted: bool,
}

impl<'a, 'p> Steps<'a, 'p> {
    /// Steps from `pc` on.
    pub fn new(exec: &'a mut Executor<'p>, machine: &'a mut Machine, pc: Pc) -> Self {
        Steps {
            exec,
            machine,
            pc,
            id: None,
            halted: false,
        }
    }

    /// Where the guest goes next: `None` once it halted.
    pub fn next(&self) -> Option<Pc> {
        (!self.halted).then_some(self.pc)
    }
}

impl Events for Steps<'_, '_> {
    type Error = DbtError;

    #[inline(always)]
    fn code(&self) -> &Code {
        &self.exec.code
    }

    #[inline(always)]
    fn peek(&mut self) -> Option<usize> {
        if self.halted {
            return None;
        }
        self.id = self.exec.code.id_of(self.pc);
        Some(self.id.unwrap_or(usize::MAX))
    }

    #[inline(always)]
    fn take(&mut self) -> Result<BlockEvent, DbtError> {
        let (ev, next) = self.exec.step_at(self.pc, self.id, self.machine)?;
        match next {
            Some(pc) => self.pc = pc,
            None => self.halted = true,
        }
        Ok(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_isa::{Cond, ProgramBuilder, Reg};
    use tpdbt_profile::{RegionEdge, RegionKind};
    use tpdbt_suite::{all_names, workload, InputKind, Scale};

    /// ```text
    /// 0: br r0 < 1, 2
    /// 1: jmp_table r0, [3, 2, 3]
    /// 2: halt
    /// 3: halt
    /// ```
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let (two, three) = (b.fresh_label("two"), b.fresh_label("three"));
        b.br_imm(Cond::Lt, Reg::new(0), 1, two);
        b.jmp_table(Reg::new(0), vec![three, two, three]);
        b.bind(two).unwrap();
        b.halt();
        b.bind(three).unwrap();
        b.halt();
        b.build().unwrap()
    }

    /// Steps `p` from its entry on both backends side by side, each
    /// machine set up by `setup`, until the guest halts or a step
    /// fails. After every block the events, next pcs and machines
    /// agree, and so does the error that ends the walk. Returns the
    /// events and how the walk ended.
    fn step_both(
        p: &Program,
        setup: impl Fn(&mut Machine),
        fuel: u64,
    ) -> (Vec<BlockEvent>, Result<(), DbtError>) {
        let mut runs = Backend::ALL.map(|b| {
            let mut m = Machine::new(p, &[]);
            setup(&mut m);
            (Executor::new(p, b, fuel, None), m)
        });
        let mut events = Vec::new();
        let mut pc = p.entry();
        loop {
            let [(ie, im), (ce, cm)] = &mut runs;
            let step = ie.step(pc, im);
            assert_eq!(step, ce.step(pc, cm), "pc {pc}");
            assert_eq!(im, cm, "pc {pc}");
            assert_eq!(ie.code.edges, ce.code.edges, "pc {pc}");
            match step {
                Err(e) => return (events, Err(e)),
                Ok((ev, next)) => {
                    events.push(ev);
                    match next {
                        Some(next) => pc = next,
                        None => return (events, Ok(())),
                    }
                }
            }
        }
    }

    /// Every condition, against a register and an immediate, in all
    /// three orders of its operands: the `cached-fused` step decides
    /// the branch from its resolved exit exactly as `interp` runs the
    /// terminator, and fuel runs out at the same block.
    #[test]
    fn branch_exits_step_as_interp_does() {
        for cond in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            for reg in [true, false] {
                let mut b = ProgramBuilder::new();
                let taken = b.fresh_label("taken");
                b.movi(Reg::new(5), 5); // 0
                if reg {
                    b.br_reg(cond, Reg::new(0), Reg::new(5), taken); // 1
                } else {
                    b.br_imm(cond, Reg::new(0), 5, taken); // 1
                }
                b.halt(); // 2
                b.bind(taken).unwrap();
                b.halt(); // 3
                let p = b.build().unwrap();
                let mut outcomes = Vec::new();
                for a in [4, 5, 6] {
                    let ctx = format!("{cond:?} reg {reg} a {a}");
                    let setup = |m: &mut Machine| m.set_reg(0, a);
                    let (events, end) = step_both(&p, setup, u64::MAX);
                    assert_eq!(end, Ok(()), "{ctx}");
                    let holds = cond.eval(a, 5);
                    let (column, halt_block) = if holds { (TAKEN, 3) } else { (1, 2) };
                    assert_eq!(
                        (events[0].edge, events[0].column),
                        (column, column),
                        "{ctx}"
                    );
                    assert_eq!(events.len(), 2, "{ctx}");
                    outcomes.push(holds);
                    // Fuel for the branch block only: both run out at
                    // the halt it leads to.
                    let (events, end) = step_both(&p, setup, 2);
                    assert_eq!(events.len(), 1, "{ctx}");
                    assert_eq!(
                        end,
                        Err(DbtError::Guest(VmError::OutOfFuel {
                            pc: halt_block,
                            fuel: 2
                        })),
                        "{ctx}"
                    );
                }
                assert!(outcomes.contains(&true) && outcomes.contains(&false));
            }
        }
    }

    /// A call, a return, a switch and a halt run their terminators on
    /// both backends alike: the same events and edges, and with any
    /// fuel budget the same block runs out.
    ///
    /// ```text
    /// 0: call 5
    /// 1: movi r1, 1
    /// 2: jmp_table r1, [3, 4, 3]
    /// 3: halt
    /// 4: halt
    /// 5: addi r2, r2, 7
    /// 6: ret
    /// ```
    #[test]
    fn other_exits_step_as_interp_does() {
        let mut b = ProgramBuilder::new();
        let (three, four, f) = (
            b.fresh_label("three"),
            b.fresh_label("four"),
            b.fresh_label("f"),
        );
        b.call(f);
        b.movi(Reg::new(1), 1);
        b.jmp_table(Reg::new(1), vec![three, four, three]);
        b.bind(three).unwrap();
        b.halt();
        b.bind(four).unwrap();
        b.halt();
        b.bind(f).unwrap();
        b.addi(Reg::new(2), Reg::new(2), 7);
        b.ret();
        let p = b.build().unwrap();
        let (events, end) = step_both(&p, |_| {}, u64::MAX);
        assert_eq!(end, Ok(()));
        let exits: Vec<_> = events.iter().map(|e| (e.block, e.edge, e.column)).collect();
        // Blocks in first-execution order: the call (edge 0), the
        // function's return to 1 (edge 1, numbered on first sight), the
        // switch (edges 2 and 3 for its sorted targets {3, 4}; 4 is
        // `Other(1)`) and the halt at 4.
        assert_eq!(
            exits,
            vec![(0, 0, 2), (1, 1, 2), (2, 3, 3), (3, HALT, HALT)]
        );
        let total: u32 = events.iter().map(|e| e.len).sum();
        for fuel in 1..u64::from(total) {
            let (_, end) = step_both(&p, |_| {}, fuel);
            assert!(
                matches!(end, Err(DbtError::Guest(VmError::OutOfFuel { .. }))),
                "fuel {fuel}"
            );
        }
    }

    /// Blocks are numbered in first-execution order and their static
    /// edges at translation: two for the branch, one per distinct
    /// switch target, none for a halt.
    #[test]
    fn blocks_and_edges_are_numbered_once_in_first_execution_order() {
        let p = program();
        let mut exec = Executor::new(&p, Backend::CachedFused, u64::MAX, None);
        let mut m = Machine::new(&p, &[]);
        m.set_reg(0, 1);
        let (branch, next) = exec.step(0, &mut m).unwrap();
        assert_eq!((branch.block, branch.edge, branch.column), (0, 1, 1));
        assert_eq!(next, Some(1));
        let (switch, next) = exec.step(1, &mut m).unwrap();
        // r0 = 1 selects target 2, the first of the sorted {2, 3}.
        assert_eq!((switch.block, switch.edge, switch.column), (1, 2, 2));
        let (halt, next) = exec.step(next.unwrap(), &mut m).unwrap();
        assert!(halt.halted() && next.is_none());
        assert_eq!(halt.block, 2);
        assert_eq!(
            exec.code.edges,
            vec![
                (SuccSlot::Taken, 2),
                (SuccSlot::Fallthrough, 1),
                (SuccSlot::Other(0), 2),
                (SuccSlot::Other(1), 3),
            ]
        );
        assert_eq!(exec.code.id_of(2), Some(2));
        assert_eq!(exec.code.id_of(3), None);
        assert_eq!(exec.code.blocks[0].taken_edge(), Some(0));
        assert_eq!(exec.code.blocks[1].taken_edge(), None);
    }

    /// Every block the executor translates states, through
    /// [`BlockExit::kind`], the kind of its decoded terminator: profile
    /// records and region formation read only that kind. Every suite
    /// guest at tiny scale, run to its halt; together they end blocks
    /// in all six kinds.
    #[test]
    fn exit_kinds_match_decoded_terminators() {
        let mut seen = Vec::new();
        for name in all_names() {
            let w = workload(name, Scale::Tiny, InputKind::Ref).unwrap();
            let p = &w.binary.program;
            let mut m = Machine::new(p, &w.input);
            m.preload(&w.binary.mem_image, &w.binary.fmem_image);
            let mut exec = Executor::new(p, Backend::CachedFused, u64::MAX, None);
            let mut pc = Some(p.entry());
            while let Some(at) = pc {
                pc = exec.step(at, &mut m).unwrap().1;
            }
            for b in &exec.code.blocks {
                let kind = match decode_block(p, b.start).unwrap().terminator {
                    Terminator::Jump { .. } => TermKind::Jump,
                    Terminator::Branch { .. } => TermKind::Cond,
                    Terminator::Switch { .. } => TermKind::Switch,
                    Terminator::Call { .. } => TermKind::Call,
                    Terminator::Return => TermKind::Return,
                    Terminator::Halt => TermKind::Halt,
                };
                assert_eq!(b.exit.kind(), kind, "{name}: block at {}", b.start);
                if !seen.contains(&kind) {
                    seen.push(kind);
                }
            }
        }
        assert_eq!(seen.len(), 6, "{seen:?}");
    }

    /// A flow the block's terminator cannot produce is a translator
    /// defect reported as an error, not a panic.
    #[test]
    fn impossible_outcomes_are_errors() {
        let p = program();
        let mut exec = Executor::new(&p, Backend::Interp, u64::MAX, None);
        exec.step(0, &mut Machine::new(&p, &[])).unwrap();
        let id = exec.insert(1).unwrap();
        let Code { blocks, edges, .. } = &mut exec.code;
        let bad = DbtError::Translation { pc: 0 };
        assert_eq!(blocks[0].outcome(&Flow::Halted, edges), Err(bad.clone()));
        let jump = |target| Flow::Jump {
            target,
            taken: true,
        };
        assert_eq!(
            blocks[id].outcome(&jump(0), edges),
            Err(DbtError::Translation { pc: 1 }),
            "0 is not in the switch table"
        );
        assert_eq!(
            blocks[id].outcome(&Flow::Next, edges),
            Err(DbtError::Translation { pc: 1 })
        );
        assert!(blocks[id].outcome(&jump(3), edges).is_ok());
    }

    /// Control leaving the program is the guest trap the interpreter
    /// reports, and a region with no decoded code does not compile.
    #[test]
    fn bad_pcs_and_uncompilable_regions_are_errors() {
        let p = program();
        let mut exec = Executor::new(&p, Backend::Interp, u64::MAX, None);
        let mut m = Machine::new(&p, &[]);
        assert_eq!(
            exec.step(p.len(), &mut m),
            Err(DbtError::Guest(VmError::BadPc { pc: p.len() }))
        );
        exec.step(0, &mut m).unwrap();
        let dump = RegionDump {
            id: 0,
            kind: RegionKind::Trace,
            copies: vec![0],
            edges: vec![RegionEdge {
                from: 0,
                slot: SuccSlot::Taken,
                to: 0,
            }],
            tail: 0,
        };
        let untranslated = RegionDump {
            copies: vec![2],
            ..dump.clone()
        };
        assert_eq!(
            exec.compile(&dump).unwrap_err(),
            DbtError::Translation { pc: 0 },
            "interp keeps no decoded code"
        );
        let mut cached = Executor::new(&p, Backend::CachedFused, u64::MAX, None);
        cached.step(0, &mut Machine::new(&p, &[])).unwrap();
        assert!(cached.compile(&dump).is_ok());
        assert_eq!(
            cached.compile(&untranslated).unwrap_err(),
            DbtError::Translation { pc: 2 }
        );
    }
}
