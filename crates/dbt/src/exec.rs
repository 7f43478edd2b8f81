//! The executor: the guest [`Machine`]'s per-block code. It owns the
//! code half of the translation cache ([`Code`]), runs the guest one
//! block at a time and reports each executed block as a
//! [`BlockEvent`]. Profiles, regions and costs are the
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
//! Guest execution does not depend on the translation policy: every
//! policy's run takes the same block sequence, and a block's event is a
//! function of that sequence alone. So one executor pass can feed any
//! number of policies ([`crate::Lockstep`]), chunk by chunk. A single
//! run that compiles traces steps profiling-phase blocks one at a time
//! ([`Executor::step`]) and runs each region as a guarded compiled
//! trace ([`Executor::run_trace`]), which reports at region grain.

use std::sync::Arc;

use tpdbt_isa::{decode_block, Block, DecodedBlock, Pc, PredecodedProgram, Program, Terminator};
use tpdbt_profile::{RegionDump, SuccSlot};
use tpdbt_vm::{exec_body, exec_term, Flow, Machine, VmError};

use crate::backend::{run_decoded, step_block, Backend};
use crate::error::DbtError;
use crate::policy::{Exit, Policy, Totals};
use crate::trace::{compile_trace, CompiledTrace, EXIT};

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

/// A translated block's successor edges, numbered at translation (a
/// return's as each new target appears).
#[derive(Debug)]
enum Exits {
    /// Taken is edge `first`, the fall-through `first + 1`.
    Branch {
        first: EdgeId,
        fallthrough: Pc,
    },
    /// A jump or a call: one edge.
    Direct(EdgeId),
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

/// One translated block's executable form.
#[derive(Debug)]
pub(crate) struct CachedBlock {
    pub block: Block,
    /// The block's decoded form under `cached-fused`, shared through the
    /// run's [`PredecodedProgram`]; `None` under `interp`, which steps
    /// the extent in `block`.
    pub code: Option<Arc<DecodedBlock>>,
    pub len: u32,
    exits: Exits,
}

impl CachedBlock {
    /// The taken edge, when the block ends in a conditional branch.
    pub fn taken_edge(&self) -> Option<EdgeId> {
        match self.exits {
            Exits::Branch { first, .. } => Some(first),
            _ => None,
        }
    }

    /// Maps an executed terminator outcome to its edge, successor
    /// column and next pc (`None` when the guest halted), numbering a
    /// return target on first sight.
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
        let pc = self.block.start;
        Ok(match (&mut self.exits, *flow) {
            (Exits::Halt, Flow::Halted) => (HALT, HALT, None),
            (Exits::Branch { first, .. }, Flow::Jump { target, .. }) => {
                (*first, TAKEN, Some(target))
            }
            (Exits::Branch { first, fallthrough }, Flow::Next) => {
                (*first + 1, 1, Some(*fallthrough))
            }
            (Exits::Direct(edge), Flow::Jump { target, .. }) => {
                (*edge, slot_column(SuccSlot::Other(0)), Some(target))
            }
            (Exits::Switch { first, targets }, Flow::Jump { target, .. }) => {
                let i = targets
                    .binary_search(&target)
                    .map_err(|_| DbtError::Translation { pc })?;
                let i = i as u32;
                (*first + i, slot_column(SuccSlot::Other(i)), Some(target))
            }
            (Exits::Return(targets), Flow::Jump { target, .. }) => {
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
        self.blocks[id].block.start
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
    /// static edges and keeps its decoded form (or, for `interp`, just
    /// its extent) for every later execution and trace compile.
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
        let edges = &mut self.code.edges;
        let exits = match &block.terminator {
            Terminator::Branch { taken, fallthrough } => {
                let first = new_edge(edges, SuccSlot::Taken, *taken, pc)?;
                new_edge(edges, SuccSlot::Fallthrough, *fallthrough, pc)?;
                Exits::Branch {
                    first,
                    fallthrough: *fallthrough,
                }
            }
            Terminator::Jump { target } | Terminator::Call { target, .. } => {
                Exits::Direct(new_edge(edges, SuccSlot::Other(0), *target, pc)?)
            }
            Terminator::Switch { targets } => {
                let mut uniq = targets.clone();
                uniq.sort_unstable();
                uniq.dedup();
                let first =
                    EdgeId::try_from(edges.len()).map_err(|_| DbtError::Translation { pc })?;
                for (i, &t) in uniq.iter().enumerate() {
                    new_edge(edges, SuccSlot::Other(i as u32), t, pc)?;
                }
                Exits::Switch {
                    first,
                    targets: uniq.into_boxed_slice(),
                }
            }
            Terminator::Return => Exits::Return(Vec::new()),
            Terminator::Halt => Exits::Halt,
        };
        let code = self
            .predecoded
            .as_ref()
            .map(|p| p.translate(self.program, &block));
        self.code.index[pc] = index;
        self.code.blocks.push(CachedBlock {
            len: (block.end - block.start) as u32,
            block,
            code,
            exits,
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
        if self.instructions >= self.fuel {
            return Err(self.out_of_fuel(pc));
        }
        let id = match self.code.id_of(pc) {
            Some(id) => id,
            None => self.insert(pc)?,
        };
        let program = self.program;
        let Code { blocks, edges, .. } = &mut self.code;
        let b = &mut blocks[id];
        let flow = match &b.code {
            Some(decoded) => run_decoded(decoded, machine),
            None => step_block(program, b.block.start, b.block.end, machine),
        }?;
        let (edge, column, next) = b.outcome(&flow, edges)?;
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
    /// from its members' decoded translation-cache entries.
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
                Some((id, self.code.blocks[id].code.clone()?))
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
    /// Segments run straight-line with their pre-resolved guards;
    /// [`crate::trace::Guard::Other`] terminators (call / return /
    /// switch / halt) take the generic terminator-and-outcome path,
    /// which keeps the edge numbering exact. Fuel is checked before
    /// each segment, and traps propagate before the trapping segment is
    /// counted.
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
        // needs them.
        let base = self.instructions;
        let mut instr = 0u64;
        let mut loops = 0u64;
        let mut cur = 0usize;
        loop {
            let seg = &trace.segs[cur];
            if base + instr >= self.fuel {
                return Err(self.out_of_fuel(seg.start));
            }
            exec_body(&seg.body, seg.start, machine)?;
            machine.set_pc(seg.term_pc);
            let (next, target) = match seg.guard.quick_eval(machine) {
                Some(hit) => {
                    instr += u64::from(seg.len);
                    hit
                }
                None => {
                    // Generic path: traps propagate before the
                    // instruction count bumps (matches step_block).
                    let flow = exec_term(seg.term.view(), seg.term_pc, machine)?;
                    instr += u64::from(seg.len);
                    let Code { blocks, edges, .. } = &mut self.code;
                    let (_, column, next) = blocks[seg.block].outcome(&flow, edges)?;
                    let Some(target) = next else {
                        self.instructions += instr;
                        policy.leave(&self.code, ri, Exit::Halt, Totals::new(instr, loops));
                        return Ok(None);
                    };
                    (policy.succ(ri, cur, column), target)
                }
            };
            if next == EXIT {
                self.instructions += instr;
                let exit = policy.exit_at(ri, cur);
                policy.leave(&self.code, ri, exit, Totals::new(instr, loops));
                return Ok(Some(target));
            }
            if next == 0 {
                loops += 1;
            }
            cur = next as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_isa::{Cond, ProgramBuilder, Reg};
    use tpdbt_profile::{RegionEdge, RegionKind};

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
