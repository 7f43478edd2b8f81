//! The executor: the guest [`Machine`]'s per-block code. It owns the
//! code half of the translation cache, runs the guest one block at a
//! time and reports each executed block as a [`BlockEvent`]. Profiles,
//! regions and costs are the [`crate::policy::Policy`]'s business.
//!
//! Guest execution does not depend on the translation policy: every
//! policy's run takes the same block sequence, and a block's event
//! (its successor slot included) is a function of that sequence alone.
//! So one executor pass can feed any number of policies
//! ([`crate::Lockstep`]). A single run feeds its one policy the same
//! events, block by block ([`Executor::step`]), except inside a
//! guarded compiled trace ([`Executor::run_trace`]), which reports at
//! region grain.

use std::sync::Arc;

use tpdbt_isa::{decode_block, Block, DecodedBlock, Pc, PredecodedProgram, Program, Terminator};
use tpdbt_profile::{RegionDump, SuccSlot};
use tpdbt_vm::{exec_body, exec_term, Flow, Machine, VmError};

use crate::backend::{run_decoded, step_block, Backend};
use crate::error::DbtError;
use crate::policy::Policy;
use crate::trace::{compile_trace, CompiledTrace, EXIT};

/// One executed block: where it started, how many instructions it ran
/// and how it left. `exit` is `None` when the block halted the guest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BlockEvent {
    pub pc: Pc,
    pub len: u32,
    pub exit: Option<(SuccSlot, Pc)>,
}

/// One translated block's executable form.
#[derive(Debug)]
pub(crate) struct CachedBlock {
    pub block: Block,
    /// The block's fused form under `cached-fused`, shared through the
    /// run's [`PredecodedProgram`]; `None` under `interp`, which steps
    /// the extent in `block`.
    pub code: Option<Arc<DecodedBlock>>,
    /// First-occurrence order of dynamic return targets (stable slot
    /// numbering for `ret` edges).
    ret_targets: Vec<Pc>,
    /// For switch terminators: the deduplicated, sorted target table,
    /// computed once at translation time (stable static slot numbering
    /// without a per-execution sort).
    switch_uniq: Box<[Pc]>,
}

impl CachedBlock {
    /// Maps an executed terminator outcome to a successor slot and
    /// target; `None` when the guest halted.
    #[inline]
    fn outcome(&mut self, flow: &Flow) -> Option<(SuccSlot, Pc)> {
        match (&self.block.terminator, flow) {
            (_, Flow::Halted) => None,
            (Terminator::Branch { .. }, Flow::Jump { target, .. }) => {
                Some((SuccSlot::Taken, *target))
            }
            (Terminator::Branch { fallthrough, .. }, Flow::Next) => {
                Some((SuccSlot::Fallthrough, *fallthrough))
            }
            (Terminator::Jump { .. } | Terminator::Call { .. }, Flow::Jump { target, .. }) => {
                Some((SuccSlot::Other(0), *target))
            }
            (Terminator::Switch { .. }, Flow::Jump { target, .. }) => {
                // Stable static slot: position among deduplicated,
                // sorted targets, pre-computed at translation time.
                let idx = self
                    .switch_uniq
                    .binary_search(target)
                    .expect("switch target in table");
                Some((SuccSlot::Other(idx as u32), *target))
            }
            (Terminator::Return, Flow::Jump { target, .. }) => {
                let idx = match self.ret_targets.iter().position(|t| t == target) {
                    Some(i) => i,
                    None => {
                        self.ret_targets.push(*target);
                        self.ret_targets.len() - 1
                    }
                };
                Some((SuccSlot::Other(idx as u32), *target))
            }
            (t, f) => unreachable!("terminator {t:?} produced flow {f:?}"),
        }
    }
}

/// The code half of the translation cache, by block start address.
pub(crate) type Code = [Option<Box<CachedBlock>>];

/// Runs the guest block by block over one translation cache.
pub(crate) struct Executor<'p> {
    program: &'p Program,
    /// The decode-once source of fused blocks under `cached-fused`;
    /// `None` under `interp`.
    pub predecoded: Option<Arc<PredecodedProgram>>,
    pub cache: Vec<Option<Box<CachedBlock>>>,
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
            cache: (0..program.len()).map(|_| None).collect(),
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

    /// The translation-cache entry of the block at `pc`, translated on
    /// first sight: its fused form (or, for `interp`, just its extent),
    /// reused by every later execution and trace compile.
    #[inline]
    fn translate(&mut self, pc: Pc) -> &mut CachedBlock {
        if self.cache[pc].is_none() {
            self.insert(pc);
        }
        self.cache[pc].as_mut().expect("just translated")
    }

    #[cold]
    #[inline(never)]
    fn insert(&mut self, pc: Pc) {
        let block = decode_block(self.program, pc)
            .expect("pc validated by jump targets and program validation");
        let code = self
            .predecoded
            .as_ref()
            .map(|p| p.translate(self.program, &block));
        let switch_uniq: Box<[Pc]> = match &block.terminator {
            Terminator::Switch { targets } => {
                let mut uniq = targets.clone();
                uniq.sort_unstable();
                uniq.dedup();
                uniq.into_boxed_slice()
            }
            _ => Box::default(),
        };
        self.cache[pc] = Some(Box::new(CachedBlock {
            block,
            code,
            ret_targets: Vec::new(),
            switch_uniq,
        }));
    }

    /// Executes the block at `pc` in its cached form, translating it on
    /// first sight.
    ///
    /// # Errors
    ///
    /// Fuel exhaustion before the block, and guest traps inside it.
    // Inlined into every run loop: as a call, the event round trip
    // through memory costs the profiling phase a sixth of its speed.
    #[inline(always)]
    pub fn step(&mut self, pc: Pc, machine: &mut Machine) -> Result<BlockEvent, DbtError> {
        if self.instructions >= self.fuel {
            return Err(self.out_of_fuel(pc));
        }
        let program = self.program;
        let e = self.translate(pc);
        let flow = match &e.code {
            Some(decoded) => run_decoded(decoded, machine),
            None => step_block(program, e.block.start, e.block.end, machine),
        }?;
        let len = (e.block.end - e.block.start) as u32;
        let exit = e.outcome(&flow);
        self.instructions += u64::from(len);
        Ok(BlockEvent { pc, len, exit })
    }

    /// Compiles `dump` into the guarded trace a single run executes,
    /// from its members' fused translation-cache entries.
    ///
    /// # Panics
    ///
    /// Under `interp`, which keeps no fused code to compile.
    pub fn compile(&self, dump: &RegionDump) -> CompiledTrace {
        dump.copies
            .iter()
            .map(|&pc| self.cache[pc].as_deref()?.code.clone())
            .collect::<Option<Vec<_>>>()
            .and_then(|chain| compile_trace(&dump.copies, &dump.edges, &chain))
            .expect("region members are translated to fused code before formation")
    }

    /// Runs region `ri`, already entered, through its compiled trace,
    /// reporting the exit to `policy` with the instruction and
    /// loop-back totals. Returns the next guest pc, or `None` when the
    /// guest halted inside the region.
    ///
    /// Segments run straight-line with their pre-resolved guards;
    /// [`crate::trace::Guard::Other`] terminators (call / return /
    /// switch / halt) take the generic terminator-and-outcome path,
    /// which keeps the slot numbering exact. Fuel is checked before
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
                    let exit = self.cache[seg.start]
                        .as_mut()
                        .expect("region members are translated")
                        .outcome(&flow);
                    let Some((slot, target)) = exit else {
                        self.instructions += instr;
                        policy.leave(ri, None, instr, loops);
                        return Ok(None);
                    };
                    (policy.succ(ri, cur, slot), target)
                }
            };
            if next == EXIT {
                self.instructions += instr;
                policy.leave(ri, Some(cur), instr, loops);
                return Ok(Some(target));
            }
            if next == 0 {
                loops += 1;
            }
            cur = next as usize;
        }
    }
}
