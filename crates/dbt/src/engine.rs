//! The translator's execution engine: profiling-phase execution,
//! candidate pool, optimization trigger, and optimized region execution.

use std::sync::Arc;

use tpdbt_isa::{
    decode_block, Block, BuiltProgram, DecodedBlock, Pc, PredecodedProgram, Program, Terminator,
};
use tpdbt_profile::{
    BlockRecord, InipDump, IntervalProfile, PlainProfile, RegionDump, RegionKind, SuccSlot,
    TermKind,
};
use tpdbt_trace::{EventKind, TraceRegionKind, Tracer};
use tpdbt_vm::{Flow, Machine};

use crate::backend::{run_decoded, step_block, Backend};
use crate::config::{DbtConfig, ProfilingMode};
use crate::error::DbtError;
use crate::region::{form_region, BlockSource, FormedRegion};
use crate::trace::{
    compile_trace, step_trace, CompiledTrace, SegmentCode, Segments, TraceSegment, EXIT,
};

/// Aggregate statistics of a translated run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamic guest instructions executed.
    pub instructions: u64,
    /// Simulated cycles under the cost model.
    pub cycles: u64,
    /// Profiling operations (use + taken counter increments) — the
    /// paper's Figure 18 quantity.
    pub profiling_ops: u64,
    /// Distinct blocks fast-translated.
    pub blocks_translated: u64,
    /// Regions formed by the optimization phase.
    pub regions_formed: u64,
    /// Times the optimization phase ran.
    pub opt_invocations: u64,
    /// Region executions that left through a side exit.
    pub side_exits: u64,
    /// Region executions that completed through the tail block.
    pub completions: u64,
    /// Loop-region back-edge traversals.
    pub loop_backs: u64,
    /// Optimized-region entries.
    pub region_entries: u64,
    /// Regions retired by adaptive side-exit monitoring
    /// ([`ProfilingMode::Adaptive`]).
    pub retirements: u64,
}

/// The result of running a program under the translator.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The profile dump — `INIP(T)` in two-phase mode, a plain whole-run
    /// profile (with no regions) in [`ProfilingMode::NoOpt`].
    pub inip: InipDump,
    /// Guest program output.
    pub output: Vec<i64>,
    /// Run statistics.
    pub stats: ExecStats,
    /// Interval profile snapshots, when [`DbtConfig::interval`] was
    /// set (input to offline phase detection).
    pub intervals: Vec<IntervalProfile>,
}

impl RunOutcome {
    /// Views the dump as a plain profile (`AVEP` / `INIP(train)`
    /// shape). Meaningful for [`ProfilingMode::NoOpt`] runs, where no
    /// counters were frozen; callable on any run.
    #[must_use]
    pub fn as_plain_profile(&self) -> PlainProfile {
        PlainProfile {
            blocks: self.inip.blocks.clone(),
            entry: self.inip.entry,
            profiling_ops: self.inip.profiling_ops,
            instructions: self.inip.instructions,
        }
    }
}

/// One translated block: its executable form plus its live profile
/// state.
#[derive(Debug)]
struct BlockEntry {
    block: Block,
    /// The block's fused form under `cached-fused`, shared through the
    /// run's [`PredecodedProgram`]; `None` under `interp`, which steps
    /// the extent in `block`.
    code: Option<Arc<DecodedBlock>>,
    record: BlockRecord,
    frozen: bool,
    /// 0 = unregistered, 1 = registered at `use == T`,
    /// 2 = registered twice (`use == 2T`).
    registered: u8,
    /// Region dispatched from this pc, if it is a region entry.
    entry_of: Option<usize>,
    /// First-occurrence order of dynamic return targets (stable slot
    /// numbering for `ret` edges).
    ret_targets: Vec<Pc>,
    /// For switch terminators: the deduplicated, sorted target table,
    /// computed once at translation time (stable static slot numbering
    /// without a per-execution sort).
    switch_uniq: Box<[Pc]>,
}

/// A formed region prepared for execution.
#[derive(Debug)]
struct RuntimeRegion {
    dump: RegionDump,
    /// The region's optimized code, compiled from the translation cache
    /// at install and recompiled at re-formation. Each region entry
    /// runs its own [`Arc`] snapshot.
    trace: Arc<CompiledTrace>,
    /// Per-copy successor table: `(slot, next copy)`.
    succ: Vec<Vec<(SuccSlot, usize)>>,
    /// Entry-block use count at formation time (continuous-mode
    /// staleness check).
    formed_use: u64,
    /// Region entries since formation (adaptive monitoring).
    entries: u64,
    /// Side exits since formation (adaptive monitoring).
    side_exits: u64,
    /// Retired by adaptive monitoring: never dispatched again and
    /// excluded from the final dump.
    retired: bool,
}

impl RuntimeRegion {
    fn new(dump: RegionDump, trace: Arc<CompiledTrace>, formed_use: u64) -> Self {
        let mut succ = vec![Vec::new(); dump.copies.len()];
        for e in &dump.edges {
            succ[e.from].push((e.slot, e.to));
        }
        RuntimeRegion {
            dump,
            trace,
            succ,
            formed_use,
            entries: 0,
            side_exits: 0,
            retired: false,
        }
    }
}

fn trace_region_kind(kind: RegionKind) -> TraceRegionKind {
    match kind {
        RegionKind::Trace => TraceRegionKind::Trace,
        RegionKind::Loop => TraceRegionKind::Loop,
    }
}

/// Continuous-mode staleness test: has `current_use` at least doubled
/// relative to `formed_use`?
///
/// `current_use / 2 >= formed_use` is exactly `current_use >= 2 *
/// formed_use` for every `u64` pair, without the overflow that made the
/// multiplying form (`formed_use.saturating_mul(2)`) treat a region
/// formed past `u64::MAX / 2` uses as due the moment the counter
/// saturated the comparison.
fn reform_due(current_use: u64, formed_use: u64) -> bool {
    current_use / 2 >= formed_use
}

fn term_kind(t: &Terminator) -> TermKind {
    match t {
        Terminator::Jump { .. } => TermKind::Jump,
        Terminator::Branch { .. } => TermKind::Cond,
        Terminator::Switch { .. } => TermKind::Switch,
        Terminator::Call { .. } => TermKind::Call,
        Terminator::Return => TermKind::Return,
        Terminator::Halt => TermKind::Halt,
    }
}

/// The two-phase dynamic binary translator.
///
/// See the [crate documentation](crate) for the architecture and an
/// example.
#[derive(Clone, Debug)]
pub struct Dbt {
    config: DbtConfig,
    tracer: Option<Arc<Tracer>>,
    predecoded: Option<Arc<PredecodedProgram>>,
}

impl Dbt {
    /// Creates a translator with the given configuration.
    #[must_use]
    pub fn new(config: DbtConfig) -> Self {
        Dbt {
            config,
            tracer: None,
            predecoded: None,
        }
    }

    /// Attaches a structured-event tracer: every run reports lifecycle
    /// events (translation, counter bumps and freezes, region
    /// formation / re-formation / retirement) into it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    #[must_use]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Shares a decode-once cache of fused blocks across runs of the
    /// same program. Consulted by the [`crate::Backend::CachedFused`]
    /// backend; it must have been
    /// created (via [`PredecodedProgram::new`]) for the exact program
    /// later passed to [`Dbt::run`], otherwise it is silently ignored
    /// and the run uses a private cache. Sweeps hand one cache to every
    /// cell of a guest so each block is decoded and fused once per
    /// guest instead of once per run.
    #[must_use]
    pub fn with_predecoded(mut self, predecoded: Arc<PredecodedProgram>) -> Self {
        self.predecoded = Some(predecoded);
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DbtConfig {
        &self.config
    }

    /// Runs `program` on `input` under the translator.
    ///
    /// # Errors
    ///
    /// Returns [`DbtError::Guest`] when the guest program traps
    /// (including fuel exhaustion).
    pub fn run(&self, program: &Program, input: &[i64]) -> Result<RunOutcome, DbtError> {
        let mut machine = Machine::new(program, input);
        self.run_machine(program, &mut machine)
    }

    /// Runs a built program (with preloaded data sections) on `input`.
    ///
    /// # Errors
    ///
    /// Returns [`DbtError::Guest`] when the guest program traps.
    pub fn run_built(&self, built: &BuiltProgram, input: &[i64]) -> Result<RunOutcome, DbtError> {
        let mut machine = Machine::new(&built.program, input);
        machine.preload(&built.mem_image, &built.fmem_image);
        self.run_machine(&built.program, &mut machine)
    }

    fn run_machine(
        &self,
        program: &Program,
        machine: &mut Machine,
    ) -> Result<RunOutcome, DbtError> {
        let mut engine = Engine::new(
            &self.config,
            self.tracer.as_deref(),
            program,
            self.predecoded.as_ref(),
        );
        let output = engine.execute(machine)?;
        Ok(engine.into_outcome(output))
    }
}

struct Engine<'p> {
    config: &'p DbtConfig,
    tracer: Option<&'p Tracer>,
    program: &'p Program,
    /// The decode-once source of fused blocks under `cached-fused`;
    /// `None` under `interp`.
    predecoded: Option<Arc<PredecodedProgram>>,
    /// Whether region traces use fast guards. Continuous profiling
    /// keeps counting inside regions, so it compiles the observed form
    /// instead: every flow reaches the engine's generic path.
    guarded: bool,
    /// The translation cache, by block start address.
    cache: Vec<Option<Box<BlockEntry>>>,
    regions: Vec<RuntimeRegion>,
    pool: Vec<Pc>,
    stats: ExecStats,
    intervals: Vec<IntervalProfile>,
    last_snapshot: std::collections::BTreeMap<Pc, (u64, u64)>,
    next_interval_at: u64,
    retire_counts: std::collections::BTreeMap<Pc, u32>,
}

/// Block-execution outcome handed back to the main loop.
enum Next {
    Goto(Pc),
    Halted,
}

impl<'p> BlockSource for Engine<'p> {
    fn terminator(&self, pc: Pc) -> Option<&Terminator> {
        self.cache.get(pc)?.as_ref().map(|e| &e.block.terminator)
    }
    fn record(&self, pc: Pc) -> Option<&BlockRecord> {
        self.cache.get(pc)?.as_ref().map(|e| &e.record)
    }
    fn block_len(&self, pc: Pc) -> Option<u32> {
        self.cache.get(pc)?.as_ref().map(|e| e.record.len)
    }
}

impl<'p> Engine<'p> {
    /// An engine with an empty translation cache. `shared` is the
    /// caller's decode-once cache; `cached-fused` uses it when it was
    /// sized for this program and a private one otherwise.
    fn new(
        config: &'p DbtConfig,
        tracer: Option<&'p Tracer>,
        program: &'p Program,
        shared: Option<&Arc<PredecodedProgram>>,
    ) -> Self {
        let predecoded = match config.backend {
            Backend::Interp => None,
            Backend::CachedFused => Some(
                shared
                    .filter(|p| p.len() == program.len())
                    .map_or_else(|| Arc::new(PredecodedProgram::new(program)), Arc::clone),
            ),
        };
        Engine {
            config,
            tracer,
            program,
            predecoded,
            guarded: config.mode != ProfilingMode::Continuous,
            cache: (0..program.len()).map(|_| None).collect(),
            regions: Vec::new(),
            pool: Vec::new(),
            stats: ExecStats::default(),
            intervals: Vec::new(),
            last_snapshot: std::collections::BTreeMap::new(),
            next_interval_at: config.interval.unwrap_or(u64::MAX),
            retire_counts: std::collections::BTreeMap::new(),
        }
    }

    /// Reports a structured event when a tracer is attached; the
    /// closure defers payload construction to the traced case, so an
    /// untraced run pays one branch per site.
    #[inline]
    fn trace_emit(&self, event: impl FnOnce() -> EventKind) {
        if let Some(tracer) = self.tracer {
            tracer.emit(event());
        }
    }

    fn execute(&mut self, machine: &mut Machine) -> Result<Vec<i64>, DbtError> {
        let mut pc = self.program.entry();
        loop {
            if self.stats.instructions >= self.config.fuel {
                return Err(DbtError::Guest(tpdbt_vm::VmError::OutOfFuel {
                    pc,
                    fuel: self.config.fuel,
                }));
            }
            // Optimized dispatch: region entry wins.
            let region_idx = self
                .cache
                .get(pc)
                .and_then(|e| e.as_ref())
                .and_then(|e| e.entry_of);
            let next = match region_idx {
                Some(ri) => {
                    self.maybe_reform(ri, pc);
                    self.execute_region(ri, machine)?
                }
                None => self.execute_unopt(pc, machine)?,
            };
            if self.stats.instructions >= self.next_interval_at {
                self.snapshot_interval();
            }
            match next {
                Next::Goto(target) => pc = target,
                Next::Halted => {
                    if self.config.interval.is_some() {
                        self.snapshot_interval();
                    }
                    return Ok(machine.output().to_vec());
                }
            }
        }
    }

    /// Records the per-branch deltas since the previous snapshot (phase
    /// detection input).
    fn snapshot_interval(&mut self) {
        let mut branches = std::collections::BTreeMap::new();
        for entry in self.cache.iter().flatten() {
            if entry.record.kind != Some(TermKind::Cond) {
                continue;
            }
            let pc = entry.block.start;
            let now = (entry.record.use_count, entry.record.taken_count());
            let prev = self.last_snapshot.insert(pc, now).unwrap_or((0, 0));
            let delta = (now.0 - prev.0, now.1 - prev.1);
            if delta.0 > 0 {
                branches.insert(pc, delta);
            }
        }
        if !branches.is_empty() {
            self.intervals.push(IntervalProfile {
                end_instructions: self.stats.instructions,
                branches,
            });
        }
        self.next_interval_at = self.stats.instructions + self.config.interval.unwrap_or(u64::MAX);
    }

    /// Ensures the block at `pc` is translated, charging the one-time
    /// fast-translation cost. This is the translation-cache insert: the
    /// entry keeps the block's fused form (or, for `interp`, just its
    /// extent), and every later execution and trace compile reuses it.
    fn translate(&mut self, pc: Pc) -> &mut BlockEntry {
        if self.cache[pc].is_none() {
            let block = decode_block(self.program, pc)
                .expect("pc validated by jump targets and program validation");
            let len = (block.end - block.start) as u32;
            self.stats.blocks_translated += 1;
            self.stats.cycles += self.config.cost.cold_translate_per_instr * u64::from(len);
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
            let record = BlockRecord {
                len,
                kind: Some(term_kind(&block.terminator)),
                use_count: 0,
                edges: Vec::new(),
            };
            self.cache[pc] = Some(Box::new(BlockEntry {
                block,
                code,
                record,
                frozen: false,
                registered: 0,
                entry_of: None,
                ret_targets: Vec::new(),
                switch_uniq,
            }));
            self.trace_emit(|| EventKind::BlockTranslated { pc: pc as u64, len });
        }
        self.cache[pc].as_mut().expect("just inserted").as_mut()
    }

    /// Executes the straight-line body and terminator of the
    /// profiling-phase block at `pc` in its cached form, returning the
    /// control-flow outcome and the block length.
    fn run_block(&mut self, pc: Pc, machine: &mut Machine) -> Result<(Flow, u32), DbtError> {
        let e = self.cache[pc]
            .as_deref()
            .expect("block translated before execution");
        let flow = match &e.code {
            Some(decoded) => run_decoded(decoded, machine),
            None => step_block(self.program, e.block.start, e.block.end, machine),
        }?;
        let len = e.record.len;
        self.stats.instructions += u64::from(len);
        Ok((flow, len))
    }

    /// Compiles `dump` into the trace this run executes, from the
    /// members' translation-cache entries: a replayed trace over their
    /// fused blocks under `cached-fused`, or a stepped trace over their
    /// extents under `interp`.
    fn compile_region(&self, dump: &RegionDump) -> Arc<CompiledTrace> {
        let member = |pc: Pc| self.cache[pc].as_deref();
        let trace = if self.predecoded.is_some() {
            dump.copies
                .iter()
                .map(|&pc| member(pc)?.code.clone())
                .collect::<Option<Vec<_>>>()
                .and_then(|chain| compile_trace(&dump.copies, &dump.edges, &chain, self.guarded))
        } else {
            step_trace(&dump.copies, |pc| member(pc).map(|e| e.block.end))
        };
        Arc::new(trace.expect("region members are translated before formation"))
    }

    /// Maps an executed terminator outcome to a successor slot and
    /// target.
    fn outcome(&mut self, pc: Pc, flow: &Flow) -> Option<(SuccSlot, Pc)> {
        let entry = self.cache[pc].as_mut().expect("block translated");
        match (&entry.block.terminator, flow) {
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
                let idx = entry
                    .switch_uniq
                    .binary_search(target)
                    .expect("switch target in table");
                Some((SuccSlot::Other(idx as u32), *target))
            }
            (Terminator::Return, Flow::Jump { target, .. }) => {
                let idx = match entry.ret_targets.iter().position(|t| t == target) {
                    Some(i) => i,
                    None => {
                        entry.ret_targets.push(*target);
                        entry.ret_targets.len() - 1
                    }
                };
                Some((SuccSlot::Other(idx as u32), *target))
            }
            (t, f) => unreachable!("terminator {t:?} produced flow {f:?}"),
        }
    }

    fn execute_unopt(&mut self, pc: Pc, machine: &mut Machine) -> Result<Next, DbtError> {
        self.translate(pc);
        let (flow, len) = self.run_block(pc, machine)?;
        let cost = &self.config.cost;
        self.stats.cycles += cost.unopt_exec_per_instr * u64::from(len) + cost.dispatch_cost;

        let outcome = self.outcome(pc, &flow);
        let entry = self.cache[pc].as_mut().expect("translated");
        let profiled = !entry.frozen;
        if profiled {
            entry.record.use_count += 1;
            self.stats.profiling_ops += 1;
            self.stats.cycles += cost.profile_op_cost;
            if let Some((slot, target)) = outcome {
                entry.record.bump_edge(slot, target, 1);
                // The paper's `taken` counter: conditional taken only.
                if slot == SuccSlot::Taken {
                    self.stats.profiling_ops += 1;
                    self.stats.cycles += cost.profile_op_cost;
                }
            }
            let use_count = entry.record.use_count;
            self.trace_emit(|| EventKind::CounterBump {
                pc: pc as u64,
                use_count,
            });
        }

        if profiled && self.config.mode != ProfilingMode::NoOpt {
            let t = self.config.threshold;
            let entry = self.cache[pc].as_ref().expect("translated");
            let use_count = entry.record.use_count;
            let registered = entry.registered;
            if use_count == t && registered == 0 {
                self.cache[pc].as_mut().expect("translated").registered = 1;
                self.pool.push(pc);
                self.trace_emit(|| EventKind::Registered {
                    pc: pc as u64,
                    use_count,
                });
                if self.pool.len() >= self.config.policy.pool_trigger {
                    self.run_optimizer();
                }
            } else if registered == 1 && use_count == 2 * t {
                // Registered twice: optimize immediately (paper §1).
                self.cache[pc].as_mut().expect("translated").registered = 2;
                self.trace_emit(|| EventKind::RegisteredTwice {
                    pc: pc as u64,
                    use_count,
                });
                self.run_optimizer();
            }
        }

        Ok(match flow {
            Flow::Halted => Next::Halted,
            Flow::Jump { target, .. } => Next::Goto(target),
            Flow::Next => Next::Goto(self.cache[pc].as_ref().expect("translated").block.end),
        })
    }

    /// Runs region `ri` through its installed trace. The segment form
    /// was picked once, at install time; the match here selects the
    /// loop instance for it, once per region entry.
    fn execute_region(&mut self, ri: usize, machine: &mut Machine) -> Result<Next, DbtError> {
        // Snapshot the trace *after* any reform so it matches the
        // region's current shape; the snapshot keeps the code alive
        // while the loop updates the engine.
        let trace = Arc::clone(&self.regions[ri].trace);
        match &trace.segs {
            Segments::Replay(segs) => self.run_trace(ri, segs, machine),
            Segments::Step(segs) => self.run_trace(ri, segs, machine),
        }
    }

    /// The region-execution loop. Segments run straight-line with their
    /// pre-resolved guards; [`crate::trace::Guard::Other`] terminators
    /// (call / return / switch / halt, and every terminator of the
    /// observed and stepped forms) take the generic terminator-and-
    /// outcome path, which keeps engine bookkeeping (shadow call stack,
    /// `ret_targets` numbering) exact and is where continuous mode
    /// counts.
    ///
    /// Fuel is checked before each segment, traps propagate before the
    /// trapping segment is counted, and every copy gets the same
    /// completion / side-exit / loop-back accounting in every form.
    fn run_trace<C: SegmentCode>(
        &mut self,
        ri: usize,
        segs: &[TraceSegment<C>],
        machine: &mut Machine,
    ) -> Result<Next, DbtError> {
        self.stats.region_entries += 1;
        self.regions[ri].entries += 1;
        self.stats.cycles += self.config.cost.region_entry_cost;
        let opt_exec = self.config.cost.opt_exec_per_instr;
        let fuel = self.config.fuel;
        let counting = self.config.mode == ProfilingMode::Continuous;
        // Hot-loop stats accumulate in locals and flush at every exit;
        // the observable totals match per-segment bumps exactly (traps
        // still propagate before the trapping segment is counted).
        let base = self.stats.instructions;
        let mut instr = 0u64;
        let mut loops = 0u64;
        macro_rules! flush {
            () => {
                self.stats.instructions += instr;
                self.stats.cycles += opt_exec * instr;
                self.stats.loop_backs += loops;
            };
        }
        let mut cur = 0usize;
        loop {
            let seg = &segs[cur];
            if base + instr >= fuel {
                flush!();
                return Err(DbtError::Guest(tpdbt_vm::VmError::OutOfFuel {
                    pc: seg.start,
                    fuel,
                }));
            }
            if let Err(e) = C::run_body(seg, self.program, machine) {
                flush!();
                return Err(DbtError::Guest(e));
            }
            machine.set_pc(seg.term_pc);
            let (next, target) = match seg.guard.quick_eval(machine) {
                Some(hit) => {
                    instr += u64::from(seg.len);
                    hit
                }
                None => {
                    // Generic path: traps must propagate before the
                    // instruction count bumps (matches step_block).
                    let flow = match C::run_term(seg, self.program, machine) {
                        Ok(flow) => flow,
                        Err(e) => {
                            flush!();
                            return Err(DbtError::Guest(e));
                        }
                    };
                    instr += u64::from(seg.len);
                    let outcome = self.outcome(seg.start, &flow);
                    if counting {
                        self.count_in_region(seg.start, outcome);
                    }
                    let Some((slot, target)) = outcome else {
                        flush!();
                        return Ok(Next::Halted);
                    };
                    let next = self.regions[ri].succ[cur]
                        .iter()
                        .find(|(s, _)| *s == slot)
                        .map_or(EXIT, |&(_, n)| n as u32);
                    (next, target)
                }
            };
            if next == EXIT {
                flush!();
                if cur == self.regions[ri].dump.tail {
                    self.stats.completions += 1;
                } else {
                    self.stats.side_exits += 1;
                    self.regions[ri].side_exits += 1;
                    self.stats.cycles += self.config.cost.side_exit_penalty;
                    self.maybe_retire(ri);
                }
                return Ok(Next::Goto(target));
            }
            if next == 0 {
                loops += 1;
            }
            cur = next as usize;
        }
    }

    /// Continuous mode's in-region counting: the block at `pc` ran
    /// inside a region and left through `outcome`. Counters bump as in
    /// the profiling phase, without the per-counter cycle charge.
    fn count_in_region(&mut self, pc: Pc, outcome: Option<(SuccSlot, Pc)>) {
        let entry = self.cache[pc].as_mut().expect("translated");
        entry.record.use_count += 1;
        self.stats.profiling_ops += 1;
        if let Some((slot, target)) = outcome {
            entry.record.bump_edge(slot, target, 1);
            if slot == SuccSlot::Taken {
                self.stats.profiling_ops += 1;
            }
        }
        let use_count = entry.record.use_count;
        self.trace_emit(|| EventKind::CounterBump {
            pc: pc as u64,
            use_count,
        });
    }

    /// Continuous mode: re-form a region whose entry has doubled its
    /// use count since formation (see [`reform_due`]).
    fn maybe_reform(&mut self, ri: usize, entry_pc: Pc) {
        if self.config.mode != ProfilingMode::Continuous {
            return;
        }
        let current_use = self.cache[entry_pc]
            .as_ref()
            .map_or(0, |e| e.record.use_count);
        if !reform_due(current_use, self.regions[ri].formed_use) {
            return;
        }
        if let Some(formed) = form_region(self, &self.config.policy, entry_pc) {
            self.stats.cycles += self.config.cost.opt_translate_per_instr * formed.total_instrs;
            self.stats.opt_invocations += 1;
            let id = self.regions[ri].dump.id;
            let dump = formed.into_dump(id);
            // Re-formation replaces the region's optimized code: a
            // trace of the new copy list replaces the region, shape and
            // code together, in one assignment.
            let trace = self.compile_region(&dump);
            self.regions[ri] = RuntimeRegion::new(dump, trace, current_use);
            self.trace_emit(|| EventKind::RegionReformed {
                region: id as u64,
                entry_pc: entry_pc as u64,
                use_count: current_use,
            });
        }
    }

    /// Whether this mode freezes counters at optimization (two-phase
    /// semantics; adaptive freezes too, until a retirement resets).
    fn freezes(&self) -> bool {
        matches!(
            self.config.mode,
            ProfilingMode::TwoPhase | ProfilingMode::Adaptive
        )
    }

    /// Adaptive side-exit monitoring (paper §5): retire a region whose
    /// side-exit rate exceeds the policy bound; its blocks re-profile
    /// from scratch so a fresh region can form for the current phase.
    fn maybe_retire(&mut self, ri: usize) {
        if self.config.mode != ProfilingMode::Adaptive {
            return;
        }
        let region = &self.regions[ri];
        if region.retired
            || region.entries < self.config.adapt.min_entries
            || (region.side_exits as f64)
                < self.config.adapt.max_side_exit_rate * region.entries as f64
        {
            return;
        }
        let entry_pc = self.regions[ri].dump.entry_pc();
        let count = self.retire_counts.entry(entry_pc).or_insert(0);
        if *count >= self.config.adapt.max_retirements_per_entry {
            return;
        }
        *count += 1;
        self.stats.retirements += 1;
        let copies = self.regions[ri].dump.copies.clone();
        // Retirement invalidates the region's optimized code: it is
        // never dispatched again once its entry is unlinked below.
        self.regions[ri].retired = true;
        let (region_id, entries, side_exits) = {
            let r = &self.regions[ri];
            (r.dump.id, r.entries, r.side_exits)
        };
        self.trace_emit(|| EventKind::RegionRetired {
            region: region_id as u64,
            entry_pc: entry_pc as u64,
            entries,
            side_exits,
        });
        if let Some(e) = self.cache[entry_pc].as_mut() {
            e.entry_of = None;
        }
        // Reset and unfreeze members that no live region still uses.
        let still_used: std::collections::BTreeSet<Pc> = self
            .regions
            .iter()
            .filter(|r| !r.retired)
            .flat_map(|r| r.dump.copies.iter().copied())
            .collect();
        for pc in copies {
            if still_used.contains(&pc) {
                continue;
            }
            if let Some(e) = self.cache[pc].as_mut() {
                e.frozen = false;
                e.registered = 0;
                e.record.use_count = 0;
                e.record.edges.clear();
            }
        }
    }

    /// The optimization phase: retranslate the candidate pool into
    /// regions, hottest seed first. A seed that became a region's entry,
    /// or was swallowed by another region (its counters froze), seeds
    /// nothing; continuous mode may re-seed.
    fn run_optimizer(&mut self) {
        self.stats.opt_invocations += 1;
        let mut candidates: Vec<Pc> = std::mem::take(&mut self.pool);
        candidates.sort_by_key(|&pc| {
            std::cmp::Reverse(self.cache[pc].as_ref().map_or(0, |e| e.record.use_count))
        });
        for seed in candidates {
            let entry = self.cache[seed]
                .as_ref()
                .expect("pooled blocks are translated");
            if entry.entry_of.is_some() || (entry.frozen && self.freezes()) {
                continue;
            }
            let Some(formed) = form_region(self, &self.config.policy, seed) else {
                continue;
            };
            self.stats.cycles += self.config.cost.opt_translate_per_instr * formed.total_instrs;
            self.install(seed, formed);
        }
    }

    /// Installs `formed` as a new region dispatched from `seed`.
    fn install(&mut self, seed: Pc, formed: FormedRegion) {
        self.stats.regions_formed += 1;
        let id = self.regions.len();
        let formed_use = self.cache[seed]
            .as_ref()
            .expect("translated")
            .record
            .use_count;
        let dump = formed.into_dump(id);
        // Formation installs the region's optimized code, compiled in
        // the form this run executes (guarded, observed, or stepped).
        let trace = self.compile_region(&dump);
        let region = RuntimeRegion::new(dump, trace, formed_use);
        self.trace_emit(|| EventKind::RegionFormed {
            region: id as u64,
            entry_pc: seed as u64,
            blocks: region.dump.copies.len() as u32,
            kind: trace_region_kind(region.dump.kind),
        });
        // Freeze every member: optimized code is not instrumented
        // (two-phase semantics; continuous mode keeps counting).
        if self.freezes() {
            for &pc in &region.dump.copies {
                let Some(e) = self.cache[pc].as_mut() else {
                    continue;
                };
                if e.frozen {
                    continue;
                }
                e.frozen = true;
                let (use_count, registered) = (e.record.use_count, e.registered);
                self.trace_emit(|| EventKind::CounterFrozen {
                    pc: pc as u64,
                    use_count,
                    registered,
                });
            }
        }
        self.cache[seed].as_mut().expect("translated").entry_of = Some(id);
        self.regions.push(region);
    }

    fn into_outcome(self, output: Vec<i64>) -> RunOutcome {
        let mut blocks = std::collections::BTreeMap::new();
        for entry in self.cache.into_iter().flatten() {
            if entry.record.use_count > 0 {
                blocks.insert(entry.block.start, entry.record);
            }
        }
        let threshold = if self.config.mode == ProfilingMode::NoOpt {
            0
        } else {
            self.config.threshold
        };
        let mut regions: Vec<RegionDump> = self
            .regions
            .into_iter()
            .filter(|r| !r.retired)
            .map(|r| r.dump)
            .collect();
        for (i, r) in regions.iter_mut().enumerate() {
            r.id = i;
        }
        let inip = InipDump {
            threshold,
            regions,
            blocks,
            entry: self.program.entry(),
            profiling_ops: self.stats.profiling_ops,
            cycles: self.stats.cycles,
            instructions: self.stats.instructions,
        };
        RunOutcome {
            inip,
            output,
            stats: self.stats,
            intervals: self.intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegionPolicy;
    use tpdbt_isa::{structured, Cond, ProgramBuilder, Reg};

    fn hot_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let r = Reg::new(0);
        structured::counted_loop(&mut b, r, 0, 1, Cond::Lt, iters, |_| {}).unwrap();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn no_opt_mode_profiles_whole_run() {
        let p = hot_loop(1000);
        let out = Dbt::new(DbtConfig::no_opt()).run(&p, &[]).unwrap();
        assert!(out.inip.regions.is_empty());
        let plain = out.as_plain_profile();
        // The loop's conditional latch executed 1000 times in total
        // (split across the entry block and the re-decoded interior
        // block, which overlap) and was taken 999 times.
        let conds: Vec<_> = plain
            .blocks
            .values()
            .filter(|b| b.kind == Some(TermKind::Cond))
            .collect();
        assert_eq!(conds.iter().map(|b| b.use_count).sum::<u64>(), 1000);
        assert_eq!(conds.iter().map(|b| b.taken_count()).sum::<u64>(), 999);
        // Profiling ops = sum of use + taken increments.
        let expect: u64 = plain
            .blocks
            .values()
            .map(|b| b.use_count + b.taken_count())
            .sum();
        assert_eq!(plain.profiling_ops, expect);
    }

    #[test]
    fn two_phase_forms_loop_region_and_freezes_counters() {
        let p = hot_loop(10_000);
        let t = 100;
        let out = Dbt::new(DbtConfig::two_phase(t)).run(&p, &[]).unwrap();
        assert_eq!(out.inip.regions.len(), 1);
        let region = &out.inip.regions[0];
        assert_eq!(region.kind, RegionKind::Loop);
        // Frozen initial profile: T <= use <= 2T for region blocks (the
        // upper bound is reached exactly when the registered-twice rule
        // triggers the optimizer).
        for &pc in &region.copies {
            let rec = out.inip.block(pc).unwrap();
            assert!(
                rec.use_count >= t && rec.use_count <= 2 * t,
                "use {} outside [T, 2T]",
                rec.use_count
            );
        }
        assert!(out.stats.loop_backs > 9000);
        assert_eq!(out.stats.regions_formed, 1);
    }

    #[test]
    fn translated_output_matches_interpreter() {
        // An input-dependent program: double every input and echo it.
        let mut b = ProgramBuilder::new();
        let (v, acc) = (Reg::new(0), Reg::new(1));
        let top = b.fresh_label("top");
        let done = b.fresh_label("done");
        b.bind(top).unwrap();
        b.input(v);
        b.br_imm(Cond::Lt, v, 0, done);
        b.muli(v, v, 2);
        b.add(acc, acc, v);
        b.out(v);
        b.jmp(top);
        b.bind(done).unwrap();
        b.out(acc);
        b.halt();
        let p = b.build().unwrap();
        let input: Vec<i64> = (0..5000).map(|i| i % 97).collect();
        let expected = tpdbt_vm::run_collect(&p, &input).unwrap();
        for config in [
            DbtConfig::no_opt(),
            DbtConfig::two_phase(50),
            DbtConfig::continuous(50),
        ] {
            let out = Dbt::new(config).run(&p, &input).unwrap();
            assert_eq!(out.output, expected, "mode {:?}", config.mode);
        }
    }

    #[test]
    fn lower_threshold_optimizes_earlier_and_runs_faster_here() {
        let p = hot_loop(200_000);
        let fast = Dbt::new(DbtConfig::two_phase(100)).run(&p, &[]).unwrap();
        let slow = Dbt::new(DbtConfig::two_phase(100_000))
            .run(&p, &[])
            .unwrap();
        assert!(
            fast.stats.cycles < slow.stats.cycles,
            "early optimization should win on a stable hot loop: {} vs {}",
            fast.stats.cycles,
            slow.stats.cycles
        );
    }

    #[test]
    fn profiling_ops_shrink_with_threshold() {
        let p = hot_loop(100_000);
        let small = Dbt::new(DbtConfig::two_phase(100)).run(&p, &[]).unwrap();
        let large = Dbt::new(DbtConfig::no_opt()).run(&p, &[]).unwrap();
        assert!(small.inip.profiling_ops * 10 < large.inip.profiling_ops);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let p = hot_loop(1_000_000);
        let cfg = DbtConfig::two_phase(100).with_fuel(1000);
        let err = Dbt::new(cfg).run(&p, &[]).unwrap_err();
        assert!(matches!(
            err,
            DbtError::Guest(tpdbt_vm::VmError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn continuous_mode_reforms_regions() {
        // A loop whose interior branch flips bias halfway through.
        let mut b = ProgramBuilder::new();
        let (i, x, half) = (Reg::new(0), Reg::new(1), Reg::new(2));
        b.movi(half, 50_000);
        let head = b.fresh_label("head");
        let then = b.fresh_label("then");
        let join = b.fresh_label("join");
        b.movi(i, 0);
        b.bind(head).unwrap();
        b.br_reg(Cond::Lt, i, half, then);
        b.addi(x, x, 2); // second-half path
        b.jmp(join);
        b.bind(then).unwrap();
        b.addi(x, x, 1); // first-half path
        b.bind(join).unwrap();
        b.addi(i, i, 1);
        b.br_imm(Cond::Lt, i, 100_000, head);
        b.halt();
        let p = b.build().unwrap();
        let out = Dbt::new(DbtConfig::continuous(1000)).run(&p, &[]).unwrap();
        // Re-formation fired at least once (opt invocations beyond the
        // initial pool drain).
        assert!(out.stats.opt_invocations > 1, "{:?}", out.stats);
        let two = Dbt::new(DbtConfig::two_phase(1000)).run(&p, &[]).unwrap();
        assert_eq!(two.output, out.output);
    }

    /// A loop whose likely exit direction flips halfway: two-phase
    /// regions keep side-exiting, adaptive mode retires and re-forms.
    fn phase_flip_program() -> Program {
        let mut b = ProgramBuilder::new();
        let (i, x, half) = (Reg::new(0), Reg::new(1), Reg::new(2));
        b.movi(half, 60_000);
        let head = b.fresh_label("head");
        let then = b.fresh_label("then");
        let join = b.fresh_label("join");
        b.movi(i, 0);
        b.bind(head).unwrap();
        b.br_reg(Cond::Lt, i, half, then);
        b.addi(x, x, 2);
        b.jmp(join);
        b.bind(then).unwrap();
        b.addi(x, x, 1);
        b.bind(join).unwrap();
        b.addi(i, i, 1);
        b.br_imm(Cond::Lt, i, 120_000, head);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn adaptive_mode_retires_stale_regions() {
        let p = phase_flip_program();
        let two = Dbt::new(DbtConfig::two_phase(500)).run(&p, &[]).unwrap();
        let adaptive = Dbt::new(DbtConfig::adaptive(500)).run(&p, &[]).unwrap();
        assert_eq!(
            two.output, adaptive.output,
            "adaptation must stay transparent"
        );
        assert!(adaptive.stats.retirements > 0, "{:?}", adaptive.stats);
        // Adaptation trades retranslation for fewer steady-state side
        // exits; over a long phase-flipped run it should not side-exit
        // more than the frozen configuration.
        assert!(
            adaptive.stats.side_exits <= two.stats.side_exits,
            "adaptive {} vs two-phase {}",
            adaptive.stats.side_exits,
            two.stats.side_exits
        );
    }

    #[test]
    fn adaptive_mode_matches_two_phase_on_stable_programs() {
        let p = hot_loop(100_000);
        let two = Dbt::new(DbtConfig::two_phase(500)).run(&p, &[]).unwrap();
        let adaptive = Dbt::new(DbtConfig::adaptive(500)).run(&p, &[]).unwrap();
        assert_eq!(adaptive.stats.retirements, 0, "stable loop must not retire");
        assert_eq!(two.output, adaptive.output);
    }

    #[test]
    fn interval_recording_captures_phase_flip() {
        let p = phase_flip_program();
        let cfg = DbtConfig::no_opt().with_interval(50_000);
        let out = Dbt::new(cfg).run(&p, &[]).unwrap();
        assert!(
            out.intervals.len() >= 8,
            "{} intervals",
            out.intervals.len()
        );
        // Interval deltas cover the whole run exactly.
        let total: u64 = out
            .intervals
            .iter()
            .flat_map(|iv| iv.branches.values())
            .map(|(u, _)| u)
            .sum();
        let cond_total: u64 = out
            .inip
            .blocks
            .values()
            .filter(|b| b.kind == Some(TermKind::Cond))
            .map(|b| b.use_count)
            .sum();
        assert_eq!(total, cond_total);
        // And phase detection sees the flip.
        let phases = tpdbt_profile::phases::detect_phases(&out.intervals, 0.1);
        assert!(
            phases.len() >= 2,
            "expected a phase split, got {}",
            phases.len()
        );
    }

    #[test]
    fn no_interval_config_records_nothing() {
        let p = hot_loop(10_000);
        let out = Dbt::new(DbtConfig::no_opt()).run(&p, &[]).unwrap();
        assert!(out.intervals.is_empty());
    }

    #[test]
    fn reform_due_is_exact_at_the_boundary_and_for_huge_counts() {
        // The doubling boundary itself.
        assert!(!reform_due(199, 100));
        assert!(reform_due(200, 100));
        assert!(reform_due(201, 100));
        // formed_use == 0 is always due (matches the old behavior).
        assert!(reform_due(0, 0));
        assert!(reform_due(1, 0));
        // Near u64::MAX the old `formed_use.saturating_mul(2)` form
        // reported a region formed at u64::MAX uses as due again at
        // u64::MAX — it can never have doubled.
        assert!(!reform_due(u64::MAX, u64::MAX));
        assert!(!reform_due(u64::MAX, u64::MAX / 2 + 1));
        assert!(reform_due(u64::MAX, u64::MAX / 2));
    }

    /// Regression (frozen-profile boundary): the pool-full path freezes
    /// a region seed at exactly `T` — registration happens at
    /// `use == T` and `pool_trigger = 1` runs the optimizer in the same
    /// step, before the counter can advance.
    #[test]
    fn pool_full_path_freezes_seed_at_exactly_t() {
        let p = hot_loop(10_000);
        let t = 100;
        let policy = RegionPolicy {
            pool_trigger: 1,
            ..RegionPolicy::default()
        };
        let cfg = DbtConfig::two_phase(t).with_policy(policy);
        let out = Dbt::new(cfg).run(&p, &[]).unwrap();
        assert!(!out.inip.regions.is_empty());
        for region in &out.inip.regions {
            let rec = out.inip.block(region.entry_pc()).unwrap();
            assert_eq!(
                rec.use_count,
                t,
                "pool-full seed at {} must freeze at exactly T",
                region.entry_pc()
            );
        }
    }

    /// Regression (frozen-profile boundary): the registered-twice path
    /// freezes the triggering block at exactly `2T`. The default pool
    /// (trigger 8) never fills on a small loop, so the optimizer only
    /// runs when a block re-registers at `use == 2T` — the reconciled
    /// invariant's inclusive upper bound.
    #[test]
    fn registered_twice_path_freezes_trigger_at_exactly_2t() {
        let p = hot_loop(10_000);
        let t = 100;
        let out = Dbt::new(DbtConfig::two_phase(t)).run(&p, &[]).unwrap();
        assert_eq!(out.inip.regions.len(), 1);
        let rec = out.inip.block(out.inip.regions[0].entry_pc()).unwrap();
        assert_eq!(
            rec.use_count,
            2 * t,
            "registered-twice trigger must freeze at exactly 2T"
        );
    }

    #[test]
    fn stats_are_reflected_in_dump() {
        let p = hot_loop(50_000);
        let out = Dbt::new(DbtConfig::two_phase(500)).run(&p, &[]).unwrap();
        assert_eq!(out.inip.cycles, out.stats.cycles);
        assert_eq!(out.inip.profiling_ops, out.stats.profiling_ops);
        assert_eq!(out.inip.instructions, out.stats.instructions);
        assert_eq!(out.inip.threshold, 500);
    }

    /// The translation cache and region traces, inspected on the
    /// engine a whole run leaves behind: each region owns its trace,
    /// formation and re-formation compile it from the cache, and
    /// retirement makes it unreachable.
    mod trace_slots {
        use super::*;

        /// Runs `p` to completion and returns the engine as the run
        /// left it.
        fn run_engine<'p>(
            config: &'p DbtConfig,
            p: &'p Program,
            shared: Option<&Arc<PredecodedProgram>>,
        ) -> Engine<'p> {
            let mut engine = Engine::new(config, None, p, shared);
            engine.execute(&mut Machine::new(p, &[])).unwrap();
            engine
        }

        /// Every live region runs a trace of exactly its copy list, and
        /// every dispatch link points at a live region.
        fn assert_traces_match_shapes(engine: &Engine<'_>) {
            for r in engine.regions.iter().filter(|r| !r.retired) {
                assert_eq!(r.trace.starts(), r.dump.copies, "region {}", r.dump.id);
            }
            for e in engine.cache.iter().flatten() {
                if let Some(ri) = e.entry_of {
                    assert!(
                        !engine.regions[ri].retired,
                        "pc {} dispatches a retired region",
                        e.block.start
                    );
                    assert_eq!(engine.regions[ri].dump.entry_pc(), e.block.start);
                }
            }
        }

        /// The three trace forms cover each region's copies; only the
        /// guarded form has fast guards.
        #[test]
        fn each_backend_and_mode_compiles_its_trace_form() {
            let p = hot_loop(10_000);
            let cases = [
                (Backend::Interp, DbtConfig::two_phase(100), false),
                (Backend::Interp, DbtConfig::continuous(100), false),
                (Backend::CachedFused, DbtConfig::two_phase(100), true),
                (Backend::CachedFused, DbtConfig::continuous(100), false),
            ];
            for (backend, config, guarded) in cases {
                let config = config.with_backend(backend);
                let engine = run_engine(&config, &p, None);
                assert!(!engine.regions.is_empty(), "{backend} {:?}", config.mode);
                assert_traces_match_shapes(&engine);
                for r in &engine.regions {
                    let fast = r.trace.fast_guards();
                    assert_eq!(
                        fast > 0,
                        guarded,
                        "{backend} {:?}: {fast} fast guards",
                        config.mode
                    );
                }
                // Only the fused form keeps decoded code per block.
                let forms: Vec<bool> = engine
                    .cache
                    .iter()
                    .flatten()
                    .map(|e| e.code.is_some())
                    .collect();
                assert!(forms
                    .iter()
                    .all(|&f| f == (backend == Backend::CachedFused)));
            }
        }

        /// Re-formation replaces a region's shape and trace together,
        /// while a snapshot taken before it stays intact. The guest runs
        /// twice on one engine: the second run finds the translation
        /// cache warm and the entry counters doubling, so regions
        /// re-form mid-run.
        #[test]
        fn reform_swaps_the_trace_and_old_snapshots_survive() {
            let p = phase_flip_program();
            for backend in Backend::ALL {
                let config = DbtConfig::continuous(1000).with_backend(backend);
                let mut engine = run_engine(&config, &p, None);
                let before: Vec<(Arc<CompiledTrace>, Vec<Pc>, u64)> = engine
                    .regions
                    .iter()
                    .map(|r| (Arc::clone(&r.trace), r.dump.copies.clone(), r.formed_use))
                    .collect();
                engine.execute(&mut Machine::new(&p, &[])).unwrap();
                let mut reformed = 0;
                for (r, (old, copies, formed_use)) in engine.regions.iter().zip(&before) {
                    assert_eq!(old.starts(), *copies, "{backend}: snapshot changed");
                    let fresh = !Arc::ptr_eq(old, &r.trace);
                    assert_eq!(fresh, r.formed_use != *formed_use, "{backend}");
                    reformed += usize::from(fresh);
                }
                assert!(reformed > 0, "{backend}: a reform must fire");
                assert_traces_match_shapes(&engine);
            }
        }

        /// Retirement makes a region unreachable: no cache entry
        /// dispatches to it. A region re-formed at the same entry runs
        /// a fresh trace of its own shape.
        #[test]
        fn retirement_unlinks_the_trace_and_reinstall_compiles_a_fresh_one() {
            let p = phase_flip_program();
            for backend in Backend::ALL {
                let config = DbtConfig::adaptive(500).with_backend(backend);
                let engine = run_engine(&config, &p, None);
                assert!(
                    engine.stats.retirements > 0,
                    "{backend}: {:?}",
                    engine.stats
                );
                assert_traces_match_shapes(&engine);
                let retired = engine
                    .regions
                    .iter()
                    .find(|r| r.retired)
                    .expect("retired region");
                let entry = retired.dump.entry_pc();
                let fresh = engine.cache[entry]
                    .as_ref()
                    .and_then(|e| e.entry_of)
                    .map(|ri| &engine.regions[ri])
                    .expect("a fresh region forms at the retired entry");
                assert!(!Arc::ptr_eq(&fresh.trace, &retired.trace), "{backend}");
                assert_eq!(fresh.trace.starts(), fresh.dump.copies, "{backend}");
            }
        }

        /// Runs sharing one decode-once cache reuse its fused blocks:
        /// the second run decodes nothing and holds the same code.
        #[test]
        fn shared_predecode_is_reused_across_runs() {
            let p = hot_loop(1_000);
            let shared = Arc::new(PredecodedProgram::new(&p));
            let config = DbtConfig::two_phase(10);
            let first = run_engine(&config, &p, Some(&shared));
            let decoded = shared.decoded_count();
            assert_eq!(decoded as u64, first.stats.blocks_translated);
            let second = run_engine(&config, &p, Some(&shared));
            assert_eq!(shared.decoded_count(), decoded, "no block decodes twice");
            for (a, b) in first
                .cache
                .iter()
                .flatten()
                .zip(second.cache.iter().flatten())
            {
                assert!(Arc::ptr_eq(
                    a.code.as_ref().unwrap(),
                    b.code.as_ref().unwrap()
                ));
            }
            // The interpreter keeps extents only and leaves the cache alone.
            let interp = DbtConfig::two_phase(10).with_backend(Backend::Interp);
            let fresh = Arc::new(PredecodedProgram::new(&p));
            let engine = run_engine(&interp, &p, Some(&fresh));
            assert!(engine.predecoded.is_none());
            assert_eq!(fresh.decoded_count(), 0);
        }

        /// A decode-once cache sized for another program is ignored: the
        /// run uses a private one and leaves the foreign cache untouched.
        #[test]
        fn mismatched_shared_cache_is_ignored() {
            let p = hot_loop(1_000);
            let mut other = ProgramBuilder::new();
            other.halt();
            let foreign = Arc::new(PredecodedProgram::new(&other.build().unwrap()));
            let config = DbtConfig::two_phase(10);
            let engine = run_engine(&config, &p, Some(&foreign));
            let private = engine.predecoded.as_ref().expect("cached-fused");
            assert!(!Arc::ptr_eq(private, &foreign));
            assert_eq!(private.len(), p.len());
            assert_eq!(foreign.decoded_count(), 0);
        }
    }

    mod trace_events {
        use super::*;
        use std::sync::Arc;

        #[test]
        fn two_phase_trace_proves_the_freeze_invariant() {
            let p = hot_loop(10_000);
            let t = 100;
            let tracer = Arc::new(Tracer::new());
            let out = Dbt::new(DbtConfig::two_phase(t))
                .with_tracer(Arc::clone(&tracer))
                .run(&p, &[])
                .unwrap();
            assert_eq!(tracer.count("region_formed"), out.stats.regions_formed);
            assert_eq!(
                tracer.count("block_translated"),
                out.stats.blocks_translated
            );
            assert!(tracer.count("counter_frozen") > 0);
            assert!(tracer.count("registered") > 0);
            assert_eq!(tracer.count("registered_twice"), 1);
            let mut frozen_seen = 0;
            for e in tracer.events() {
                match e.kind {
                    EventKind::Registered { use_count, .. } => assert_eq!(use_count, t),
                    EventKind::RegisteredTwice { use_count, .. } => {
                        assert_eq!(use_count, 2 * t);
                    }
                    EventKind::CounterFrozen {
                        use_count,
                        registered,
                        ..
                    } => {
                        frozen_seen += 1;
                        if registered > 0 {
                            assert!(
                                use_count >= t && use_count <= 2 * t,
                                "registered block froze at {use_count}, outside [T, 2T]"
                            );
                        }
                        if registered == 2 {
                            assert_eq!(use_count, 2 * t, "registered-twice freeze");
                        }
                    }
                    _ => {}
                }
            }
            assert_eq!(frozen_seen, tracer.count("counter_frozen"));
        }

        #[test]
        fn untraced_runs_emit_nothing_and_match_traced_output() {
            let p = hot_loop(10_000);
            for backend in Backend::ALL {
                let config = DbtConfig::two_phase(100)
                    .with_backend(backend)
                    .with_interval(5_000);
                let tracer = Arc::new(Tracer::new());
                let traced = Dbt::new(config)
                    .with_tracer(Arc::clone(&tracer))
                    .run(&p, &[])
                    .unwrap();
                let untraced = Dbt::new(config).run(&p, &[]).unwrap();
                assert_eq!(traced.output, untraced.output, "{backend}");
                assert_eq!(traced.stats, untraced.stats, "{backend}");
                assert_eq!(traced.inip, untraced.inip, "{backend}");
                assert_eq!(traced.intervals, untraced.intervals, "{backend}");
                assert!(!traced.intervals.is_empty(), "{backend}");
                assert!(!tracer.is_empty(), "{backend}");
            }
        }

        #[test]
        fn continuous_mode_emits_reform_events() {
            let p = phase_flip_program();
            let tracer = Arc::new(Tracer::new());
            let out = Dbt::new(DbtConfig::continuous(1000))
                .with_tracer(Arc::clone(&tracer))
                .run(&p, &[])
                .unwrap();
            assert!(
                tracer.count("region_reformed") >= 1,
                "{:?}",
                tracer.counts()
            );
            // Re-formation is an optimizer invocation beyond the pool
            // drains that formed regions.
            assert!(out.stats.opt_invocations > tracer.count("region_formed"));
            // The ring wrapped (continuous mode bumps forever) but
            // per-kind totals stayed exact: one bump event per use
            // increment, and counters never freeze or reset here.
            let total_use: u64 = out.inip.blocks.values().map(|b| b.use_count).sum();
            assert_eq!(tracer.count("counter_bump"), total_use);
            assert!(tracer.dropped() > 0, "expected the ring to wrap");
        }

        #[test]
        fn adaptive_mode_emits_retirement_events() {
            let p = phase_flip_program();
            let tracer = Arc::new(Tracer::new());
            let out = Dbt::new(DbtConfig::adaptive(500))
                .with_tracer(Arc::clone(&tracer))
                .run(&p, &[])
                .unwrap();
            assert!(out.stats.retirements > 0);
            assert_eq!(tracer.count("region_retired"), out.stats.retirements);
        }
    }
}
