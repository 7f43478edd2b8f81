//! The translation policy: everything a run decides and accounts for
//! over the executor's [`BlockEvent`]s. That is the profile counters,
//! the candidate pool and registration, region formation and
//! freezing, regions as automata over block events, continuous-mode
//! re-formation, adaptive retirement, interval snapshots, the cost
//! model and [`ExecStats`].
//!
//! A policy never runs guest code and holds no executor code. It sees
//! a region run in one of two ways:
//!
//! * **Walked**: the region's automaton ([`Policy::walk`]) takes one
//!   block event per copy. A lockstep run walks every region through
//!   [`Policy::consume`]; a single run walks every region it does not
//!   compile.
//! * **Traced**: a single run's guarded compiled trace
//!   ([`crate::exec::Executor::run_trace`]) runs the whole region and
//!   reports its exit ([`Policy::leave`]).
//!
//! Both reach the same state: a trace and the automaton follow the
//! same edge table and account each copy identically.

use std::collections::{BTreeMap, BTreeSet};

use tpdbt_isa::{Pc, Terminator};
use tpdbt_profile::{
    BlockRecord, InipDump, IntervalProfile, RegionDump, RegionEdge, RegionKind, SuccSlot, TermKind,
};
use tpdbt_trace::{EventKind, TraceRegionKind, Tracer};

use crate::config::{DbtConfig, ProfilingMode};
use crate::engine::RunOutcome;
use crate::exec::{BlockEvent, Code};
use crate::region::{form_region, BlockSource, FormedRegion};
use crate::trace::EXIT;

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

/// One translated block's live profile state.
#[derive(Debug)]
pub(crate) struct Counters {
    pub record: BlockRecord,
    frozen: bool,
    /// 0 = unregistered, 1 = registered at `use == T`,
    /// 2 = registered twice (`use == 2T`).
    registered: u8,
    /// Region dispatched from this pc, if it is a region entry.
    pub entry_of: Option<usize>,
}

impl Counters {
    /// The zeroed counters of a block of `len` instructions ending in
    /// `terminator`, as translation creates them.
    fn fresh(len: u32, terminator: &Terminator) -> Box<Self> {
        Box::new(Counters {
            record: BlockRecord {
                len,
                kind: Some(term_kind(terminator)),
                use_count: 0,
                edges: Vec::new(),
            },
            frozen: false,
            registered: 0,
            entry_of: None,
        })
    }
}

/// A formed region.
#[derive(Debug)]
pub(crate) struct RuntimeRegion {
    pub dump: RegionDump,
    /// Successor table, one row of `width` [`slot_column`]s per copy:
    /// the next copy, or [`EXIT`]. A column past the row exits too.
    succ: Box<[u32]>,
    width: usize,
    /// Entry-block use count at formation time (continuous-mode
    /// staleness check).
    pub formed_use: u64,
    /// Region entries since formation (adaptive monitoring).
    entries: u64,
    /// Side exits since formation (adaptive monitoring).
    side_exits: u64,
    /// Retired by adaptive monitoring: never dispatched again and
    /// excluded from the final dump.
    pub retired: bool,
}

impl RuntimeRegion {
    fn new(dump: RegionDump, formed_use: u64) -> Self {
        let column = |e: &RegionEdge| slot_column(e.slot) as usize;
        let width = dump.edges.iter().map(|e| column(e) + 1).max().unwrap_or(0);
        let mut succ = vec![EXIT; dump.copies.len() * width].into_boxed_slice();
        for e in &dump.edges {
            succ[e.from * width + column(e)] = e.to as u32;
        }
        RuntimeRegion {
            dump,
            succ,
            width,
            formed_use,
            entries: 0,
            side_exits: 0,
            retired: false,
        }
    }

    /// The copy that follows copy `cur` through the slot in `column`,
    /// or [`EXIT`].
    #[inline]
    fn next(&self, cur: usize, column: u32) -> u32 {
        let column = column as usize;
        if column < self.width {
            self.succ[cur * self.width + column]
        } else {
            EXIT
        }
    }
}

/// A successor slot's column in a region's successor table.
#[inline]
fn slot_column(slot: SuccSlot) -> u32 {
    match slot {
        SuccSlot::Taken => 0,
        SuccSlot::Fallthrough => 1,
        SuccSlot::Other(n) => n.saturating_add(2),
    }
}

/// Where a policy stands inside the region it is walking.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Inside {
    region: usize,
    copy: usize,
    instructions: u64,
    loops: u64,
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
pub(crate) fn reform_due(current_use: u64, formed_use: u64) -> bool {
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

/// Reports a structured event when a tracer is attached; the closure
/// defers payload construction to the traced case, so an untraced run
/// pays one branch per site.
#[inline]
fn emit(tracer: Option<&Tracer>, event: impl FnOnce() -> EventKind) {
    if let Some(tracer) = tracer {
        tracer.emit(event());
    }
}

/// Bumps the `use` counter of the block at `pc` and the edge it left
/// through, charging `op_cost` cycles per profiling op. The paper's
/// `taken` counter is a profiling op only on a conditional taken edge.
#[inline]
fn count(
    entry: &mut Counters,
    stats: &mut ExecStats,
    tracer: Option<&Tracer>,
    pc: Pc,
    exit: Option<(SuccSlot, Pc)>,
    op_cost: u64,
) {
    entry.record.use_count += 1;
    let mut ops = 1;
    if let Some((slot, target)) = exit {
        entry.record.bump_edge(slot, target, 1);
        if slot == SuccSlot::Taken {
            ops += 1;
        }
    }
    stats.profiling_ops += ops;
    stats.cycles += op_cost * ops;
    let use_count = entry.record.use_count;
    emit(tracer, || EventKind::CounterBump {
        pc: pc as u64,
        use_count,
    });
}

/// Region formation's view of a policy: its own counters over the
/// executor's decoded blocks, limited to the blocks this policy has
/// translated (a lockstep executor may have run ahead of it).
struct Source<'a> {
    code: &'a Code,
    blocks: &'a [Option<Box<Counters>>],
}

impl BlockSource for Source<'_> {
    fn terminator(&self, pc: Pc) -> Option<&Terminator> {
        self.blocks.get(pc)?.as_ref()?;
        self.code.get(pc)?.as_ref().map(|e| &e.block.terminator)
    }
    fn record(&self, pc: Pc) -> Option<&BlockRecord> {
        self.blocks.get(pc)?.as_ref().map(|e| &e.record)
    }
    fn block_len(&self, pc: Pc) -> Option<u32> {
        self.blocks.get(pc)?.as_ref().map(|e| e.record.len)
    }
}

/// One run's translation policy.
pub(crate) struct Policy<'t> {
    config: DbtConfig,
    tracer: Option<&'t Tracer>,
    /// Profile state by block start address; `None` until translated.
    pub blocks: Vec<Option<Box<Counters>>>,
    pub regions: Vec<RuntimeRegion>,
    pool: Vec<Pc>,
    pub stats: ExecStats,
    intervals: Vec<IntervalProfile>,
    last_snapshot: BTreeMap<Pc, (u64, u64)>,
    next_interval_at: u64,
    retire_counts: BTreeMap<Pc, u32>,
    /// The region a lockstep policy is walking, if any.
    inside: Option<Inside>,
}

impl<'t> Policy<'t> {
    /// A policy with nothing translated, for a program of
    /// `program_len` instructions.
    pub fn new(config: DbtConfig, tracer: Option<&'t Tracer>, program_len: usize) -> Self {
        Policy {
            config,
            tracer,
            blocks: (0..program_len).map(|_| None).collect(),
            regions: Vec::new(),
            pool: Vec::new(),
            stats: ExecStats::default(),
            intervals: Vec::new(),
            last_snapshot: BTreeMap::new(),
            next_interval_at: config.interval.unwrap_or(u64::MAX),
            retire_counts: BTreeMap::new(),
            inside: None,
        }
    }

    /// Reports a structured event when a tracer is attached; the
    /// closure defers payload construction to the traced case, so an
    /// untraced run pays one branch per site.
    #[inline]
    fn trace_emit(&self, event: impl FnOnce() -> EventKind) {
        emit(self.tracer, event);
    }

    /// Whether counters keep counting inside regions (continuous
    /// profiling): every walked block's flow reaches the counters.
    fn counts_in_regions(&self) -> bool {
        self.config.mode == ProfilingMode::Continuous
    }

    /// Whether this mode freezes counters at optimization (two-phase
    /// semantics; adaptive freezes too, until a retirement resets).
    fn freezes(&self) -> bool {
        matches!(
            self.config.mode,
            ProfilingMode::TwoPhase | ProfilingMode::Adaptive
        )
    }

    fn counters(&mut self, pc: Pc) -> &mut Counters {
        self.blocks[pc].as_mut().expect("block translated")
    }

    /// Feeds a chunk of block events to a lockstep policy: each event
    /// is dispatched, runs in the profiling phase, or steps the region
    /// automaton of the region being walked.
    pub fn consume(&mut self, code: &Code, events: &[BlockEvent]) {
        let mut inside = self.inside.take();
        for ev in events {
            let at = match inside {
                Some(at) => at,
                None => match self.dispatch(code, ev.pc) {
                    Some(region) => self.enter(region),
                    None => {
                        self.unopt(code, ev);
                        self.settle(ev.exit.is_none());
                        continue;
                    }
                },
            };
            inside = self.walk(at, ev);
            if inside.is_none() {
                self.settle(ev.exit.is_none());
            }
        }
        self.inside = inside;
    }

    /// One step of the region automaton: copy `at.copy` of the region
    /// ran as `ev`. Returns where the walk stands next, or `None` once
    /// it left the region (the caller then settles).
    #[inline]
    pub fn walk(&mut self, mut at: Inside, ev: &BlockEvent) -> Option<Inside> {
        debug_assert_eq!(self.regions[at.region].dump.copies[at.copy], ev.pc);
        at.instructions += u64::from(ev.len);
        if self.counts_in_regions() {
            self.count_in_region(ev.pc, ev.exit);
        }
        let column = ev.exit.map_or(u32::MAX, |(slot, _)| slot_column(slot));
        let next = self.regions[at.region].next(at.copy, column);
        if next == EXIT {
            // A halt has no column, so it leaves here too, through no
            // copy.
            let from = ev.exit.map(|_| at.copy);
            self.leave(at.region, from, at.instructions, at.loops);
            return None;
        }
        at.loops += u64::from(next == 0);
        at.copy = next as usize;
        Some(at)
    }

    /// The region dispatched from `pc`, if any, after continuous mode's
    /// staleness check has had its chance to re-form it.
    #[inline]
    pub fn dispatch(&mut self, code: &Code, pc: Pc) -> Option<usize> {
        let ri = self.blocks.get(pc)?.as_ref()?.entry_of?;
        self.maybe_reform(code, ri, pc);
        Some(ri)
    }

    /// After a dispatched block or region: takes the interval snapshot
    /// when due, and the closing one when the guest `halted`.
    #[inline]
    pub fn settle(&mut self, halted: bool) {
        if self.stats.instructions >= self.next_interval_at {
            self.snapshot_interval();
        }
        if halted && self.config.interval.is_some() {
            self.snapshot_interval();
        }
    }

    /// Records the per-branch deltas since the previous snapshot (phase
    /// detection input).
    fn snapshot_interval(&mut self) {
        let mut branches = BTreeMap::new();
        for (pc, entry) in self.blocks.iter().enumerate() {
            let Some(entry) = entry else { continue };
            if entry.record.kind != Some(TermKind::Cond) {
                continue;
            }
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

    /// A profiling-phase block ran: charge its translation on first
    /// sight and its execution, bump its counters unless frozen, and
    /// register it as a candidate at `use == T` (optimizing when the
    /// pool fills or it registers twice).
    #[inline]
    pub fn unopt(&mut self, code: &Code, ev: &BlockEvent) {
        let (pc, len) = (ev.pc, u64::from(ev.len));
        let cost = &self.config.cost;
        let stats = &mut self.stats;
        stats.instructions += len;
        stats.cycles += cost.unopt_exec_per_instr * len + cost.dispatch_cost;
        let entry = match &mut self.blocks[pc] {
            Some(entry) => entry,
            slot @ None => {
                let cached = code[pc].as_ref().expect("executed blocks are decoded");
                stats.blocks_translated += 1;
                stats.cycles += cost.cold_translate_per_instr * len;
                emit(self.tracer, || EventKind::BlockTranslated {
                    pc: pc as u64,
                    len: ev.len,
                });
                slot.insert(Counters::fresh(ev.len, &cached.block.terminator))
            }
        };
        if entry.frozen {
            return;
        }
        count(entry, stats, self.tracer, pc, ev.exit, cost.profile_op_cost);
        if self.config.mode == ProfilingMode::NoOpt {
            return;
        }
        let t = self.config.threshold;
        let (use_count, registered) = (entry.record.use_count, entry.registered);
        if use_count == t && registered == 0 {
            entry.registered = 1;
            self.pool.push(pc);
            self.trace_emit(|| EventKind::Registered {
                pc: pc as u64,
                use_count,
            });
            if self.pool.len() >= self.config.policy.pool_trigger {
                self.run_optimizer(code);
            }
        } else if registered == 1 && use_count == 2 * t {
            // Registered twice: optimize immediately (paper §1).
            entry.registered = 2;
            self.trace_emit(|| EventKind::RegisteredTwice {
                pc: pc as u64,
                use_count,
            });
            self.run_optimizer(code);
        }
    }

    /// Continuous mode's in-region counting: the block at `pc` ran
    /// inside a region and left through `exit`. Counters bump as in
    /// the profiling phase, without the per-counter cycle charge.
    fn count_in_region(&mut self, pc: Pc, exit: Option<(SuccSlot, Pc)>) {
        let entry = self.blocks[pc]
            .as_mut()
            .expect("region members are translated");
        count(entry, &mut self.stats, self.tracer, pc, exit, 0);
    }

    /// Region `ri` is entered; a walk starts at its entry copy.
    pub fn enter(&mut self, ri: usize) -> Inside {
        self.stats.region_entries += 1;
        self.regions[ri].entries += 1;
        self.stats.cycles += self.config.cost.region_entry_cost;
        Inside {
            region: ri,
            copy: 0,
            instructions: 0,
            loops: 0,
        }
    }

    /// The copy that follows copy `cur` of region `ri` through `slot`,
    /// or [`EXIT`] when the edge leaves the region.
    pub fn succ(&self, ri: usize, cur: usize, slot: SuccSlot) -> u32 {
        self.regions[ri].next(cur, slot_column(slot))
    }

    /// Region `ri` is left after `instructions` optimized instructions
    /// and `loops` back-edge traversals: from copy `exit` (a completion
    /// at the tail, a side exit anywhere else), or by halting (`None`).
    pub fn leave(&mut self, ri: usize, exit: Option<usize>, instructions: u64, loops: u64) {
        self.stats.instructions += instructions;
        self.stats.cycles += self.config.cost.opt_exec_per_instr * instructions;
        self.stats.loop_backs += loops;
        let Some(cur) = exit else { return };
        if cur == self.regions[ri].dump.tail {
            self.stats.completions += 1;
        } else {
            self.stats.side_exits += 1;
            self.regions[ri].side_exits += 1;
            self.stats.cycles += self.config.cost.side_exit_penalty;
            self.maybe_retire(ri);
        }
    }

    /// Continuous mode: re-form a region whose entry has doubled its
    /// use count since formation (see [`reform_due`]).
    fn maybe_reform(&mut self, code: &Code, ri: usize, entry_pc: Pc) {
        if self.config.mode != ProfilingMode::Continuous {
            return;
        }
        let current_use = self.blocks[entry_pc]
            .as_ref()
            .map_or(0, |e| e.record.use_count);
        if !reform_due(current_use, self.regions[ri].formed_use) {
            return;
        }
        let src = Source {
            code,
            blocks: &self.blocks,
        };
        if let Some(formed) = form_region(&src, &self.config.policy, entry_pc) {
            self.stats.cycles += self.config.cost.opt_translate_per_instr * formed.total_instrs;
            self.stats.opt_invocations += 1;
            let id = self.regions[ri].dump.id;
            // Re-formation replaces the region's shape and successor
            // table together, in one assignment; continuous regions are
            // walked, so no compiled code can go stale.
            self.regions[ri] = RuntimeRegion::new(formed.into_dump(id), current_use);
            self.trace_emit(|| EventKind::RegionReformed {
                region: id as u64,
                entry_pc: entry_pc as u64,
                use_count: current_use,
            });
        }
    }

    /// Adaptive side-exit monitoring (paper §5): retire a region whose
    /// side-exit rate exceeds the policy bound; its blocks re-profile
    /// from scratch so a fresh region can form for the current phase.
    fn maybe_retire(&mut self, ri: usize) {
        if self.config.mode != ProfilingMode::Adaptive {
            return;
        }
        let adapt = self.config.adapt;
        let region = &self.regions[ri];
        if region.retired
            || region.entries < adapt.min_entries
            || (region.side_exits as f64) < adapt.max_side_exit_rate * region.entries as f64
        {
            return;
        }
        let entry_pc = region.dump.entry_pc();
        let count = self.retire_counts.entry(entry_pc).or_insert(0);
        if *count >= adapt.max_retirements_per_entry {
            return;
        }
        *count += 1;
        self.stats.retirements += 1;
        // Retirement invalidates the region's optimized code: it is
        // never dispatched again once its entry is unlinked below.
        let region = &mut self.regions[ri];
        region.retired = true;
        let (region_id, entries, side_exits) = (region.dump.id, region.entries, region.side_exits);
        let copies = region.dump.copies.clone();
        self.trace_emit(|| EventKind::RegionRetired {
            region: region_id as u64,
            entry_pc: entry_pc as u64,
            entries,
            side_exits,
        });
        if let Some(e) = self.blocks[entry_pc].as_mut() {
            e.entry_of = None;
        }
        // Reset and unfreeze members that no live region still uses.
        let still_used: BTreeSet<Pc> = self
            .regions
            .iter()
            .filter(|r| !r.retired)
            .flat_map(|r| r.dump.copies.iter().copied())
            .collect();
        for pc in copies {
            if still_used.contains(&pc) {
                continue;
            }
            if let Some(e) = self.blocks[pc].as_mut() {
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
    fn run_optimizer(&mut self, code: &Code) {
        self.stats.opt_invocations += 1;
        let mut candidates: Vec<Pc> = std::mem::take(&mut self.pool);
        candidates.sort_by_key(|&pc| {
            std::cmp::Reverse(self.blocks[pc].as_ref().map_or(0, |e| e.record.use_count))
        });
        for seed in candidates {
            let entry = self.blocks[seed]
                .as_ref()
                .expect("pooled blocks are translated");
            if entry.entry_of.is_some() || (entry.frozen && self.freezes()) {
                continue;
            }
            let src = Source {
                code,
                blocks: &self.blocks,
            };
            let Some(formed) = form_region(&src, &self.config.policy, seed) else {
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
        let formed_use = self.counters(seed).record.use_count;
        let region = RuntimeRegion::new(formed.into_dump(id), formed_use);
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
                let Some(e) = self.blocks[pc].as_mut() else {
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
        self.counters(seed).entry_of = Some(id);
        self.regions.push(region);
    }

    /// The run's outcome: the profile dump of a program entered at
    /// `entry`, the guest's `output`, stats and interval snapshots.
    pub fn into_outcome(self, entry: Pc, output: Vec<i64>) -> RunOutcome {
        let blocks = self
            .blocks
            .into_iter()
            .enumerate()
            .filter_map(|(pc, e)| Some((pc, e?.record)))
            .filter(|(_, record)| record.use_count > 0)
            .collect();
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
            entry,
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
