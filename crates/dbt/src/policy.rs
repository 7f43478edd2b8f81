//! The translation policy: everything a run decides and accounts for
//! over the executor's [`BlockEvent`]s. That is the profile counters,
//! the candidate pool and registration, region formation and
//! freezing, regions as automata over block events, continuous-mode
//! re-formation, adaptive retirement, interval snapshots, the cost
//! model and [`ExecStats`].
//!
//! A policy never runs guest code and holds no executor code. Its
//! counters are flat ([`Profile`]): one [`Counters`] per block and one
//! count per edge, indexed by the executor's block and edge ids, plus
//! each block's edges in order of first count. A [`BlockRecord`] is
//! built from them only where one is read: by region formation, by an
//! interval snapshot and by the final dump.
//!
//! A policy sees a region run in one of two ways:
//!
//! * **Walked**: [`Policy::consume`] walks the region's automaton over
//!   a chunk of block events in one loop ([`Policy::walk`]), one step
//!   per copy, with the instruction and loop-back totals in locals
//!   until the region is left. Lockstep runs and every single run
//!   that compiles no trace walk this way.
//! * **Traced**: a single run's guarded compiled trace
//!   ([`crate::exec::Executor::run_trace`]) runs the whole region and
//!   reports its exit ([`Policy::leave`]).
//!
//! Both reach the same state: a trace and the automaton follow the
//! same edge table and account each copy identically.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use tpdbt_isa::{Pc, Terminator};
use tpdbt_profile::{
    BlockRecord, InipDump, IntervalProfile, RegionDump, RegionEdge, RegionKind, TermKind,
};
use tpdbt_trace::{EventKind, TraceRegionKind, Tracer};

use crate::config::{DbtConfig, ProfilingMode};
use crate::engine::RunOutcome;
use crate::exec::{slot_column, BlockEvent, Code, EdgeId, TAKEN};
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

/// One translated block's live profile state; its edge counts live in
/// [`Profile`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Counters {
    /// The paper's `use` count.
    pub use_count: u64,
    len: u32,
    /// Region dispatched from this block, if it is a region entry.
    pub entry_of: Option<u32>,
    frozen: bool,
    /// 0 = unregistered, 1 = registered at `use == T`,
    /// 2 = registered twice (`use == 2T`).
    registered: u8,
}

// The walk and the profiling phase touch one of these per event and
// policy; keep them to three words.
const _: () = assert!(std::mem::size_of::<Counters>() == 24);

/// A policy's counters, flat, by the executor's block and edge ids.
///
/// Every policy profiles a block on its first execution, and blocks
/// are numbered in first-execution order, so the ids below
/// `blocks.len()` are exactly the blocks this policy has translated. A
/// lockstep executor may have run ahead of the policy and numbered
/// more; those are not this policy's yet.
#[derive(Debug, Default)]
pub(crate) struct Profile {
    pub blocks: Vec<Counters>,
    /// Counts by edge id; grows as the executor numbers new edges.
    edges: Vec<u64>,
    /// Per block, the edges counted since its last reset, in order of
    /// first count: the order of [`BlockRecord::edges`].
    seen: Vec<Vec<EdgeId>>,
}

impl Profile {
    /// The id of the block at `pc`, if this policy has translated it.
    pub fn id_of(&self, code: &Code, pc: Pc) -> Option<usize> {
        code.id_of(pc).filter(|&id| id < self.blocks.len())
    }

    /// Block `id`'s profile record.
    fn record(&self, code: &Code, id: usize) -> BlockRecord {
        let c = &self.blocks[id];
        let edges = self.seen[id]
            .iter()
            .map(|&e| {
                let (slot, target) = code.edges[e as usize];
                (slot, target, self.edges[e as usize])
            })
            .collect();
        BlockRecord {
            len: c.len,
            kind: Some(term_kind(&code.blocks[id].block.terminator)),
            use_count: c.use_count,
            edges,
        }
    }

    /// Zeroes block `id`'s counters and unfreezes it, as adaptive
    /// retirement does.
    fn reset(&mut self, id: usize) {
        let c = &mut self.blocks[id];
        c.frozen = false;
        c.registered = 0;
        c.use_count = 0;
        for e in self.seen[id].drain(..) {
            self.edges[e as usize] = 0;
        }
    }
}

/// Counts one execution of `ev`'s block unless its counters are
/// frozen: its `use` count and the edge it left through. Returns the
/// new use count, the registration state and the profiling ops (the
/// paper's `taken` counter is an op only on a conditional taken edge),
/// or `None` when frozen; the caller charges the ops, so each event
/// updates each [`ExecStats`] field once.
#[inline(always)]
fn count(
    profile: &mut Profile,
    tracer: Option<&Tracer>,
    code: &Code,
    ev: &BlockEvent,
) -> Option<(u64, u8, u64)> {
    let id = ev.block as usize;
    let c = &mut profile.blocks[id];
    if c.frozen {
        return None;
    }
    c.use_count += 1;
    let (use_count, registered) = (c.use_count, c.registered);
    let mut ops = 1;
    if !ev.halted() {
        let n = match profile.edges.get_mut(ev.edge as usize) {
            Some(n) => n,
            None => grow(&mut profile.edges, code, ev.edge),
        };
        if *n == 0 {
            profile.seen[id].push(ev.edge);
        }
        *n += 1;
        ops += u64::from(ev.column == TAKEN);
    }
    emit(tracer, || EventKind::CounterBump {
        pc: code.pc_of(id) as u64,
        use_count,
    });
    Some((use_count, registered, ops))
}

/// The count of edge `e` in `counts`, which were sized before the
/// executor numbered `e`.
#[cold]
#[inline(never)]
fn grow<'a>(counts: &'a mut Vec<u64>, code: &Code, e: EdgeId) -> &'a mut u64 {
    counts.resize(code.edges.len().max(e as usize + 1), 0);
    &mut counts[e as usize]
}

/// A formed region.
#[derive(Debug)]
pub(crate) struct RuntimeRegion {
    /// Successor table, one row of `width` [`slot_column`]s per copy:
    /// the next copy, or [`EXIT`]. A column past the row exits too.
    succ: Box<[u32]>,
    width: usize,
    /// The tail copy: leaving from it completes the region.
    tail: usize,
    /// Region entries since formation (adaptive monitoring).
    entries: u64,
    /// Side exits since formation (adaptive monitoring).
    side_exits: u64,
    /// Entry-block use count at formation time (continuous-mode
    /// staleness check).
    pub formed_use: u64,
    /// Retired by adaptive monitoring: never dispatched again and
    /// excluded from the final dump.
    pub retired: bool,
    /// The region's shape, as dumped; the walk reads only the fields
    /// above.
    pub dump: RegionDump,
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
            succ,
            width,
            tail: dump.tail,
            entries: 0,
            side_exits: 0,
            formed_use,
            retired: false,
            dump,
        }
    }

    /// The copy that follows copy `cur` through the slot in `column`,
    /// or [`EXIT`].
    #[inline(always)]
    fn next(&self, cur: usize, column: u32) -> u32 {
        let column = column as usize;
        if column < self.width {
            self.succ[cur * self.width + column]
        } else {
            EXIT
        }
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

/// Region formation's view of a policy: its own counters over the
/// executor's decoded blocks, limited to the blocks this policy has
/// translated.
struct Source<'a> {
    code: &'a Code,
    profile: &'a Profile,
}

impl BlockSource for Source<'_> {
    fn terminator(&self, pc: Pc) -> Option<&Terminator> {
        let id = self.profile.id_of(self.code, pc)?;
        Some(&self.code.blocks[id].block.terminator)
    }
    fn record(&self, pc: Pc) -> Option<Cow<'_, BlockRecord>> {
        let id = self.profile.id_of(self.code, pc)?;
        Some(Cow::Owned(self.profile.record(self.code, id)))
    }
    fn block_len(&self, pc: Pc) -> Option<u32> {
        let id = self.profile.id_of(self.code, pc)?;
        Some(self.profile.blocks[id].len)
    }
}

/// One run's translation policy.
pub(crate) struct Policy<'t> {
    config: DbtConfig,
    tracer: Option<&'t Tracer>,
    pub profile: Profile,
    pub regions: Vec<RuntimeRegion>,
    /// Registered candidates, by block id.
    pool: Vec<usize>,
    pub stats: ExecStats,
    intervals: Vec<IntervalProfile>,
    /// Each block's `(use, taken)` at the previous snapshot, by id.
    last_snapshot: Vec<(u64, u64)>,
    next_interval_at: u64,
    retire_counts: BTreeMap<Pc, u32>,
    /// The region a chunk ended inside, if any: the next chunk's walk
    /// resumes here.
    inside: Option<Inside>,
}

impl<'t> Policy<'t> {
    /// A policy with nothing translated.
    pub fn new(config: DbtConfig, tracer: Option<&'t Tracer>) -> Self {
        Policy {
            config,
            tracer,
            profile: Profile::default(),
            regions: Vec::new(),
            pool: Vec::new(),
            stats: ExecStats::default(),
            intervals: Vec::new(),
            last_snapshot: Vec::new(),
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

    /// Feeds a chunk of block events to the policy: each event is
    /// dispatched and either runs in the profiling phase or enters a
    /// region, which [`Policy::walk`] follows over the events after it.
    pub fn consume(&mut self, code: &Code, events: &[BlockEvent]) {
        let mut rest = events;
        let mut inside = self.inside.take();
        loop {
            if let Some(at) = inside.take() {
                rest = self.walk(code, at, rest);
            }
            let Some((ev, tail)) = rest.split_first() else {
                return;
            };
            match self.dispatch(code, ev.block as usize) {
                Some(ri) => inside = Some(self.enter(ri)),
                None => {
                    self.unopt(code, ev);
                    self.settle(code, ev.halted());
                    rest = tail;
                }
            }
        }
    }

    /// The region automaton over a run of block events: copy `at.copy`
    /// of the region ran as `events[0]`, the next copy as `events[1]`,
    /// and so on until an event leaves the region, which is then left
    /// and settled. The instruction and loop-back totals stay in locals
    /// until then. Returns the events after the exit; when the events
    /// run out inside the region, the walk resumes from there with the
    /// next chunk.
    // Out of line: inlined into `consume`, it costs the profiling-phase
    // path registers and measured slower.
    #[inline(never)]
    fn walk<'e>(&mut self, code: &Code, at: Inside, events: &'e [BlockEvent]) -> &'e [BlockEvent] {
        let counting = self.counts_in_regions();
        let Inside {
            region: ri,
            mut copy,
            mut instructions,
            mut loops,
        } = at;
        let Policy {
            regions,
            profile,
            stats,
            tracer,
            ..
        } = self;
        let region = &regions[ri];
        for (n, ev) in events.iter().enumerate() {
            debug_assert_eq!(region.dump.copies[copy], code.pc_of(ev.block as usize));
            instructions += u64::from(ev.len);
            if counting {
                if let Some((_, _, ops)) = count(profile, *tracer, code, ev) {
                    stats.profiling_ops += ops;
                }
            }
            let next = region.next(copy, ev.column);
            if next == EXIT {
                // A halt has no column, so it leaves here too, through
                // no copy.
                let from = (!ev.halted()).then_some(copy);
                self.leave(code, ri, from, instructions, loops);
                self.settle(code, ev.halted());
                return &events[n + 1..];
            }
            loops += u64::from(next == 0);
            copy = next as usize;
        }
        self.inside = Some(Inside {
            region: ri,
            copy,
            instructions,
            loops,
        });
        &[]
    }

    /// The region dispatched from block `id`, if any, after continuous
    /// mode's staleness check has had its chance to re-form it.
    #[inline(always)]
    pub fn dispatch(&mut self, code: &Code, id: usize) -> Option<usize> {
        let ri = self.profile.blocks.get(id)?.entry_of? as usize;
        if self.config.mode == ProfilingMode::Continuous {
            self.maybe_reform(code, ri, id);
        }
        Some(ri)
    }

    /// After a dispatched block or region: takes the interval snapshot
    /// when due, and the closing one when the guest `halted`.
    #[inline(always)]
    pub fn settle(&mut self, code: &Code, halted: bool) {
        if self.stats.instructions >= self.next_interval_at {
            self.snapshot_interval(code);
        }
        if halted && self.config.interval.is_some() {
            self.snapshot_interval(code);
        }
    }

    /// Records the per-branch deltas since the previous snapshot (phase
    /// detection input).
    fn snapshot_interval(&mut self, code: &Code) {
        let mut branches = BTreeMap::new();
        let profile = &self.profile;
        self.last_snapshot.resize(profile.blocks.len(), (0, 0));
        for (id, c) in profile.blocks.iter().enumerate() {
            let Some(taken) = code.blocks[id].taken_edge() else {
                continue;
            };
            let taken = profile.edges.get(taken as usize).copied().unwrap_or(0);
            let now = (c.use_count, taken);
            let prev = std::mem::replace(&mut self.last_snapshot[id], now);
            let delta = (now.0 - prev.0, now.1 - prev.1);
            if delta.0 > 0 {
                branches.insert(code.pc_of(id), delta);
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
    #[inline(always)]
    pub fn unopt(&mut self, code: &Code, ev: &BlockEvent) {
        let len = u64::from(ev.len);
        let cost = &self.config.cost;
        let cycles = cost.unopt_exec_per_instr * len + cost.dispatch_cost;
        self.stats.instructions += len;
        let id = ev.block as usize;
        if id == self.profile.blocks.len() {
            self.translate(code, ev);
        }
        let Some((use_count, registered, ops)) = count(&mut self.profile, self.tracer, code, ev)
        else {
            self.stats.cycles += cycles;
            return;
        };
        self.stats.profiling_ops += ops;
        self.stats.cycles += cycles + self.config.cost.profile_op_cost * ops;
        if self.config.mode == ProfilingMode::NoOpt {
            return;
        }
        let t = self.config.threshold;
        if use_count == t && registered == 0 {
            self.profile.blocks[id].registered = 1;
            self.pool.push(id);
            let pc = code.pc_of(id);
            self.trace_emit(|| EventKind::Registered {
                pc: pc as u64,
                use_count,
            });
            if self.pool.len() >= self.config.policy.pool_trigger {
                self.run_optimizer(code);
            }
        } else if registered == 1 && use_count == 2 * t {
            // Registered twice: optimize immediately (paper §1).
            self.profile.blocks[id].registered = 2;
            let pc = code.pc_of(id);
            self.trace_emit(|| EventKind::RegisteredTwice {
                pc: pc as u64,
                use_count,
            });
            self.run_optimizer(code);
        }
    }

    /// The first execution of `ev`'s block: charge its fast
    /// translation and give it zeroed counters.
    #[cold]
    #[inline(never)]
    fn translate(&mut self, code: &Code, ev: &BlockEvent) {
        self.stats.blocks_translated += 1;
        self.stats.cycles += self.config.cost.cold_translate_per_instr * u64::from(ev.len);
        let pc = code.pc_of(ev.block as usize);
        self.trace_emit(|| EventKind::BlockTranslated {
            pc: pc as u64,
            len: ev.len,
        });
        self.profile.blocks.push(Counters {
            use_count: 0,
            len: ev.len,
            entry_of: None,
            frozen: false,
            registered: 0,
        });
        self.profile.seen.push(Vec::new());
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

    /// The copy that follows copy `cur` of region `ri` through the
    /// successor slot in `column`, or [`EXIT`] when the edge leaves
    /// the region.
    pub fn succ(&self, ri: usize, cur: usize, column: u32) -> u32 {
        self.regions[ri].next(cur, column)
    }

    /// Region `ri` is left after `instructions` optimized instructions
    /// and `loops` back-edge traversals: from copy `exit` (a completion
    /// at the tail, a side exit anywhere else), or by halting (`None`).
    pub fn leave(
        &mut self,
        code: &Code,
        ri: usize,
        exit: Option<usize>,
        instructions: u64,
        loops: u64,
    ) {
        self.stats.instructions += instructions;
        self.stats.cycles += self.config.cost.opt_exec_per_instr * instructions;
        self.stats.loop_backs += loops;
        let Some(cur) = exit else { return };
        let region = &mut self.regions[ri];
        if cur == region.tail {
            self.stats.completions += 1;
        } else {
            self.stats.side_exits += 1;
            region.side_exits += 1;
            self.stats.cycles += self.config.cost.side_exit_penalty;
            if self.config.mode == ProfilingMode::Adaptive {
                self.maybe_retire(code, ri);
            }
        }
    }

    /// Continuous mode: re-form a region whose entry block `id` has
    /// doubled its use count since formation (see [`reform_due`]).
    fn maybe_reform(&mut self, code: &Code, ri: usize, id: usize) {
        let current_use = self.profile.blocks[id].use_count;
        if !reform_due(current_use, self.regions[ri].formed_use) {
            return;
        }
        let entry_pc = code.pc_of(id);
        let src = Source {
            code,
            profile: &self.profile,
        };
        if let Some(formed) = form_region(&src, &self.config.policy, entry_pc) {
            self.stats.cycles += self.config.cost.opt_translate_per_instr * formed.total_instrs;
            self.stats.opt_invocations += 1;
            let region_id = self.regions[ri].dump.id;
            // Re-formation replaces the region's shape and successor
            // table together, in one assignment; continuous regions are
            // walked, so no compiled code can go stale.
            self.regions[ri] = RuntimeRegion::new(formed.into_dump(region_id), current_use);
            self.trace_emit(|| EventKind::RegionReformed {
                region: region_id as u64,
                entry_pc: entry_pc as u64,
                use_count: current_use,
            });
        }
    }

    /// Adaptive side-exit monitoring (paper §5): retire a region whose
    /// side-exit rate exceeds the policy bound; its blocks re-profile
    /// from scratch so a fresh region can form for the current phase.
    fn maybe_retire(&mut self, code: &Code, ri: usize) {
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
        if let Some(id) = self.profile.id_of(code, entry_pc) {
            self.profile.blocks[id].entry_of = None;
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
            if let Some(id) = self.profile.id_of(code, pc) {
                self.profile.reset(id);
            }
        }
    }

    /// The optimization phase: retranslate the candidate pool into
    /// regions, hottest seed first. A seed that became a region's entry,
    /// or was swallowed by another region (its counters froze), seeds
    /// nothing; continuous mode may re-seed.
    fn run_optimizer(&mut self, code: &Code) {
        self.stats.opt_invocations += 1;
        let mut candidates = std::mem::take(&mut self.pool);
        candidates.sort_by_key(|&id| Reverse(self.profile.blocks[id].use_count));
        for seed in candidates {
            let c = &self.profile.blocks[seed];
            if c.entry_of.is_some() || (c.frozen && self.freezes()) {
                continue;
            }
            let src = Source {
                code,
                profile: &self.profile,
            };
            let Some(formed) = form_region(&src, &self.config.policy, code.pc_of(seed)) else {
                continue;
            };
            self.stats.cycles += self.config.cost.opt_translate_per_instr * formed.total_instrs;
            self.install(code, seed, formed);
        }
    }

    /// Installs `formed` as a new region dispatched from block `seed`.
    fn install(&mut self, code: &Code, seed: usize, formed: FormedRegion) {
        self.stats.regions_formed += 1;
        let ri = self.regions.len();
        let formed_use = self.profile.blocks[seed].use_count;
        let region = RuntimeRegion::new(formed.into_dump(ri), formed_use);
        self.trace_emit(|| EventKind::RegionFormed {
            region: ri as u64,
            entry_pc: code.pc_of(seed) as u64,
            blocks: region.dump.copies.len() as u32,
            kind: trace_region_kind(region.dump.kind),
        });
        // Freeze every member: optimized code is not instrumented
        // (two-phase semantics; continuous mode keeps counting).
        if self.freezes() {
            let tracer = self.tracer;
            for &pc in &region.dump.copies {
                let Some(id) = self.profile.id_of(code, pc) else {
                    continue;
                };
                let c = &mut self.profile.blocks[id];
                if c.frozen {
                    continue;
                }
                c.frozen = true;
                let (use_count, registered) = (c.use_count, c.registered);
                emit(tracer, || EventKind::CounterFrozen {
                    pc: pc as u64,
                    use_count,
                    registered,
                });
            }
        }
        self.profile.blocks[seed].entry_of = u32::try_from(ri).ok();
        self.regions.push(region);
    }

    /// The run's outcome: the profile dump of a program entered at
    /// `entry`, the guest's `output`, stats and interval snapshots.
    pub fn into_outcome(self, code: &Code, entry: Pc, output: Vec<i64>) -> RunOutcome {
        let profile = &self.profile;
        let blocks = (0..profile.blocks.len())
            .filter(|&id| profile.blocks[id].use_count > 0)
            .map(|id| (code.pc_of(id), profile.record(code, id)))
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
