//! The translation policy: everything a run decides and accounts for
//! over the executor's [`BlockEvent`]s. That is the profile counters,
//! the candidate pool and registration, region formation and
//! freezing, regions as automata over block events, continuous-mode
//! re-formation, adaptive retirement, interval snapshots and the
//! [`ExecStats`] counts that [`CostModel::price`] prices.
//!
//! A policy never runs guest code and holds no executor code. Its
//! counters are flat ([`Profile`]): one [`Counters`] per block and one
//! count per edge, indexed by the executor's block and edge ids, plus
//! each block's edges in order of first count. A [`BlockRecord`] is
//! built from them only where one is read: by region formation, by an
//! interval snapshot and by the final dump.
//!
//! The profiling phase is one loop, [`Policy::profile`], over an event
//! source ([`Events`]): a lockstep chunk the executor already ran, or
//! a single run's executor stepped block by block. Between region
//! entries it counts events with the stats it bumps held in locals; an
//! event that is its block's first sight or registers it takes the
//! cold path ([`Policy::unopt`]), and a halt or an interval boundary
//! settles.
//!
//! Its live regions share one flat successor table ([`Table`]): a row
//! per region copy, a cell per successor column, each cell naming the
//! next copy's row or how the region is left, and an entry row by
//! block id. The table is rebuilt only when the region set changes:
//! at an install that does not fit its stride, a continuous-mode
//! re-formation and an adaptive retirement.
//!
//! A policy sees a region run in one of two ways:
//!
//! * **Walked**: [`Policy::consume`] steps through the table over a
//!   chunk of block events in one loop, with instructions, loop-backs,
//!   entries, completions and side exits in locals until the walk
//!   stops. In two-phase mode a region exit whose next event enters a
//!   region chains straight into it; an exit that needs policy logic
//!   (adaptive monitoring, continuous re-formation, an interval
//!   boundary, a halt) or leads to the profiling phase stops the walk.
//!   Lockstep runs and every single run that compiles no trace walk
//!   this way.
//! * **Traced**: a single run's guarded compiled trace
//!   ([`crate::exec::Executor::run_trace`]) runs the whole region,
//!   reads the table through [`Policy::succ`] where a guard cannot
//!   decide, and reports its exit ([`Policy::leave`]).
//!
//! Both reach the same state: a trace and the walk follow the same
//! table and account each copy identically.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use tpdbt_isa::{Pc, Terminator};
use tpdbt_profile::{BlockRecord, InipDump, IntervalProfile, RegionDump, RegionKind, TermKind};
use tpdbt_trace::{EventKind, TraceRegionKind, Tracer};

use crate::config::{CostModel, DbtConfig, ProfilingMode};
use crate::engine::RunOutcome;
use crate::exec::{slot_column, BlockEvent, Code, EdgeId, TAKEN};
use crate::region::{form_region, BlockSource, FormedRegion};
use crate::trace::EXIT;

/// Aggregate statistics of a translated run: the events it counted,
/// which [`CostModel::price`] turns into simulated cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamic guest instructions executed.
    pub instructions: u64,
    /// Of `instructions`, those run inside optimized regions.
    pub region_instructions: u64,
    /// Profiling-phase block dispatches (blocks run outside a region).
    pub unopt_dispatches: u64,
    /// Profiling operations (use + taken counter increments) — the
    /// paper's Figure 18 quantity.
    pub profiling_ops: u64,
    /// Of `profiling_ops`, those counted inside regions (continuous mode).
    pub region_profiling_ops: u64,
    /// Distinct blocks fast-translated.
    pub blocks_translated: u64,
    /// Instructions of the fast-translated blocks, each counted once.
    pub cold_instructions: u64,
    /// Regions formed by the optimization phase.
    pub regions_formed: u64,
    /// Instructions of region code formed, re-formations included.
    pub retranslated_instructions: u64,
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
    /// The entry row of the region dispatched from this block, or
    /// [`NO_ENTRY`]: the policy's entry index, kept beside the counters
    /// the profiling phase touches anyway.
    entry: u32,
    frozen: bool,
    /// 0 = unregistered, 1 = registered at `use == T`,
    /// 2 = registered twice (`use == 2T`).
    registered: u8,
}

// The profiling phase touches one of these per event and policy; keep
// them to two words.
const _: () = assert!(std::mem::size_of::<Counters>() == 16);

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
            len: code.blocks[id].len,
            kind: Some(term_kind(&code.blocks[id].block.terminator)),
            use_count: c.use_count,
            edges,
        }
    }

    /// The entry row of the region dispatched from block `id`, if any.
    #[inline(always)]
    fn entry(&self, id: usize) -> Option<u32> {
        let row = self.blocks.get(id)?.entry;
        (row != NO_ENTRY).then_some(row)
    }

    /// Block `id`'s `(use, taken)` counts, when it ends in a
    /// conditional branch: what an interval snapshot records.
    fn branch_counts(&self, code: &Code, id: usize) -> Option<(u64, u64)> {
        let taken = code.blocks[id].taken_edge()?;
        let taken = self.edges.get(taken as usize).copied().unwrap_or(0);
        Some((self.blocks[id].use_count, taken))
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
/// frozen: its `use` count and the edge it left through, and the bump
/// in `bumps` when the run is traced. Returns the new use count, the
/// registration state and the profiling ops, or `None` when frozen;
/// the caller adds the ops, so each event updates each [`ExecStats`]
/// field once.
#[inline(always)]
fn count(
    profile: &mut Profile,
    bumps: &mut Option<u64>,
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
    let ops = 1 + count_edge(&mut profile.edges, &mut profile.seen, code, ev);
    if let Some(n) = bumps {
        *n += 1;
    }
    Some((use_count, registered, ops))
}

/// Counts the edge `ev`'s block left through, in `edges` by edge id
/// and, on its first count, in the block's `seen` order. Returns the
/// profiling ops beyond `use`: the paper's `taken` counter is an op
/// only on a conditional taken edge.
#[inline(always)]
fn count_edge(edges: &mut Vec<u64>, seen: &mut [Vec<EdgeId>], code: &Code, ev: &BlockEvent) -> u64 {
    if ev.halted() {
        return 0;
    }
    let n = match edges.get_mut(ev.edge as usize) {
        Some(n) => n,
        None => grow(edges, code, ev.edge),
    };
    if *n == 0 {
        seen[ev.block as usize].push(ev.edge);
    }
    *n += 1;
    u64::from(ev.column == TAKEN)
}

/// The count of edge `e` in `counts`, which were sized before the
/// executor numbered `e`.
#[cold]
#[inline(never)]
fn grow<'a>(counts: &'a mut Vec<u64>, code: &Code, e: EdgeId) -> &'a mut u64 {
    counts.resize(code.edges.len().max(e as usize + 1), 0);
    &mut counts[e as usize]
}

/// Where the profiling phase's block events come from: a chunk the
/// executor already ran ([`Chunk`]), or the executor itself, stepped
/// one block at a time ([`crate::exec::Steps`]).
pub(crate) trait Events {
    /// Why taking an event can fail.
    type Error;
    /// The code the events' ids number.
    fn code(&self) -> &Code;
    /// The block id of the next event, or `None` when there is none. A
    /// block the executor has not translated yet reads as an id past
    /// every policy's blocks.
    fn peek(&mut self) -> Option<usize>;
    /// Takes the event [`Events::peek`] announced.
    fn take(&mut self) -> Result<BlockEvent, Self::Error>;
}

/// A chunk's events from the first not yet taken.
struct Chunk<'a> {
    code: &'a Code,
    events: &'a [BlockEvent],
    taken: usize,
}

impl Events for Chunk<'_> {
    type Error = std::convert::Infallible;

    #[inline(always)]
    fn code(&self) -> &Code {
        self.code
    }

    #[inline(always)]
    fn peek(&mut self) -> Option<usize> {
        self.events.get(self.taken).map(|ev| ev.block as usize)
    }

    #[inline(always)]
    fn take(&mut self) -> Result<BlockEvent, Self::Error> {
        let ev = self.events[self.taken];
        self.taken += 1;
        Ok(ev)
    }
}

/// Why [`Policy::profile`]'s loop stopped.
enum Stop<E> {
    /// The next event enters a region, or there is none.
    Out,
    /// The next event needs [`Policy::unopt`].
    Slow,
    /// An event halted the guest (`true`) or reached an interval
    /// boundary.
    Settle(bool),
    /// Taking the next event failed.
    Trap(E),
}

/// A formed region.
#[derive(Debug)]
pub(crate) struct RuntimeRegion {
    /// The offset of the entry copy's row in the policy's [`Table`]
    /// while the region is live.
    row: u32,
    /// The block the region is dispatched from.
    entry: usize,
    /// Region entries since formation, counted in adaptive mode only,
    /// where monitoring reads them (and where the walk never chains).
    entries: u64,
    /// Side exits since formation, counted as `entries` is.
    side_exits: u64,
    /// Entry-block use count at formation time (continuous-mode
    /// staleness check).
    pub formed_use: u64,
    /// Retired by adaptive monitoring: never dispatched again and
    /// excluded from the final dump.
    pub retired: bool,
    /// The region's shape, as dumped; the table is built from it.
    pub dump: RegionDump,
}

impl RuntimeRegion {
    /// Region `dump`, dispatched from block `entry`; it gets its rows
    /// when it is linked into the table.
    fn new(dump: RegionDump, entry: usize, formed_use: u64) -> Self {
        RuntimeRegion {
            row: 0,
            entry,
            entries: 0,
            side_exits: 0,
            formed_use,
            retired: false,
            dump,
        }
    }
}

/// Set in a successor-table cell that leaves the region. A cell
/// without it is the next copy's row offset: internal, or a loop-back
/// when it is the region's entry row.
const LEAVES: u32 = 1 << 31;
/// Set beside [`LEAVES`] in a side-exit cell, clear in a completion.
const SIDE: u32 = 1 << 30;
/// The region index in the low bits of an exit cell.
const REGION: u32 = SIDE - 1;

/// The entry row of a block no region is dispatched from.
const NO_ENTRY: u32 = u32::MAX;

/// The successor table of every live region, flat.
///
/// Each copy of each live region is a row of `1 << shift` cells, a
/// region's copies in order; a row is named by its offset, the index
/// of its first cell. An internal or loop-back cell holds the next
/// copy's row offset as is, so the walk's next index is one load away;
/// an exit cell holds [`LEAVES`], [`SIDE`] unless it completes, and
/// the region's index. Row column [`slot_column`] holds the cell of
/// that successor slot, and every column without a region edge holds
/// the row's exit cell: a completion at the region's tail copy, a side
/// exit anywhere else. The last column never holds an edge, so a
/// column past the row reads the exit cell there, a halt's
/// ([`crate::exec::HALT`]) too. Each region's entry row is kept by
/// block id in [`Counters::entry`].
#[derive(Debug, Default)]
struct Table {
    cells: Vec<u32>,
    shift: u32,
}

impl Table {
    /// The cell of row `row` in column `column`.
    #[inline(always)]
    fn cell(&self, row: u32, column: u32) -> u32 {
        let last = (1 << self.shift) - 1;
        self.cells[(row + column.min(last)) as usize]
    }

    /// The index of the region row `row` belongs to, read from the
    /// row's exit cell.
    fn region(&self, row: u32) -> usize {
        (self.cell(row, u32::MAX) & REGION) as usize
    }

    /// Appends the rows of region `ri`, shaped `dump`; returns its
    /// entry row. The region must fit the stride: `shift_for(dump) <=
    /// self.shift`.
    ///
    /// # Panics
    ///
    /// Panics when a row offset would reach [`LEAVES`] (8 GiB of table)
    /// or the region index [`SIDE`].
    fn push(&mut self, ri: usize, dump: &RegionDump) -> u32 {
        debug_assert!(shift_for(dump) <= self.shift);
        let base = self.cells.len();
        let end = base + (dump.copies.len() << self.shift);
        assert!(
            end <= LEAVES as usize && ri <= REGION as usize,
            "successor table past {LEAVES} cells or {REGION} regions"
        );
        let row = |copy: usize| (base + (copy << self.shift)) as u32;
        let exit = |copy: usize| {
            let side = if copy == dump.tail { 0 } else { SIDE };
            LEAVES | side | ri as u32
        };
        self.cells.extend(
            (0..dump.copies.len())
                .flat_map(|copy| std::iter::repeat_n(exit(copy), 1 << self.shift)),
        );
        for e in &dump.edges {
            self.cells[(row(e.from) + slot_column(e.slot)) as usize] = row(e.to);
        }
        row(0)
    }
}

/// The smallest stride shift that fits `dump`'s successor columns with
/// one column to spare for the exit cell.
fn shift_for(dump: &RegionDump) -> u32 {
    let columns = dump
        .edges
        .iter()
        .map(|e| u64::from(slot_column(e.slot)) + 2)
        .max()
        .unwrap_or(1);
    columns.next_power_of_two().trailing_zeros()
}

/// How control left a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Exit {
    /// From the tail copy.
    Completion,
    /// From any other copy.
    Side,
    /// The guest halted inside the region.
    Halt,
}

/// Region totals that a walk or a trace keeps in locals and that reach
/// [`ExecStats`] at once.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Totals {
    instructions: u64,
    loops: u64,
    entries: u64,
    completions: u64,
    side_exits: u64,
}

impl Totals {
    /// One region run's optimized instructions and back-edge
    /// traversals, its entry already counted.
    pub fn new(instructions: u64, loops: u64) -> Self {
        Totals {
            instructions,
            loops,
            ..Totals::default()
        }
    }

    /// A walk's totals: `chained` entries, each after an exit from the
    /// region before, `chained_side` of those exits side exits.
    #[inline(always)]
    fn walked(instructions: u64, loops: u64, chained: u64, chained_side: u64) -> Self {
        Totals {
            instructions,
            loops,
            entries: chained,
            completions: chained - chained_side,
            side_exits: chained_side,
        }
    }

    /// Counts a region left through `exit`.
    #[inline(always)]
    fn left(&mut self, exit: Exit) {
        match exit {
            Exit::Completion => self.completions += 1,
            Exit::Side => self.side_exits += 1,
            Exit::Halt => {}
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
        Some(self.code.blocks[id].len)
    }
}

/// One run's translation policy.
pub(crate) struct Policy<'t> {
    config: DbtConfig,
    tracer: Option<&'t Tracer>,
    /// Counter bumps so far, tallied only when a tracer is attached;
    /// the tracer's `counter_bump` total gets them when the policy is
    /// dropped, whether its run halted or trapped.
    bumps: Option<u64>,
    pub profile: Profile,
    pub regions: Vec<RuntimeRegion>,
    /// The live regions' successor table.
    table: Table,
    /// Registered candidates, by block id.
    pool: Vec<usize>,
    pub stats: ExecStats,
    intervals: Vec<IntervalProfile>,
    /// Each block's interval baseline, by id.
    baselines: Vec<Baseline>,
    next_interval_at: u64,
    retire_counts: BTreeMap<Pc, u32>,
    /// The row a chunk ended inside, if any, and its region's entry
    /// row: the next chunk's walk resumes there.
    inside: Option<(u32, u32)>,
}

/// A block's interval baseline: its `(use, taken)` counts at the
/// previous snapshot, and what it counted after that snapshot but
/// before an adaptive reset zeroed its counters. A snapshot's delta is
/// `now - at + carried`: the executions the block profiled in the
/// interval, whether or not its counters were reset in between.
#[derive(Clone, Copy, Debug, Default)]
struct Baseline {
    at: (u64, u64),
    carried: (u64, u64),
}

impl<'t> Policy<'t> {
    /// A policy with nothing translated.
    pub fn new(config: DbtConfig, tracer: Option<&'t Tracer>) -> Self {
        Policy {
            config,
            tracer,
            bumps: tracer.map(|_| 0),
            profile: Profile::default(),
            regions: Vec::new(),
            table: Table::default(),
            pool: Vec::new(),
            stats: ExecStats::default(),
            intervals: Vec::new(),
            baselines: Vec::new(),
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
    /// dispatched and either enters a region, which [`Policy::follow`]
    /// walks over the events after it, or starts a run of
    /// profiling-phase events, which [`Policy::profile`] takes.
    pub fn consume(&mut self, code: &Code, events: &[BlockEvent]) {
        let mut rest = events;
        if let Some((row, entry)) = self.inside.take() {
            rest = self.follow(code, row, entry, rest);
        }
        while let Some(ev) = rest.first() {
            match self.dispatch(code, ev.block as usize) {
                Some(row) => {
                    self.enter(row);
                    rest = self.follow(code, row, row, rest);
                }
                None => {
                    let mut chunk = Chunk {
                        code,
                        events: rest,
                        taken: 0,
                    };
                    let Ok(()) = self.profile(&mut chunk);
                    rest = &rest[chunk.taken..];
                }
            }
        }
    }

    /// [`Policy::consume`] with every profiling-phase event taken one
    /// at a time by [`Policy::unopt`] and [`Policy::settle`]: the
    /// reference the profiling loop is tested against.
    #[cfg(test)]
    pub fn consume_unbatched(&mut self, code: &Code, events: &[BlockEvent]) {
        let mut rest = events;
        if let Some((row, entry)) = self.inside.take() {
            rest = self.follow(code, row, entry, rest);
        }
        while let Some((ev, tail)) = rest.split_first() {
            match self.dispatch(code, ev.block as usize) {
                Some(row) => {
                    self.enter(row);
                    rest = self.follow(code, row, row, rest);
                }
                None => {
                    self.unopt(code, ev);
                    self.settle(code, ev.halted());
                    rest = tail;
                }
            }
        }
    }

    /// The profiling phase: takes the block events `src` yields until
    /// the next one enters a region or `src` has no more. An event is
    /// counted in one loop that keeps instructions, dispatches, ops
    /// and bumps in locals. The loop stops before an event that is the
    /// policy's first sight of its block or would register its block,
    /// which [`Policy::unopt`] takes; and after a halt or at an
    /// interval boundary, where the run settles. So every event
    /// updates the profile and stats as `unopt` and `settle` would.
    ///
    /// # Errors
    ///
    /// What taking an event from `src` returns; the events taken
    /// before it are counted.
    #[inline]
    pub fn profile<S: Events>(&mut self, src: &mut S) -> Result<(), S::Error> {
        // The use count at which an unfrozen block registers, by its
        // `registered` state; 0 never comes.
        let t = self.config.threshold;
        let due = match self.config.mode {
            ProfilingMode::NoOpt => [0; 3],
            _ => [t, t.saturating_mul(2), 0],
        };
        loop {
            let budget = self
                .next_interval_at
                .saturating_sub(self.stats.instructions);
            let (mut instructions, mut dispatches, mut ops, mut bumps) = (0, 0, 0, 0);
            let profile = &mut self.profile;
            let stop = loop {
                let Some(id) = src.peek() else {
                    break Stop::Out;
                };
                let Some(c) = profile.blocks.get_mut(id) else {
                    break Stop::Slow;
                };
                if c.entry != NO_ENTRY {
                    break Stop::Out;
                }
                let counts = !c.frozen;
                if counts && c.use_count + 1 == due[c.registered as usize] {
                    break Stop::Slow;
                }
                let ev = match src.take() {
                    Ok(ev) => ev,
                    Err(e) => break Stop::Trap(e),
                };
                instructions += u64::from(ev.len);
                dispatches += 1;
                if counts {
                    c.use_count += 1;
                    ops += 1 + count_edge(&mut profile.edges, &mut profile.seen, src.code(), &ev);
                    bumps += 1;
                }
                if ev.halted() || instructions >= budget {
                    break Stop::Settle(ev.halted());
                }
            };
            let stats = &mut self.stats;
            stats.instructions += instructions;
            stats.unopt_dispatches += dispatches;
            stats.profiling_ops += ops;
            if let Some(n) = &mut self.bumps {
                *n += bumps;
            }
            let halted = match stop {
                Stop::Out => return Ok(()),
                Stop::Trap(e) => return Err(e),
                Stop::Settle(halted) => halted,
                Stop::Slow => {
                    let ev = src.take()?;
                    self.unopt(src.code(), &ev);
                    ev.halted()
                }
            };
            self.settle(src.code(), halted);
            if halted {
                return Ok(());
            }
        }
    }

    /// The region walk over a run of block events: the copy at row
    /// `row` of the region entered at row `entry` ran as `events[0]`,
    /// the copy its cell leads to as `events[1]`, and so on. At a
    /// region exit in two-phase mode, when the next event enters a
    /// region and no interval snapshot falls due, the walk chains
    /// straight into that region; any other exit is left and settled,
    /// and the walk returns the events after it. The totals stay in
    /// locals until the walk stops; when the events run out, they are
    /// flushed and the walk resumes from the row it reached with the
    /// next chunk.
    fn follow<'e>(
        &mut self,
        code: &Code,
        row: u32,
        entry: u32,
        events: &'e [BlockEvent],
    ) -> &'e [BlockEvent] {
        if self.counts_in_regions() {
            self.follow_as::<true>(code, row, entry, events)
        } else {
            self.follow_as::<false>(code, row, entry, events)
        }
    }

    /// [`Policy::follow`], with continuous mode's in-region counting
    /// (`COUNTING`) compiled in or out: the counting code costs the
    /// other modes' loop its registers.
    // Out of line: inlined into `consume`, it costs the profiling-phase
    // path registers and measured slower.
    #[inline(never)]
    fn follow_as<'e, const COUNTING: bool>(
        &mut self,
        code: &Code,
        mut row: u32,
        mut entry: u32,
        events: &'e [BlockEvent],
    ) -> &'e [BlockEvent] {
        // Continuous re-formation and adaptive monitoring act at every
        // entry or exit, so only two-phase regions chain.
        let chains = self.config.mode == ProfilingMode::TwoPhase;
        // Instructions this walk may run before a settle would take an
        // interval snapshot.
        let budget = self
            .next_interval_at
            .saturating_sub(self.stats.instructions);
        // The walk's totals; every chained entry follows one exit, a
        // side exit or else a completion.
        let (mut instructions, mut loops, mut chained, mut chained_side) = (0, 0, 0, 0);
        let Policy {
            table,
            profile,
            stats,
            bumps,
            ..
        } = self;
        let cells = &table.cells[..];
        let last = (1 << table.shift) - 1;
        let mut n = 0;
        let (cell, halted) = loop {
            let Some(ev) = events.get(n) else {
                let totals = Totals::walked(instructions, loops, chained, chained_side);
                self.flush(totals);
                self.inside = Some((row, entry));
                return &[];
            };
            n += 1;
            instructions += u64::from(ev.len);
            if COUNTING {
                if let Some((_, _, ops)) = count(profile, bumps, code, ev) {
                    stats.profiling_ops += ops;
                    stats.region_profiling_ops += ops;
                }
            }
            // The row's cells from the event's column on, sliced off
            // the row-to-row dependency: the next row is one load away.
            let cell = cells[ev.column.min(last) as usize..][row as usize];
            if cell & LEAVES == 0 {
                loops += u64::from(cell == entry);
                row = cell;
                continue;
            }
            if chains && !ev.halted() && instructions < budget {
                if let Some(next) = events.get(n).and_then(|e| profile.entry(e.block as usize)) {
                    chained += 1;
                    chained_side += u64::from(cell & SIDE != 0);
                    (row, entry) = (next, next);
                    continue;
                }
            }
            break (cell, ev.halted());
        };
        let totals = Totals::walked(instructions, loops, chained, chained_side);
        let exit = match cell & SIDE {
            _ if halted => Exit::Halt,
            0 => Exit::Completion,
            _ => Exit::Side,
        };
        self.leave(code, (cell & REGION) as usize, exit, totals);
        self.settle(code, halted);
        &events[n..]
    }

    /// The entry row of the region dispatched from block `id`, if any,
    /// after continuous mode's staleness check has had its chance to
    /// re-form it.
    #[inline(always)]
    pub fn dispatch(&mut self, code: &Code, id: usize) -> Option<u32> {
        let row = self.profile.entry(id)?;
        if self.config.mode == ProfilingMode::Continuous {
            self.maybe_reform(code, self.table.region(row), id);
            return self.profile.entry(id);
        }
        Some(row)
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
        self.baselines
            .resize(profile.blocks.len(), Baseline::default());
        for (id, base) in self.baselines.iter_mut().enumerate() {
            let Some(now) = profile.branch_counts(code, id) else {
                continue;
            };
            let Baseline { at, carried } = std::mem::replace(
                base,
                Baseline {
                    at: now,
                    carried: (0, 0),
                },
            );
            let delta = (now.0 - at.0 + carried.0, now.1 - at.1 + carried.1);
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

    /// Before an adaptive reset zeroes block `id`'s counters: carries
    /// what the block counted since the previous snapshot into the
    /// next one, and restarts its baseline at zero.
    fn carry_interval(&mut self, code: &Code, id: usize) {
        if self.config.interval.is_none() {
            return;
        }
        let Some(now) = self.profile.branch_counts(code, id) else {
            return;
        };
        if self.baselines.len() <= id {
            self.baselines.resize(id + 1, Baseline::default());
        }
        let base = &mut self.baselines[id];
        base.carried.0 += now.0 - base.at.0;
        base.carried.1 += now.1 - base.at.1;
        base.at = (0, 0);
    }

    /// A profiling-phase block ran: count its translation on first
    /// sight and its dispatch, bump its counters unless frozen, and
    /// register it as a candidate at `use == T` (optimizing when the
    /// pool fills or it registers twice).
    #[inline(always)]
    fn unopt(&mut self, code: &Code, ev: &BlockEvent) {
        self.stats.instructions += u64::from(ev.len);
        self.stats.unopt_dispatches += 1;
        let id = ev.block as usize;
        if id == self.profile.blocks.len() {
            self.translate(code, ev);
        }
        let Some((use_count, registered, ops)) =
            count(&mut self.profile, &mut self.bumps, code, ev)
        else {
            return;
        };
        self.stats.profiling_ops += ops;
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

    /// The first execution of `ev`'s block: count its fast
    /// translation and give it zeroed counters.
    #[cold]
    #[inline(never)]
    fn translate(&mut self, code: &Code, ev: &BlockEvent) {
        self.stats.blocks_translated += 1;
        self.stats.cold_instructions += u64::from(ev.len);
        let pc = code.pc_of(ev.block as usize);
        self.trace_emit(|| EventKind::BlockTranslated {
            pc: pc as u64,
            len: ev.len,
        });
        self.profile.blocks.push(Counters {
            use_count: 0,
            entry: NO_ENTRY,
            frozen: false,
            registered: 0,
        });
        self.profile.seen.push(Vec::new());
    }

    /// The region whose entry row is `row` is entered; returns its
    /// index.
    pub fn enter(&mut self, row: u32) -> usize {
        let ri = self.table.region(row);
        self.stats.region_entries += 1;
        if self.config.mode == ProfilingMode::Adaptive {
            self.regions[ri].entries += 1;
        }
        ri
    }

    /// The region dispatched from block `id`, if any.
    #[cfg(test)]
    pub fn entry_region(&self, id: usize) -> Option<usize> {
        self.profile.entry(id).map(|row| self.table.region(row))
    }

    /// The copy that follows copy `cur` of live region `ri` through the
    /// successor slot in `column`, or [`EXIT`] when the edge leaves
    /// the region.
    pub fn succ(&self, ri: usize, cur: usize, column: u32) -> u32 {
        let base = self.regions[ri].row;
        let shift = self.table.shift;
        let cell = self.table.cell(base + ((cur as u32) << shift), column);
        if cell & LEAVES != 0 {
            return EXIT;
        }
        (cell - base) >> shift
    }

    /// How leaving live region `ri` from copy `cur` through an edge
    /// outside the region counts: a completion at the tail, a side
    /// exit anywhere else.
    #[inline]
    pub fn exit_at(&self, ri: usize, cur: usize) -> Exit {
        if cur == self.regions[ri].dump.tail {
            Exit::Completion
        } else {
            Exit::Side
        }
    }

    /// Adds region totals to the stats.
    #[inline(always)]
    fn flush(&mut self, totals: Totals) {
        let stats = &mut self.stats;
        stats.instructions += totals.instructions;
        stats.region_instructions += totals.instructions;
        stats.loop_backs += totals.loops;
        stats.region_entries += totals.entries;
        stats.completions += totals.completions;
        stats.side_exits += totals.side_exits;
    }

    /// Region `ri` is left through `exit` after `totals`; adaptive
    /// monitoring judges a side exit.
    #[inline]
    pub fn leave(&mut self, code: &Code, ri: usize, exit: Exit, mut totals: Totals) {
        totals.left(exit);
        self.flush(totals);
        if exit == Exit::Side && self.config.mode == ProfilingMode::Adaptive {
            self.regions[ri].side_exits += 1;
            self.maybe_retire(code, ri);
        }
    }

    /// Rebuilds the successor table from the live regions: after a
    /// retirement or a re-formation, or for an install wider than the
    /// table's stride.
    fn rebuild(&mut self) {
        let live = || self.regions.iter().filter(|r| !r.retired);
        let shift = live().map(|r| shift_for(&r.dump)).max().unwrap_or(0);
        let table = &mut self.table;
        table.cells.clear();
        table.shift = shift;
        // Unlink every entry first: a retired region and a live one may
        // share their entry block.
        for r in &self.regions {
            self.profile.blocks[r.entry].entry = NO_ENTRY;
        }
        for (ri, r) in self.regions.iter_mut().enumerate() {
            if !r.retired {
                r.row = table.push(ri, &r.dump);
                self.profile.blocks[r.entry].entry = r.row;
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
            self.stats.retranslated_instructions += formed.total_instrs;
            self.stats.opt_invocations += 1;
            let region_id = self.regions[ri].dump.id;
            // Re-formation replaces the region's shape, and the table
            // its rows; continuous regions are walked, so no compiled
            // code can go stale.
            self.regions[ri] = RuntimeRegion::new(formed.into_dump(region_id), id, current_use);
            self.rebuild();
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
        // never dispatched again once the rebuilt table drops it.
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
        self.rebuild();
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
                self.carry_interval(code, id);
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
            if c.entry != NO_ENTRY || (c.frozen && self.freezes()) {
                continue;
            }
            let src = Source {
                code,
                profile: &self.profile,
            };
            let Some(formed) = form_region(&src, &self.config.policy, code.pc_of(seed)) else {
                continue;
            };
            self.stats.retranslated_instructions += formed.total_instrs;
            self.install(code, seed, formed);
        }
    }

    /// Installs `formed` as a new region dispatched from block `seed`.
    fn install(&mut self, code: &Code, seed: usize, formed: FormedRegion) {
        self.stats.regions_formed += 1;
        let ri = self.regions.len();
        let formed_use = self.profile.blocks[seed].use_count;
        let region = RuntimeRegion::new(formed.into_dump(ri), seed, formed_use);
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
        let shift = shift_for(&region.dump);
        self.regions.push(region);
        if shift > self.table.shift {
            self.rebuild();
        } else {
            let region = &mut self.regions[ri];
            region.row = self.table.push(ri, &region.dump);
            self.profile.blocks[seed].entry = region.row;
        }
    }

    /// The run's outcome: the profile dump of a program entered at
    /// `entry`, the guest's `output`, stats and interval snapshots.
    pub fn into_outcome(mut self, code: &Code, entry: Pc, output: Vec<i64>) -> RunOutcome {
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
        let mut regions: Vec<RegionDump> = std::mem::take(&mut self.regions)
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
            cycles: CostModel::DEFAULT.price(&self.stats),
            instructions: self.stats.instructions,
        };
        RunOutcome {
            inip,
            output,
            stats: self.stats,
            intervals: std::mem::take(&mut self.intervals),
        }
    }
}

impl Drop for Policy<'_> {
    /// Reports the run's counter bumps as one `counter_bump` total:
    /// one event per bump would flood the trace.
    fn drop(&mut self) {
        if let (Some(tracer), Some(n)) = (self.tracer, self.bumps) {
            tracer.tally("counter_bump", n);
        }
    }
}
