//! Profile dump data model shared between the translator and the
//! offline analyzer.

use std::collections::BTreeMap;

/// A basic-block identity: the guest address of its first instruction.
pub type BlockPc = usize;

/// Index of a block copy within a [`RegionDump`].
pub type CopyId = usize;

/// Terminator classification carried in dumps (enough to know which
/// blocks have a branch probability and how edges are slotted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermKind {
    /// Two-way conditional branch (has a taken/use branch probability).
    Cond,
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump through a table.
    Switch,
    /// Direct call.
    Call,
    /// Return (dynamic successor).
    Return,
    /// Program halt (no successor).
    Halt,
}

impl TermKind {
    /// Stable on-disk code for this kind. Part of the serialized
    /// profile-store format (`tpdbt-store`): codes are append-only and
    /// must never be renumbered.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            TermKind::Cond => 0,
            TermKind::Jump => 1,
            TermKind::Switch => 2,
            TermKind::Call => 3,
            TermKind::Return => 4,
            TermKind::Halt => 5,
        }
    }

    /// Inverse of [`TermKind::code`]; `None` for unknown codes (a
    /// decoder must treat those as corruption, not panic).
    #[must_use]
    pub fn from_code(code: u8) -> Option<TermKind> {
        Some(match code {
            0 => TermKind::Cond,
            1 => TermKind::Jump,
            2 => TermKind::Switch,
            3 => TermKind::Call,
            4 => TermKind::Return,
            5 => TermKind::Halt,
            _ => return None,
        })
    }
}

/// An outcome slot of a block terminator. Slots rather than bare targets
/// keep taken and fall-through distinguishable even when both lead to
/// the same address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SuccSlot {
    /// The taken direction of a conditional branch.
    Taken,
    /// The fall-through direction of a conditional branch.
    Fallthrough,
    /// Any other outcome, numbered in order of first dynamic occurrence
    /// (jump target, switch targets, call target, return targets).
    Other(u32),
}

impl SuccSlot {
    /// Stable on-disk code for this slot. Part of the serialized
    /// profile-store format (`tpdbt-store`): `Taken` and `Fallthrough`
    /// are fixed, `Other(k)` maps to `2 + k`.
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            SuccSlot::Taken => 0,
            SuccSlot::Fallthrough => 1,
            SuccSlot::Other(k) => 2 + u64::from(k),
        }
    }

    /// Inverse of [`SuccSlot::code`]; `None` for codes whose `Other`
    /// index would not fit (treated as corruption by decoders).
    #[must_use]
    pub fn from_code(code: u64) -> Option<SuccSlot> {
        Some(match code {
            0 => SuccSlot::Taken,
            1 => SuccSlot::Fallthrough,
            k => SuccSlot::Other(u32::try_from(k - 2).ok()?),
        })
    }
}

/// Per-block profile record: the paper's `use` and `taken` counts, plus
/// per-successor edge counts (needed for Markov normalization and for
/// switch/return probabilities).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BlockRecord {
    /// Number of instructions in the block, terminator included.
    pub len: u32,
    /// Terminator classification.
    pub kind: Option<TermKind>,
    /// The paper's "use" count: times the block was visited.
    pub use_count: u64,
    /// Observed successor edges: `(slot, target, count)`.
    pub edges: Vec<(SuccSlot, BlockPc, u64)>,
}

impl BlockRecord {
    /// The paper's "taken" count: executions in which the conditional
    /// branch was taken. Zero for non-conditional blocks.
    #[must_use]
    pub fn taken_count(&self) -> u64 {
        self.edges
            .iter()
            .filter(|(slot, _, _)| *slot == SuccSlot::Taken)
            .map(|(_, _, c)| c)
            .sum()
    }

    /// Branch probability `taken / use`, if this block ends in a
    /// conditional branch that executed at least once.
    #[must_use]
    pub fn branch_probability(&self) -> Option<f64> {
        if self.kind != Some(TermKind::Cond) || self.use_count == 0 {
            return None;
        }
        Some(self.taken_count() as f64 / self.use_count as f64)
    }

    /// Successor probabilities `(slot, target, probability)`, derived
    /// from edge counts. Empty if the block never ran or is a halt
    /// block.
    #[must_use]
    pub fn succ_probabilities(&self) -> Vec<(SuccSlot, BlockPc, f64)> {
        let total: u64 = self.edges.iter().map(|(_, _, c)| c).sum();
        if total == 0 {
            return Vec::new();
        }
        self.edges
            .iter()
            .map(|&(slot, target, c)| (slot, target, c as f64 / total as f64))
            .collect()
    }

    /// The probability of terminator outcome `slot`, derived from edge
    /// counts; `None` if the block never produced a successor.
    #[must_use]
    pub fn slot_probability(&self, slot: SuccSlot) -> Option<f64> {
        let total: u64 = self.edges.iter().map(|(_, _, c)| c).sum();
        if total == 0 {
            return None;
        }
        let hit: u64 = self
            .edges
            .iter()
            .filter(|(s, _, _)| *s == slot)
            .map(|(_, _, c)| c)
            .sum();
        Some(hit as f64 / total as f64)
    }

    /// Adds `count` to the edge `(slot, target)`, creating it if new.
    /// A block has few distinct edges and many records live at once (a
    /// lockstep run keeps one set per policy), so the list grows one
    /// slot at a time.
    pub fn bump_edge(&mut self, slot: SuccSlot, target: BlockPc, count: u64) {
        for e in &mut self.edges {
            if e.0 == slot && e.1 == target {
                e.2 += count;
                return;
            }
        }
        self.edges.reserve_exact(1);
        self.edges.push((slot, target, count));
    }
}

/// A whole-run profile without optimization: the paper's `AVEP` (on the
/// reference input) or `INIP(train)` (on the training input).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PlainProfile {
    /// Per-block records, keyed by block address.
    pub blocks: BTreeMap<BlockPc, BlockRecord>,
    /// Entry block of the program (receives the external unit inflow in
    /// Markov normalization).
    pub entry: BlockPc,
    /// Total profiling operations (sum of all `use` and `taken`/edge
    /// counter increments) — Figure 18's quantity.
    pub profiling_ops: u64,
    /// Dynamic guest instructions executed.
    pub instructions: u64,
}

impl PlainProfile {
    /// The frequency (use count) of `pc`, zero when never executed.
    #[must_use]
    pub fn frequency(&self, pc: BlockPc) -> u64 {
        self.blocks.get(&pc).map_or(0, |b| b.use_count)
    }
}

/// Region classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// A non-loop region (trace / hyperblock-like); evaluated by its
    /// completion probability.
    Trace,
    /// A loop region (back edge to its entry); evaluated by its
    /// loop-back probability.
    Loop,
}

/// An internal edge of a region: outcome `slot` of copy `from` stays
/// inside the region, entering copy `to`.
///
/// Invariant maintained by region formation: `to > from`, or `to == 0`
/// (the entry copy) for the back edge of a loop region — so copy order
/// is a topological order of the region's internal DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionEdge {
    /// Source copy index.
    pub from: CopyId,
    /// Terminator outcome slot of the source copy.
    pub slot: SuccSlot,
    /// Destination copy index.
    pub to: CopyId,
}

/// A region retranslated by the optimization phase, as recorded in the
/// `INIP(T)` dump: entry, member block copies, internal edges, and the
/// designated tail for completion-probability evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionDump {
    /// Region identity (dense, per dump).
    pub id: usize,
    /// Classification.
    pub kind: RegionKind,
    /// Block address of each member copy; `copies[0]` is the entry.
    pub copies: Vec<BlockPc>,
    /// Internal edges (see [`RegionEdge`] for the topological
    /// invariant).
    pub edges: Vec<RegionEdge>,
    /// Copy index of the main-trace tail block: the "last block" whose
    /// reach probability defines region completion (§3.2).
    pub tail: CopyId,
}

impl RegionDump {
    /// The region's entry block address.
    ///
    /// # Panics
    ///
    /// Panics if the region has no copies (never produced by the
    /// translator).
    #[must_use]
    pub fn entry_pc(&self) -> BlockPc {
        self.copies[0]
    }
}

/// The initial prediction with threshold `T` — the paper's `INIP(T)`.
///
/// Blocks that were placed in regions carry counters **frozen at
/// optimization time** — `T ≤ use ≤ 2T` for registered candidates (the
/// upper bound exactly when the registered-twice rule fired; hammock
/// arms pulled in without registering may freeze below `T`); blocks
/// never optimized carry end-of-run counters, exactly as in §2 of the
/// paper.
#[derive(Clone, Debug, PartialEq)]
pub struct InipDump {
    /// The retranslation threshold `T` the run used.
    pub threshold: u64,
    /// Regions formed by the optimization phase, in formation order.
    pub regions: Vec<RegionDump>,
    /// Per-block records (frozen for region members).
    pub blocks: BTreeMap<BlockPc, BlockRecord>,
    /// Program entry block.
    pub entry: BlockPc,
    /// Total profiling operations performed during the run (counter
    /// increments stop for optimized blocks) — Figure 18.
    pub profiling_ops: u64,
    /// Simulated machine cycles for the whole run under the cost model —
    /// Figure 17.
    pub cycles: u64,
    /// Dynamic guest instructions executed.
    pub instructions: u64,
}

impl InipDump {
    /// Looks up the (possibly frozen) record for `pc`.
    #[must_use]
    pub fn block(&self, pc: BlockPc) -> Option<&BlockRecord> {
        self.blocks.get(&pc)
    }

    /// Iterates over region entries along with their regions.
    pub fn loop_regions(&self) -> impl Iterator<Item = &RegionDump> {
        self.regions.iter().filter(|r| r.kind == RegionKind::Loop)
    }

    /// Non-loop (trace) regions.
    pub fn trace_regions(&self) -> impl Iterator<Item = &RegionDump> {
        self.regions.iter().filter(|r| r.kind == RegionKind::Trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond_block(use_count: u64, taken: u64, t_target: BlockPc, f_target: BlockPc) -> BlockRecord {
        BlockRecord {
            len: 3,
            kind: Some(TermKind::Cond),
            use_count,
            edges: vec![
                (SuccSlot::Taken, t_target, taken),
                (SuccSlot::Fallthrough, f_target, use_count - taken),
            ],
        }
    }

    #[test]
    fn branch_probability_from_counts() {
        let b = cond_block(100, 88, 7, 9);
        assert_eq!(b.taken_count(), 88);
        assert!((b.branch_probability().unwrap() - 0.88).abs() < 1e-12);
    }

    #[test]
    fn non_cond_blocks_have_no_bp() {
        let b = BlockRecord {
            kind: Some(TermKind::Jump),
            use_count: 5,
            ..Default::default()
        };
        assert!(b.branch_probability().is_none());
        let unused = cond_block(0, 0, 1, 2);
        assert!(unused.branch_probability().is_none());
    }

    #[test]
    fn succ_probabilities_normalize() {
        let b = cond_block(10, 4, 1, 2);
        let probs = b.succ_probabilities();
        assert_eq!(probs.len(), 2);
        assert!((probs[0].2 - 0.4).abs() < 1e-12);
        assert!((probs[1].2 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn bump_edge_merges_and_creates() {
        let mut b = BlockRecord::default();
        b.bump_edge(SuccSlot::Other(0), 5, 2);
        b.bump_edge(SuccSlot::Other(0), 5, 3);
        b.bump_edge(SuccSlot::Other(1), 6, 1);
        assert_eq!(
            b.edges,
            vec![(SuccSlot::Other(0), 5, 5), (SuccSlot::Other(1), 6, 1)]
        );
    }

    #[test]
    fn region_entry_and_kind_filters() {
        let r1 = RegionDump {
            id: 0,
            kind: RegionKind::Loop,
            copies: vec![4, 5],
            edges: vec![],
            tail: 1,
        };
        let r2 = RegionDump {
            id: 1,
            kind: RegionKind::Trace,
            copies: vec![9],
            edges: vec![],
            tail: 0,
        };
        assert_eq!(r1.entry_pc(), 4);
        let dump = InipDump {
            threshold: 100,
            regions: vec![r1, r2],
            blocks: BTreeMap::new(),
            entry: 0,
            profiling_ops: 0,
            cycles: 0,
            instructions: 0,
        };
        assert_eq!(dump.loop_regions().count(), 1);
        assert_eq!(dump.trace_regions().count(), 1);
    }

    #[test]
    fn term_kind_codes_round_trip() {
        for kind in [
            TermKind::Cond,
            TermKind::Jump,
            TermKind::Switch,
            TermKind::Call,
            TermKind::Return,
            TermKind::Halt,
        ] {
            assert_eq!(TermKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(TermKind::from_code(6), None);
        assert_eq!(TermKind::from_code(255), None);
    }

    #[test]
    fn succ_slot_codes_round_trip() {
        for slot in [
            SuccSlot::Taken,
            SuccSlot::Fallthrough,
            SuccSlot::Other(0),
            SuccSlot::Other(17),
            SuccSlot::Other(u32::MAX),
        ] {
            assert_eq!(SuccSlot::from_code(slot.code()), Some(slot));
        }
        assert_eq!(SuccSlot::from_code(2 + u64::from(u32::MAX) + 1), None);
    }

    #[test]
    fn plain_profile_frequency_defaults_to_zero() {
        let p = PlainProfile::default();
        assert_eq!(p.frequency(3), 0);
    }
}
