//! Region formation: the optimization phase's trace/loop selection.
//!
//! Seeds (hot candidate blocks) grow into regions along their most
//! likely successors, using the `taken/use` branch probabilities
//! collected in the profiling phase — the paper's hyperblock-style
//! region and loop formation. Hammocks (if-then and if-else diamonds)
//! whose unlikely arm is still warm are merged into the region so that
//! regions have internal branching, and a trace that closes back on its
//! entry becomes a **loop region**.
//!
//! Copies are appended in growth order, so every internal edge goes
//! forward (`to > from`) except loop back edges (`to == 0`) — the
//! topological invariant [`tpdbt_profile::RegionEdge`] documents.
//!
//! Formation is a function of profile records alone: each
//! [`BlockRecord`] carries the block's `use` and edge counts, its
//! terminator's kind and its length, which is all growth reads. At run
//! time the records are built from a policy's counters over the
//! translation cache; offline they are a stored profile's
//! ([`crate::offline`]).

use std::borrow::Cow;

use tpdbt_isa::Pc;
use tpdbt_profile::{BlockRecord, RegionDump, RegionEdge, RegionKind, SuccSlot, TermKind};

use crate::config::RegionPolicy;

/// The profile records region formation reads: a policy's live
/// counters over the executor's translation cache, or a whole-run
/// profile.
pub(crate) trait BlockSource {
    /// The profile record of the block at `pc`, if it ran (built on
    /// demand from a policy's flat counters).
    fn record(&self, pc: Pc) -> Option<Cow<'_, BlockRecord>>;
}

/// A freshly formed region, before its policy installs it.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FormedRegion {
    pub kind: RegionKind,
    pub copies: Vec<Pc>,
    pub edges: Vec<RegionEdge>,
    pub tail: usize,
    /// Total instructions across copies (optimization cost input).
    pub total_instrs: u64,
}

impl FormedRegion {
    /// Converts to the dump representation with the given id, trimmed
    /// to size: a region lives for the rest of the run.
    pub fn into_dump(mut self, id: usize) -> RegionDump {
        self.copies.shrink_to_fit();
        self.edges.shrink_to_fit();
        RegionDump {
            id,
            kind: self.kind,
            copies: self.copies,
            edges: self.edges,
            tail: self.tail,
        }
    }
}

/// The best (highest-count) outcome of a block plus its probability,
/// derived from live counters.
fn best_outcome(record: &BlockRecord) -> Option<(SuccSlot, Pc, f64)> {
    let total: u64 = record.edges.iter().map(|(_, _, c)| c).sum();
    if total == 0 {
        return None;
    }
    // First maximum wins so ties resolve deterministically (taken edge
    // before fall-through, matching edge insertion order).
    let mut best: Option<&(SuccSlot, Pc, u64)> = None;
    for e in &record.edges {
        if best.is_none_or(|b| e.2 > b.2) {
            best = Some(e);
        }
    }
    best.map(|&(slot, target, c)| (slot, target, c as f64 / total as f64))
}

/// The probability and target of a specific slot.
fn slot_outcome(record: &BlockRecord, slot: SuccSlot) -> Option<(Pc, f64)> {
    let total: u64 = record.edges.iter().map(|(_, _, c)| c).sum();
    if total == 0 {
        return None;
    }
    record
        .edges
        .iter()
        .find(|(s, _, _)| *s == slot)
        .map(|&(_, target, c)| (target, c as f64 / total as f64))
}

/// Whether growth may pass through this block's terminator (only
/// direct control flow; switches, calls, returns, halts and records of
/// no stated kind end regions).
fn growable(record: &BlockRecord) -> bool {
    matches!(record.kind, Some(TermKind::Jump | TermKind::Cond))
}

/// Whether the block ends in a conditional branch.
fn is_cond(record: &BlockRecord) -> bool {
    record.kind == Some(TermKind::Cond)
}

/// Context for one region-formation run.
struct Grower<'a, S: BlockSource> {
    src: &'a S,
    policy: &'a RegionPolicy,
    seed: Pc,
    copies: Vec<Pc>,
    edges: Vec<RegionEdge>,
    kind: RegionKind,
}

impl<'a, S: BlockSource> Grower<'a, S> {
    fn new(src: &'a S, policy: &'a RegionPolicy, seed: Pc) -> Self {
        Grower {
            src,
            policy,
            seed,
            copies: vec![seed],
            edges: Vec::new(),
            kind: RegionKind::Trace,
        }
    }

    fn contains(&self, pc: Pc) -> bool {
        self.copies.contains(&pc)
    }

    fn room_for(&self, extra: usize) -> bool {
        self.copies.len() + extra <= self.policy.max_region_blocks
    }

    fn push_copy(&mut self, pc: Pc) -> usize {
        self.copies.push(pc);
        self.copies.len() - 1
    }

    /// If `arm_pc` is a warm block that rejoins at `join`, returns the
    /// slot through which it rejoins.
    fn arm_rejoins_at(&self, arm_pc: Pc, join: Pc) -> Option<SuccSlot> {
        if arm_pc == self.seed || self.contains(arm_pc) {
            return None;
        }
        let record = self.src.record(arm_pc)?;
        if !growable(&record) {
            return None;
        }
        let (slot, target, prob) = best_outcome(&record)?;
        (target == join && prob >= self.policy.main_path_prob).then_some(slot)
    }

    /// Grows the main path from copy `cur`; returns the tail copy index.
    fn grow(&mut self, mut cur: usize) -> usize {
        loop {
            let pc = self.copies[cur];
            let Some(record) = self.src.record(pc) else {
                return cur;
            };
            if !growable(&record) {
                return cur;
            }
            let Some((best_slot, best_target, best_prob)) = best_outcome(&record) else {
                return cur;
            };

            // Hammock handling for conditional branches.
            let mut pending_arm: Option<(usize, SuccSlot)> = None;
            let mut join = best_target;
            let mut join_slot = best_slot;
            if is_cond(&record) {
                let other_slot = if best_slot == SuccSlot::Taken {
                    SuccSlot::Fallthrough
                } else {
                    SuccSlot::Taken
                };
                let other = slot_outcome(&record, other_slot);
                if best_prob >= self.policy.main_path_prob {
                    // if-then shape: unlikely arm rejoins at the likely
                    // target.
                    if let Some((arm_pc, arm_prob)) = other {
                        if arm_prob >= self.policy.include_prob && self.room_for(2) {
                            if let Some(rejoin_slot) = self.arm_rejoins_at(arm_pc, best_target) {
                                let k = self.push_copy(arm_pc);
                                self.edges.push(RegionEdge {
                                    from: cur,
                                    slot: other_slot,
                                    to: k,
                                });
                                pending_arm = Some((k, rejoin_slot));
                            }
                        }
                    }
                } else {
                    // if-else shape: neither side dominates; include
                    // both arms when they rejoin at a common block.
                    let Some((other_pc, other_prob)) = other else {
                        return cur;
                    };
                    if other_prob < self.policy.include_prob
                        || best_prob < self.policy.include_prob
                        || !self.room_for(3)
                    {
                        return cur;
                    }
                    // Each arm's record, with its best outcome when it
                    // may rejoin: a growable terminator whose best
                    // outcome dominates.
                    let rejoin = |pc: Pc| {
                        let record = self.src.record(pc)?;
                        let best = best_outcome(&record)?;
                        Some((
                            best,
                            growable(&record) && best.2 >= self.policy.main_path_prob,
                        ))
                    };
                    let (Some((r1, ok1)), Some((r2, ok2))) =
                        (rejoin(best_target), rejoin(other_pc))
                    else {
                        return cur;
                    };
                    if r1.1 != r2.1
                        || !ok1
                        || !ok2
                        || best_target == self.seed
                        || other_pc == self.seed
                        || self.contains(best_target)
                        || self.contains(other_pc)
                        || best_target == other_pc
                    {
                        return cur;
                    }
                    let k1 = self.push_copy(best_target);
                    self.edges.push(RegionEdge {
                        from: cur,
                        slot: best_slot,
                        to: k1,
                    });
                    let k2 = self.push_copy(other_pc);
                    self.edges.push(RegionEdge {
                        from: cur,
                        slot: other_slot,
                        to: k2,
                    });
                    join = r1.1;
                    join_slot = r1.0;
                    // The two arms rejoin: fall through to common join
                    // handling with two pending arms via a small trick —
                    // treat k1 as `cur` and k2 as the pending arm.
                    cur = k1;
                    pending_arm = Some((k2, r2.0));
                }
            } else if best_prob < 1.0 - 1e-9 {
                // A jump always has probability 1; anything else stops.
                return cur;
            }

            if is_cond(&record) && pending_arm.is_none() && best_prob < self.policy.main_path_prob {
                return cur;
            }

            // Attach the join block.
            if join == self.seed {
                self.kind = RegionKind::Loop;
                self.edges.push(RegionEdge {
                    from: cur,
                    slot: join_slot,
                    to: 0,
                });
                if let Some((k, s)) = pending_arm {
                    self.edges.push(RegionEdge {
                        from: k,
                        slot: s,
                        to: 0,
                    });
                }
                return cur;
            }
            if self.contains(join) || !self.room_for(1) || self.src.record(join).is_none() {
                return cur;
            }
            let j = self.push_copy(join);
            self.edges.push(RegionEdge {
                from: cur,
                slot: join_slot,
                to: j,
            });
            if let Some((k, s)) = pending_arm {
                self.edges.push(RegionEdge {
                    from: k,
                    slot: s,
                    to: j,
                });
            }
            cur = j;
        }
    }
}

impl<'a, S: BlockSource> Grower<'a, S> {
    /// Loop-region arm recovery: after the main path closes back on the
    /// entry, warm branch outcomes that leave the trace but re-enter at
    /// the loop entry through a short chain are folded into the region
    /// (hyperblock-style). Without this, a loop whose body contains a
    /// diamond would measure its *path* probability as the loop-back
    /// probability instead of its trip count.
    fn recover_loop_arms(&mut self) {
        let snapshot = self.copies.len();
        for i in 0..snapshot {
            let pc = self.copies[i];
            let Some(record) = self.src.record(pc).filter(|r| is_cond(r)) else {
                continue;
            };
            for slot in [SuccSlot::Taken, SuccSlot::Fallthrough] {
                if self.edges.iter().any(|e| e.from == i && e.slot == slot) {
                    continue;
                }
                let Some((target, prob)) = slot_outcome(&record, slot) else {
                    continue;
                };
                if prob < self.policy.include_prob {
                    continue;
                }
                if target == self.seed {
                    // A second direct back edge.
                    self.edges.push(RegionEdge {
                        from: i,
                        slot,
                        to: 0,
                    });
                    continue;
                }
                // Follow a short dominant chain hoping to land on the
                // entry.
                let mut chain: Vec<(Pc, SuccSlot)> = Vec::new();
                let mut cur = target;
                let mut rejoins = false;
                for _ in 0..3 {
                    if self.contains(cur) || chain.iter().any(|(p, _)| *p == cur) {
                        break;
                    }
                    let Some((next_slot, next, next_prob)) = self
                        .src
                        .record(cur)
                        .filter(|r| growable(r))
                        .and_then(|r| best_outcome(&r))
                    else {
                        break;
                    };
                    if next_prob < self.policy.main_path_prob {
                        break;
                    }
                    chain.push((cur, next_slot));
                    if next == self.seed {
                        rejoins = true;
                        break;
                    }
                    cur = next;
                }
                if !rejoins || !self.room_for(chain.len()) {
                    continue;
                }
                let mut from = i;
                let mut via = slot;
                for (chain_pc, chain_slot) in chain {
                    let k = self.push_copy(chain_pc);
                    self.edges.push(RegionEdge {
                        from,
                        slot: via,
                        to: k,
                    });
                    from = k;
                    via = chain_slot;
                }
                self.edges.push(RegionEdge {
                    from,
                    slot: via,
                    to: 0,
                });
            }
        }
    }
}

/// Forms a region seeded at `seed`. Returns `None` if the seed has no
/// translated block.
pub(crate) fn form_region<S: BlockSource>(
    src: &S,
    policy: &RegionPolicy,
    seed: Pc,
) -> Option<FormedRegion> {
    src.record(seed)?;
    let mut grower = Grower::new(src, policy, seed);
    let tail = grower.grow(0);
    if grower.kind == RegionKind::Loop {
        grower.recover_loop_arms();
    }
    let total_instrs = grower
        .copies
        .iter()
        .map(|&pc| u64::from(src.record(pc).map_or(1, |r| r.len)))
        .sum();
    debug_assert!(
        grower.edges.iter().all(|e| e.to > e.from || e.to == 0),
        "edges must be topologically ordered"
    );
    Some(FormedRegion {
        kind: grower.kind,
        copies: grower.copies,
        edges: grower.edges,
        tail,
        total_instrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct Mock {
        blocks: HashMap<Pc, BlockRecord>,
    }

    impl Mock {
        fn new() -> Self {
            Mock {
                blocks: HashMap::new(),
            }
        }

        fn cond(&mut self, pc: Pc, taken_to: Pc, fall_to: Pc, use_count: u64, taken: u64) {
            let record = BlockRecord {
                len: 3,
                kind: Some(TermKind::Cond),
                use_count,
                edges: vec![
                    (SuccSlot::Taken, taken_to, taken),
                    (SuccSlot::Fallthrough, fall_to, use_count - taken),
                ],
            };
            self.blocks.insert(pc, record);
        }

        fn jump(&mut self, pc: Pc, to: Pc, use_count: u64) {
            let record = BlockRecord {
                len: 2,
                kind: Some(TermKind::Jump),
                use_count,
                edges: vec![(SuccSlot::Other(0), to, use_count)],
            };
            self.blocks.insert(pc, record);
        }

        fn halt(&mut self, pc: Pc, use_count: u64) {
            let record = BlockRecord {
                len: 1,
                kind: Some(TermKind::Halt),
                use_count,
                edges: vec![],
            };
            self.blocks.insert(pc, record);
        }
    }

    impl BlockSource for Mock {
        fn record(&self, pc: Pc) -> Option<Cow<'_, BlockRecord>> {
            self.blocks.get(&pc).map(Cow::Borrowed)
        }
    }

    fn policy() -> RegionPolicy {
        RegionPolicy::default()
    }

    #[test]
    fn straight_trace_follows_likely_path() {
        let mut m = Mock::new();
        // 10 -(0.9 taken)-> 20 -(jump)-> 30 (halt terminator stops).
        m.cond(10, 20, 90, 100, 90);
        m.jump(20, 30, 90);
        m.halt(30, 90);
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.kind, RegionKind::Trace);
        assert_eq!(r.copies, vec![10, 20, 30]);
        assert_eq!(r.tail, 2);
        assert_eq!(r.total_instrs, 6);
        assert_eq!(
            r.edges,
            vec![
                RegionEdge {
                    from: 0,
                    slot: SuccSlot::Taken,
                    to: 1
                },
                RegionEdge {
                    from: 1,
                    slot: SuccSlot::Other(0),
                    to: 2
                },
            ]
        );
    }

    #[test]
    fn loop_region_detected_on_back_edge() {
        let mut m = Mock::new();
        // 10 -> 20 -> back to 10 with p 0.95.
        m.jump(10, 20, 1000);
        m.cond(20, 10, 99, 1000, 950);
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.kind, RegionKind::Loop);
        assert_eq!(r.copies, vec![10, 20]);
        assert!(r.edges.contains(&RegionEdge {
            from: 1,
            slot: SuccSlot::Taken,
            to: 0
        }));
    }

    #[test]
    fn self_loop_single_block() {
        let mut m = Mock::new();
        m.cond(10, 10, 99, 1000, 990);
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.kind, RegionKind::Loop);
        assert_eq!(r.copies, vec![10]);
        assert_eq!(
            r.edges,
            vec![RegionEdge {
                from: 0,
                slot: SuccSlot::Taken,
                to: 0
            }]
        );
    }

    #[test]
    fn unlikely_branch_stops_growth() {
        let mut m = Mock::new();
        // 50/50 branch with arms that do not rejoin: stop at seed.
        m.cond(10, 20, 30, 100, 50);
        m.halt(20, 50);
        m.halt(30, 50);
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.copies, vec![10]);
        assert_eq!(r.tail, 0);
    }

    #[test]
    fn if_then_hammock_is_included() {
        let mut m = Mock::new();
        // 10: 0.6 taken -> 40 (join), 0.4 fall -> 20 (arm); arm jumps to 40.
        m.cond(10, 40, 20, 100, 60);
        m.jump(20, 40, 40);
        m.jump(40, 50, 100);
        m.halt(50, 100);
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.kind, RegionKind::Trace);
        assert_eq!(r.copies, vec![10, 20, 40, 50]);
        let arm_edge = RegionEdge {
            from: 0,
            slot: SuccSlot::Fallthrough,
            to: 1,
        };
        let main_edge = RegionEdge {
            from: 0,
            slot: SuccSlot::Taken,
            to: 2,
        };
        let rejoin_edge = RegionEdge {
            from: 1,
            slot: SuccSlot::Other(0),
            to: 2,
        };
        assert!(r.edges.contains(&arm_edge), "{:?}", r.edges);
        assert!(r.edges.contains(&main_edge));
        assert!(r.edges.contains(&rejoin_edge));
        // Tail is the last main-path block.
        assert_eq!(r.copies[r.tail], 50);
    }

    #[test]
    fn if_else_diamond_is_included() {
        let mut m = Mock::new();
        // 10: 50/50 to 20 / 30; both jump to 40; 40 halts.
        m.cond(10, 20, 30, 100, 50);
        m.jump(20, 40, 50);
        m.jump(30, 40, 50);
        m.halt(40, 100);
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.copies, vec![10, 20, 30, 40]);
        assert_eq!(r.copies[r.tail], 40);
        // All four edges of the diamond are present.
        assert_eq!(r.edges.len(), 4);
    }

    #[test]
    fn region_size_is_bounded() {
        let mut m = Mock::new();
        // A long chain of jumps.
        for i in 0..100 {
            m.jump(i, i + 1, 10);
        }
        m.halt(100, 10);
        let small = RegionPolicy {
            max_region_blocks: 5,
            ..policy()
        };
        let r = form_region(&m, &small, 0).unwrap();
        assert_eq!(r.copies.len(), 5);
    }

    #[test]
    fn duplication_blocks_inner_revisit() {
        let mut m = Mock::new();
        // 10 -> 20 -> 30 -> 20 (cycle not through seed): growth stops
        // rather than revisiting 20.
        m.jump(10, 20, 100);
        m.jump(20, 30, 100);
        m.cond(30, 20, 99, 100, 90);
        m.halt(99, 10);
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.kind, RegionKind::Trace);
        assert_eq!(r.copies, vec![10, 20, 30]);
        assert_eq!(r.copies[r.tail], 30);
    }

    #[test]
    fn loop_arm_recovery_folds_parallel_latch() {
        let mut m = Mock::new();
        // Loop: 7 (diamond head) -T(0.57)-> 16 (then-arm+latch) -> 7;
        //                        -F(0.43)-> 14 (jump) -> 17 (latch) -> 7.
        m.cond(7, 16, 14, 1000, 570);
        m.cond(16, 7, 99, 570, 568);
        m.jump(14, 17, 430);
        m.cond(17, 7, 99, 430, 428);
        m.halt(99, 4);
        let r = form_region(&m, &policy(), 7).unwrap();
        assert_eq!(r.kind, RegionKind::Loop);
        assert!(
            r.copies.contains(&14),
            "arm chain start folded: {:?}",
            r.copies
        );
        assert!(
            r.copies.contains(&17),
            "arm chain latch folded: {:?}",
            r.copies
        );
        // Both latches have back edges to the entry.
        let back_edges = r.edges.iter().filter(|e| e.to == 0).count();
        assert_eq!(back_edges, 2, "{:?}", r.edges);
        // Invariant still holds.
        for e in &r.edges {
            assert!(e.to > e.from || e.to == 0);
        }
    }

    #[test]
    fn records_of_no_stated_kind_end_growth() {
        let mut m = Mock::new();
        // 10 jumps to 20, whose record states no terminator kind: 20
        // joins the region as its tail, and growth stops there.
        m.jump(10, 20, 100);
        m.jump(20, 30, 100);
        m.halt(30, 100);
        m.blocks.get_mut(&20).unwrap().kind = None;
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.copies, vec![10, 20]);
        assert_eq!(r.tail, 1);
        assert_eq!(r.total_instrs, 4);
        assert_eq!(form_region(&m, &policy(), 20).unwrap().copies, vec![20]);
    }

    #[test]
    fn untranslated_seed_returns_none() {
        let m = Mock::new();
        assert!(form_region(&m, &policy(), 77).is_none());
    }

    #[test]
    fn edges_are_topologically_ordered() {
        let mut m = Mock::new();
        m.cond(10, 40, 20, 100, 55);
        m.jump(20, 40, 45);
        m.cond(40, 10, 50, 100, 80); // loops back to seed
        m.halt(50, 20);
        let r = form_region(&m, &policy(), 10).unwrap();
        assert_eq!(r.kind, RegionKind::Loop);
        for e in &r.edges {
            assert!(e.to > e.from || e.to == 0, "bad edge {e:?}");
        }
    }
}
