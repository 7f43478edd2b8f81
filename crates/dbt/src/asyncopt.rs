//! The engine side of asynchronous optimization (`--opt-mode async`).
//!
//! In [`crate::OptMode::Async`] the optimization phase is decoupled
//! from execution: when a trigger fires, hot candidates are *snapshotted*
//! and queued to `tpdbt-optimizer` worker threads instead of being
//! formed inline. Workers run region formation and (under
//! `cached-fused`) trace compilation against the immutable snapshot
//! while the execution thread keeps running — and keeps profiling,
//! because nothing freezes until a region actually installs. Completions are applied between
//! guest blocks under epoch validation: a candidate whose source blocks
//! were retired, reformed, or otherwise invalidated while it was queued
//! is discarded, never installed stale.
//!
//! The deliberate semantic difference from sync mode is *when counters
//! freeze*. Sync freezes at the trigger (`T ≤ use ≤ 2T`, the paper's
//! initial profile); async freezes at install, after the profile has
//! kept drifting — each install therefore records `(p_enqueue,
//! p_install, use_install)` drift points, the raw material of the
//! `Sd.IP` metric (`tpdbt_profile::metrics::sd_ip`). Guest *output* is
//! identical in both modes: regions only change how code runs, not what
//! it computes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use tpdbt_isa::{DecodedBlock, Pc, PredecodedProgram, Program, Terminator};
use tpdbt_optimizer::{Coordinator, OptService};
use tpdbt_profile::BlockRecord;
#[cfg(feature = "trace")]
use tpdbt_trace::EventKind;
use tpdbt_trace::Tracer;

use crate::config::RegionPolicy;
use crate::region::{form_region, BlockSource, FormedRegion};
use crate::trace::{compile_trace, CompiledTrace};

/// Bound of the hot-candidate queue. A full queue rejects the
/// submission; the candidate keeps profiling and can re-trigger at
/// `use == 2T` or on a later pool drain.
pub(crate) const QUEUE_CAPACITY: usize = 64;

/// An owned, immutable copy of a candidate's translated neighborhood —
/// everything region formation may read, detached from live engine
/// state so workers need no locks.
pub(crate) struct ProfileSnapshot {
    blocks: BTreeMap<Pc, (Terminator, BlockRecord, u32)>,
}

impl ProfileSnapshot {
    /// The per-member branch probabilities at snapshot time, for drift
    /// measurement.
    pub(crate) fn probabilities(&self) -> BTreeMap<Pc, f64> {
        self.blocks
            .iter()
            .filter_map(|(&pc, (_, rec, _))| rec.branch_probability().map(|p| (pc, p)))
            .collect()
    }

    /// The snapshotted addresses (the epoch-stamp key set).
    pub(crate) fn members(&self) -> impl Iterator<Item = &Pc> {
        self.blocks.keys()
    }
}

impl BlockSource for ProfileSnapshot {
    fn terminator(&self, pc: Pc) -> Option<&Terminator> {
        self.blocks.get(&pc).map(|(t, _, _)| t)
    }
    fn record(&self, pc: Pc) -> Option<&BlockRecord> {
        self.blocks.get(&pc).map(|(_, r, _)| r)
    }
    fn block_len(&self, pc: Pc) -> Option<u32> {
        self.blocks.get(&pc).map(|(_, _, len)| *len)
    }
}

/// Builds a snapshot by bounded breadth-first walk from `seed` over
/// profiled edges and static successors, consulting `src` (the engine's
/// live translation cache). Blocks beyond the bound are simply absent,
/// which makes formation conservative, never wrong.
pub(crate) fn snapshot_neighborhood<S: BlockSource>(
    src: &S,
    seed: Pc,
    policy: &RegionPolicy,
) -> ProfileSnapshot {
    let cap = policy.max_region_blocks * 4 + 16;
    let mut blocks = BTreeMap::new();
    let mut queue: VecDeque<Pc> = VecDeque::from([seed]);
    while let Some(pc) = queue.pop_front() {
        if blocks.contains_key(&pc) || blocks.len() >= cap {
            continue;
        }
        let (Some(term), Some(record), Some(len)) =
            (src.terminator(pc), src.record(pc), src.block_len(pc))
        else {
            continue;
        };
        for (_, target, _) in &record.edges {
            queue.push_back(*target);
        }
        match term {
            Terminator::Jump { target } => queue.push_back(*target),
            Terminator::Branch { taken, fallthrough } => {
                queue.push_back(*taken);
                queue.push_back(*fallthrough);
            }
            Terminator::Call { target, next } => {
                queue.push_back(*target);
                queue.push_back(*next);
            }
            Terminator::Switch { .. } | Terminator::Return | Terminator::Halt => {}
        }
        blocks.insert(pc, (term.clone(), record.clone(), len));
    }
    ProfileSnapshot { blocks }
}

/// A queued optimization candidate.
pub(crate) struct OptJob {
    pub seed: Pc,
    pub snapshot: ProfileSnapshot,
    /// Epochs of every snapshotted block at enqueue time.
    pub stamps: Vec<(Pc, u64)>,
    /// Branch probabilities at enqueue time (drift baseline).
    pub probs: BTreeMap<Pc, f64>,
    pub policy: RegionPolicy,
}

/// A worker's completed candidate, back on the execution thread.
pub(crate) struct OptOutcome {
    pub seed: Pc,
    pub stamps: Vec<(Pc, u64)>,
    pub probs: BTreeMap<Pc, f64>,
    /// The formed region, or `None` when formation failed.
    pub formed: Option<FormedRegion>,
    /// The region's trace, pre-compiled by the worker (cached-fused
    /// backend only; the backend compiles on the execution thread
    /// otherwise).
    pub trace: Option<Arc<CompiledTrace>>,
}

/// What workers need to compile a formed region's trace for the
/// `cached-fused` backend: the program, the run's decode-once cache of
/// fused blocks, and the trace form the backend installs.
pub(crate) struct TraceCompiler {
    pub program: Arc<Program>,
    pub predecoded: Arc<PredecodedProgram>,
    /// Guarded form (unset: observed form, for continuous profiling).
    pub guarded: bool,
}

impl TraceCompiler {
    /// Compiles the trace over `formed`'s copies, or `None` when a
    /// copy cannot be resolved.
    fn compile(&self, formed: &FormedRegion) -> Option<CompiledTrace> {
        let chain: Vec<Arc<DecodedBlock>> = formed
            .copies
            .iter()
            .map(|&pc| self.predecoded.block(&self.program, pc))
            .collect::<Option<_>>()?;
        compile_trace(&formed.copies, &formed.edges, &chain, self.guarded)
    }
}

/// Per-run asynchronous-optimization state owned by the engine.
pub(crate) struct AsyncOpt {
    pub service: OptService<OptJob, OptOutcome>,
    /// Block epochs: bumped on retirement / re-formation, checked at
    /// install.
    pub coord: Coordinator<Pc>,
    /// Seeds currently queued or in flight (suppresses duplicate
    /// submissions of the same candidate).
    pub pending: BTreeSet<Pc>,
    /// Accumulated `(p_enqueue, p_install, use_install)` drift points.
    pub drift: Vec<(f64, f64, f64)>,
}

impl AsyncOpt {
    /// Spawns the worker pool. With a `compiler` (the cached-fused
    /// backend) workers also compile each formed region's trace, so
    /// installation does zero compile work on the execution thread.
    /// The tracer, when attached, receives `opt_started` events from
    /// worker threads directly.
    pub(crate) fn new(
        workers: usize,
        compiler: Option<TraceCompiler>,
        tracer: Option<Arc<Tracer>>,
    ) -> AsyncOpt {
        #[cfg(not(feature = "trace"))]
        let _ = &tracer;
        let service = OptService::new(workers, QUEUE_CAPACITY, move |job: OptJob| {
            #[cfg(feature = "trace")]
            if let Some(t) = &tracer {
                t.emit(EventKind::OptStarted {
                    pc: job.seed as u64,
                });
            }
            let formed = form_region(&job.snapshot, &job.policy, job.seed);
            let trace = compiler
                .as_ref()
                .zip(formed.as_ref())
                .and_then(|(c, f)| c.compile(f))
                .map(Arc::new);
            OptOutcome {
                seed: job.seed,
                stamps: job.stamps,
                probs: job.probs,
                formed,
                trace,
            }
        });
        AsyncOpt {
            service,
            coord: Coordinator::new(),
            pending: BTreeSet::new(),
            drift: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_profile::SuccSlot;

    struct Mock {
        blocks: BTreeMap<Pc, (Terminator, BlockRecord, u32)>,
    }

    impl BlockSource for Mock {
        fn terminator(&self, pc: Pc) -> Option<&Terminator> {
            self.blocks.get(&pc).map(|(t, _, _)| t)
        }
        fn record(&self, pc: Pc) -> Option<&BlockRecord> {
            self.blocks.get(&pc).map(|(_, r, _)| r)
        }
        fn block_len(&self, pc: Pc) -> Option<u32> {
            self.blocks.get(&pc).map(|(_, _, len)| *len)
        }
    }

    fn cond_block(taken: Pc, fallthrough: Pc, p_taken: f64) -> (Terminator, BlockRecord, u32) {
        let use_count = 1000u64;
        let taken_count = (p_taken * use_count as f64) as u64;
        let record = BlockRecord {
            len: 2,
            kind: Some(tpdbt_profile::TermKind::Cond),
            use_count,
            edges: vec![
                (SuccSlot::Taken, taken, taken_count),
                (SuccSlot::Fallthrough, fallthrough, use_count - taken_count),
            ],
        };
        (Terminator::Branch { taken, fallthrough }, record, 2)
    }

    #[test]
    fn snapshot_walks_successors_and_reports_probabilities() {
        let mut blocks = BTreeMap::new();
        blocks.insert(0, cond_block(0, 4, 0.9)); // self-loop latch
        blocks.insert(4, cond_block(0, 8, 0.25));
        // 8 is untranslated: absent from the mock.
        let mock = Mock { blocks };
        let snap = snapshot_neighborhood(&mock, 0, &RegionPolicy::default());
        let members: Vec<Pc> = snap.members().copied().collect();
        assert_eq!(members, vec![0, 4]);
        let probs = snap.probabilities();
        assert!((probs[&0] - 0.9).abs() < 1e-9);
        assert!((probs[&4] - 0.25).abs() < 1e-9);
        // The snapshot is a faithful BlockSource for formation.
        assert_eq!(snap.block_len(0), Some(2));
        assert!(snap.record(8).is_none());
    }

    #[test]
    fn snapshot_is_bounded() {
        // A long jump chain: the walk must stop at the cap, not swallow
        // the whole program.
        let mut blocks = BTreeMap::new();
        for pc in 0..10_000usize {
            let record = BlockRecord {
                len: 1,
                kind: Some(tpdbt_profile::TermKind::Jump),
                use_count: 1,
                edges: vec![(SuccSlot::Other(0), pc + 1, 1)],
            };
            blocks.insert(pc, (Terminator::Jump { target: pc + 1 }, record, 1));
        }
        let mock = Mock { blocks };
        let policy = RegionPolicy::default();
        let snap = snapshot_neighborhood(&mock, 0, &policy);
        assert_eq!(snap.members().count(), policy.max_region_blocks * 4 + 16);
    }
}
