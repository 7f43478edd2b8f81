//! The translator's two entry points over one executor/policy split.
//!
//! A run is an [`Executor`] (the guest machine's per-block code, the
//! code half of the translation cache) feeding a [`Policy`] (counters,
//! candidate pool, region formation and the event counts; see
//! [`crate::policy`]). The executor produces one block event per
//! executed block: its block id, length, edge id and successor column.
//!
//! * [`Lockstep::run`] / [`Lockstep::run_built`]: N policies over one
//!   guest execution. The executor steps the guest block by block into
//!   a bounded event chunk, and each policy consumes the chunk in one
//!   loop, walking its regions as automata over the edge table. Every
//!   policy's outcome is bitwise equal to its config's single run,
//!   because guest execution does not depend on the policy.
//! * [`Dbt::run`] / [`Dbt::run_built`]: one policy. On `cached-fused`
//!   in a mode whose regions never re-form (no-opt, two-phase,
//!   adaptive), the policy's profiling loop steps the executor one
//!   block at a time ([`Policy::profile`] over [`Steps`]) and each
//!   region runs as a guarded compiled trace ([`crate::trace`]) that
//!   reports its exit. Every other single run
//!   (every `interp` run, continuous mode on both backends) is a
//!   lockstep run of one policy, so it walks its regions in the same
//!   chunk loop.

use std::sync::Arc;

use tpdbt_isa::{BuiltProgram, Pc, PredecodedProgram, Program};
use tpdbt_profile::{InipDump, IntervalProfile, PlainProfile};
use tpdbt_trace::Tracer;
use tpdbt_vm::Machine;

use crate::backend::Backend;
use crate::config::{DbtConfig, ProfilingMode};
use crate::error::DbtError;
use crate::exec::{Executor, Steps};
use crate::policy::{ExecStats, Policy};
use crate::trace::CompiledTrace;

/// The result of running a program under the translator.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The profile dump — `INIP(T)` in two-phase mode, a plain whole-run
    /// profile (with no regions) in [`crate::ProfilingMode::NoOpt`].
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
    /// shape). Meaningful for [`crate::ProfilingMode::NoOpt`] runs,
    /// where no counters were frozen; callable on any run.
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

/// A machine loaded with `built`'s data sections and `input`.
fn built_machine(built: &BuiltProgram, input: &[i64]) -> Machine {
    let mut machine = Machine::new(&built.program, input);
    machine.preload(&built.mem_image, &built.fmem_image);
    machine
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

    /// Shares a decode-once cache of decoded blocks across runs of the
    /// same program. Consulted by the [`crate::Backend::CachedFused`]
    /// backend; it must have been
    /// created (via [`PredecodedProgram::new`]) for the exact program
    /// later passed to [`Dbt::run`], otherwise it is silently ignored
    /// and the run uses a private cache. Sweeps hand one cache to every
    /// cell of a guest so each block is decoded once per guest instead
    /// of once per run.
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
        self.run_machine(program, &mut Machine::new(program, input))
    }

    /// Runs a built program (with preloaded data sections) on `input`.
    ///
    /// # Errors
    ///
    /// Returns [`DbtError::Guest`] when the guest program traps.
    pub fn run_built(&self, built: &BuiltProgram, input: &[i64]) -> Result<RunOutcome, DbtError> {
        self.run_machine(&built.program, &mut built_machine(built, input))
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
        Ok(engine
            .policy
            .into_outcome(&engine.exec.code, program.entry(), output))
    }
}

/// A single run: one executor, one policy, and the region traces the
/// run compiles.
struct Engine<'p> {
    program: &'p Program,
    exec: Executor<'p>,
    policy: Policy<'p>,
    /// Compiled traces by region id, each compiled at its region's
    /// first entry; `None` when this run walks every region. Traced
    /// regions never re-form, so a trace lives exactly as long as its
    /// region.
    traces: Option<Vec<Option<CompiledTrace>>>,
}

impl<'p> Engine<'p> {
    /// An engine with an empty translation cache. `shared` is the
    /// caller's decode-once cache (see [`Executor::new`]).
    fn new(
        config: &DbtConfig,
        tracer: Option<&'p Tracer>,
        program: &'p Program,
        shared: Option<&Arc<PredecodedProgram>>,
    ) -> Self {
        // Traces pay only where there is decoded code to compile and the
        // region, once compiled, stays as it was formed.
        let compiles =
            config.backend == Backend::CachedFused && config.mode != ProfilingMode::Continuous;
        Engine {
            program,
            exec: Executor::new(program, config.backend, config.fuel, shared),
            policy: Policy::new(*config, tracer),
            traces: compiles.then(Vec::new),
        }
    }

    /// Runs the guest to its halt: walked in chunks as a lockstep
    /// policy of one when this run compiles no traces, and otherwise
    /// block by block with each region run as its trace.
    fn execute(&mut self, machine: &mut Machine) -> Result<Vec<i64>, DbtError> {
        let entry = self.program.entry();
        let exec = &mut self.exec;
        let policy = &mut self.policy;
        match &mut self.traces {
            None => run_chunks(exec, std::slice::from_mut(policy), entry, machine)?,
            Some(traces) => run_traced(exec, policy, traces, entry, machine)?,
        }
        Ok(machine.output().to_vec())
    }
}

/// A single run's loop over guarded compiled traces: the profiling
/// phase steps the executor block by block ([`Policy::profile`] over
/// [`Steps`]); a dispatched region runs through its trace, compiled at
/// the region's first entry.
fn run_traced(
    exec: &mut Executor<'_>,
    policy: &mut Policy<'_>,
    traces: &mut Vec<Option<CompiledTrace>>,
    entry: Pc,
    machine: &mut Machine,
) -> Result<(), DbtError> {
    let mut pc = entry;
    loop {
        // Optimized dispatch: region entry wins.
        let entry = exec
            .code
            .id_of(pc)
            .and_then(|id| policy.dispatch(&exec.code, id));
        let next = match entry {
            Some(row) => {
                let ri = policy.enter(row);
                if traces.len() <= ri {
                    traces.resize_with(ri + 1, || None);
                }
                let trace = match &mut traces[ri] {
                    Some(trace) => trace,
                    slot @ None => slot.insert(exec.compile(&policy.regions[ri].dump)?),
                };
                let next = exec.run_trace(policy, ri, trace, machine)?;
                policy.settle(&exec.code, next.is_none());
                next
            }
            None => {
                let mut steps = Steps::new(exec, machine, pc);
                policy.profile(&mut steps)?;
                steps.next()
            }
        };
        match next {
            Some(target) => pc = target,
            None => return Ok(()),
        }
    }
}

/// Block events the executor runs ahead of its policies.
const CHUNK: usize = 1024;

/// Runs the guest from `entry` to its halt, block by block, feeding
/// every policy each chunk of block events.
fn run_chunks(
    exec: &mut Executor<'_>,
    policies: &mut [Policy<'_>],
    entry: Pc,
    machine: &mut Machine,
) -> Result<(), DbtError> {
    let mut events = Vec::with_capacity(CHUNK);
    let mut pc = Some(entry);
    while let Some(mut at) = pc {
        events.clear();
        loop {
            let (ev, next) = exec.step(at, machine)?;
            events.push(ev);
            pc = next;
            match pc {
                Some(next) if events.len() < CHUNK => at = next,
                _ => break,
            }
        }
        for policy in policies.iter_mut() {
            policy.consume(&exec.code, &events);
        }
    }
    Ok(())
}

/// One guest execution under several configurations at once: the
/// paper's AVEP, `T = 1` base and threshold ladder on one input, say.
///
/// The executor steps the guest once, block by block, and feeds every
/// config's translation policy chunk by chunk; [`Lockstep::run`] returns one [`RunOutcome`]
/// per config, in order, each bitwise equal to that config's
/// [`Dbt::run`]. No event stream is recorded beyond one bounded chunk.
#[derive(Clone, Debug)]
pub struct Lockstep {
    configs: Vec<DbtConfig>,
    tracer: Option<Arc<Tracer>>,
    predecoded: Option<Arc<PredecodedProgram>>,
}

impl Lockstep {
    /// Lockstep runs of `configs`.
    ///
    /// # Panics
    ///
    /// Panics if the configs disagree on backend or fuel: they share
    /// one execution, so they must share how it runs and when it stops.
    #[must_use]
    pub fn new(configs: Vec<DbtConfig>) -> Self {
        if let Some(first) = configs.first() {
            assert!(
                configs
                    .iter()
                    .all(|c| c.backend == first.backend && c.fuel == first.fuel),
                "lockstep configs must share backend and fuel"
            );
        }
        Lockstep {
            configs,
            tracer: None,
            predecoded: None,
        }
    }

    /// Attaches a structured-event tracer: every policy reports the
    /// lifecycle events its config's [`Dbt::with_tracer`] run would,
    /// interleaved chunk by chunk.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Shares a decode-once cache of decoded blocks, as
    /// [`Dbt::with_predecoded`].
    #[must_use]
    pub fn with_predecoded(mut self, predecoded: Arc<PredecodedProgram>) -> Self {
        self.predecoded = Some(predecoded);
        self
    }

    /// Runs `program` on `input` once under every config.
    ///
    /// # Errors
    ///
    /// Returns [`DbtError::Guest`] when the guest program traps
    /// (including fuel exhaustion): the same error every config's
    /// single run returns.
    pub fn run(&self, program: &Program, input: &[i64]) -> Result<Vec<RunOutcome>, DbtError> {
        self.run_machine(program, &mut Machine::new(program, input))
    }

    /// Runs a built program (with preloaded data sections) on `input`
    /// once under every config.
    ///
    /// # Errors
    ///
    /// As [`Lockstep::run`].
    pub fn run_built(
        &self,
        built: &BuiltProgram,
        input: &[i64],
    ) -> Result<Vec<RunOutcome>, DbtError> {
        self.run_machine(&built.program, &mut built_machine(built, input))
    }

    fn run_machine(
        &self,
        program: &Program,
        machine: &mut Machine,
    ) -> Result<Vec<RunOutcome>, DbtError> {
        let Some(first) = self.configs.first() else {
            return Ok(Vec::new());
        };
        let mut exec = Executor::new(program, first.backend, first.fuel, self.predecoded.as_ref());
        let mut policies: Vec<Policy<'_>> = self
            .configs
            .iter()
            .map(|&c| Policy::new(c, self.tracer.as_deref()))
            .collect();
        run_chunks(&mut exec, &mut policies, program.entry(), machine)?;
        let output = machine.output();
        Ok(policies
            .into_iter()
            .map(|p| p.into_outcome(&exec.code, program.entry(), output.to_vec()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostModel, RegionPolicy};
    use crate::policy::reform_due;
    use crate::programs::{hot_loop, phase_flip_program};
    use tpdbt_isa::{Cond, Operand, ProgramBuilder, Reg};
    use tpdbt_profile::{RegionKind, TermKind};
    use tpdbt_trace::EventKind;

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
        let (fast, slow) = (
            CostModel::DEFAULT.price(&fast.stats),
            CostModel::DEFAULT.price(&slow.stats),
        );
        assert!(
            fast < slow,
            "early optimization should win on a stable hot loop: {fast} vs {slow}"
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

    /// On the phase-flipping loop, two-phase regions keep side-exiting
    /// while adaptive mode retires and re-forms.
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
        assert_eq!(out.inip.cycles, CostModel::DEFAULT.price(&out.stats));
        assert_eq!(out.inip.profiling_ops, out.stats.profiling_ops);
        assert_eq!(out.inip.instructions, out.stats.instructions);
        assert_eq!(out.inip.threshold, 500);
    }

    /// The translation cache and region traces, inspected on the
    /// engine a whole run leaves behind: only `cached-fused` two-phase
    /// and adaptive runs compile traces, each region's at its first
    /// entry, and retirement makes a region unreachable.
    mod trace_slots {
        use super::*;

        /// Runs `p` to completion and returns the engine as the run
        /// left it.
        fn run_engine<'p>(
            config: &DbtConfig,
            p: &'p Program,
            shared: Option<&Arc<PredecodedProgram>>,
        ) -> Engine<'p> {
            let mut engine = Engine::new(config, None, p, shared);
            engine.execute(&mut Machine::new(p, &[])).unwrap();
            engine
        }

        /// The trace compiled for region `ri`, if any.
        fn trace<'e>(engine: &'e Engine<'_>, ri: usize) -> Option<&'e CompiledTrace> {
            engine.traces.as_ref()?.get(ri)?.as_ref()
        }

        /// Every compiled trace covers exactly its region's copy list,
        /// and every dispatch link points at a live region.
        fn assert_traces_match_shapes(engine: &Engine<'_>) {
            let regions = &engine.policy.regions;
            for (ri, r) in regions.iter().enumerate() {
                if let Some(trace) = trace(engine, ri) {
                    assert_eq!(trace.starts(), r.dump.copies, "region {}", r.dump.id);
                }
            }
            for id in 0..engine.policy.profile.blocks.len() {
                if let Some(ri) = engine.policy.entry_region(id) {
                    let pc = engine.exec.code.pc_of(id);
                    assert!(!regions[ri].retired, "pc {pc} dispatches a retired region");
                    assert_eq!(regions[ri].dump.entry_pc(), pc);
                }
            }
        }

        /// Only `cached-fused` two-phase and adaptive regions compile,
        /// to guarded traces with fast guards; `interp` runs and
        /// continuous runs walk every region and compile none.
        #[test]
        fn each_backend_and_mode_compiles_its_trace_form() {
            let p = hot_loop(10_000);
            for backend in Backend::ALL {
                for config in [
                    DbtConfig::two_phase(100),
                    DbtConfig::continuous(100),
                    DbtConfig::adaptive(100),
                ] {
                    let config = config.with_backend(backend);
                    let ctx = format!("{backend} {:?}", config.mode);
                    let engine = run_engine(&config, &p, None);
                    let regions = &engine.policy.regions;
                    assert!(!regions.is_empty(), "{ctx}");
                    assert_traces_match_shapes(&engine);
                    let compiles =
                        backend == Backend::CachedFused && config.mode != ProfilingMode::Continuous;
                    for ri in 0..regions.len() {
                        match trace(&engine, ri) {
                            Some(t) => {
                                assert!(compiles, "{ctx}: region {ri} compiled");
                                assert!(t.fast_guards() > 0, "{ctx}: no fast guards");
                            }
                            None => assert!(!compiles, "{ctx}: the loop region ran"),
                        }
                    }
                    // Only `cached-fused` keeps decoded code per block.
                    assert!(engine
                        .exec
                        .code
                        .blocks
                        .iter()
                        .all(|e| e.code.is_some() == (backend == Backend::CachedFused)));
                }
            }
        }

        /// Re-formation replaces a region's shape in place: its entry
        /// still dispatches to it, and no trace is compiled for it. The
        /// guest runs twice on one engine: the second run finds the
        /// translation cache warm and the entry counters doubling, so
        /// regions re-form mid-run.
        #[test]
        fn reform_replaces_the_region_and_keeps_its_dispatch_link() {
            let p = phase_flip_program();
            for backend in Backend::ALL {
                let config = DbtConfig::continuous(1000).with_backend(backend);
                let mut engine = run_engine(&config, &p, None);
                let before: Vec<u64> = engine.policy.regions.iter().map(|r| r.formed_use).collect();
                engine.execute(&mut Machine::new(&p, &[])).unwrap();
                let reformed = engine
                    .policy
                    .regions
                    .iter()
                    .zip(&before)
                    .filter(|(r, &formed_use)| r.formed_use != formed_use)
                    .count();
                assert!(reformed > 0, "{backend}: a reform must fire");
                assert_traces_match_shapes(&engine);
                for (ri, r) in engine.policy.regions.iter().enumerate() {
                    let entry = engine.exec.code.id_of(r.dump.entry_pc()).unwrap();
                    let entry_of = engine.policy.entry_region(entry);
                    assert_eq!(entry_of, Some(ri), "{backend}");
                }
                assert!(engine.traces.is_none(), "{backend}: continuous runs walk");
            }
        }

        /// Retirement makes a region unreachable: no cache entry
        /// dispatches to it. On `cached-fused`, a region re-formed at
        /// the same entry runs a fresh trace of its own shape.
        #[test]
        fn retirement_unlinks_the_trace_and_reinstall_compiles_a_fresh_one() {
            let p = phase_flip_program();
            for backend in Backend::ALL {
                let config = DbtConfig::adaptive(500).with_backend(backend);
                let engine = run_engine(&config, &p, None);
                let policy = &engine.policy;
                assert!(
                    policy.stats.retirements > 0,
                    "{backend}: {:?}",
                    policy.stats
                );
                assert_traces_match_shapes(&engine);
                let retired = policy
                    .regions
                    .iter()
                    .position(|r| r.retired)
                    .expect("retired region");
                let entry = policy.regions[retired].dump.entry_pc();
                let entry = engine.exec.code.id_of(entry).unwrap();
                let fresh = policy
                    .entry_region(entry)
                    .expect("a fresh region forms at the retired entry");
                assert_ne!(fresh, retired, "{backend}");
                // Each region's trace sits in its own slot, and the
                // shape check above covered both.
                let compiled = [retired, fresh].map(|ri| trace(&engine, ri).is_some());
                assert_eq!(compiled, [backend == Backend::CachedFused; 2], "{backend}");
            }
        }

        /// Runs sharing one decode-once cache reuse its decoded blocks:
        /// the second run decodes nothing and holds the same code.
        #[test]
        fn shared_predecode_is_reused_across_runs() {
            let p = hot_loop(1_000);
            let shared = Arc::new(PredecodedProgram::new(&p));
            let config = DbtConfig::two_phase(10);
            let first = run_engine(&config, &p, Some(&shared));
            let decoded = shared.decoded_count();
            assert_eq!(decoded as u64, first.policy.stats.blocks_translated);
            let second = run_engine(&config, &p, Some(&shared));
            assert_eq!(shared.decoded_count(), decoded, "no block decodes twice");
            for (a, b) in first.exec.code.blocks.iter().zip(&second.exec.code.blocks) {
                assert!(Arc::ptr_eq(
                    a.code.as_ref().unwrap(),
                    b.code.as_ref().unwrap()
                ));
            }
            // The interpreter keeps extents only and leaves the cache alone.
            let interp = DbtConfig::two_phase(10).with_backend(Backend::Interp);
            let fresh = Arc::new(PredecodedProgram::new(&p));
            let engine = run_engine(&interp, &p, Some(&fresh));
            assert!(engine.exec.predecoded.is_none());
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
            let private = engine.exec.predecoded.as_ref().expect("cached-fused");
            assert!(!Arc::ptr_eq(private, &foreign));
            assert_eq!(private.len(), p.len());
            assert_eq!(foreign.decoded_count(), 0);
        }
    }

    /// A lockstep executor runs up to a chunk ahead of its policies.
    /// Here the loop region forms at an event before the block after
    /// the loop first runs, in the same chunk: the executor has
    /// numbered that block, but formation must not see it, and the
    /// region and the whole outcome equal the single run's.
    #[test]
    fn formation_ignores_blocks_the_executor_ran_ahead_to() {
        let mut b = ProgramBuilder::new();
        let (i, x) = (Reg::new(0), Reg::new(1));
        let top = b.fresh_label("top");
        b.movi(i, 0);
        b.bind(top).unwrap();
        b.addi(i, i, 1);
        b.br_imm(Cond::Lt, i, 40, top);
        b.addi(x, x, 1); // 3: runs once, after the loop
        b.halt();
        let p = b.build().unwrap();
        let after = 3;
        let config = DbtConfig::two_phase(4);
        let single = Dbt::new(config).run(&p, &[]).unwrap();
        assert_eq!(single.inip.regions.len(), 1);

        let mut exec = Executor::new(&p, config.backend, config.fuel, None);
        let mut machine = Machine::new(&p, &[]);
        let mut events = Vec::new();
        let mut pc = Some(p.entry());
        while let Some(at) = pc {
            let (ev, next) = exec.step(at, &mut machine).unwrap();
            events.push(ev);
            pc = next;
        }
        assert!(events.len() < CHUNK, "one chunk");
        let code = &exec.code;
        let after_id = code.id_of(after).expect("the executor ran ahead to it");
        let first_run = events
            .iter()
            .position(|ev| ev.block as usize == after_id)
            .unwrap();
        // The event that forms the region, found one event at a time.
        let mut probe = Policy::new(config, None);
        let formed = events
            .iter()
            .position(|ev| {
                probe.consume(code, std::slice::from_ref(ev));
                probe.stats.regions_formed == 1
            })
            .unwrap();
        assert!(
            formed < first_run,
            "formation {formed}, first run {first_run}"
        );

        // The chunk up to and including the formation, in one slice.
        let mut policy = Policy::new(config, None);
        policy.consume(code, &events[..=formed]);
        assert_eq!(policy.stats.regions_formed, 1);
        assert!(policy.profile.id_of(code, after).is_none(), "not seen yet");
        assert!(policy.profile.blocks.len() <= after_id);
        assert_eq!(policy.regions[0].dump, single.inip.regions[0]);
        policy.consume(code, &events[formed + 1..]);
        let out = policy.into_outcome(code, p.entry(), machine.output().to_vec());
        assert_eq!(out.inip, single.inip);
        assert_eq!(out.stats, single.stats);
        let lockstep = Lockstep::new(vec![config]).run(&p, &[]).unwrap();
        assert_eq!(lockstep[0].inip, single.inip);
    }

    /// The profiling phase gives the same run however the events are
    /// sliced: fed in chunks of 1, 2, 3, 7 and 1024 events, one policy
    /// per config reaches the outcome, intervals and `counter_bump`
    /// total of the whole run fed to the event-at-a-time reference
    /// ([`Policy::consume_unbatched`]). In the 1024 slicing, the first
    /// interval boundary and the first `use == T` registration fall
    /// inside the run of profiling events before the first region
    /// forms.
    #[test]
    fn profiling_is_exact_in_any_slicing() {
        // for i in 0..3000: if i & 3 == 0 { x += 1 } else { x += 2 }
        let mut b = ProgramBuilder::new();
        let (i, x, t) = (Reg::new(0), Reg::new(1), Reg::new(2));
        let (top, odd, join) = (
            b.fresh_label("top"),
            b.fresh_label("odd"),
            b.fresh_label("join"),
        );
        b.bind(top).unwrap();
        b.and(t, i, Operand::Imm(3));
        b.br_imm(Cond::Ne, t, 0, odd);
        b.addi(x, x, 1);
        b.jmp(join);
        b.bind(odd).unwrap();
        b.addi(x, x, 2);
        b.bind(join).unwrap();
        b.addi(i, i, 1);
        b.br_imm(Cond::Lt, i, 3000, top);
        b.out(x);
        b.halt();
        let p = b.build().unwrap();
        let (t, interval) = (50, 333);

        let mut exec = Executor::new(&p, Backend::CachedFused, u64::MAX, None);
        let mut machine = Machine::new(&p, &[]);
        let mut events = Vec::new();
        let mut pc = Some(p.entry());
        while let Some(at) = pc {
            let (ev, next) = exec.step(at, &mut machine).unwrap();
            events.push(ev);
            pc = next;
        }
        let code = &exec.code;

        // Where the first region forms, registration happens and an
        // interval ends, in event order.
        let config = DbtConfig::two_phase(t).with_interval(interval);
        let mut probe = Policy::new(config, None);
        let formed = events
            .iter()
            .position(|ev| {
                probe.consume(code, std::slice::from_ref(ev));
                probe.stats.regions_formed == 1
            })
            .unwrap();
        let mut uses = vec![0; code.blocks.len()];
        let registered = events
            .iter()
            .position(|ev| {
                uses[ev.block as usize] += 1;
                uses[ev.block as usize] == t
            })
            .unwrap();
        let mut total = 0;
        let boundary = events
            .iter()
            .position(|ev| {
                total += u64::from(ev.len);
                total >= interval
            })
            .unwrap();
        for at in [registered, boundary] {
            assert!(0 < at && at < formed.min(1023), "{at} vs formed {formed}");
        }

        for config in [
            DbtConfig::no_opt(),
            DbtConfig::two_phase(t),
            DbtConfig::adaptive(t),
            DbtConfig::continuous(t),
        ] {
            let config = config.with_interval(interval);
            let run = |k: usize, batched: bool| {
                let tracer = Tracer::new();
                let mut policy = Policy::new(config, Some(&tracer));
                for chunk in events.chunks(k) {
                    if batched {
                        policy.consume(code, chunk);
                    } else {
                        policy.consume_unbatched(code, chunk);
                    }
                }
                let out = policy.into_outcome(code, p.entry(), machine.output().to_vec());
                (k, out, tracer.count("counter_bump"))
            };
            let (_, first, bumps) = &run(events.len(), false);
            assert!(
                !first.intervals.is_empty() && *bumps > 0,
                "{:?}",
                config.mode
            );
            let runs: Vec<_> = [1, 2, 3, 7, 1024].map(|k| run(k, true)).into();
            for (k, out, n) in &runs {
                let ctx = format!("{:?} in slices of {k}", config.mode);
                assert_eq!(out.inip, first.inip, "{ctx}");
                assert_eq!(out.stats, first.stats, "{ctx}");
                assert_eq!(out.intervals, first.intervals, "{ctx}");
                assert_eq!(n, bumps, "{ctx}");
            }
        }
        // The same run, single: the profiling phase over the executor.
        let single = Dbt::new(config).run(&p, &[]).unwrap();
        let mut policy = Policy::new(config, None);
        policy.consume(code, &events);
        let walked = policy.into_outcome(code, p.entry(), machine.output().to_vec());
        assert_eq!(single.inip, walked.inip);
        assert_eq!(single.stats, walked.stats);
        assert_eq!(single.intervals, walked.intervals);
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
        fn a_trapped_run_still_reports_its_bumps() {
            let p = hot_loop(1_000_000);
            for backend in Backend::ALL {
                let config = DbtConfig::no_opt().with_backend(backend).with_fuel(100_000);
                let tracer = Arc::new(Tracer::new());
                let run = Dbt::new(config)
                    .with_tracer(Arc::clone(&tracer))
                    .run(&p, &[]);
                assert!(run.is_err(), "{backend}");
                assert!(tracer.count("counter_bump") > 0, "{backend}");
            }
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
            // Bumps are counted, not stored (continuous mode bumps
            // forever), and the count is exact: one bump per use
            // increment, and counters never freeze or reset here.
            let total_use: u64 = out.inip.blocks.values().map(|b| b.use_count).sum();
            assert_eq!(tracer.count("counter_bump"), total_use);
            assert_eq!(tracer.dropped(), 0, "bumps flooded the ring");
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

    /// Compiled traces against the region walk, one region run at a
    /// time: both directions of a branch guard, on every condition and
    /// both operand kinds, into every kind of successor.
    mod trace_exactness {
        use super::*;
        use std::collections::BTreeSet;

        use tpdbt_isa::MicroOperand;

        use crate::exec::TAKEN;
        use crate::trace::{Guard, EXIT};

        /// Where a branch guard's direction led.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        enum Lead {
            /// A later copy of the region.
            Internal,
            /// Copy 0: a loop-back.
            LoopBack,
            /// Out of the region.
            Exit,
        }

        /// A direction a fast branch guard took: the branch's pc,
        /// whether it was taken, where it led, and whether its right
        /// operand is a register.
        type Took = (Pc, bool, Lead, bool);

        /// Runs `p` on `input` twice, side by side, as a `cached-fused`
        /// two-phase run at threshold `t`: once as [`run_traced`] runs
        /// it, each region through [`Executor::run_trace`], and once
        /// walked, its policy consuming one block event at a time as
        /// [`run_chunks`] feeds it a chunk. After every run of
        /// profiling-phase blocks and every region run, the next pc,
        /// the machine and every stat (instructions, loop-backs,
        /// entries, completions, side exits) agree. Returns the
        /// directions fast branch guards took.
        fn run_against_walk(p: &Program, input: &[i64], t: u64) -> BTreeSet<Took> {
            let config = DbtConfig::two_phase(t);
            let mut traced = Engine::new(&config, None, p, None);
            let mut walked = Engine::new(&config, None, p, None);
            let Engine {
                exec,
                policy,
                traces,
                ..
            } = &mut traced;
            let traces = traces
                .as_mut()
                .expect("cached-fused two-phase runs compile");
            let (mut tm, mut wm) = (Machine::new(p, input), Machine::new(p, input));
            let exits = |s: &ExecStats| s.completions + s.side_exits;
            let mut took = BTreeSet::new();
            let mut pc = p.entry();
            loop {
                let entry = exec
                    .code
                    .id_of(pc)
                    .and_then(|id| policy.dispatch(&exec.code, id));
                let next = match entry {
                    Some(row) => {
                        let ri = policy.enter(row);
                        if traces.len() <= ri {
                            traces.resize_with(ri + 1, || None);
                        }
                        let trace = match &mut traces[ri] {
                            Some(trace) => trace,
                            slot @ None => {
                                slot.insert(exec.compile(&policy.regions[ri].dump).unwrap())
                            }
                        };
                        let next = exec.run_trace(policy, ri, trace, &mut tm).unwrap();
                        // The same region run walked: the entry event
                        // enters the region, and each event after it
                        // follows the region's table until one leaves.
                        let before = exits(&walked.policy.stats);
                        let (mut at, mut cur) = (pc, 0);
                        let walked_next = loop {
                            let (ev, next) = walked.exec.step(at, &mut wm).unwrap();
                            walked.policy.consume(&walked.exec.code, &[ev]);
                            if ev.halted() {
                                break next;
                            }
                            let succ = policy.succ(ri, cur, ev.column);
                            let left = exits(&walked.policy.stats) != before;
                            assert_eq!(left, succ == EXIT, "region {ri} copy {cur}");
                            let seg = &trace.segs[cur];
                            if let Guard::Branch { exit, .. } = seg.guard {
                                let lead = match succ {
                                    EXIT => Lead::Exit,
                                    0 => Lead::LoopBack,
                                    _ => Lead::Internal,
                                };
                                let reg = matches!(exit.b, MicroOperand::Reg(_));
                                took.insert((seg.term_pc, ev.column == TAKEN, lead, reg));
                            }
                            if left {
                                break next;
                            }
                            (at, cur) = (next.unwrap(), succ as usize);
                        };
                        assert_eq!(next, walked_next, "region {ri} entered at pc {pc}");
                        policy.settle(&exec.code, next.is_none());
                        next
                    }
                    None => {
                        // A run of profiling-phase blocks up to the next
                        // region entry, and the same blocks walked one
                        // event at a time.
                        let mut steps = Steps::new(exec, &mut tm, pc);
                        policy.profile(&mut steps).unwrap();
                        let next = steps.next();
                        let mut at = Some(pc);
                        while walked.policy.stats.instructions < policy.stats.instructions {
                            let (ev, n) = walked.exec.step(at.unwrap(), &mut wm).unwrap();
                            walked.policy.consume(&walked.exec.code, &[ev]);
                            at = n;
                        }
                        assert_eq!(next, at, "profiling run from pc {pc}");
                        next
                    }
                };
                assert_eq!(policy.stats, walked.policy.stats, "after pc {pc}");
                assert_eq!(tm, wm, "after pc {pc}");
                match next {
                    Some(target) => pc = target,
                    None => break,
                }
            }
            let dumps =
                |p: &Policy<'_>| p.regions.iter().map(|r| r.dump.clone()).collect::<Vec<_>>();
            assert_eq!(dumps(policy), dumps(&walked.policy));
            took
        }

        /// The right operand of every guard under test.
        const B: i64 = 5;

        /// A left operand for which `a cond B` is `holds`: on the
        /// condition's boundary where it has one.
        fn operand(cond: Cond, holds: bool) -> i64 {
            let (yes, no) = match cond {
                Cond::Eq => (5, 6),
                Cond::Ne => (6, 5),
                Cond::Lt => (4, 5),
                Cond::Le => (5, 6),
                Cond::Gt => (6, 5),
                Cond::Ge => (5, 4),
            };
            if holds {
                yes
            } else {
                no
            }
        }

        /// Three loops around the guard under test, `br cond a, B` on
        /// the next input `a`; formation at `T = 8` gives the guard's
        /// directions these successors.
        #[derive(Clone, Copy, Debug)]
        enum Shape {
            /// Taken 7 of 8 back to copy 0; not taken, out.
            Latch,
            /// Taken 1 of 8 out; not taken, into copy 1.
            Escape,
            /// Taken 3 of 4 into a later copy; not taken, onto copy 0,
            /// laid out right after the branch.
            Rejoin,
        }

        /// `shape` around the guard on `cond` (`B` in a register when
        /// `reg`), the input running its pattern `rounds` times, and
        /// the guard's pc.
        fn program(shape: Shape, cond: Cond, reg: bool, rounds: usize) -> (Program, Vec<i64>, Pc) {
            let pattern: &[bool] = match shape {
                Shape::Latch => &[true, true, true, true, true, true, true, false],
                Shape::Escape => &[true, false, false, false, false, false, false, false],
                Shape::Rejoin => &[true, true, true, false],
            };
            let input: Vec<i64> = pattern
                .iter()
                .cycle()
                .take(pattern.len() * rounds)
                .map(|&holds| operand(cond, holds))
                .collect();
            let falls = input.iter().filter(|&&a| !cond.eval(a, B)).count() as i64;
            let (a, n, b) = (Reg::new(0), Reg::new(1), Reg::new(5));
            let mut pb = ProgramBuilder::new();
            let guard = |pb: &mut ProgramBuilder, taken| {
                let at = pb.here();
                if reg {
                    pb.br_reg(cond, a, b, taken);
                } else {
                    pb.br_imm(cond, a, B, taken);
                }
                at
            };
            pb.movi(b, B);
            let top = pb.fresh_label("top");
            let g = match shape {
                // top: a = input; br cond a, B -> top
                //      n -= 1; br n > 0 -> top; halt
                Shape::Latch => {
                    pb.movi(n, falls);
                    pb.bind(top).unwrap();
                    pb.input(a);
                    let g = guard(&mut pb, top);
                    pb.subi(n, n, 1);
                    pb.br_imm(Cond::Gt, n, 0, top);
                    pb.halt();
                    g
                }
                // top:  a = input; br cond a, B -> cold
                //       n -= 1; br n > 0 -> top; halt
                // cold: jmp top
                Shape::Escape => {
                    let cold = pb.fresh_label("cold");
                    pb.movi(n, falls);
                    pb.bind(top).unwrap();
                    pb.input(a);
                    let g = guard(&mut pb, cold);
                    pb.subi(n, n, 1);
                    pb.br_imm(Cond::Gt, n, 0, top);
                    pb.halt();
                    pb.bind(cold).unwrap();
                    pb.jmp(top);
                    g
                }
                //       jmp top
                // body: a = input; br cond a, B -> join
                // top:  n -= 1; br n <= 0 -> done
                //       jmp body
                // join: jmp top
                // done: halt
                Shape::Rejoin => {
                    let (body, join, done) = (
                        pb.fresh_label("body"),
                        pb.fresh_label("join"),
                        pb.fresh_label("done"),
                    );
                    pb.movi(n, input.len() as i64 + 1);
                    pb.jmp(top);
                    pb.bind(body).unwrap();
                    pb.input(a);
                    let g = guard(&mut pb, join);
                    pb.bind(top).unwrap();
                    pb.subi(n, n, 1);
                    pb.br_imm(Cond::Le, n, 0, done);
                    pb.jmp(body);
                    pb.bind(join).unwrap();
                    pb.jmp(top);
                    pb.bind(done).unwrap();
                    pb.halt();
                    g
                }
            };
            (pb.build().unwrap(), input, g)
        }

        /// Every condition, comparing with a register and with an
        /// immediate, takes and falls through a branch guard into a
        /// later copy, onto copy 0 and out of the region, each exactly
        /// as the walk does.
        #[test]
        fn branch_guards_match_the_walk_in_every_direction() {
            let every: BTreeSet<(bool, Lead)> = [true, false]
                .into_iter()
                .flat_map(|taken| [Lead::Internal, Lead::LoopBack, Lead::Exit].map(|l| (taken, l)))
                .collect();
            for cond in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
                for holds in [true, false] {
                    assert_eq!(cond.eval(operand(cond, holds), B), holds, "{cond:?}");
                }
                for reg in [true, false] {
                    let mut covered = BTreeSet::new();
                    for shape in [Shape::Latch, Shape::Escape, Shape::Rejoin] {
                        let (p, input, g) = program(shape, cond, reg, 40);
                        for (pc, taken, lead, by_reg) in run_against_walk(&p, &input, 8) {
                            if pc == g {
                                assert_eq!(by_reg, reg, "{cond:?} {shape:?}");
                                covered.insert((taken, lead));
                            }
                        }
                    }
                    assert_eq!(covered, every, "{cond:?}, register operand: {reg}");
                }
            }
        }

        /// A loop latch's guard: taken, it loops back to the entry
        /// copy; not taken, it leaves to the fall-through pc, where the
        /// walk's executed terminator goes.
        #[test]
        fn run_trace_matches_exec_term_on_both_directions() {
            let mut b = ProgramBuilder::new();
            let top = b.fresh_label("top");
            b.bind(top).unwrap();
            b.addi(Reg::new(0), Reg::new(0), 1);
            b.br_imm(Cond::Lt, Reg::new(0), 100, top);
            b.halt();
            let p = b.build().unwrap();
            assert_eq!(
                run_against_walk(&p, &[], 8),
                BTreeSet::from([
                    (1, true, Lead::LoopBack, false),
                    (1, false, Lead::Exit, false)
                ])
            );
        }
    }
}
