//! The translator's two entry points over one executor/policy split.
//!
//! A run is an [`Executor`] (the guest machine's per-block code, the
//! code half of the translation cache) feeding a [`Policy`] (counters,
//! candidate pool, region formation and the cost model; see
//! [`crate::policy`]). The executor produces one block event per
//! executed block: its pc, length, successor slot and next pc.
//!
//! * [`Dbt::run`] / [`Dbt::run_built`]: one policy. Profiling-phase
//!   blocks step through the executor one event at a time; installed
//!   regions run as compiled traces ([`crate::trace`]) that report
//!   region-level events (entry, exit, and each block only where
//!   continuous profiling counts inside regions).
//! * [`Lockstep::run`] / [`Lockstep::run_built`]: N policies over one
//!   guest execution. The executor steps the guest block by block into
//!   a bounded event chunk, and each policy consumes the chunk, walking
//!   its regions as automata over the edge table. Every policy's
//!   outcome is bitwise equal to its config's single run, because guest
//!   execution does not depend on the policy.

use std::sync::Arc;

use tpdbt_isa::{BuiltProgram, Pc, PredecodedProgram, Program};
use tpdbt_profile::{InipDump, IntervalProfile, PlainProfile};
use tpdbt_trace::Tracer;
use tpdbt_vm::Machine;

use crate::config::DbtConfig;
use crate::error::DbtError;
use crate::exec::Executor;
use crate::policy::{ExecStats, Policy};
use crate::trace::Segments;

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
        Ok(engine.policy.into_outcome(program.entry(), output))
    }
}

/// A single run: one executor, one policy, compiled region traces.
struct Engine<'p> {
    program: &'p Program,
    exec: Executor<'p>,
    policy: Policy<'p>,
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
        Engine {
            program,
            exec: Executor::new(program, config.backend, config.fuel, shared),
            policy: Policy::new(*config, tracer, program.len()),
        }
    }

    fn execute(&mut self, machine: &mut Machine) -> Result<Vec<i64>, DbtError> {
        let mut pc = self.program.entry();
        loop {
            // Optimized dispatch: region entry wins.
            let next = match self.policy.dispatch(&self.exec.cache, pc) {
                Some(ri) => self.run_region(ri, machine)?,
                None => {
                    let ev = self.exec.step(pc, machine)?;
                    self.policy.unopt(&self.exec.cache, &ev);
                    ev.exit.map(|(_, target)| target)
                }
            };
            self.policy.settle(next.is_none());
            match next {
                Some(target) => pc = target,
                None => return Ok(machine.output().to_vec()),
            }
        }
    }

    /// Runs region `ri` through its trace, compiling it first if the
    /// region was installed or re-formed since its last entry. The
    /// segment form was picked at compile time; the match here selects
    /// the loop instance for it, once per region entry.
    fn run_region(&mut self, ri: usize, machine: &mut Machine) -> Result<Option<Pc>, DbtError> {
        let guarded = !self.policy.counts_in_regions();
        let region = &mut self.policy.regions[ri];
        // The snapshot keeps the code alive while the trace loop
        // updates the policy.
        let trace = Arc::clone(
            region
                .trace
                .get_or_insert_with(|| self.exec.compile(&region.dump, guarded)),
        );
        match &trace.segs {
            Segments::Replay(segs) => self.exec.run_trace(&mut self.policy, ri, segs, machine),
            Segments::Step(segs) => self.exec.run_trace(&mut self.policy, ri, segs, machine),
        }
    }
}

/// Block events the lockstep executor runs ahead of its policies.
const CHUNK: usize = 1024;

/// One guest execution under several configurations at once: the
/// paper's AVEP, `T = 1` base and threshold ladder on one input, say.
///
/// The executor steps the guest once, block by block, and feeds every
/// config's translation policy; [`Lockstep::run`] returns one [`RunOutcome`]
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

    /// Shares a decode-once cache of fused blocks, as
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
            .map(|&c| Policy::new(c, self.tracer.as_deref(), program.len()))
            .collect();
        let mut events = Vec::with_capacity(CHUNK);
        let mut pc = Some(program.entry());
        while let Some(mut at) = pc {
            events.clear();
            loop {
                let ev = exec.step(at, machine)?;
                events.push(ev);
                pc = ev.exit.map(|(_, target)| target);
                match pc {
                    Some(next) if events.len() < CHUNK => at = next,
                    _ => break,
                }
            }
            for policy in &mut policies {
                policy.consume(&exec.cache, &events);
            }
        }
        let output = machine.output();
        Ok(policies
            .into_iter()
            .map(|p| p.into_outcome(program.entry(), output.to_vec()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegionPolicy;
    use crate::policy::reform_due;
    use crate::trace::CompiledTrace;
    use crate::Backend;
    use tpdbt_isa::{structured, Cond, ProgramBuilder, Reg};
    use tpdbt_profile::{RegionKind, TermKind};
    use tpdbt_trace::EventKind;

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
    /// compiled from the cache at its first entry after formation or
    /// re-formation, and retirement makes it unreachable.
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

        /// Every live region that ran has a trace of exactly its copy
        /// list, and every dispatch link points at a live region.
        fn assert_traces_match_shapes(engine: &Engine<'_>) {
            let regions = &engine.policy.regions;
            for r in regions.iter().filter(|r| !r.retired) {
                if let Some(trace) = &r.trace {
                    assert_eq!(trace.starts(), r.dump.copies, "region {}", r.dump.id);
                }
            }
            for (pc, e) in engine.policy.blocks.iter().enumerate() {
                if let Some(ri) = e.as_ref().and_then(|e| e.entry_of) {
                    assert!(!regions[ri].retired, "pc {pc} dispatches a retired region");
                    assert_eq!(regions[ri].dump.entry_pc(), pc);
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
                let regions = &engine.policy.regions;
                assert!(!regions.is_empty(), "{backend} {:?}", config.mode);
                assert_traces_match_shapes(&engine);
                for r in regions {
                    let fast = r.trace.as_ref().expect("the loop region ran").fast_guards();
                    assert_eq!(
                        fast > 0,
                        guarded,
                        "{backend} {:?}: {fast} fast guards",
                        config.mode
                    );
                }
                // Only the fused form keeps decoded code per block.
                let forms: Vec<bool> = engine
                    .exec
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
                type Snapshot = (Option<Arc<CompiledTrace>>, Vec<Pc>, u64);
                let before: Vec<Snapshot> = engine
                    .policy
                    .regions
                    .iter()
                    .map(|r| (r.trace.clone(), r.dump.copies.clone(), r.formed_use))
                    .collect();
                engine.execute(&mut Machine::new(&p, &[])).unwrap();
                let mut reformed = 0;
                for (r, (old, copies, formed_use)) in engine.policy.regions.iter().zip(&before) {
                    let (Some(old), Some(new)) = (old, &r.trace) else {
                        continue;
                    };
                    assert_eq!(old.starts(), *copies, "{backend}: snapshot changed");
                    let fresh = !Arc::ptr_eq(old, new);
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
                    .find(|r| r.retired)
                    .expect("retired region");
                let entry = retired.dump.entry_pc();
                let fresh = policy.blocks[entry]
                    .as_ref()
                    .and_then(|e| e.entry_of)
                    .map(|ri| &policy.regions[ri])
                    .expect("a fresh region forms at the retired entry");
                let (Some(old), Some(new)) = (&retired.trace, &fresh.trace) else {
                    panic!("{backend}: both regions ran");
                };
                assert!(!Arc::ptr_eq(new, old), "{backend}");
                assert_eq!(new.starts(), fresh.dump.copies, "{backend}");
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
            assert_eq!(decoded as u64, first.policy.stats.blocks_translated);
            let second = run_engine(&config, &p, Some(&shared));
            assert_eq!(shared.decoded_count(), decoded, "no block decodes twice");
            for (a, b) in first
                .exec
                .cache
                .iter()
                .flatten()
                .zip(second.exec.cache.iter().flatten())
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
