//! Translator configuration: profiling mode, region-formation policy,
//! execution backend, and the simulated cost model.

use crate::backend::Backend;
use crate::policy::ExecStats;

/// How the translator profiles and optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfilingMode {
    /// The paper's two-phase scheme: profile until the retranslation
    /// threshold, optimize once, freeze counters.
    TwoPhase,
    /// Never optimize: the whole run is the profiling phase. Produces
    /// the paper's `AVEP` (reference input) and `INIP(train)` (training
    /// input) profiles.
    NoOpt,
    /// The paper's future-work extension: counters keep counting after
    /// optimization and a region is re-formed when its entry block's
    /// use count doubles relative to formation time. Used for ablation.
    Continuous,
    /// The paper's §5 proposal "effectively monitoring region side
    /// exits to trigger retranslation and adaptation": a region whose
    /// side-exit rate exceeds [`AdaptPolicy::max_side_exit_rate`] is
    /// retired, its blocks re-profile from scratch, and a fresh region
    /// forms once they re-reach the threshold.
    Adaptive,
}

/// The single optimization mode: regions install at formation.
///
/// Exists only for the `perfbench` harness (its own workspace), which
/// calls [`DbtConfig::with_opt_mode`]; delete both with that call.
pub enum OptMode {
    /// The paper's model, and the only one.
    Sync,
}

/// Knobs for [`ProfilingMode::Adaptive`] side-exit monitoring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptPolicy {
    /// Minimum region entries before the side-exit rate is judged.
    pub min_entries: u64,
    /// Retire the region when `side_exits / entries` exceeds this.
    pub max_side_exit_rate: f64,
    /// Stop retiring regions rooted at the same entry after this many
    /// retirements — hysteresis so inherently-mixed branches (a stable
    /// 65/35 diamond exits often *by construction*) don't churn through
    /// endless retranslation.
    pub max_retirements_per_entry: u32,
}

impl Default for AdaptPolicy {
    fn default() -> Self {
        AdaptPolicy {
            min_entries: 64,
            max_side_exit_rate: 0.35,
            max_retirements_per_entry: 3,
        }
    }
}

/// Region-formation policy knobs (DESIGN.md ablation targets).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionPolicy {
    /// Minimum branch probability for extending the main trace — the
    /// "minimum branch probability" of trace-growing heuristics
    /// (Chang & Hwu use 70%; IA32EL-style translators are greedier).
    pub main_path_prob: f64,
    /// Minimum probability for including the unlikely arm of a hammock
    /// (if-then / if-else diamond) in the region.
    pub include_prob: f64,
    /// Maximum number of block copies per region.
    pub max_region_blocks: usize,
    /// Candidate-pool size that triggers the optimization phase
    /// ("when a sufficient number of blocks are registered").
    pub pool_trigger: usize,
}

impl Default for RegionPolicy {
    fn default() -> Self {
        RegionPolicy {
            main_path_prob: 0.55,
            include_prob: 0.20,
            max_region_blocks: 32,
            pool_trigger: 8,
        }
    }
}

/// Simulated cycle prices of counted events. Values are abstract
/// machine cycles; only their *ratios* matter for the Figure 17 shape
/// (the paper's absolute Itanium 2 timings are unavailable). DESIGN.md
/// §5 documents the defaults and how far Figure 17 moves under ±2×.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// One-time fast-translation cost per instruction when a block is
    /// first seen (the profiling-phase quick translation).
    pub cold_translate_per_instr: u64,
    /// Execution cost per instruction in unoptimized (profiling-phase)
    /// code.
    pub unopt_exec_per_instr: u64,
    /// Cost of one profiling-counter increment (`use` or `taken`) in
    /// profiling-phase code.
    pub profile_op_cost: u64,
    /// Block-dispatch cost per unoptimized block entry (translation
    /// cache lookup / chaining overhead).
    pub dispatch_cost: u64,
    /// Optimization (retranslation) cost per instruction of region code.
    pub opt_translate_per_instr: u64,
    /// Execution cost per instruction inside an optimized region.
    pub opt_exec_per_instr: u64,
    /// Penalty for leaving a region through a side exit (state
    /// reconciliation, cold target).
    pub side_exit_penalty: u64,
    /// Dispatch cost when entering an optimized region.
    pub region_entry_cost: u64,
}

impl CostModel {
    /// The prices every run reports, and [`DbtConfig::fingerprint`] hashes.
    pub const DEFAULT: CostModel = CostModel {
        cold_translate_per_instr: 60,
        unopt_exec_per_instr: 4,
        profile_op_cost: 1,
        dispatch_cost: 2,
        opt_translate_per_instr: 500,
        opt_exec_per_instr: 2,
        side_exit_penalty: 16,
        region_entry_cost: 1,
    };

    /// The simulated cycles of a run that counted `s`: each price times
    /// its event's count. Profiling ops inside regions are free.
    #[must_use]
    pub fn price(&self, s: &ExecStats) -> u64 {
        self.cold_translate_per_instr * s.cold_instructions
            + self.unopt_exec_per_instr * (s.instructions - s.region_instructions)
            + self.profile_op_cost * (s.profiling_ops - s.region_profiling_ops)
            + self.dispatch_cost * s.unopt_dispatches
            + self.opt_translate_per_instr * s.retranslated_instructions
            + self.opt_exec_per_instr * s.region_instructions
            + self.side_exit_penalty * s.side_exits
            + self.region_entry_cost * s.region_entries
    }
}

/// Full translator configuration.
///
/// # Example
///
/// ```
/// use tpdbt_dbt::{DbtConfig, ProfilingMode};
///
/// let c = DbtConfig::two_phase(2000);
/// assert_eq!(c.threshold, 2000);
/// assert_eq!(c.mode, ProfilingMode::TwoPhase);
/// let avep = DbtConfig::no_opt();
/// assert_eq!(avep.mode, ProfilingMode::NoOpt);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DbtConfig {
    /// The retranslation threshold `T` (ignored in
    /// [`ProfilingMode::NoOpt`]).
    pub threshold: u64,
    /// Profiling/optimization mode.
    pub mode: ProfilingMode,
    /// Region-formation policy.
    pub policy: RegionPolicy,
    /// Side-exit monitoring policy (only consulted in
    /// [`ProfilingMode::Adaptive`]).
    pub adapt: AdaptPolicy,
    /// When set, the run records an interval profile snapshot every
    /// this many dynamic instructions (for offline phase detection à la
    /// Sherwood et al., the paper's reference \[16]). Meaningful in
    /// [`ProfilingMode::NoOpt`], where counters never freeze.
    pub interval: Option<u64>,
    /// Maximum dynamic guest instructions before the run aborts
    /// (defends against runaway workloads).
    pub fuel: u64,
    /// Which execution backend runs translated code. Never affects a
    /// run's observable results — see [`Backend`].
    pub backend: Backend,
}

impl DbtConfig {
    /// Two-phase configuration with retranslation threshold `threshold`
    /// and the default policies.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` (the paper's baseline is `T = 1`:
    /// optimize everything executed at least once).
    #[must_use]
    pub fn two_phase(threshold: u64) -> Self {
        assert!(threshold > 0, "retranslation threshold must be at least 1");
        DbtConfig {
            threshold,
            mode: ProfilingMode::TwoPhase,
            policy: RegionPolicy::default(),
            adapt: AdaptPolicy::default(),
            interval: None,
            fuel: tpdbt_vm::DEFAULT_FUEL,
            backend: Backend::default(),
        }
    }

    /// Profile-only configuration (no optimization ever) — produces
    /// `AVEP` / `INIP(train)` profiles.
    #[must_use]
    pub fn no_opt() -> Self {
        DbtConfig {
            mode: ProfilingMode::NoOpt,
            ..DbtConfig::two_phase(u64::MAX)
        }
    }

    /// Continuous-profiling configuration (ablation of the paper's
    /// future-work idea) with the given threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    #[must_use]
    pub fn continuous(threshold: u64) -> Self {
        DbtConfig {
            mode: ProfilingMode::Continuous,
            ..DbtConfig::two_phase(threshold)
        }
    }

    /// Adaptive configuration (paper §5: side-exit-triggered
    /// retranslation) with the given threshold and default
    /// [`AdaptPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    #[must_use]
    pub fn adaptive(threshold: u64) -> Self {
        DbtConfig {
            mode: ProfilingMode::Adaptive,
            ..DbtConfig::two_phase(threshold)
        }
    }

    /// Replaces the region policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RegionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the fuel budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Selects the execution backend.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns `self` unchanged: [`OptMode`] has one variant. Exists
    /// only for the `perfbench` harness.
    #[must_use]
    pub fn with_opt_mode(self, _opt_mode: OptMode) -> Self {
        self
    }

    /// Enables interval profile recording every `instructions` dynamic
    /// instructions (phase detection input).
    ///
    /// # Panics
    ///
    /// Panics if `instructions == 0`.
    #[must_use]
    pub fn with_interval(mut self, instructions: u64) -> Self {
        assert!(instructions > 0, "interval must be positive");
        self.interval = Some(instructions);
        self
    }

    /// A stable 64-bit digest over every field that can change a run's
    /// observable result, and over the constant [`CostModel::DEFAULT`]
    /// that prices the cycles a stored artifact carries. The profile
    /// store (`tpdbt-store`) keys cached artifacts on it, so stale cache
    /// entries are detected whenever a policy knob, a default price, or
    /// the mode changes — two configs compare equal iff their
    /// fingerprints do (modulo hash collisions).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a 64, inlined so `tpdbt-dbt` stays free of a dependency
        // on the store crate (which depends on profile data produced
        // *by* the translator).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mode_code: u8 = match self.mode {
            ProfilingMode::TwoPhase => 0,
            ProfilingMode::NoOpt => 1,
            ProfilingMode::Continuous => 2,
            ProfilingMode::Adaptive => 3,
        };
        eat(&[mode_code]);
        eat(&self.threshold.to_le_bytes());
        eat(&self.policy.main_path_prob.to_bits().to_le_bytes());
        eat(&self.policy.include_prob.to_bits().to_le_bytes());
        eat(&(self.policy.max_region_blocks as u64).to_le_bytes());
        eat(&(self.policy.pool_trigger as u64).to_le_bytes());
        eat(&CostModel::DEFAULT.cold_translate_per_instr.to_le_bytes());
        eat(&CostModel::DEFAULT.unopt_exec_per_instr.to_le_bytes());
        eat(&CostModel::DEFAULT.profile_op_cost.to_le_bytes());
        eat(&CostModel::DEFAULT.dispatch_cost.to_le_bytes());
        eat(&CostModel::DEFAULT.opt_translate_per_instr.to_le_bytes());
        eat(&CostModel::DEFAULT.opt_exec_per_instr.to_le_bytes());
        eat(&CostModel::DEFAULT.side_exit_penalty.to_le_bytes());
        eat(&CostModel::DEFAULT.region_entry_cost.to_le_bytes());
        eat(&self.adapt.min_entries.to_le_bytes());
        eat(&self.adapt.max_side_exit_rate.to_bits().to_le_bytes());
        eat(&u64::from(self.adapt.max_retirements_per_entry).to_le_bytes());
        eat(&self.interval.map_or(0, |i| i.wrapping_add(1)).to_le_bytes());
        // `u64::MAX + 1` wraps to no interval's 0: one marker byte keeps
        // that key apart and every other key as it was.
        if self.interval == Some(u64::MAX) {
            eat(&[1]);
        }
        eat(&self.fuel.to_le_bytes());
        // `backend` is deliberately NOT hashed: both backends
        // (interp, cached-fused) are bitwise result-identical
        // by construction (pinned by the differential proptest), so
        // runs under any backend share store entries.
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_modes() {
        assert_eq!(DbtConfig::two_phase(5).mode, ProfilingMode::TwoPhase);
        assert_eq!(DbtConfig::no_opt().mode, ProfilingMode::NoOpt);
        assert_eq!(DbtConfig::continuous(5).mode, ProfilingMode::Continuous);
        assert_eq!(DbtConfig::continuous(5).threshold, 5);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threshold_panics() {
        let _ = DbtConfig::two_phase(0);
    }

    #[test]
    fn builder_style_overrides() {
        let policy = RegionPolicy {
            max_region_blocks: 4,
            ..RegionPolicy::default()
        };
        let c = DbtConfig::two_phase(10).with_policy(policy).with_fuel(99);
        assert_eq!(c.policy.max_region_blocks, 4);
        assert_eq!(c.fuel, 99);
    }

    #[test]
    fn fingerprint_tracks_result_affecting_fields() {
        let base = DbtConfig::two_phase(100);
        assert_eq!(base.fingerprint(), DbtConfig::two_phase(100).fingerprint());
        assert_ne!(base.fingerprint(), DbtConfig::two_phase(200).fingerprint());
        assert_ne!(base.fingerprint(), DbtConfig::continuous(100).fingerprint());
        assert_ne!(base.fingerprint(), base.with_fuel(42).fingerprint());
        let policy = RegionPolicy {
            main_path_prob: 0.60,
            ..RegionPolicy::default()
        };
        assert_ne!(base.fingerprint(), base.with_policy(policy).fingerprint());
        assert_ne!(base.fingerprint(), base.with_interval(1).fingerprint());
        assert_ne!(
            base.fingerprint(),
            base.with_interval(u64::MAX).fingerprint(),
            "the largest interval is not the absent one"
        );
    }

    #[test]
    fn fingerprint_ignores_the_backend() {
        let base = DbtConfig::two_phase(100);
        assert_eq!(base.backend, Backend::CachedFused);
        for backend in Backend::ALL {
            assert_eq!(
                base.fingerprint(),
                base.with_backend(backend).fingerprint(),
                "backends are result-identical and must share store entries"
            );
            assert_eq!(base.with_backend(backend).backend, backend);
        }
    }

    /// Every profile store is keyed on these digests: a change to the
    /// hashed byte stream, or to a default price, orphans every stored
    /// artifact, so it must be deliberate and update these literals.
    #[test]
    fn fingerprints_are_pinned() {
        let cases = [
            (DbtConfig::no_opt(), 0xe890_6720_d89c_8006),
            (DbtConfig::two_phase(1), 0x33bf_918c_93fd_4634),
            (DbtConfig::two_phase(2_000), 0xe4bb_b2a9_cb11_a374),
            (DbtConfig::continuous(100), 0xc39c_92db_c802_9997),
            (DbtConfig::continuous(500), 0xd2c8_773f_6e36_d9bc),
            (DbtConfig::adaptive(500), 0x39c6_ac57_224e_e1d7),
        ];
        for (config, fingerprint) in cases {
            assert_eq!(config.fingerprint(), fingerprint, "{:?}", config.mode);
        }
    }

    #[test]
    fn default_policy_is_sane() {
        let p = RegionPolicy::default();
        assert!(p.main_path_prob > 0.5);
        assert!(p.include_prob < p.main_path_prob);
        assert!(p.max_region_blocks >= 2);
        assert!(p.pool_trigger >= 1);
    }
}
