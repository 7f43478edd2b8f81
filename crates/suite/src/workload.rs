//! Workload container and sizing.

use tpdbt_isa::BuiltProgram;

use crate::spec::BenchClass;

/// Workload size. The paper runs SPEC reference inputs to completion on
/// hardware; our scales trade fidelity for wall-clock time on the
/// simulated translator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ~100× smaller than [`Scale::Paper`] — unit/integration tests.
    Tiny,
    /// ~10× smaller than [`Scale::Paper`] — criterion benches and quick
    /// experiment runs.
    Small,
    /// Full experiment scale: hot blocks reach millions of visits so the
    /// paper's entire threshold ladder (100 … 4M) is meaningful.
    Paper,
}

impl Scale {
    /// The flag and wire name (`"tiny"` / `"small"` / `"paper"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Divisor applied to a benchmark's base (paper-scale) record count.
    #[must_use]
    pub fn divisor(self) -> usize {
        match self {
            Scale::Tiny => 100,
            Scale::Small => 10,
            Scale::Paper => 1,
        }
    }

    /// Scales a base record count, keeping at least a handful of
    /// records.
    #[must_use]
    pub fn records(self, base: usize) -> usize {
        (base / self.divisor()).max(32)
    }

    /// The scale's byte in profile-store cache keys. On-disk
    /// compatibility: these values must never change. (Guests loaded
    /// from files carry no scale and use 255.)
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Scale::Tiny => 0,
            Scale::Small => 1,
            Scale::Paper => 2,
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [Scale::Tiny, Scale::Small, Scale::Paper]
            .into_iter()
            .find(|scale| scale.name() == s)
            .ok_or_else(|| format!("unknown scale `{s}` (tiny|small|paper)"))
    }
}

/// Which input to generate — the paper collects `INIP(T)` and `AVEP`
/// with the reference input and `INIP(train)` with the training input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// The reference input.
    Ref,
    /// The training input (shorter; per-benchmark distribution changes
    /// encode how representative SPEC training inputs were).
    Train,
}

/// A runnable benchmark: guest binary plus input stream.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (SPEC2000 analog, e.g. `"mcf"`).
    pub name: &'static str,
    /// INT or FP suite membership.
    pub class: BenchClass,
    /// The guest binary with preloaded data sections.
    pub binary: BuiltProgram,
    /// The input word stream.
    pub input: Vec<i64>,
    /// Which input this is.
    pub kind: InputKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_codes_are_stable() {
        assert_eq!(Scale::Tiny.code(), 0);
        assert_eq!(Scale::Small.code(), 1);
        assert_eq!(Scale::Paper.code(), 2);
    }

    #[test]
    fn scale_names_parse_back() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            assert_eq!(scale.name().parse::<Scale>(), Ok(scale));
        }
        assert_eq!(
            "huge".parse::<Scale>(),
            Err("unknown scale `huge` (tiny|small|paper)".to_string())
        );
    }

    #[test]
    fn scale_divisors_are_ordered() {
        assert!(Scale::Tiny.divisor() > Scale::Small.divisor());
        assert!(Scale::Small.divisor() > Scale::Paper.divisor());
        assert_eq!(Scale::Paper.divisor(), 1);
    }

    #[test]
    fn records_have_a_floor() {
        assert_eq!(Scale::Tiny.records(100), 32);
        assert_eq!(Scale::Paper.records(100), 100);
        assert_eq!(Scale::Small.records(100_000), 10_000);
    }
}
