//! The fault plan: which occurrence of which site fails.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::site::FaultSite;

/// A malformed `--inject` specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A spec token did not parse.
    BadToken {
        /// The offending token.
        token: String,
        /// What was wrong with it.
        why: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadToken { token, why } => {
                write!(f, "bad fault spec token `{token}`: {why}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// SplitMix64: the seeded plan's per-occurrence decision function.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic injection plan shared (behind an `Arc`) by the
/// store, the sweep workers, and the guest runner.
///
/// Every consult ([`FaultPlan::fire`]) increments the site's occurrence
/// counter; the plan fires when that occurrence was explicitly planned
/// ([`FaultPlan::inject`]) or the seeded rate selects it
/// ([`FaultPlan::seeded`]). All methods take `&self` and are
/// thread-safe.
#[derive(Debug, Default)]
pub struct FaultPlan {
    counters: [AtomicU64; FaultSite::ALL.len()],
    /// Planned `(site index, occurrence)` pairs.
    points: BTreeSet<(usize, u64)>,
    /// `(seed, per-mille rate)`: each occurrence additionally fires
    /// with probability `rate / 1000`, decided by hashing
    /// `(seed, site, occurrence)`.
    seeded: Option<(u64, u32)>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// An empty plan: counts occurrences, never fires.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Plans the `occurrence`-th consult (0-based) of `site` to fail.
    #[must_use]
    pub fn inject(mut self, site: FaultSite, occurrence: u64) -> Self {
        self.points.insert((site.index(), occurrence));
        self
    }

    /// Additionally fires *every* site occurrence with probability
    /// `per_mille / 1000` (a rate above 1000 is read as 1000), decided
    /// deterministically from `seed` and the (site, occurrence) pair —
    /// the same seed replays the same faults.
    #[must_use]
    pub fn seeded(mut self, seed: u64, per_mille: u32) -> Self {
        self.seeded = Some((seed, per_mille.min(1000)));
        self
    }

    /// Parses an `--inject` spec: comma-separated `site:occurrence`
    /// tokens (e.g. `worker_panic:0,store_corrupt:2`) plus optional
    /// `seed=N` / `rate=N` (per-mille, `0..=1000`) for a seeded plan.
    ///
    /// # Errors
    ///
    /// [`PlanError::BadToken`] on a malformed token or a rate above
    /// 1000.
    pub fn parse(spec: &str) -> Result<Self, PlanError> {
        let mut plan = FaultPlan::new();
        let mut seed: Option<u64> = None;
        let mut rate: Option<u32> = None;
        for token in spec.split(',').filter(|t| !t.trim().is_empty()) {
            let token = token.trim();
            let bad = |why: String| PlanError::BadToken {
                token: token.to_string(),
                why,
            };
            if let Some(v) = token.strip_prefix("seed=") {
                seed = Some(v.parse().map_err(|e| bad(format!("bad seed: {e}")))?);
            } else if let Some(v) = token.strip_prefix("rate=") {
                let r: u32 = v.parse().map_err(|e| bad(format!("bad rate: {e}")))?;
                if r > 1000 {
                    return Err(bad("rate is per-mille, 0..=1000".into()));
                }
                rate = Some(r);
            } else if let Some((site, occ)) = token.split_once(':') {
                let site: FaultSite = site.parse().map_err(bad)?;
                let occ: u64 = occ
                    .parse()
                    .map_err(|e| bad(format!("bad occurrence index: {e}")))?;
                plan = plan.inject(site, occ);
            } else {
                return Err(bad("expected site:occurrence, seed=N, or rate=N".into()));
            }
        }
        match (seed, rate) {
            (None, None) => {}
            (s, r) => plan = plan.seeded(s.unwrap_or(0), r.unwrap_or(1)),
        }
        Ok(plan)
    }

    /// Consults the plan at `site`: bumps the site's occurrence counter
    /// and reports whether this occurrence should fail.
    #[inline]
    #[must_use]
    pub fn fire(&self, site: FaultSite) -> bool {
        self.fire_indexed(site).is_some()
    }

    /// Like [`FaultPlan::fire`], but also reports which occurrence
    /// index fired (for trace events).
    #[inline]
    #[must_use]
    pub fn fire_indexed(&self, site: FaultSite) -> Option<u64> {
        let occ = self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        let planned = self.points.contains(&(site.index(), occ))
            || self.seeded.is_some_and(|(seed, rate)| {
                let h = splitmix64(seed ^ ((site.index() as u64) << 32) ^ occ);
                h % 1000 < u64::from(rate)
            });
        if planned {
            self.fired.fetch_add(1, Ordering::Relaxed);
            Some(occ)
        } else {
            None
        }
    }

    /// Consults the plan at `site` and, if this occurrence was planned,
    /// **aborts the process** (`SIGABRT`, no destructors, no atexit
    /// handlers — the closest in-process stand-in for `kill -9`).
    ///
    /// Crash sites simulate the process dying at a precise point in a
    /// multi-step operation; the crash-restart harness then restarts
    /// the binary and checks the on-disk state.
    #[inline]
    pub fn fire_crash(&self, site: FaultSite) {
        if let Some(occ) = self.fire_indexed(site) {
            eprintln!("tpdbt-faults: injected crash at {site}:{occ} — aborting process");
            std::process::abort();
        }
    }

    /// How many times `site` has been consulted so far.
    #[must_use]
    pub fn occurrences(&self, site: FaultSite) -> u64 {
        self.counters[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired so far, across all sites.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Whether any injection is configured (an empty plan reports
    /// `false`).
    #[must_use]
    pub fn armed(&self) -> bool {
        !self.points.is_empty() || self.seeded.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires_but_counts() {
        let plan = FaultPlan::new();
        assert!(!plan.armed());
        for _ in 0..5 {
            assert!(!plan.fire(FaultSite::StoreRead));
        }
        assert_eq!(plan.fired(), 0);
        assert_eq!(plan.occurrences(FaultSite::StoreRead), 5);
    }

    mod enabled {
        use super::*;

        #[test]
        fn fires_exactly_the_planned_occurrence() {
            let plan = FaultPlan::new()
                .inject(FaultSite::WorkerPanic, 2)
                .inject(FaultSite::StoreRead, 0);
            assert!(plan.armed());
            assert!(plan.fire(FaultSite::StoreRead), "store_read:0");
            assert!(!plan.fire(FaultSite::StoreRead));
            assert!(!plan.fire(FaultSite::WorkerPanic));
            assert!(!plan.fire(FaultSite::WorkerPanic));
            assert_eq!(plan.fire_indexed(FaultSite::WorkerPanic), Some(2));
            assert!(!plan.fire(FaultSite::WorkerPanic));
            assert_eq!(plan.fired(), 2);
        }

        #[test]
        fn fire_crash_counts_unplanned_occurrences_without_aborting() {
            // The aborting arm can only be observed from a supervisor
            // (tpdbt-crash does); here we check the non-firing path
            // still advances the occurrence counter.
            let plan = FaultPlan::new().inject(FaultSite::CrashStoreFsync, 99);
            for _ in 0..3 {
                plan.fire_crash(FaultSite::CrashStoreFsync);
            }
            assert_eq!(plan.occurrences(FaultSite::CrashStoreFsync), 3);
            assert_eq!(plan.fired(), 0);
        }

        #[test]
        fn sites_have_independent_counters() {
            let plan = FaultPlan::new().inject(FaultSite::GuestTrap, 0);
            assert!(!plan.fire(FaultSite::SlowCell));
            assert!(plan.fire(FaultSite::GuestTrap));
        }

        #[test]
        fn seeded_plans_replay_identically() {
            let observe = || {
                let plan = FaultPlan::new().seeded(42, 250);
                (0..64)
                    .map(|_| plan.fire(FaultSite::StoreRead))
                    .collect::<Vec<bool>>()
            };
            let a = observe();
            assert_eq!(a, observe(), "same seed, same faults");
            let fired = a.iter().filter(|&&f| f).count();
            assert!(fired > 0, "a 25% rate over 64 draws should fire");
            assert!(fired < 64, "and should not fire every time");
        }

        #[test]
        fn parse_builds_the_same_plan() {
            let plan = FaultPlan::parse("worker_panic:0, store_corrupt:1").unwrap();
            assert!(plan.fire(FaultSite::WorkerPanic));
            assert!(!plan.fire(FaultSite::StoreCorrupt));
            assert!(plan.fire(FaultSite::StoreCorrupt));

            let seeded = FaultPlan::parse("seed=7,rate=1000").unwrap();
            assert!(seeded.fire(FaultSite::SlowCell), "rate=1000 always fires");

            assert!(matches!(
                FaultPlan::parse("bogus:1"),
                Err(PlanError::BadToken { .. })
            ));
            assert!(matches!(
                FaultPlan::parse("worker_panic"),
                Err(PlanError::BadToken { .. })
            ));
            assert!(matches!(
                FaultPlan::parse("worker_panic:x"),
                Err(PlanError::BadToken { .. })
            ));
            assert_eq!(
                FaultPlan::parse("seed=1,rate=1001").unwrap_err(),
                PlanError::BadToken {
                    token: "rate=1001".into(),
                    why: "rate is per-mille, 0..=1000".into(),
                }
            );
        }
    }
}
