//! The injection-site taxonomy: every place the pipeline consults the
//! plan before doing real work.

use std::fmt;
use std::str::FromStr;

/// A named injection point in the experiment pipeline.
///
/// Each site has its own occurrence counter inside a
/// [`FaultPlan`](crate::FaultPlan), so `store_read:2` and
/// `worker_panic:2` are independent events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// A store artifact read fails with a transient I/O error.
    StoreRead,
    /// A store artifact write fails with a transient I/O error.
    StoreWrite,
    /// The bytes returned by a store read are corrupted (simulates a
    /// bad disk sector: the on-disk file may be fine, the read is not).
    StoreCorrupt,
    /// A sweep worker panics at the start of a cell.
    WorkerPanic,
    /// The guest traps (a synthetic `VmError`) instead of running.
    GuestTrap,
    /// The guest exhausts its fuel budget instead of running.
    FuelExhaustion,
    /// The cell stalls (a bounded sleep) before running, simulating a
    /// slow or contended worker.
    SlowCell,
    /// The serve listener drops a freshly accepted connection before
    /// any frame is read (simulates a flaky network / dying peer).
    ServeListener,
    /// A serve request frame is treated as undecodable even though the
    /// bytes were fine (simulates a corrupted or hostile frame).
    ServeDecode,
    /// A serve request's artifact computation fails with a synthetic
    /// error instead of running.
    ServeCompute,
    /// The process aborts after the store wrote a temp file but before
    /// it was fsynced (the classic half-written-file crash window).
    CrashStoreTempWrite,
    /// The process aborts after the temp file is durable but before the
    /// atomic rename publishes it.
    CrashStoreFsync,
    /// The process aborts right after the rename, before the directory
    /// entry itself is synced.
    CrashStoreRename,
    /// The process aborts mid-quarantine, while moving a corrupt entry
    /// aside.
    CrashStoreQuarantine,
    /// The process aborts right after a sweep cell committed its
    /// artifact to the store.
    CrashSweepCommit,
    /// The process aborts on the serve cold path, after the computed
    /// artifact was persisted but before the hot-tier install.
    CrashServeInstall,
}

impl FaultSite {
    /// Every site, in stable declaration order (the occurrence-counter
    /// index is this position).
    pub const ALL: [FaultSite; 16] = [
        FaultSite::StoreRead,
        FaultSite::StoreWrite,
        FaultSite::StoreCorrupt,
        FaultSite::WorkerPanic,
        FaultSite::GuestTrap,
        FaultSite::FuelExhaustion,
        FaultSite::SlowCell,
        FaultSite::ServeListener,
        FaultSite::ServeDecode,
        FaultSite::ServeCompute,
        FaultSite::CrashStoreTempWrite,
        FaultSite::CrashStoreFsync,
        FaultSite::CrashStoreRename,
        FaultSite::CrashStoreQuarantine,
        FaultSite::CrashSweepCommit,
        FaultSite::CrashServeInstall,
    ];

    /// The crash-kind sites: each one aborts the whole process when it
    /// fires ([`FaultPlan::fire_crash`](crate::FaultPlan::fire_crash))
    /// instead of returning an error. The crash-restart harness sweeps
    /// exactly this registry.
    pub const CRASH_SITES: [FaultSite; 6] = [
        FaultSite::CrashStoreTempWrite,
        FaultSite::CrashStoreFsync,
        FaultSite::CrashStoreRename,
        FaultSite::CrashStoreQuarantine,
        FaultSite::CrashSweepCommit,
        FaultSite::CrashServeInstall,
    ];

    /// Whether this site is a crash kind (process-abort on fire).
    #[must_use]
    pub fn is_crash(self) -> bool {
        Self::CRASH_SITES.contains(&self)
    }

    /// Stable lowercase name, used by `--inject` specs and trace
    /// events.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::StoreRead => "store_read",
            FaultSite::StoreWrite => "store_write",
            FaultSite::StoreCorrupt => "store_corrupt",
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::GuestTrap => "guest_trap",
            FaultSite::FuelExhaustion => "fuel_exhaustion",
            FaultSite::SlowCell => "slow_cell",
            FaultSite::ServeListener => "serve_listener",
            FaultSite::ServeDecode => "serve_decode",
            FaultSite::ServeCompute => "serve_compute",
            FaultSite::CrashStoreTempWrite => "crash_store_temp_write",
            FaultSite::CrashStoreFsync => "crash_store_fsync",
            FaultSite::CrashStoreRename => "crash_store_rename",
            FaultSite::CrashStoreQuarantine => "crash_store_quarantine",
            FaultSite::CrashSweepCommit => "crash_sweep_commit",
            FaultSite::CrashServeInstall => "crash_serve_install",
        }
    }

    /// The site's dense index into the plan's per-site counter array.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        Self::ALL.iter().position(|&s| s == self).expect("in ALL")
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultSite {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FaultSite::ALL
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!("unknown fault site `{s}` (one of: {})", names.join(", "))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for site in FaultSite::ALL {
            assert!(seen.insert(site.name()), "duplicate name {site}");
            assert_eq!(site.name().parse::<FaultSite>().unwrap(), site);
        }
        assert!("bogus".parse::<FaultSite>().is_err());
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, site) in FaultSite::ALL.into_iter().enumerate() {
            assert_eq!(site.index(), i);
        }
    }

    #[test]
    fn crash_registry_is_exactly_the_crash_prefixed_sites() {
        for site in FaultSite::ALL {
            assert_eq!(site.is_crash(), site.name().starts_with("crash_"), "{site}");
        }
        for site in FaultSite::CRASH_SITES {
            assert!(site.is_crash());
        }
    }
}
