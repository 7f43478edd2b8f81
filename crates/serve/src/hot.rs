//! The in-memory hot tier: a small exact-counter LRU keyed by cache
//! key digest, sitting in front of the on-disk [`tpdbt_store::ProfileStore`].
//!
//! The tier is one global LRU behind one mutex. Capacities are tens to
//! hundreds of artifacts, so eviction scans for the minimum logical
//! tick instead of maintaining an intrusive list — O(capacity) on the
//! insert path, no unsafe code. Counters are updated under the lock,
//! so they are *exact*: the concurrency stress test asserts
//! equalities, not inequalities.
//!
//! A panic under the lock poisons the mutex; the tier recovers by
//! discarding its (possibly half-updated) contents and continuing
//! empty — a cache may always forget, it must never take the daemon
//! down. Recoveries are counted in [`HotStats::poisoned`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use tpdbt_store::Artifact;

/// Exact counters of hot-tier traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Lookups that found the artifact in memory.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Artifacts inserted.
    pub inserts: u64,
    /// Artifacts evicted to make room.
    pub evictions: u64,
    /// Poisoning recoveries (a panic under the tier lock forced a
    /// clear-and-continue).
    pub poisoned: u64,
}

struct Entry {
    artifact: Arc<Artifact>,
    tick: u64,
}

#[derive(Default)]
struct Lru {
    map: HashMap<u64, Entry>,
    tick: u64,
    stats: HotStats,
}

/// A bounded LRU of decoded artifacts.
pub struct HotTier {
    capacity: usize,
    lru: Mutex<Lru>,
}

impl HotTier {
    /// A tier holding at most `capacity` artifacts with exact LRU
    /// eviction; capacity 0 disables the tier (every lookup misses,
    /// inserts are dropped).
    #[must_use]
    pub fn new(capacity: usize) -> HotTier {
        HotTier {
            capacity,
            lru: Mutex::new(Lru::default()),
        }
    }

    /// Locks the tier, clearing and restarting it if a previous holder
    /// panicked mid-update.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        match self.lru.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                // The panicking holder may have left the map and the
                // counters out of sync; drop the contents (it is only
                // a cache) but keep the traffic counters, which are
                // monotonic and at worst off by the one interrupted
                // operation.
                guard.map.clear();
                guard.stats.poisoned += 1;
                self.lru.clear_poison();
                guard
            }
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<Artifact>> {
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        match lru.map.get_mut(&key) {
            Some(entry) => {
                entry.tick = tick;
                let hit = Arc::clone(&entry.artifact);
                lru.stats.hits += 1;
                Some(hit)
            }
            None => {
                lru.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry if the tier is full.
    pub fn insert(&self, key: u64, artifact: Arc<Artifact>) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        if let Some(entry) = lru.map.get_mut(&key) {
            entry.artifact = artifact;
            entry.tick = tick;
            return;
        }
        if lru.map.len() >= self.capacity {
            if let Some(&victim) = lru.map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k) {
                lru.map.remove(&victim);
                lru.stats.evictions += 1;
            }
        }
        lru.map.insert(key, Entry { artifact, tick });
        lru.stats.inserts += 1;
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the traffic counters.
    #[must_use]
    pub fn stats(&self) -> HotStats {
        self.lock().stats
    }

    /// Test hook: panics while holding the tier lock, poisoning it the
    /// way a crashing worker would. The panic is caught here; the next
    /// access recovers.
    #[doc(hidden)]
    pub fn poison_for_tests(&self) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self
                .lru
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("injected hot-tier panic under the lock");
        }));
        assert!(result.is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_store::{BaseArtifact, TypedArtifact};

    fn art(n: u64) -> Arc<Artifact> {
        Arc::new(
            BaseArtifact {
                cycles: n,
                output_digest: n,
            }
            .into_artifact(),
        )
    }

    #[test]
    fn evicts_least_recently_used() {
        let tier = HotTier::new(2);
        tier.insert(1, art(1));
        tier.insert(2, art(2));
        assert!(tier.get(1).is_some()); // refresh 1: now 2 is LRU
        tier.insert(3, art(3)); // evicts 2
        assert!(tier.get(1).is_some());
        assert!(tier.get(2).is_none());
        assert!(tier.get(3).is_some());
        let s = tier.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.inserts, 3);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let tier = HotTier::new(2);
        tier.insert(1, art(1));
        tier.insert(2, art(2));
        tier.insert(1, art(10)); // refresh, not a new entry
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.stats().evictions, 0);
        match &*tier.get(1).unwrap() {
            Artifact::Base(b) => assert_eq!(b.cycles, 10),
            other => panic!("wrong artifact: {other:?}"),
        }
    }

    #[test]
    fn zero_capacity_disables_the_tier() {
        let tier = HotTier::new(0);
        tier.insert(1, art(1));
        assert!(tier.get(1).is_none());
        assert!(tier.is_empty());
        assert_eq!(tier.stats().inserts, 0);
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let tier = HotTier::new(16);
        for key in 0..256u64 {
            tier.insert(key, art(key));
        }
        assert_eq!(tier.len(), 16, "a saturated tier holds its capacity");
        let s = tier.stats();
        assert_eq!(s.inserts, 256);
        assert_eq!(s.evictions, 240);
    }

    #[test]
    fn poisoned_tier_recovers_by_clearing() {
        let tier = HotTier::new(16);
        for key in 0..8u64 {
            tier.insert(key, art(key));
        }
        tier.poison_for_tests();
        // The tier comes back empty and keeps serving.
        assert!(tier.get(3).is_none());
        assert!(tier.is_empty());
        tier.insert(3, art(99));
        assert!(tier.get(3).is_some());
        let s = tier.stats();
        assert_eq!(s.poisoned, 1);
        // Traffic counters survive the clear.
        assert_eq!(s.inserts, 9);
        assert_eq!((s.hits, s.misses), (1, 1));
    }
}
