//! The in-memory hot tier: a small exact-counter LRU keyed by cache
//! key digest, sitting in front of the on-disk [`tpdbt_store::ProfileStore`].
//!
//! The tier is split into independent digest-prefix shards (see
//! [`crate::shard`]), each with its own mutex, map, and slice of the
//! LRU budget, so concurrent workers only contend when they touch the
//! same shard. Within a shard, capacities are tens of artifacts, so
//! eviction scans for the minimum logical tick instead of maintaining
//! an intrusive list — O(shard capacity) on the insert path, no unsafe
//! code. Counters are updated under the shard lock, so they are
//! *exact*: the concurrency stress test asserts equalities, not
//! inequalities.
//!
//! A panic under a shard lock poisons only that shard's mutex; the
//! tier recovers by discarding the shard's (possibly half-updated)
//! contents and continuing empty — a cache may always forget, it must
//! never take the daemon down. Recoveries are counted in
//! [`HotStats::poisoned`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tpdbt_store::Artifact;

use crate::shard::shard_of;

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
    /// Shard-poisoning recoveries (a panic under the shard lock forced
    /// a clear-and-continue).
    pub poisoned: u64,
}

struct Entry {
    artifact: Arc<Artifact>,
    tick: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    tick: u64,
    stats: HotStats,
}

/// A bounded LRU of decoded artifacts, sharded by key digest.
pub struct HotTier {
    shard_capacity: usize,
    shards: Vec<Mutex<Shard>>,
}

impl HotTier {
    /// A single-shard tier holding at most `capacity` artifacts with
    /// exact global-LRU semantics; capacity 0 disables the tier (every
    /// lookup misses, inserts are dropped).
    #[must_use]
    pub fn new(capacity: usize) -> HotTier {
        HotTier::with_shards(capacity, 1)
    }

    /// A tier of `shards` independent LRUs (clamped to at least 1)
    /// splitting `capacity` between them. Each shard gets
    /// `ceil(capacity / shards)` slots, so the tier may hold slightly
    /// more than `capacity` when the split is uneven — budget
    /// rounding, never starvation. Recency is per-shard: an entry is
    /// evicted by traffic to *its* shard, not by global age.
    #[must_use]
    pub fn with_shards(capacity: usize, shards: usize) -> HotTier {
        let shards = shards.max(1);
        HotTier {
            shard_capacity: capacity.div_ceil(shards),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Number of independent shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Locks the shard owning `key`, clearing and restarting it if a
    /// previous holder panicked mid-update.
    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, Shard> {
        let mutex = &self.shards[shard_of(key, self.shards.len())];
        match mutex.lock() {
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
                mutex.clear_poison();
                guard
            }
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<Artifact>> {
        let mut shard = self.shard(key);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&key) {
            Some(entry) => {
                entry.tick = tick;
                let hit = Arc::clone(&entry.artifact);
                shard.stats.hits += 1;
                Some(hit)
            }
            None => {
                shard.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the shard's
    /// least-recently-used entry if the shard is full.
    pub fn insert(&self, key: u64, artifact: Arc<Artifact>) {
        if self.shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(key);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.artifact = artifact;
            entry.tick = tick;
            return;
        }
        if shard.map.len() >= self.shard_capacity {
            if let Some(&victim) = shard.map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k) {
                shard.map.remove(&victim);
                shard.stats.evictions += 1;
            }
        }
        shard.map.insert(key, Entry { artifact, tick });
        shard.stats.inserts += 1;
    }

    /// Current occupancy across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| {
                self.shards[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }

    /// Whether the tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of every resident entry, ordered oldest-first within
    /// each shard. Shard assignment is a pure function of the key, so
    /// reinserting the pairs in this order (e.g. when reloading a
    /// warm-restart snapshot) lands every entry back on its home shard
    /// with its relative recency preserved.
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, Arc<Artifact>)> {
        let mut out = Vec::new();
        for mutex in &self.shards {
            let shard = mutex
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut items: Vec<(u64, u64, Arc<Artifact>)> = shard
                .map
                .iter()
                .map(|(k, e)| (e.tick, *k, Arc::clone(&e.artifact)))
                .collect();
            items.sort_by_key(|&(tick, key, _)| (tick, key));
            out.extend(items.into_iter().map(|(_, k, a)| (k, a)));
        }
        out
    }

    /// A snapshot of the traffic counters, summed across shards.
    #[must_use]
    pub fn stats(&self) -> HotStats {
        let mut total = HotStats::default();
        for mutex in &self.shards {
            let shard = mutex
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            total.hits += shard.stats.hits;
            total.misses += shard.stats.misses;
            total.inserts += shard.stats.inserts;
            total.evictions += shard.stats.evictions;
            total.poisoned += shard.stats.poisoned;
        }
        total
    }

    /// Test hook: panics while holding the lock of the shard owning
    /// `key`, poisoning its mutex the way a crashing worker would. The
    /// panic is caught here; the next regular access recovers.
    #[doc(hidden)]
    pub fn poison_for_tests(&self, key: u64) {
        let mutex = &self.shards[shard_of(key, self.shards.len())];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("injected hot-tier panic under the shard lock");
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
    fn sharded_tier_keeps_exact_counters() {
        let tier = HotTier::with_shards(64, 8);
        assert_eq!(tier.shard_count(), 8);
        for key in 0..48u64 {
            tier.insert(key, art(key));
        }
        for key in 0..48u64 {
            assert!(tier.get(key).is_some(), "key {key} missing");
        }
        let s = tier.stats();
        assert_eq!(s.inserts, 48);
        assert_eq!(s.hits, 48);
        assert_eq!(s.evictions, 0);
        assert_eq!(tier.len(), 48);
    }

    #[test]
    fn shard_budget_bounds_occupancy() {
        // 4 shards × 4 slots: inserting many keys can never grow the
        // tier past shards × ceil(capacity/shards).
        let tier = HotTier::with_shards(16, 4);
        for key in 0..256u64 {
            tier.insert(key, art(key));
        }
        assert!(tier.len() <= 16, "len {} exceeds budget", tier.len());
        let s = tier.stats();
        assert_eq!(s.inserts, 256);
        assert_eq!(s.inserts - s.evictions, tier.len() as u64);
    }

    #[test]
    fn entries_snapshot_preserves_per_shard_recency() {
        // 8 slots per shard: even if hashing piles every key onto one
        // shard, nothing is evicted and the snapshot is complete.
        let tier = HotTier::with_shards(16, 2);
        for key in 0..6u64 {
            tier.insert(key, art(key));
        }
        assert!(tier.get(1).is_some()); // refresh 1: now newest on its shard
        let entries = tier.entries();
        assert_eq!(entries.len(), 6);
        // Reinserting in snapshot order into a fresh tier reproduces
        // the same occupancy and shard-local recency.
        let reload = HotTier::with_shards(16, 2);
        for (k, a) in &entries {
            reload.insert(*k, Arc::clone(a));
        }
        assert_eq!(reload.len(), 6);
        // The refreshed key must come after every unrefreshed key on
        // its own shard (it is the newest there).
        let home = shard_of(1, tier.shard_count());
        let pos_of = |k: u64| entries.iter().position(|(key, _)| *key == k).unwrap();
        for other in (0..6u64).filter(|&k| k != 1 && shard_of(k, tier.shard_count()) == home) {
            assert!(pos_of(1) > pos_of(other), "1 refreshed after {other}");
        }
    }

    #[test]
    fn poisoned_shard_recovers_by_clearing() {
        let tier = HotTier::with_shards(16, 4);
        for key in 0..8u64 {
            tier.insert(key, art(key));
        }
        let victim = 3;
        tier.poison_for_tests(victim);
        // The poisoned shard comes back empty; the others are intact.
        assert!(tier.get(victim).is_none());
        tier.insert(victim, art(99));
        assert!(tier.get(victim).is_some());
        let s = tier.stats();
        assert_eq!(s.poisoned, 1);
        // Keys on other shards survived.
        let other_shard_hits = (0..8u64)
            .filter(|&k| shard_of(k, tier.shard_count()) != shard_of(victim, tier.shard_count()))
            .filter(|&k| tier.get(k).is_some())
            .count();
        assert!(other_shard_hits > 0);
    }
}
