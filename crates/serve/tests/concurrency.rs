//! Multi-threaded stress tests with *exact* assertions: the hot tier
//! and single-flight counters are updated under their own locks, so
//! contention must never make them drift — equalities, not bounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tpdbt_serve::proto::Source;
use tpdbt_serve::{ConnQueue, FlightOutcome, HotTier, ProfileService, ServiceConfig, SingleFlight};
use tpdbt_store::{BaseArtifact, TypedArtifact};
use tpdbt_suite::Scale;

#[test]
fn single_flight_is_exactly_one_leader_and_n_minus_one_followers() {
    const N: usize = 8;
    let sf: Arc<SingleFlight<u64>> = Arc::new(SingleFlight::new());
    let barrier = Arc::new(Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|_| {
            let sf = Arc::clone(&sf);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs(30);
                sf.run::<()>(7, deadline, || {
                    // The leader holds the flight open until every other
                    // thread has registered as a follower, making the
                    // 1 + (N-1) split deterministic rather than likely.
                    let waiting = Instant::now();
                    while sf.followers() < (N as u64) - 1 {
                        assert!(
                            waiting.elapsed() < Duration::from_secs(10),
                            "followers never arrived"
                        );
                        std::thread::yield_now();
                    }
                    Ok(99)
                })
                .unwrap()
            })
        })
        .collect();
    let outcomes: Vec<FlightOutcome<u64>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    let led = outcomes
        .iter()
        .filter(|o| matches!(o, FlightOutcome::Led(99)))
        .count();
    let joined = outcomes
        .iter()
        .filter(|o| matches!(o, FlightOutcome::Joined(99)))
        .count();
    assert_eq!(led, 1, "exactly one computation");
    assert_eq!(joined, N - 1, "every other caller coalesced");
    assert_eq!(sf.leaders(), 1);
    assert_eq!(sf.followers(), (N as u64) - 1);
    assert_eq!(sf.timeouts(), 0);
}

#[test]
fn service_races_for_one_cell_run_one_guest() {
    const N: usize = 6;
    let service = Arc::new(ProfileService::new(ServiceConfig {
        cache_dir: None,
        hot_capacity: 16,
        default_deadline: Duration::from_secs(120),
        ..ServiceConfig::default()
    }));
    let barrier = Arc::new(Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service
                    .resolve_base(
                        "gzip",
                        Scale::Tiny,
                        Instant::now() + Duration::from_secs(120),
                    )
                    .unwrap()
            })
        })
        .collect();
    let resolved: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(service.guest_runs(), 1, "one guest execution for N racers");
    let computed = resolved
        .iter()
        .filter(|r| r.source == Source::Computed)
        .count();
    assert_eq!(computed, 1, "exactly one racer computed");
    for r in &resolved {
        assert_eq!(r.artifact, resolved[0].artifact, "all share one artifact");
        assert!(matches!(
            r.source,
            Source::Computed | Source::Coalesced | Source::Memory
        ));
    }
}

#[test]
fn hot_tier_counters_stay_exact_under_contention() {
    const THREADS: usize = 8;
    const ROUNDS: u64 = 200;
    const CAPACITY: usize = 32;
    let tier = Arc::new(HotTier::new(CAPACITY));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|t| {
            let tier = Arc::clone(&tier);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..ROUNDS {
                    let key = t * ROUNDS + i; // globally unique: every insert is fresh
                    tier.insert(
                        key,
                        Arc::new(
                            BaseArtifact {
                                cycles: key,
                                output_digest: key,
                            }
                            .into_artifact(),
                        ),
                    );
                    let _ = tier.get(key); // may hit or miss depending on eviction races
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = (THREADS as u64) * ROUNDS;
    let stats = tier.stats();
    // Exact invariants that contention must not break:
    assert_eq!(stats.inserts, total, "every unique-key insert counted");
    assert_eq!(stats.hits + stats.misses, total, "every get counted once");
    assert_eq!(
        stats.evictions,
        total - tier.len() as u64,
        "evictions account exactly for inserts minus residents"
    );
    assert_eq!(stats.poisoned, 0);
    assert_eq!(tier.len(), CAPACITY, "tier is full after saturation");
}

#[test]
fn sharded_hot_tier_counters_stay_exact_under_contention() {
    // The key space is split into one shard per thread. Each thread
    // rewrites its own shard every round and reads its neighbour's, so
    // refreshes of resident keys, cross-thread hits and evictions all
    // interleave under the one tier lock.
    const THREADS: usize = 8;
    const ROUNDS: u64 = 50;
    const SHARD_KEYS: u64 = 8;
    const CAPACITY: usize = 32;
    let tier = Arc::new(HotTier::new(CAPACITY));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|t| {
            let tier = Arc::clone(&tier);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let neighbour = (t + 1) % THREADS as u64;
                barrier.wait();
                for round in 0..ROUNDS {
                    for k in 0..SHARD_KEYS {
                        let key = t * SHARD_KEYS + k;
                        tier.insert(
                            key,
                            Arc::new(
                                BaseArtifact {
                                    cycles: round,
                                    output_digest: key,
                                }
                                .into_artifact(),
                            ),
                        );
                        let _ = tier.get(neighbour * SHARD_KEYS + k);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let calls = (THREADS as u64) * ROUNDS * SHARD_KEYS;
    let distinct = (THREADS as u64) * SHARD_KEYS;
    let stats = tier.stats();
    // Refreshing a resident key is not an insert, so inserts lie
    // between the distinct keys (each inserted fresh at least once) and
    // the insert calls; every other relation is an equality.
    assert!(
        (distinct..=calls).contains(&stats.inserts),
        "inserts {} outside {distinct}..={calls}",
        stats.inserts
    );
    assert_eq!(stats.hits + stats.misses, calls, "every get counted once");
    assert_eq!(
        stats.evictions,
        stats.inserts - tier.len() as u64,
        "evictions account exactly for inserts minus residents"
    );
    assert_eq!(stats.poisoned, 0);
    assert_eq!(
        tier.len(),
        CAPACITY,
        "more keys than capacity fill the tier"
    );
}

#[test]
fn bounded_queue_accounts_for_every_item_under_contention() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u64 = 500;
    const CONSUMERS: usize = 3;
    let queue: Arc<ConnQueue<u64>> = Arc::new(ConnQueue::new(8));
    let accepted = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let popped = Arc::new(AtomicU64::new(0));

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let popped = Arc::clone(&popped);
            std::thread::spawn(move || {
                while queue.pop().is_some() {
                    popped.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let accepted = Arc::clone(&accepted);
            let rejected = Arc::clone(&rejected);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    match queue.push(i) {
                        Ok(()) => accepted.fetch_add(1, Ordering::SeqCst),
                        Err(_) => rejected.fetch_add(1, Ordering::SeqCst),
                    };
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    queue.close();
    for c in consumers {
        c.join().unwrap();
    }

    let total = (PRODUCERS as u64) * PER_PRODUCER;
    assert_eq!(
        accepted.load(Ordering::SeqCst) + rejected.load(Ordering::SeqCst),
        total,
        "every push either accepted or rejected"
    );
    assert_eq!(
        popped.load(Ordering::SeqCst),
        accepted.load(Ordering::SeqCst),
        "every accepted item popped exactly once"
    );
    assert!(queue.is_empty(), "closed queue fully drained");
}
