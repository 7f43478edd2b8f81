//! Single-flight deduplication: N concurrent requests for the same
//! key collapse into exactly one computation.
//!
//! The first caller to register a key becomes the **leader** and runs
//! the closure; callers arriving while the flight is open become
//! **followers** and block on a condvar until the leader publishes a
//! result (every follower gets a clone), the leader fails or panics
//! (the flight dissolves and followers get [`FlightOutcome::LeaderFailed`]
//! *immediately*, not at their deadline), or their own deadline passes.
//! The flight is removed once complete, so a later request for the
//! same key starts fresh — the cache tiers above this layer decide
//! whether that recomputes.
//!
//! The flight table is one map behind one mutex, held only to register
//! or remove a flight, never while computing. Every lock acquisition
//! recovers from poisoning: a panicking leader must only fail its own
//! flight, never the whole group.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::lock::lock_recover;

/// Outcome of [`SingleFlight::run`].
#[derive(Clone, Debug, PartialEq)]
pub enum FlightOutcome<V> {
    /// This caller led the flight and computed the value itself.
    Led(V),
    /// This caller joined an existing flight and shares its value.
    Joined(V),
    /// The caller's deadline passed while waiting on the leader.
    TimedOut,
    /// The flight's leader failed (error or panic) before publishing;
    /// this follower was released immediately rather than left to hit
    /// its deadline. The caller's retry path re-resolves through the
    /// cache tiers.
    LeaderFailed,
}

enum FlightState<V> {
    Running,
    Done(V),
    Failed,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

impl<V> Flight<V> {
    /// Publishes a terminal state and wakes every follower. Recovers a
    /// poisoned state lock: the only writer before completion is the
    /// leader itself.
    fn publish(&self, state: FlightState<V>) {
        *lock_recover(&self.state) = state;
        self.cv.notify_all();
    }
}

/// Dissolves the flight if the leader unwinds out of `compute` without
/// reaching a normal completion path, so followers are released with
/// [`FlightState::Failed`] instead of waiting out their deadlines.
struct LeaderGuard<'a, V> {
    group: &'a SingleFlight<V>,
    flight: &'a Arc<Flight<V>>,
    key: u64,
    armed: bool,
}

impl<V> Drop for LeaderGuard<'_, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.group.leader_failures.fetch_add(1, Ordering::Relaxed);
        self.group.remove(self.key);
        self.flight.publish(FlightState::Failed);
    }
}

/// A keyed single-flight group. `V` must be cheap to clone — the serve
/// tiers pass `Arc`-wrapped artifacts.
pub struct SingleFlight<V> {
    flights: Mutex<HashMap<u64, Arc<Flight<V>>>>,
    leaders: AtomicU64,
    followers: AtomicU64,
    timeouts: AtomicU64,
    leader_failures: AtomicU64,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
            leaders: AtomicU64::new(0),
            followers: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            leader_failures: AtomicU64::new(0),
        }
    }
}

impl<V> SingleFlight<V> {
    /// A fresh group with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        SingleFlight::default()
    }

    fn remove(&self, key: u64) {
        lock_recover(&self.flights).remove(&key);
    }
}

impl<V: Clone> SingleFlight<V> {
    /// Runs `compute` for `key`, deduplicating against concurrent
    /// callers. `deadline` bounds only the *waiting* of a follower; a
    /// leader always runs `compute` to completion so its result can
    /// serve followers and fill the caches.
    ///
    /// On compute error the flight is dissolved without publishing a
    /// value: the error returns to the leader only, and followers are
    /// released immediately with [`FlightOutcome::LeaderFailed`]. A
    /// *panicking* leader takes the same path — the unwind dissolves
    /// the flight on its way out, so followers never block until their
    /// deadline on a flight nobody is computing.
    pub fn run<E>(
        &self,
        key: u64,
        deadline: Instant,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<FlightOutcome<V>, E> {
        let (flight, is_leader) = {
            let mut flights = lock_recover(&self.flights);
            match flights.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        cv: Condvar::new(),
                    });
                    flights.insert(key, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if is_leader {
            self.leaders.fetch_add(1, Ordering::Relaxed);
            let mut guard = LeaderGuard {
                group: self,
                flight: &flight,
                key,
                armed: true,
            };
            let result = compute();
            guard.armed = false;
            drop(guard);
            self.remove(key);
            match result {
                Ok(v) => {
                    flight.publish(FlightState::Done(v.clone()));
                    Ok(FlightOutcome::Led(v))
                }
                Err(e) => {
                    self.leader_failures.fetch_add(1, Ordering::Relaxed);
                    flight.publish(FlightState::Failed);
                    Err(e)
                }
            }
        } else {
            self.followers.fetch_add(1, Ordering::Relaxed);
            let mut state = lock_recover(&flight.state);
            loop {
                match &*state {
                    FlightState::Done(v) => return Ok(FlightOutcome::Joined(v.clone())),
                    FlightState::Failed => return Ok(FlightOutcome::LeaderFailed),
                    FlightState::Running => {}
                }
                let now = Instant::now();
                if now >= deadline {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Ok(FlightOutcome::TimedOut);
                }
                let (next, _timed_out) = flight
                    .cv
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
            }
        }
    }

    /// Flights led (distinct computations performed).
    #[must_use]
    pub fn leaders(&self) -> u64 {
        self.leaders.load(Ordering::Relaxed)
    }

    /// Flights joined (computations saved by deduplication).
    #[must_use]
    pub fn followers(&self) -> u64 {
        self.followers.load(Ordering::Relaxed)
    }

    /// Followers that gave up at their deadline.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Leaders that failed (compute error or panic) without publishing.
    #[must_use]
    pub fn leader_failures(&self) -> u64 {
        self.leader_failures.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn sequential_runs_each_lead() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let deadline = Instant::now() + Duration::from_secs(1);
        for i in 0..3 {
            let out = sf.run::<()>(9, deadline, || Ok(i)).unwrap();
            assert_eq!(out, FlightOutcome::Led(i));
        }
        assert_eq!(sf.leaders(), 3);
        assert_eq!(sf.followers(), 0);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let n = 8;
        let mut handles = Vec::new();
        for _ in 0..n {
            let sf = Arc::clone(&sf);
            let computed = Arc::clone(&computed);
            let gate = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                // Hold every thread at the gate so they contend on the
                // same open flight instead of running sequentially.
                {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                sf.run::<()>(42, deadline, || {
                    computed.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    Ok(7)
                })
                .unwrap()
            }));
        }
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Threads that slipped past the leader's removal start their own
        // flight, so "exactly one compute" needs the sleep above to hold
        // the flight open; with it, every value is 7 and the leader count
        // plus follower count covers all callers.
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, FlightOutcome::Led(7) | FlightOutcome::Joined(7))));
        assert_eq!(sf.leaders() + sf.followers(), n as u64);
        assert_eq!(sf.leaders(), computed.load(Ordering::SeqCst) as u64);
    }

    #[test]
    fn follower_times_out_against_stuck_leader() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let sf2 = Arc::clone(&sf);
        let leader = std::thread::spawn(move || {
            sf2.run::<()>(1, Instant::now() + Duration::from_secs(5), || {
                std::thread::sleep(Duration::from_millis(400));
                Ok(1)
            })
        });
        // Give the leader time to open the flight.
        std::thread::sleep(Duration::from_millis(50));
        let out = sf
            .run::<()>(1, Instant::now() + Duration::from_millis(50), || Ok(2))
            .unwrap();
        assert_eq!(out, FlightOutcome::TimedOut);
        assert_eq!(sf.timeouts(), 1);
        leader.join().unwrap().unwrap();
    }

    #[test]
    fn leader_error_does_not_poison_the_key() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let deadline = Instant::now() + Duration::from_secs(1);
        let err = sf.run(5, deadline, || Err::<u32, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(sf.leader_failures(), 1);
        let ok = sf.run::<&str>(5, deadline, || Ok(3)).unwrap();
        assert_eq!(ok, FlightOutcome::Led(3));
    }

    #[test]
    fn leader_panic_dissolves_the_flight_and_releases_followers() {
        let sf: Arc<SingleFlight<u32>> = Arc::new(SingleFlight::new());
        let sf2 = Arc::clone(&sf);
        let leader = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sf2.run::<()>(77, Instant::now() + Duration::from_secs(10), || {
                    // Hold the flight open until a follower has joined,
                    // then die without publishing.
                    let waiting = Instant::now();
                    while sf2.followers() < 1 {
                        assert!(waiting.elapsed() < Duration::from_secs(5));
                        std::thread::yield_now();
                    }
                    panic!("injected leader panic")
                })
            }));
        });
        // Join as a follower with a *long* deadline: the assertion is
        // that release comes from the leader's unwind, not the clock.
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        let out = sf
            .run::<()>(77, Instant::now() + Duration::from_secs(30), || Ok(1))
            .unwrap();
        leader.join().unwrap();
        assert_eq!(out, FlightOutcome::LeaderFailed);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "follower must be released promptly, not at its deadline"
        );
        assert_eq!(sf.leader_failures(), 1);
        assert_eq!(sf.timeouts(), 0);
        // The key is clean: the next caller leads a fresh flight.
        let ok = sf
            .run::<()>(77, Instant::now() + Duration::from_secs(1), || Ok(3))
            .unwrap();
        assert_eq!(ok, FlightOutcome::Led(3));
    }

    #[test]
    fn distinct_keys_each_lead_their_own_flight() {
        let sf: SingleFlight<u32> = SingleFlight::new();
        let deadline = Instant::now() + Duration::from_secs(1);
        for key in 0..64 {
            let out = sf.run::<()>(key, deadline, || Ok(key as u32)).unwrap();
            assert_eq!(out, FlightOutcome::Led(key as u32));
        }
        assert_eq!(sf.leaders(), 64);
        assert_eq!(sf.followers(), 0);
    }
}
