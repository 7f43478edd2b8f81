//! The bounded ring-buffer collector behind [`Tracer`].
//!
//! The collector retains the most recent `capacity` events and *exact*
//! per-kind totals for every event ever emitted: old events fall off
//! the ring (counted in [`Tracer::dropped`]) while the totals stay
//! precise. A kind too frequent to keep one by one — the engine's
//! `counter_bump`, one per profiling-phase block execution — is
//! counted only: its emitter adds a run's total with [`Tracer::tally`].
//!
//! Emission is a single uncontended mutex lock plus a vector write;
//! engine code guards every call site with `Option<&Tracer>`, so a run
//! without a tracer attached pays one branch per site and builds no
//! event payload.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{Event, EventKind};

/// Default number of retained events (totals are always exact).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

#[derive(Debug, Default)]
struct Ring {
    /// Retained events; wraps at `capacity` (`head` is the next write
    /// position once full).
    events: Vec<Event>,
    head: usize,
    dropped: u64,
    counts: BTreeMap<&'static str, u64>,
}

/// A thread-safe structured-event collector.
///
/// Create one, hand shared references (or an `Arc`) to every subsystem
/// that should report into it, then snapshot with [`Tracer::events`] /
/// [`Tracer::counts`] or export via [`crate::export`].
#[derive(Debug)]
pub struct Tracer {
    start: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer retaining [`DEFAULT_CAPACITY`] events.
    #[must_use]
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer retaining at most `capacity` events (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            start: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Records `kind`, stamped with the elapsed time since the tracer
    /// was created and the emitting thread's dense id.
    pub fn emit(&self, kind: EventKind) {
        let tid = thread_tid();
        let mut ring = self.ring.lock().expect("tracer ring poisoned");
        // Stamped under the lock so retained order and timestamps agree.
        let event = Event {
            t_us: u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX),
            tid,
            kind,
        };
        *ring.counts.entry(event.kind.name()).or_insert(0) += 1;
        if ring.events.len() < self.capacity {
            ring.events.push(event);
        } else {
            let head = ring.head;
            ring.events[head] = event;
            ring.head = (head + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// Adds `n` to the exact total of `name` without retaining an
    /// event or reading the clock: for counted-only kinds, which are
    /// tallied by their emitter and reported here once.
    pub fn tally(&self, name: &'static str, n: u64) {
        if n > 0 {
            let mut ring = self.ring.lock().expect("tracer ring poisoned");
            *ring.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Snapshot of the retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(&ring.events[ring.head..]);
        out.extend_from_slice(&ring.events[..ring.head]);
        out
    }

    /// Exact per-kind totals over *all* emitted events (including any
    /// that fell off the ring), in name order.
    #[must_use]
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        ring.counts.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// The exact total of events named `name` (see [`EventKind::name`]).
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        let ring = self.ring.lock().expect("tracer ring poisoned");
        ring.counts.get(name).copied().unwrap_or(0)
    }

    /// Events evicted from the ring because it was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("tracer ring poisoned").dropped
    }

    /// Number of currently retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().expect("tracer ring poisoned").events.len()
    }

    /// Whether no event has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registered(pc: u64) -> EventKind {
        EventKind::Registered { pc, use_count: 1 }
    }

    #[test]
    fn retains_in_emission_order() {
        let t = Tracer::new();
        for i in 0..5 {
            t.emit(registered(i));
        }
        let events: Vec<u64> = t
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::Registered { pc, .. } => pc,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(events, [0, 1, 2, 3, 4]);
        assert_eq!(t.dropped(), 0);
        assert!(!t.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_but_counts_stay_exact() {
        let t = Tracer::with_capacity(4);
        for i in 0..10 {
            t.emit(registered(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.count("registered"), 10);
        let pcs: Vec<u64> = t
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::Registered { pc, .. } => pc,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pcs, [6, 7, 8, 9], "oldest first after wrap");
    }

    #[test]
    fn counts_are_per_kind() {
        let t = Tracer::new();
        t.emit(registered(1));
        t.emit(EventKind::RegisteredTwice {
            pc: 1,
            use_count: 2,
        });
        t.emit(registered(2));
        assert_eq!(t.count("registered"), 2);
        assert_eq!(t.count("registered_twice"), 1);
        assert_eq!(t.count("region_formed"), 0);
        assert_eq!(
            t.counts(),
            vec![("registered", 2), ("registered_twice", 1)],
            "name order"
        );
    }

    #[test]
    fn tallies_count_without_retaining() {
        let t = Tracer::with_capacity(1);
        t.tally("counter_bump", 0);
        assert_eq!(t.counts(), vec![], "a zero tally lists no kind");
        t.tally("counter_bump", 3_000_000);
        t.emit(registered(1));
        t.tally("counter_bump", 5);
        assert_eq!(t.count("counter_bump"), 3_000_005);
        assert_eq!(t.len(), 1);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn timestamps_are_monotone_and_emission_is_thread_safe() {
        let t = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100 {
                        t.emit(registered(i));
                    }
                });
            }
        });
        assert_eq!(t.count("registered"), 400);
        let events = t.events();
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert!(!tids.is_empty() && tids.len() <= 4);
    }
}
