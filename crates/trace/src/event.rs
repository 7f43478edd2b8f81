//! The event taxonomy: every lifecycle point the engine, the profile
//! store, and the sweep orchestrator can report.
//!
//! Events are plain owned data — no references into engine state — so a
//! collected trace outlives the run that produced it and can be
//! exported long after the translator is gone.

/// What kind of region a region event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRegionKind {
    /// A straight-line (non-loop) trace region.
    Trace,
    /// A loop region (the trace closed back on its entry).
    Loop,
}

impl TraceRegionKind {
    /// Short lowercase name used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceRegionKind::Trace => "trace",
            TraceRegionKind::Loop => "loop",
        }
    }
}

/// One structured event. See each variant for the emitting subsystem.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    // ---- engine (tpdbt-dbt) ----
    /// A guest block was fast-translated for the first time.
    BlockTranslated {
        /// Block start address.
        pc: u64,
        /// Block length in instructions.
        len: u32,
    },
    /// A block reached the retranslation threshold `T` and was
    /// registered in the candidate pool.
    Registered {
        /// Block start address.
        pc: u64,
        /// The `use` count at registration (always exactly `T`).
        use_count: u64,
    },
    /// A registered block reached `2T` — the paper's registered-twice
    /// rule — triggering the optimization phase immediately.
    RegisteredTwice {
        /// Block start address.
        pc: u64,
        /// The `use` count at the trigger (always exactly `2T`).
        use_count: u64,
    },
    /// A block's counters were frozen because it was swallowed into an
    /// optimized region (two-phase / adaptive semantics).
    CounterFrozen {
        /// Block start address.
        pc: u64,
        /// The frozen `use` value. For registered candidate blocks the
        /// reconciled invariant `T ≤ use ≤ 2T` holds (the upper bound
        /// exactly when the registered-twice rule fired); non-candidate
        /// blocks pulled in as hammock arms may freeze below `T`.
        use_count: u64,
        /// Registration state at freeze time: 0 = never registered,
        /// 1 = registered at `T`, 2 = registered twice.
        registered: u8,
    },
    /// The optimization phase formed a region.
    RegionFormed {
        /// Region id.
        region: u64,
        /// Entry block address.
        entry_pc: u64,
        /// Number of block copies in the region.
        blocks: u32,
        /// Loop or straight-line trace.
        kind: TraceRegionKind,
    },
    /// Continuous mode re-formed a stale region (entry use count
    /// doubled since formation).
    RegionReformed {
        /// Region id (reused from the replaced region).
        region: u64,
        /// Entry block address.
        entry_pc: u64,
        /// Entry use count at re-formation.
        use_count: u64,
    },
    /// Adaptive side-exit monitoring retired a region.
    RegionRetired {
        /// Region id.
        region: u64,
        /// Entry block address.
        entry_pc: u64,
        /// Region entries since formation.
        entries: u64,
        /// Side exits since formation.
        side_exits: u64,
    },

    // ---- profile store (tpdbt-store) ----
    /// A store lookup was served from disk.
    StoreHit {
        /// Artifact file name.
        file: String,
    },
    /// A store lookup found no (valid) artifact.
    StoreMiss {
        /// Artifact file name.
        file: String,
    },
    /// A corrupt or foreign artifact was deleted during lookup.
    StoreEvicted {
        /// Artifact file name.
        file: String,
    },
    /// A transient store I/O failure was retried.
    StoreIoRetry {
        /// Artifact file name.
        file: String,
        /// Which retry this was (1 = first retry).
        attempt: u32,
    },
    /// An artifact decoded corrupt twice in a row and was moved to the
    /// quarantine directory; its key will not be cached again this run.
    StoreQuarantined {
        /// Artifact file name.
        file: String,
    },
    /// An orphaned temp file (left by a writer that died before its
    /// publishing rename) was removed.
    StoreOrphanSwept {
        /// The temp file name that was removed.
        file: String,
    },
    /// A store self-check (`tpdbt-fsck`, or serve startup recovery)
    /// finished scanning a cache directory.
    FsckRun {
        /// Entries that decoded clean with a matching digest.
        valid: u64,
        /// Entries that failed to decode or mismatched their filename
        /// digest (removed when repairing).
        corrupt: u64,
        /// Orphaned temp files found (swept when repairing).
        orphans: u64,
        /// Wall-clock scan time, in microseconds.
        micros: u64,
    },

    // ---- sweep orchestrator (tpdbt-experiments) ----
    /// A guest program was actually executed (not served from cache).
    GuestRun {
        /// Guest / benchmark name.
        name: String,
    },
    /// A sweep cell was placed on the work queue.
    CellQueued {
        /// Benchmark (or guest) name.
        bench: String,
        /// Cell label (`"avep"`, `"train"`, `"base"`, or ladder label).
        label: String,
    },
    /// A worker began executing a sweep cell.
    CellStarted {
        /// Benchmark (or guest) name.
        bench: String,
        /// Cell label.
        label: String,
    },
    /// The cell was served from the profile store without a guest run.
    CellCacheHit {
        /// Benchmark (or guest) name.
        bench: String,
        /// Cell label.
        label: String,
    },
    /// The cell missed the store and had to execute its guest.
    CellCacheMiss {
        /// Benchmark (or guest) name.
        bench: String,
        /// Cell label.
        label: String,
    },
    /// A sweep cell finished and its result was committed.
    CellCommitted {
        /// Benchmark (or guest) name.
        bench: String,
        /// Cell label.
        label: String,
        /// Wall-clock time spent on the cell, in microseconds.
        micros: u64,
    },
    /// A cell attempt failed with a retryable cause and will run again.
    CellRetried {
        /// Benchmark (or guest) name.
        bench: String,
        /// Cell label.
        label: String,
        /// Which retry this was (1 = first retry).
        attempt: u32,
        /// Human-readable failure cause of the attempt being retried.
        cause: String,
    },
    /// A cell exhausted its retries (or failed fatally) and was dropped
    /// from the sweep's results.
    CellFailed {
        /// Benchmark (or guest) name.
        bench: String,
        /// Cell label.
        label: String,
        /// Human-readable failure cause.
        cause: String,
    },

    // ---- profile-query service (tpdbt-serve) ----
    /// The serve listener accepted a client connection.
    ServeConnAccepted {
        /// Server-assigned connection id (accept order).
        conn: u64,
    },
    /// A request frame was decoded and queued for execution.
    ServeRequest {
        /// Connection id the frame arrived on.
        conn: u64,
        /// Operation name (`"cell"`, `"plain"`, `"base"`, `"stats"`,
        /// `"ping"`, `"shutdown"`).
        op: &'static str,
    },
    /// A request completed and its response frame was sent.
    ServeDone {
        /// Connection id the response went to.
        conn: u64,
        /// Operation name.
        op: &'static str,
        /// Where the artifact came from (`"memory"`, `"disk"`,
        /// `"computed"`, `"coalesced"`; `"-"` for non-artifact ops).
        source: &'static str,
        /// Wall-clock request latency, in microseconds.
        micros: u64,
    },
    /// A request was refused with a structured error instead of a
    /// result (malformed frame, overload shed, missed deadline, failed
    /// computation, post-shutdown arrival).
    ServeRejected {
        /// Connection id (0 when the connection itself was shed).
        conn: u64,
        /// Machine-readable error code of the rejection.
        code: &'static str,
    },

    // ---- fault injection (tpdbt-faults consumers) ----
    /// A planned fault fired at an injection site.
    FaultInjected {
        /// Site name (`tpdbt_faults::FaultSite::name`).
        site: &'static str,
        /// The site occurrence index that fired.
        occurrence: u64,
    },
}

impl EventKind {
    /// The stable event name used for counting and export (`"kind"`
    /// field of the JSONL output, `"name"` of the Chrome output).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BlockTranslated { .. } => "block_translated",
            EventKind::Registered { .. } => "registered",
            EventKind::RegisteredTwice { .. } => "registered_twice",
            EventKind::CounterFrozen { .. } => "counter_frozen",
            EventKind::RegionFormed { .. } => "region_formed",
            EventKind::RegionReformed { .. } => "region_reformed",
            EventKind::RegionRetired { .. } => "region_retired",
            EventKind::StoreHit { .. } => "store_hit",
            EventKind::StoreMiss { .. } => "store_miss",
            EventKind::StoreEvicted { .. } => "store_evicted",
            EventKind::StoreIoRetry { .. } => "store_io_retry",
            EventKind::StoreQuarantined { .. } => "store_quarantined",
            EventKind::StoreOrphanSwept { .. } => "store_orphan_swept",
            EventKind::FsckRun { .. } => "fsck_run",
            EventKind::GuestRun { .. } => "guest_run",
            EventKind::CellQueued { .. } => "cell_queued",
            EventKind::CellStarted { .. } => "cell_started",
            EventKind::CellCacheHit { .. } => "cell_cache_hit",
            EventKind::CellCacheMiss { .. } => "cell_cache_miss",
            EventKind::CellCommitted { .. } => "cell_committed",
            EventKind::CellRetried { .. } => "cell_retried",
            EventKind::CellFailed { .. } => "cell_failed",
            EventKind::ServeConnAccepted { .. } => "serve_conn_accepted",
            EventKind::ServeRequest { .. } => "serve_request",
            EventKind::ServeDone { .. } => "serve_done",
            EventKind::ServeRejected { .. } => "serve_rejected",
            EventKind::FaultInjected { .. } => "fault_injected",
        }
    }
}

/// A collected event: the kind plus when and where it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Microseconds since the tracer was created (monotonic).
    pub t_us: u64,
    /// Small dense id of the emitting thread (allocation order, not the
    /// OS thread id).
    pub tid: u64,
    /// The event payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let kinds = [
            EventKind::BlockTranslated { pc: 0, len: 1 },
            EventKind::Registered {
                pc: 0,
                use_count: 1,
            },
            EventKind::RegisteredTwice {
                pc: 0,
                use_count: 2,
            },
            EventKind::CounterFrozen {
                pc: 0,
                use_count: 1,
                registered: 1,
            },
            EventKind::RegionFormed {
                region: 0,
                entry_pc: 0,
                blocks: 1,
                kind: TraceRegionKind::Loop,
            },
            EventKind::RegionReformed {
                region: 0,
                entry_pc: 0,
                use_count: 2,
            },
            EventKind::RegionRetired {
                region: 0,
                entry_pc: 0,
                entries: 1,
                side_exits: 1,
            },
            EventKind::StoreHit {
                file: String::new(),
            },
            EventKind::StoreMiss {
                file: String::new(),
            },
            EventKind::StoreEvicted {
                file: String::new(),
            },
            EventKind::GuestRun {
                name: String::new(),
            },
            EventKind::CellQueued {
                bench: String::new(),
                label: String::new(),
            },
            EventKind::CellStarted {
                bench: String::new(),
                label: String::new(),
            },
            EventKind::CellCacheHit {
                bench: String::new(),
                label: String::new(),
            },
            EventKind::CellCacheMiss {
                bench: String::new(),
                label: String::new(),
            },
            EventKind::CellCommitted {
                bench: String::new(),
                label: String::new(),
                micros: 0,
            },
            EventKind::StoreIoRetry {
                file: String::new(),
                attempt: 1,
            },
            EventKind::StoreQuarantined {
                file: String::new(),
            },
            EventKind::StoreOrphanSwept {
                file: String::new(),
            },
            EventKind::FsckRun {
                valid: 0,
                corrupt: 0,
                orphans: 0,
                micros: 0,
            },
            EventKind::CellRetried {
                bench: String::new(),
                label: String::new(),
                attempt: 1,
                cause: String::new(),
            },
            EventKind::CellFailed {
                bench: String::new(),
                label: String::new(),
                cause: String::new(),
            },
            EventKind::ServeConnAccepted { conn: 0 },
            EventKind::ServeRequest {
                conn: 0,
                op: "cell",
            },
            EventKind::ServeDone {
                conn: 0,
                op: "cell",
                source: "memory",
                micros: 0,
            },
            EventKind::ServeRejected {
                conn: 0,
                code: "overloaded",
            },
            EventKind::FaultInjected {
                site: "worker_panic",
                occurrence: 0,
            },
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(EventKind::name).collect();
        assert_eq!(names.len(), kinds.len(), "duplicate event name");
        assert_eq!(TraceRegionKind::Loop.name(), "loop");
        assert_eq!(TraceRegionKind::Trace.name(), "trace");
    }
}
