//! Content-addressed on-disk cache of sweep artifacts.
//!
//! Every artifact is keyed by a [`CacheKey`] — the full identity of the
//! run that produced it: workload, input kind, scale, profiling mode,
//! threshold, and a caller-provided content fingerprint covering the
//! guest binary, input words, and translator configuration. Any change
//! to a benchmark spec, generator, or config knob changes the
//! fingerprint, so stale entries simply stop being addressed; corrupt
//! entries (checksum, version, or embedded-key mismatches) are deleted
//! and recomputed.
//!
//! Writes go through a temp file that is fsynced before an atomic
//! rename (with a best-effort directory sync after), so neither a
//! crashed nor a concurrent sweep can publish a torn artifact. All
//! methods take `&self`; the store is safe to share across the sweep
//! worker pool.
//!
//! Fault tolerance (see DESIGN.md §9):
//!
//! * transient I/O errors (interrupted/timed-out/would-block reads and
//!   writes) are retried up to [`IO_ATTEMPTS`] times with a short
//!   linear backoff before the lookup degrades to a miss;
//! * an entry that decodes corrupt **twice in a row** is moved to a
//!   `quarantine/` subdirectory instead of deleted, and its key is
//!   blocked from being cached again this run — a bad disk sector
//!   therefore costs one recompute per sweep, not a
//!   recompute-corrupt-recompute loop;
//! * an attached [`FaultPlan`] can
//!   deterministically inject read/write errors and read corruption to
//!   prove all of the above (with no plan attached the sites are
//!   inert).

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tpdbt_faults::{FaultPlan, FaultSite};
use tpdbt_trace::{EventKind, Tracer};

use crate::digest::Fnv64;
use crate::error::{io_error_is_transient, StoreError};
use crate::profilefmt::{self, Artifact, BaseArtifact, CellArtifact, PlainArtifact, TypedArtifact};

/// Maximum tries for one filesystem operation (1 initial + 2 retries).
pub const IO_ATTEMPTS: u32 = 3;

/// Consecutive corrupt decodes of one key before the entry is
/// quarantined instead of evicted.
pub const QUARANTINE_AFTER: u32 = 2;

/// Linear backoff unit between I/O retries.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Identity of one cached run.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Benchmark name (e.g. `"mcf"`).
    pub workload: String,
    /// Input kind code (`tpdbt-suite`'s `InputKind`, ref = 0,
    /// train = 1).
    pub input: u8,
    /// Scale code (tiny = 0, small = 1, paper = 2).
    pub scale: u8,
    /// Profiling mode code (`DbtConfig` mode, two-phase = 0,
    /// no-opt = 1, continuous = 2, adaptive = 3).
    pub mode: u8,
    /// Retranslation threshold (0 for modes that ignore it).
    pub threshold: u64,
    /// Content fingerprint of everything else that determines the run:
    /// guest binary, input words, and `DbtConfig::fingerprint()`.
    pub fingerprint: u64,
}

impl CacheKey {
    /// The key's content digest — the artifact's on-disk identity.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.workload.len() as u64);
        h.write(self.workload.as_bytes());
        h.write(&[self.input, self.scale, self.mode]);
        h.write_u64(self.threshold);
        h.write_u64(self.fingerprint);
        h.finish()
    }

    /// The artifact file name: a sanitized human-readable prefix plus
    /// the full key digest.
    #[must_use]
    pub fn file_name(&self) -> String {
        let safe: String = self
            .workload
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .take(32)
            .collect();
        format!("{safe}-{:016x}.tpst", self.digest())
    }
}

/// A snapshot of a store's traffic counters ([`ProfileStore::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) artifact.
    pub misses: u64,
    /// Corrupt or mismatched entries deleted during lookups.
    pub evictions: u64,
    /// Transient I/O failures that were retried (reads and writes).
    pub io_retries: u64,
    /// Entries moved to the quarantine directory after decoding corrupt
    /// [`QUARANTINE_AFTER`] times in a row.
    pub quarantined: u64,
    /// Orphaned temp files removed by [`ProfileStore::sweep_orphans`].
    pub orphans_swept: u64,
}

/// The live counters behind [`StoreStats`], shared by every thread
/// using the store.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    io_retries: AtomicU64,
    quarantined: AtomicU64,
    orphans_swept: AtomicU64,
}

/// The on-disk artifact store rooted at one cache directory.
#[derive(Debug)]
pub struct ProfileStore {
    dir: PathBuf,
    stats: Counters,
    tracer: Option<Arc<Tracer>>,
    faults: Option<Arc<FaultPlan>>,
    /// Consecutive corrupt decodes per key digest; reaching
    /// [`QUARANTINE_AFTER`] blocks the key from the cache this run.
    corruption: Mutex<HashMap<u64, u32>>,
}

impl ProfileStore {
    /// Opens (without touching the filesystem) a store rooted at `dir`.
    /// The directory is created on first write.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ProfileStore {
            dir: dir.into(),
            stats: Counters::default(),
            tracer: None,
            faults: None,
            corruption: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a deterministic fault-injection plan: reads, writes,
    /// and decoded bytes consult it (`store_read` / `store_write` /
    /// `store_corrupt` sites).
    #[must_use]
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a structured-event tracer: every lookup reports
    /// [`EventKind::StoreHit`] / [`EventKind::StoreMiss`] /
    /// [`EventKind::StoreEvicted`] with the artifact file name.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    fn trace_emit(&self, event: impl FnOnce() -> EventKind) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(event());
        }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of the traffic counters so far.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let c = &self.stats;
        StoreStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            evictions: c.evictions.load(Ordering::Relaxed),
            io_retries: c.io_retries.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            orphans_swept: c.orphans_swept.load(Ordering::Relaxed),
        }
    }

    fn path_of(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Where corrupt-twice entries are parked for post-mortem.
    #[must_use]
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Consults the injection plan at `site`; reports (and traces) a
    /// fired fault as a synthetic transient I/O error.
    fn injected_io_error(&self, site: FaultSite) -> Option<io::Error> {
        let occurrence = self.faults.as_ref()?.fire_indexed(site)?;
        self.trace_emit(|| EventKind::FaultInjected {
            site: site.name(),
            occurrence,
        });
        Some(io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected {site} fault (occurrence {occurrence})"),
        ))
    }

    /// Consults the injection plan at a crash site: a planned
    /// occurrence aborts the whole process mid-operation (see
    /// [`FaultPlan::fire_crash`]).
    fn fire_crash(&self, site: FaultSite) {
        if let Some(plan) = &self.faults {
            plan.fire_crash(site);
        }
    }

    /// Runs `op` with bounded retry on transient I/O errors; `file`
    /// names the artifact in retry trace events.
    fn with_io_retry<T>(
        &self,
        file: &str,
        site: FaultSite,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let result = match self.injected_io_error(site) {
                Some(e) => Err(e),
                None => op(),
            };
            match result {
                Ok(v) => return Ok(v),
                Err(e) if io_error_is_transient(&e) && attempt + 1 < IO_ATTEMPTS => {
                    attempt += 1;
                    self.stats.io_retries.fetch_add(1, Ordering::Relaxed);
                    self.trace_emit(|| EventKind::StoreIoRetry {
                        file: file.to_string(),
                        attempt,
                    });
                    std::thread::sleep(RETRY_BACKOFF * attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether `key` has been blocked from the cache this run (its
    /// entry decoded corrupt [`QUARANTINE_AFTER`] times in a row).
    fn is_quarantined(&self, digest: u64) -> bool {
        self.corruption
            .lock()
            .map(|m| m.get(&digest).is_some_and(|&n| n >= QUARANTINE_AFTER))
            .unwrap_or(false)
    }

    fn record_miss(&self, key: &CacheKey) {
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.trace_emit(|| EventKind::StoreMiss {
            file: key.file_name(),
        });
    }

    /// Looks up `key`. Returns `None` on a miss; transient read errors
    /// are retried ([`IO_ATTEMPTS`]); a corrupt, truncated, foreign, or
    /// stale entry is deleted (best-effort) and reported as a miss; an
    /// entry corrupt twice in a row is quarantined and its key blocked
    /// from the cache for the rest of the run.
    #[must_use]
    pub fn load(&self, key: &CacheKey) -> Option<Artifact> {
        let digest = key.digest();
        if self.is_quarantined(digest) {
            self.record_miss(key);
            return None;
        }
        let path = self.path_of(key);
        let bytes =
            match self.with_io_retry(&key.file_name(), FaultSite::StoreRead, || fs::read(&path)) {
                Ok(b) => b,
                Err(_) => {
                    // Not found, or a persistent I/O failure: degrade to a
                    // miss and recompute rather than abort the sweep.
                    self.record_miss(key);
                    return None;
                }
            };
        let bytes = self.maybe_corrupt(bytes);
        match profilefmt::decode(&bytes) {
            Ok((found, artifact)) if found == digest => {
                if let Ok(mut m) = self.corruption.lock() {
                    m.remove(&digest); // a clean decode resets the strike count
                }
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.trace_emit(|| EventKind::StoreHit {
                    file: key.file_name(),
                });
                Some(artifact)
            }
            _ => {
                self.handle_corrupt(key, digest, &path);
                self.record_miss(key);
                None
            }
        }
    }

    /// Injection site `store_corrupt`: flips a byte of the freshly read
    /// artifact, simulating a bad sector under a healthy-looking read.
    fn maybe_corrupt(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        if let Some(plan) = &self.faults {
            if let Some(occurrence) = plan.fire_indexed(FaultSite::StoreCorrupt) {
                self.trace_emit(|| EventKind::FaultInjected {
                    site: FaultSite::StoreCorrupt.name(),
                    occurrence,
                });
                let mid = bytes.len() / 2;
                if let Some(b) = bytes.get_mut(mid) {
                    *b ^= 0xFF;
                }
            }
        }
        bytes
    }

    /// One corrupt decode of `key`: evict the entry, or — on the
    /// [`QUARANTINE_AFTER`]th consecutive strike — move it to the
    /// quarantine directory and block the key from being re-cached, so
    /// a bad sector cannot trap the cache in a recompute-corrupt loop.
    fn handle_corrupt(&self, key: &CacheKey, digest: u64, path: &Path) {
        let strikes = {
            let mut m = self.corruption.lock().unwrap_or_else(|e| e.into_inner());
            let n = m.entry(digest).or_insert(0);
            *n += 1;
            *n
        };
        if strikes >= QUARANTINE_AFTER {
            self.fire_crash(FaultSite::CrashStoreQuarantine);
            let qdir = self.quarantine_dir();
            let quarantined = fs::create_dir_all(&qdir)
                .and_then(|()| fs::rename(path, qdir.join(key.file_name())))
                .is_ok();
            if !quarantined {
                let _ = fs::remove_file(path); // fall back to eviction
            }
            self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
            self.trace_emit(|| EventKind::StoreQuarantined {
                file: key.file_name(),
            });
        } else {
            let _ = fs::remove_file(path);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            self.trace_emit(|| EventKind::StoreEvicted {
                file: key.file_name(),
            });
        }
    }

    /// Persists `artifact` under `key`: temp file, fsync, atomic
    /// rename, best-effort directory sync — a crash at any point
    /// publishes either the complete entry or nothing. Transient write
    /// errors are retried ([`IO_ATTEMPTS`]). Writes to a quarantined
    /// key are skipped (reported as success): the artifact was
    /// recomputed for the caller, but the slot is known-bad this run.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory or file cannot be written.
    pub fn store(&self, key: &CacheKey, artifact: &Artifact) -> Result<(), StoreError> {
        if self.is_quarantined(key.digest()) {
            return Ok(());
        }
        fs::create_dir_all(&self.dir)?;
        let bytes = profilefmt::encode(key.digest(), artifact);
        let path = self.path_of(key);
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.file_name(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = self.with_io_retry(&key.file_name(), FaultSite::StoreWrite, || {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            // Crash window 1: the temp file exists but may be torn and
            // is not durable. Recovery: sweep_orphans removes it.
            self.fire_crash(FaultSite::CrashStoreTempWrite);
            // The rename below publishes the entry; sync first so a
            // crash cannot publish a torn file under the final name.
            f.sync_all()
        });
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        // Crash window 2: the temp file is durable but unpublished.
        // Recovery: sweep_orphans removes it; the entry is recomputed.
        self.fire_crash(FaultSite::CrashStoreFsync);
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                // Crash window 3: the entry is published (and complete,
                // thanks to the file sync) but the directory entry may
                // not be durable yet — either the full entry or nothing
                // survives; both states are valid.
                self.fire_crash(FaultSite::CrashStoreRename);
                // Best-effort directory sync so the rename itself is
                // durable; filesystems that refuse dir fsync still get
                // the torn-file protection from the file sync above.
                if let Ok(d) = fs::File::open(&self.dir) {
                    let _ = d.sync_all();
                }
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(StoreError::Io(e))
            }
        }
    }

    /// Removes orphaned temp files left behind by writers that died
    /// between temp-file creation and the publishing rename. Returns
    /// how many were removed (also counted in
    /// [`StoreStats::orphans_swept`] and traced as
    /// `store_orphan_swept`).
    ///
    /// Temp names embed the writing pid (`{entry}.tmp.{pid}.{seq}`);
    /// files belonging to this process or to a pid that is still alive
    /// are skipped, so sweeping a live cache directory cannot race a
    /// concurrent writer's in-flight rename. Called on sweep/serve
    /// startup and by `tpdbt-fsck`.
    pub fn sweep_orphans(&self) -> u64 {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0; // no directory yet: nothing to sweep
        };
        let mut swept = 0u64;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((_, rest)) = name.split_once(".tmp.") else {
                continue;
            };
            let pid = rest.split('.').next().and_then(|p| p.parse::<u32>().ok());
            if pid.is_some_and(pid_is_live) {
                continue;
            }
            if fs::remove_file(entry.path()).is_ok() {
                swept += 1;
                self.stats.orphans_swept.fetch_add(1, Ordering::Relaxed);
                self.trace_emit(|| EventKind::StoreOrphanSwept {
                    file: name.to_string(),
                });
            }
        }
        swept
    }

    /// Generic typed lookup: loads `key` and extracts the requested
    /// artifact kind ([`TypedArtifact`]). An entry of another kind is
    /// `None` — the hit was still counted, but the caller asked for the
    /// wrong shape. The serve hot tier resolves through the same trait.
    #[must_use]
    pub fn load_as<T: TypedArtifact>(&self, key: &CacheKey) -> Option<T> {
        self.load(key).and_then(T::from_artifact)
    }

    /// Typed lookup of a plain-profile artifact.
    #[must_use]
    pub fn load_plain(&self, key: &CacheKey) -> Option<PlainArtifact> {
        self.load_as(key)
    }

    /// Typed lookup of a sweep-cell artifact. A cell must also carry
    /// the threshold its key names; one that does not is `None`, like
    /// an entry of another kind.
    #[must_use]
    pub fn load_cell(&self, key: &CacheKey) -> Option<CellArtifact> {
        self.load_as(key)
            .filter(|c: &CellArtifact| c.metrics.threshold == key.threshold)
    }

    /// Typed lookup of a baseline artifact.
    #[must_use]
    pub fn load_base(&self, key: &CacheKey) -> Option<BaseArtifact> {
        self.load_as(key)
    }
}

/// Best-effort liveness probe for the pid embedded in a temp-file
/// name: our own pid is always live; otherwise `/proc/{pid}` decides
/// on platforms with procfs. Where that probe is unavailable the file
/// is treated as orphaned — a swept in-flight write merely costs one
/// recompute, while a leaked temp file would persist forever.
fn pid_is_live(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    Path::new("/proc").is_dir() && Path::new(&format!("/proc/{pid}")).is_dir()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn scratch_dir() -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "tpdbt-store-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn key(threshold: u64) -> CacheKey {
        CacheKey {
            workload: "mcf".to_string(),
            input: 0,
            scale: 0,
            mode: 0,
            threshold,
            fingerprint: 0x1234,
        }
    }

    fn base(cycles: u64) -> Artifact {
        Artifact::Base(BaseArtifact {
            cycles,
            output_digest: 9,
        })
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        assert!(store.load(&key(1)).is_none());
        assert_eq!(store.stats().misses, 1);

        store.store(&key(1), &base(77)).unwrap();
        let got = store.load_base(&key(1)).unwrap();
        assert_eq!(got.cycles, 77);
        assert_eq!(store.stats().hits, 1);

        // A different threshold is a different key.
        assert!(store.load(&key(2)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_evicted_and_recomputed() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        store.store(&key(5), &base(1)).unwrap();
        let path = store.path_of(&key(5));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        assert!(store.load(&key(5)).is_none());
        assert_eq!(store.stats().evictions, 1);
        assert!(!path.exists(), "corrupt entry must be deleted");

        // The slot heals on the next store.
        store.store(&key(5), &base(2)).unwrap();
        assert_eq!(store.load_base(&key(5)).unwrap().cycles, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_change_addresses_a_fresh_slot() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        let old = key(7);
        store.store(&old, &base(1)).unwrap();
        let new = CacheKey {
            fingerprint: old.fingerprint + 1,
            ..old.clone()
        };
        assert!(store.load(&new).is_none(), "stale entry must not serve");
        assert!(store.load(&old).is_some(), "old entry still addressable");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_digest_depends_on_every_field() {
        let base_key = key(1);
        let variants = [
            CacheKey {
                workload: "gcc".into(),
                ..base_key.clone()
            },
            CacheKey {
                input: 1,
                ..base_key.clone()
            },
            CacheKey {
                scale: 1,
                ..base_key.clone()
            },
            CacheKey {
                mode: 1,
                ..base_key.clone()
            },
            CacheKey {
                threshold: 2,
                ..base_key.clone()
            },
            CacheKey {
                fingerprint: 0,
                ..base_key.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.digest(), base_key.digest(), "{v:?}");
        }
    }

    #[test]
    fn lookups_report_trace_events() {
        let dir = scratch_dir();
        let tracer = Arc::new(Tracer::new());
        let store = ProfileStore::new(&dir).with_tracer(Arc::clone(&tracer));
        assert!(store.load(&key(1)).is_none());
        store.store(&key(1), &base(3)).unwrap();
        assert!(store.load(&key(1)).is_some());
        assert_eq!(tracer.count("store_miss"), 1);
        assert_eq!(tracer.count("store_hit"), 1);
        // Corruption reports an eviction and a miss.
        let path = store.path_of(&key(1));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key(1)).is_none());
        assert_eq!(tracer.count("store_evicted"), 1);
        assert_eq!(tracer.count("store_miss"), 2);
        let miss_files: Vec<_> = tracer
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StoreMiss { file } => Some(file.clone()),
                _ => None,
            })
            .collect();
        assert!(miss_files.iter().all(|f| f == &key(1).file_name()));
        fs::remove_dir_all(&dir).unwrap();
    }

    fn corrupt_on_disk(store: &ProfileStore, key: &CacheKey) {
        let path = store.path_of(key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn second_consecutive_corruption_quarantines_and_blocks_the_key() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        store.store(&key(5), &base(1)).unwrap();

        // Strike one: evicted (deleted) and recomputed as before.
        corrupt_on_disk(&store, &key(5));
        assert!(store.load(&key(5)).is_none());
        assert_eq!((store.stats().evictions, store.stats().quarantined), (1, 0));
        store.store(&key(5), &base(2)).unwrap();

        // Strike two: quarantined, not deleted.
        corrupt_on_disk(&store, &key(5));
        assert!(store.load(&key(5)).is_none());
        assert_eq!((store.stats().evictions, store.stats().quarantined), (1, 1));
        assert!(!store.path_of(&key(5)).exists(), "removed from the cache");
        assert!(
            store.quarantine_dir().join(key(5).file_name()).exists(),
            "parked for post-mortem"
        );

        // The key is now blocked: stores are skipped, lookups miss, so
        // a bad sector costs one recompute per run, not a loop.
        store.store(&key(5), &base(3)).unwrap();
        assert!(!store.path_of(&key(5)).exists(), "no re-cache");
        assert!(store.load(&key(5)).is_none());

        // Healthy keys are unaffected.
        store.store(&key(6), &base(4)).unwrap();
        assert_eq!(store.load_base(&key(6)).unwrap().cycles, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_decode_resets_the_corruption_strike_count() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        store.store(&key(9), &base(1)).unwrap();
        corrupt_on_disk(&store, &key(9));
        assert!(store.load(&key(9)).is_none()); // strike 1: evict
        store.store(&key(9), &base(2)).unwrap();
        assert!(store.load(&key(9)).is_some()); // clean decode: reset
        corrupt_on_disk(&store, &key(9));
        assert!(store.load(&key(9)).is_none()); // strike 1 again: evict
        assert_eq!((store.stats().evictions, store.stats().quarantined), (2, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_sweep_removes_dead_writers_and_spares_live_ones() {
        let dir = scratch_dir();
        let tracer = Arc::new(Tracer::new());
        let store = ProfileStore::new(&dir).with_tracer(Arc::clone(&tracer));
        store.store(&key(1), &base(1)).unwrap();
        // A temp file from a long-dead writer (pids never reach u32::MAX)
        // and one from this very process (a live in-flight write).
        let dead = dir.join(format!("{}.tmp.{}.0", key(2).file_name(), u32::MAX));
        let live = dir.join(format!(
            "{}.tmp.{}.0",
            key(3).file_name(),
            std::process::id()
        ));
        fs::write(&dead, b"torn").unwrap();
        fs::write(&live, b"in flight").unwrap();

        assert_eq!(store.sweep_orphans(), 1);
        assert_eq!(store.stats().orphans_swept, 1);
        assert!(!dead.exists(), "dead writer's temp file is swept");
        assert!(live.exists(), "live writer's temp file survives");
        assert_eq!(tracer.count("store_orphan_swept"), 1);
        // The published entry is untouched.
        assert_eq!(store.load_base(&key(1)).unwrap().cycles, 1);
        // Idempotent: nothing left to sweep.
        assert_eq!(store.sweep_orphans(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn typed_loads_reject_wrong_kinds() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        store.store(&key(3), &base(1)).unwrap();
        assert!(store.load_cell(&key(3)).is_none());
        assert!(store.load_plain(&key(3)).is_none());
        assert!(store.load_base(&key(3)).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn typed_cell_load_rejects_another_threshold() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        let cell = |threshold| {
            Artifact::Cell(CellArtifact {
                metrics: tpdbt_profile::ThresholdMetrics {
                    threshold,
                    sd_bp: None,
                    bp_mismatch: None,
                    sd_cp: None,
                    sd_lp: None,
                    lp_mismatch: None,
                    profiling_ops: 1,
                    cycles: 2,
                    regions: 3,
                },
                output_digest: 4,
            })
        };
        store.store(&key(500), &cell(50)).unwrap();
        assert!(store.load(&key(500)).is_some(), "the entry itself is valid");
        assert!(store.load_cell(&key(500)).is_none());
        store.store(&key(500), &cell(500)).unwrap();
        assert_eq!(store.load_cell(&key(500)).unwrap().metrics.threshold, 500);
        fs::remove_dir_all(&dir).unwrap();
    }

    mod injected {
        use super::*;
        use tpdbt_faults::{FaultPlan, FaultSite};

        #[test]
        fn transient_read_fault_is_retried_to_a_hit() {
            let dir = scratch_dir();
            let plan = Arc::new(FaultPlan::new().inject(FaultSite::StoreRead, 0));
            let store = ProfileStore::new(&dir).with_faults(plan);
            store.store(&key(1), &base(7)).unwrap();
            let got = store.load_base(&key(1)).expect("retry should recover");
            assert_eq!(got.cycles, 7);
            assert_eq!(store.stats().io_retries, 1);
            assert_eq!((store.stats().hits, store.stats().misses), (1, 0));
            fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn persistent_read_fault_degrades_to_a_miss_then_heals() {
            let dir = scratch_dir();
            // All IO_ATTEMPTS tries of the first lookup fail.
            let plan = Arc::new(
                (0..u64::from(IO_ATTEMPTS))
                    .fold(FaultPlan::new(), |p, i| p.inject(FaultSite::StoreRead, i)),
            );
            let store = ProfileStore::new(&dir).with_faults(plan);
            store.store(&key(2), &base(8)).unwrap();
            assert!(store.load(&key(2)).is_none(), "exhausted retries => miss");
            assert_eq!(store.stats().io_retries, u64::from(IO_ATTEMPTS) - 1);
            assert!(
                store.path_of(&key(2)).exists(),
                "an I/O miss must not evict the (healthy) entry"
            );
            assert!(store.load(&key(2)).is_some(), "next lookup is clean");
            fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn injected_corruption_walks_the_evict_then_quarantine_path() {
            let dir = scratch_dir();
            let tracer = Arc::new(Tracer::new());
            let plan = Arc::new(
                FaultPlan::new()
                    .inject(FaultSite::StoreCorrupt, 0)
                    .inject(FaultSite::StoreCorrupt, 1),
            );
            let store = ProfileStore::new(&dir)
                .with_faults(plan)
                .with_tracer(Arc::clone(&tracer));
            store.store(&key(4), &base(1)).unwrap();
            assert!(store.load(&key(4)).is_none(), "first corrupt read");
            assert_eq!((store.stats().evictions, store.stats().quarantined), (1, 0));
            store.store(&key(4), &base(1)).unwrap(); // the recompute
            assert!(store.load(&key(4)).is_none(), "second corrupt read");
            assert_eq!((store.stats().evictions, store.stats().quarantined), (1, 1));
            assert_eq!(tracer.count("fault_injected"), 2);
            assert_eq!(tracer.count("store_quarantined"), 1);
            fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn transient_write_fault_is_retried() {
            let dir = scratch_dir();
            let plan = Arc::new(FaultPlan::new().inject(FaultSite::StoreWrite, 0));
            let store = ProfileStore::new(&dir).with_faults(plan);
            store.store(&key(3), &base(5)).unwrap();
            assert_eq!(store.stats().io_retries, 1);
            assert_eq!(store.load_base(&key(3)).unwrap().cycles, 5);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}
