//! Offline store verification and repair (`tpdbt-fsck`).
//!
//! [`fsck`] scans a cache directory the way the store itself never has
//! to: every `.tpst` entry is decoded and its embedded key digest
//! checked against the digest in its file name, orphaned temp files
//! (`*.tmp.{pid}.{seq}`, left by writers that died before their
//! publishing rename) are found, and the `quarantine/` directory is
//! inventoried. With [`FsckOptions::repair`] the damage is healed:
//! corrupt and mismatched entries are removed (the store re-derives
//! them on the next access — every artifact is a pure function of its
//! [`CacheKey`](crate::CacheKey), so deletion *is* repair) and orphans
//! are swept.
//!
//! The same scan runs at `tpdbt-serve` startup as the store self-check
//! before the daemon accepts connections (DESIGN.md §14).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::profilefmt;

/// What [`fsck`] is allowed to do to the directory.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsckOptions {
    /// Remove corrupt/mismatched entries and sweep orphaned temp
    /// files. Without this the scan is read-only.
    pub repair: bool,
}

/// The result of one [`fsck`] scan.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Entries that decoded clean with a digest matching their file
    /// name.
    pub valid: u64,
    /// File names of entries that failed to decode (bad magic,
    /// version, truncation, checksum).
    pub corrupt: Vec<String>,
    /// File names of entries that decoded clean but whose embedded key
    /// digest contradicts the digest in the file name (a misplaced or
    /// tampered entry — it would never be served, but it wastes a
    /// slot).
    pub mismatched: Vec<String>,
    /// Orphaned temp-file names found.
    pub orphans: Vec<String>,
    /// File names parked in the `quarantine/` directory.
    pub quarantined: Vec<String>,
    /// Damaged entries removed (only when repairing).
    pub repaired: u64,
    /// Orphaned temp files removed (only when repairing).
    pub orphans_swept: u64,
    /// Wall-clock scan time.
    pub elapsed: Duration,
}

impl FsckReport {
    /// Whether the directory needs no attention: no corrupt or
    /// mismatched entries and no orphans. Quarantined files do not
    /// count against cleanliness — they are already isolated and kept
    /// deliberately for post-mortem.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty() && self.mismatched.is_empty() && self.orphans.is_empty()
    }

    /// A human-readable multi-line summary (the `tpdbt-fsck` output).
    #[must_use]
    pub fn render(&self, dir: &Path) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fsck {}: {} valid, {} corrupt, {} mismatched, {} orphans, {} quarantined ({} ms)",
            dir.display(),
            self.valid,
            self.corrupt.len(),
            self.mismatched.len(),
            self.orphans.len(),
            self.quarantined.len(),
            self.elapsed.as_millis()
        );
        for f in &self.corrupt {
            let _ = writeln!(out, "  corrupt: {f}");
        }
        for f in &self.mismatched {
            let _ = writeln!(out, "  mismatched digest: {f}");
        }
        for f in &self.orphans {
            let _ = writeln!(out, "  orphan: {f}");
        }
        for f in &self.quarantined {
            let _ = writeln!(out, "  quarantined: {f}");
        }
        if self.repaired > 0 || self.orphans_swept > 0 {
            let _ = writeln!(
                out,
                "  repaired: {} damaged entries removed (re-derived on next access), \
                 {} orphans swept",
                self.repaired, self.orphans_swept
            );
        }
        out
    }
}

/// The key digest encoded in an artifact file name: the 16 hex digits
/// before the `.tpst` extension.
fn file_name_digest(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".tpst")?;
    let hex = stem.get(stem.len().checked_sub(16)?..)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Scans (and with `opts.repair`, heals) the cache directory at `dir`.
/// A missing directory is a clean empty store, not an error — serve
/// startup runs this on cache dirs that do not exist yet.
///
/// # Errors
///
/// Only on I/O failures listing the directory itself; per-file read
/// errors classify the file as corrupt instead of aborting the scan.
pub fn fsck(dir: &Path, opts: FsckOptions) -> io::Result<FsckReport> {
    let start = Instant::now();
    let mut report = FsckReport::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            report.elapsed = start.elapsed();
            return Ok(report);
        }
        Err(e) => return Err(e),
    };

    let mut damaged: Vec<PathBuf> = Vec::new();
    let mut orphan_paths: Vec<PathBuf> = Vec::new();
    let mut names: Vec<(String, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_str()?.to_string();
            Some((name, e.path()))
        })
        .collect();
    names.sort(); // deterministic report order

    for (name, path) in names {
        if name.contains(".tmp.") {
            report.orphans.push(name);
            orphan_paths.push(path);
            continue;
        }
        if !name.ends_with(".tpst") {
            continue; // quarantine/ and anything foreign
        }
        let decoded = fs::read(&path)
            .map_err(|_| ())
            .and_then(|bytes| profilefmt::decode(&bytes).map_err(|_| ()));
        match decoded {
            Ok((embedded, _)) => match file_name_digest(&name) {
                Some(named) if named == embedded => report.valid += 1,
                _ => {
                    report.mismatched.push(name);
                    damaged.push(path);
                }
            },
            Err(()) => {
                report.corrupt.push(name);
                damaged.push(path);
            }
        }
    }

    let qdir = dir.join("quarantine");
    if let Ok(entries) = fs::read_dir(&qdir) {
        report.quarantined = entries
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(str::to_string))
            .collect();
        report.quarantined.sort();
    }

    if opts.repair {
        for path in damaged {
            if fs::remove_file(&path).is_ok() {
                report.repaired += 1;
            }
        }
        for path in orphan_paths {
            if fs::remove_file(&path).is_ok() {
                report.orphans_swept += 1;
            }
        }
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheKey, ProfileStore};
    use crate::profilefmt::{Artifact, BaseArtifact};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_dir() -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "tpdbt-fsck-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn key(threshold: u64) -> CacheKey {
        CacheKey {
            workload: "gzip".to_string(),
            input: 0,
            scale: 0,
            mode: 0,
            threshold,
            fingerprint: 0xbeef,
        }
    }

    fn base(cycles: u64) -> Artifact {
        Artifact::Base(BaseArtifact {
            cycles,
            output_digest: 1,
        })
    }

    #[test]
    fn missing_directory_is_clean() {
        let report = fsck(&scratch_dir(), FsckOptions::default()).unwrap();
        assert!(report.clean());
        assert_eq!(report.valid, 0);
    }

    #[test]
    fn healthy_store_scans_clean() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        store.store(&key(1), &base(1)).unwrap();
        store.store(&key(2), &base(2)).unwrap();
        let report = fsck(&dir, FsckOptions::default()).unwrap();
        assert!(report.clean(), "{}", report.render(&dir));
        assert_eq!(report.valid, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finds_and_repairs_every_damage_class() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        store.store(&key(1), &base(1)).unwrap();
        store.store(&key(2), &base(2)).unwrap();
        store.store(&key(3), &base(3)).unwrap();

        // Corrupt one entry's bytes.
        let corrupt_path = dir.join(key(2).file_name());
        let mut bytes = fs::read(&corrupt_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&corrupt_path, &bytes).unwrap();

        // Misfile another under a wrong digest (valid bytes, wrong name).
        let misfiled = dir.join("gzip-0000000000000000.tpst");
        fs::copy(dir.join(key(3).file_name()), &misfiled).unwrap();

        // And leave an orphaned temp file from a dead writer.
        let orphan = dir.join(format!("{}.tmp.{}.0", key(4).file_name(), u32::MAX));
        fs::write(&orphan, b"torn write").unwrap();

        let scan = fsck(&dir, FsckOptions::default()).unwrap();
        assert!(!scan.clean());
        assert_eq!(scan.valid, 2, "keys 1 and 3 are fine");
        assert_eq!(scan.corrupt, vec![key(2).file_name()]);
        assert_eq!(
            scan.mismatched,
            vec!["gzip-0000000000000000.tpst".to_string()]
        );
        assert_eq!(scan.orphans.len(), 1);
        assert_eq!((scan.repaired, scan.orphans_swept), (0, 0), "read-only");
        assert!(corrupt_path.exists(), "read-only scan must not delete");

        let repair = fsck(&dir, FsckOptions { repair: true }).unwrap();
        assert_eq!(repair.repaired, 2);
        assert_eq!(repair.orphans_swept, 1);
        assert!(!corrupt_path.exists());
        assert!(!misfiled.exists());
        assert!(!orphan.exists());

        let rescan = fsck(&dir, FsckOptions::default()).unwrap();
        assert!(rescan.clean(), "{}", rescan.render(&dir));
        assert_eq!(rescan.valid, 2);
        // Repair is deletion; the store re-derives on the next miss.
        assert!(store.load(&key(2)).is_none());
        store.store(&key(2), &base(2)).unwrap();
        assert_eq!(fsck(&dir, FsckOptions::default()).unwrap().valid, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_is_reported_but_does_not_dirty_the_scan() {
        let dir = scratch_dir();
        let store = ProfileStore::new(&dir);
        store.store(&key(1), &base(1)).unwrap();
        let qdir = store.quarantine_dir();
        fs::create_dir_all(&qdir).unwrap();
        fs::write(qdir.join(key(9).file_name()), b"parked").unwrap();
        let report = fsck(&dir, FsckOptions::default()).unwrap();
        assert!(report.clean());
        assert_eq!(report.quarantined, vec![key(9).file_name()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_name_digest_parses_store_names() {
        assert_eq!(file_name_digest(&key(7).file_name()), Some(key(7).digest()));
        assert_eq!(file_name_digest("gzip-00000000000000ff.tpst"), Some(0xff));
        assert_eq!(file_name_digest("short.tpst"), None);
        assert_eq!(file_name_digest("no-extension"), None);
    }
}
