//! Hot-tier persistence for warm restarts.
//!
//! On graceful drain the server writes every resident hot-tier entry
//! to `hot.snapshot` in the cache directory; the next startup reloads
//! it so the first query for a previously-hot key is memory-hot, not a
//! disk read or a recompute. The file is written like a store entry —
//! temp file, fsync, atomic rename — and is consumed exactly once:
//! [`load`] deletes it whether or not it parsed, so a snapshot can
//! never outlive the restart it was meant for or mask later state.
//!
//! Format (`DESIGN.md §14`): magic `"TPHS"`, version `u16` (LE),
//! entry count `u32` (LE), then per entry a `u32` (LE) length prefix
//! followed by the store's own `profilefmt` encoding of
//! `(key digest, artifact)` — each blob therefore carries the
//! checksummed, versioned `.tpst` framing, and a torn or bit-flipped
//! snapshot fails closed (cold start) instead of installing garbage.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tpdbt_store::{profilefmt, Artifact};

/// Snapshot file magic.
const MAGIC: &[u8; 4] = b"TPHS";

/// Snapshot format version.
const VERSION: u16 = 1;

/// The snapshot file for a cache directory.
#[must_use]
pub fn snapshot_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join("hot.snapshot")
}

/// Serializes `entries` (as returned by
/// [`HotTier::entries`](crate::HotTier::entries), oldest first) and
/// atomically publishes the snapshot file. Returns the number of
/// entries written.
///
/// # Errors
///
/// `std::io::Error` if the directory or file cannot be written; the
/// temp file is cleaned up on failure.
pub fn save(cache_dir: &Path, entries: &[(u64, Arc<Artifact>)]) -> std::io::Result<u64> {
    fs::create_dir_all(cache_dir)?;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    let count = u32::try_from(entries.len()).unwrap_or(u32::MAX);
    bytes.extend_from_slice(&count.to_le_bytes());
    for (key, artifact) in entries.iter().take(count as usize) {
        let blob = profilefmt::encode(*key, artifact);
        bytes.extend_from_slice(&u32::try_from(blob.len()).unwrap_or(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&blob);
    }
    let path = snapshot_path(cache_dir);
    let tmp = cache_dir.join(format!("hot.snapshot.tmp.{}.0", std::process::id()));
    let written = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()
    })();
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, &path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(u64::from(count))
}

/// Loads and **consumes** the snapshot for `cache_dir`: the file is
/// deleted whether or not it parses. A missing, truncated, corrupt, or
/// version-mismatched snapshot yields an empty list — the server
/// simply starts cold, it never trusts damaged state.
#[must_use]
pub fn load(cache_dir: &Path) -> Vec<(u64, Arc<Artifact>)> {
    let path = snapshot_path(cache_dir);
    let bytes = fs::read(&path).ok();
    let _ = fs::remove_file(&path); // consume-once, even when unreadable
    let Some(bytes) = bytes else {
        return Vec::new();
    };
    parse(&bytes).unwrap_or_default()
}

/// Strict parse of snapshot bytes; `None` on any malformation.
fn parse(bytes: &[u8]) -> Option<Vec<(u64, Arc<Artifact>)>> {
    let header = bytes.get(..10)?;
    if &header[..4] != MAGIC {
        return None;
    }
    if u16::from_le_bytes([header[4], header[5]]) != VERSION {
        return None;
    }
    let count = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    let mut rest = &bytes[10..];
    let mut entries = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let len_bytes = rest.get(..4)?;
        let len =
            u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        let blob = rest.get(4..4 + len)?;
        let (key, artifact) = profilefmt::decode(blob).ok()?;
        entries.push((key, Arc::new(artifact)));
        rest = &rest[4 + len..];
    }
    if !rest.is_empty() {
        return None; // trailing garbage: treat the whole file as suspect
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tpdbt_store::{BaseArtifact, TypedArtifact};

    fn scratch_dir() -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "tpdbt-snapshot-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn entry(n: u64) -> (u64, Arc<Artifact>) {
        (
            n,
            Arc::new(
                BaseArtifact {
                    cycles: n,
                    output_digest: n ^ 0xAA,
                }
                .into_artifact(),
            ),
        )
    }

    #[test]
    fn round_trip_preserves_order_and_contents() {
        let dir = scratch_dir();
        let entries: Vec<_> = [3u64, 1, 2].iter().map(|&n| entry(n)).collect();
        assert_eq!(save(&dir, &entries).unwrap(), 3);
        let loaded = load(&dir);
        assert_eq!(loaded.len(), 3);
        for ((k0, a0), (k1, a1)) in entries.iter().zip(&loaded) {
            assert_eq!(k0, k1);
            assert_eq!(a0, a1);
        }
        assert!(
            !snapshot_path(&dir).exists(),
            "snapshot is consumed by load"
        );
        assert!(load(&dir).is_empty(), "second load starts cold");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_fails_closed_and_is_consumed() {
        let dir = scratch_dir();
        let entries: Vec<_> = (0..4u64).map(entry).collect();
        save(&dir, &entries).unwrap();
        let path = snapshot_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(load(&dir).is_empty(), "bit flip must not install entries");
        assert!(!path.exists(), "damaged snapshot is still consumed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_and_foreign_snapshots_fail_closed() {
        let dir = scratch_dir();
        fs::create_dir_all(&dir).unwrap();
        let path = snapshot_path(&dir);
        for bad in [&b"TPHS"[..], &b""[..], &b"NOPE\x01\x00\x00\x00\x00\x00"[..]] {
            fs::write(&path, bad).unwrap();
            assert!(load(&dir).is_empty());
        }
        // Truncated mid-entry.
        save(&dir, &[entry(1), entry(2)]).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load(&dir).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let dir = scratch_dir();
        assert_eq!(save(&dir, &[]).unwrap(), 0);
        assert!(load(&dir).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
