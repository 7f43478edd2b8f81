//! Artifact kind 3 is retired. Earlier builds stored a merged
//! fleet-consensus accumulator under it, so stores and hot-tier
//! snapshots on disk may still hold one. Such a file must read as
//! corrupt: a recomputable miss, a repairable fsck finding, and a cold
//! start, never a panic and never a different artifact.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tpdbt_serve::json::Json;
use tpdbt_serve::{snapshot, ProfileService, ServiceConfig};
use tpdbt_store::{
    fsck, profilefmt, BaseArtifact, CacheKey, FsckOptions, ProfileStore, StoreError, TypedArtifact,
};

/// The store key the retired blob was filed under (the `gzip`, tiny
/// scale, visit-count consensus), so its file name matches its
/// embedded digest and only the kind makes it unreadable.
fn retired_key() -> CacheKey {
    CacheKey {
        workload: "gzip".to_string(),
        input: 252,
        scale: 0,
        mode: 252,
        threshold: 0,
        fingerprint: 14_359_177_816_358_070_764,
    }
}

/// A kind-3 `.tpst` file as the last build with merged artifacts wrote
/// it: two contributors, total weight 2000, one conditional block.
const RETIRED_BLOB: [u8; 53] = [
    84, 80, 83, 84, 1, 0, 149, 39, 167, 167, 182, 6, 32, 86, 3, 0, 2, 0, 208, 15, 0, 0, 152, 42, 0,
    176, 84, 1, 0, 4, 1, 0, 208, 15, 2, 0, 8, 0, 248, 10, 1, 4, 0, 216, 4, 181, 206, 124, 123, 220,
    229, 242, 166,
];

fn fresh_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tpdbt-retired-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `hot.snapshot` holding one valid base entry followed by the
/// retired blob.
fn write_snapshot(dir: &Path) {
    let valid = profilefmt::encode(
        7,
        &BaseArtifact {
            cycles: 1,
            output_digest: 2,
        }
        .into_artifact(),
    );
    let mut bytes = b"TPHS".to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&2u32.to_le_bytes());
    for blob in [&valid[..], &RETIRED_BLOB[..]] {
        bytes.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        bytes.extend_from_slice(blob);
    }
    std::fs::write(snapshot::snapshot_path(dir), bytes).unwrap();
}

#[test]
fn retired_kind_decodes_as_bad_kind() {
    assert!(matches!(
        profilefmt::decode(&RETIRED_BLOB),
        Err(StoreError::BadKind { found: 3 })
    ));
}

#[test]
fn retired_store_file_is_a_miss_and_an_fsck_finding() {
    let dir = fresh_dir("store");
    let key = retired_key();
    assert_eq!(key.file_name(), "gzip-562006b6a7a72795.tpst");
    let path = dir.join(key.file_name());
    std::fs::write(&path, RETIRED_BLOB).unwrap();

    let scan = fsck(&dir, FsckOptions::default()).unwrap();
    assert_eq!(scan.corrupt, vec![key.file_name()]);
    assert_eq!(scan.valid, 0);
    assert!(path.exists(), "a read-only scan must not delete");

    assert!(ProfileStore::new(&dir).load(&key).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_holding_the_retired_kind_loads_empty() {
    let dir = fresh_dir("snapshot");
    write_snapshot(&dir);
    assert!(snapshot::load(&dir).is_empty());
    assert!(!snapshot::snapshot_path(&dir).exists(), "still consumed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn startup_over_leftover_consensus_state_is_a_cold_start() {
    let dir = fresh_dir("startup");
    let key = retired_key();
    std::fs::write(dir.join(key.file_name()), RETIRED_BLOB).unwrap();
    write_snapshot(&dir);

    let svc = ProfileService::new(ServiceConfig {
        cache_dir: Some(dir.clone()),
        hot_capacity: 16,
        default_deadline: Duration::from_secs(60),
        ..ServiceConfig::default()
    });
    svc.startup_recovery();
    let stats = svc.stats_json();
    let recovered = stats
        .get("recovery")
        .and_then(|r| r.get("recovered"))
        .and_then(Json::as_u64);
    assert_eq!(recovered, Some(0));
    assert_eq!(
        stats
            .get("hot")
            .and_then(|h| h.get("len"))
            .and_then(Json::as_u64),
        Some(0)
    );
    let rescan = fsck(&dir, FsckOptions::default()).unwrap();
    assert!(rescan.clean(), "startup repair removes the retired file");
    let _ = std::fs::remove_dir_all(&dir);
}
