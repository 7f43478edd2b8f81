//! Store files the daemon must not trust by name alone.
//!
//! Artifact kind 3 is retired. Earlier builds stored a merged
//! fleet-consensus accumulator under it, so stores on disk may still
//! hold one. Such a file must read as corrupt: a recomputable miss, a
//! repairable fsck finding and a cold start, never a panic and never a
//! different artifact. The same builds may also have left a
//! `hot.snapshot`, which this daemon ignores.
//!
//! A valid file filed under a key it does not answer (another kind of
//! artifact, or a cell of another threshold) is a miss too: serve
//! recomputes and rewrites it, and the connection keeps answering.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpdbt_dbt::DbtConfig;
use tpdbt_experiments::sweep::SuiteGuest;
use tpdbt_serve::json::Json;
use tpdbt_serve::proto::{Request, Source};
use tpdbt_serve::{snapshot, start, Bind, Client, ProfileService, ServerConfig, ServiceConfig};
use tpdbt_store::{
    fsck, profilefmt, BaseArtifact, CacheKey, FsckOptions, ProfileStore, StoreError, TypedArtifact,
};
use tpdbt_suite::{InputKind, Scale};

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

/// The header of a two-entry `hot.snapshot` as 0.24 daemons wrote it:
/// four magic bytes, format version 1 and the entry count, both LE.
const SNAPSHOT_HEADER: [u8; 10] = [84, 80, 72, 83, 1, 0, 2, 0, 0, 0];

/// The gzip tiny ref key of `cfg`, as serve and the sweep file it.
fn gzip_key(cfg: &DbtConfig) -> CacheKey {
    SuiteGuest::build("gzip", Scale::Tiny, InputKind::Ref)
        .expect("gzip builds")
        .key(cfg)
}

/// A `hot.snapshot` as a 0.24 daemon wrote it: a bogus base entry
/// under the gzip base key, followed by the retired blob.
fn write_snapshot(dir: &Path) -> Vec<u8> {
    let valid = profilefmt::encode(
        gzip_key(&DbtConfig::two_phase(1)).digest(),
        &BaseArtifact {
            cycles: 1,
            output_digest: 2,
        }
        .into_artifact(),
    );
    let mut bytes = SNAPSHOT_HEADER.to_vec();
    for blob in [&valid[..], &RETIRED_BLOB[..]] {
        bytes.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        bytes.extend_from_slice(blob);
    }
    std::fs::write(snapshot::snapshot_path(dir), &bytes).unwrap();
    bytes
}

fn service(dir: &Path) -> ProfileService {
    ProfileService::new(ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        hot_capacity: 16,
        default_deadline: Duration::from_secs(60),
        ..ServiceConfig::default()
    })
}

/// A one-worker server over `dir`, recovered the way the bin starts
/// it: a panic in `respond` would kill the only worker.
fn server_on(dir: &Path) -> tpdbt_serve::ServerHandle {
    let svc = Arc::new(service(dir));
    svc.startup_recovery();
    start(
        svc,
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 1,
            queue_depth: 4,
            accept_shards: 1,
        },
    )
    .expect("bind")
}

fn source(reply: &Json) -> Option<&str> {
    reply.get("source").and_then(Json::as_str)
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
fn startup_over_leftover_consensus_state_is_a_cold_start() {
    let dir = fresh_dir("startup");
    let key = retired_key();
    std::fs::write(dir.join(key.file_name()), RETIRED_BLOB).unwrap();
    let snapshot_bytes = write_snapshot(&dir);

    let svc = service(&dir);
    svc.startup_recovery();
    assert_eq!(
        std::fs::read(snapshot::snapshot_path(&dir)).ok(),
        Some(snapshot_bytes),
        "the old snapshot is left in place, byte for byte"
    );
    let stats = svc.stats_json();
    assert_eq!(
        stats
            .get("hot")
            .and_then(|h| h.get("len"))
            .and_then(Json::as_u64),
        Some(0)
    );
    let rescan = fsck(&dir, FsckOptions::default()).unwrap();
    assert!(rescan.clean(), "startup repair removes the retired file");

    let base = svc
        .resolve_base(
            "gzip",
            Scale::Tiny,
            Instant::now() + Duration::from_secs(60),
        )
        .expect("base resolves");
    assert_ne!(
        base.source,
        Source::Memory,
        "the first query never answers from memory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A valid `.tpst` under the gzip plain key that holds a base artifact
/// (right digest, wrong kind) is a miss: the plain profile is
/// recomputed and rewritten, and the only worker lives on to answer
/// the same connection again.
#[test]
fn plain_key_holding_a_base_artifact_is_recomputed() {
    let dir = fresh_dir("kind");
    let key = gzip_key(&DbtConfig::no_opt());
    let store = ProfileStore::new(&dir);
    let base = BaseArtifact {
        cycles: 1,
        output_digest: 2,
    };
    store.store(&key, &base.into_artifact()).unwrap();

    let server = server_on(&dir);
    let mut c = Client::connect(server.addr()).expect("connect");
    let plain = || Request::Plain {
        workload: "gzip".to_string(),
        scale: Scale::Tiny,
        input: InputKind::Ref,
    };
    let reply = c.request(plain(), None).expect("plain over the bad file");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(source(&reply), Some("computed"), "{}", reply.render());
    let again = c.request(plain(), None).expect("same connection answers");
    assert_eq!(source(&again), Some("memory"));
    assert_eq!(again.get("profile"), reply.get("profile"));
    assert!(
        store.load_plain(&key).is_some(),
        "the recomputed profile replaces the bad file"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell file filed under the `T = 500` key but holding the `T = 50`
/// metrics is a miss: the `T = 500` cell is recomputed and rewritten,
/// and no reply carries the wrong threshold.
#[test]
fn cell_key_holding_another_threshold_is_recomputed() {
    let dir = fresh_dir("threshold");
    let store = ProfileStore::new(&dir);
    service(&dir)
        .resolve_cell(
            "gzip",
            Scale::Tiny,
            50,
            Instant::now() + Duration::from_secs(60),
        )
        .expect("T=50 cell");
    let t50 = store
        .load_cell(&gzip_key(&DbtConfig::two_phase(50)))
        .expect("T=50 cell stored");
    let key = gzip_key(&DbtConfig::two_phase(500));
    store.store(&key, &t50.into_artifact()).unwrap();

    let server = server_on(&dir);
    let mut c = Client::connect(server.addr()).expect("connect");
    let cell = || Request::Cell {
        workload: "gzip".to_string(),
        scale: Scale::Tiny,
        threshold: 500,
    };
    let threshold = |reply: &Json| {
        reply
            .get("cell")
            .and_then(|c| c.get("threshold"))
            .and_then(Json::as_u64)
    };
    let reply = c.request(cell(), None).expect("cell over the bad file");
    assert_eq!(source(&reply), Some("computed"), "{}", reply.render());
    assert_eq!(threshold(&reply), Some(500));
    let again = c.request(cell(), None).expect("same connection answers");
    assert_eq!(source(&again), Some("memory"));
    assert_eq!(threshold(&again), Some(500));
    assert_eq!(
        store.load_cell(&key).map(|c| c.metrics.threshold),
        Some(500),
        "the recomputed cell replaces the bad file"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
