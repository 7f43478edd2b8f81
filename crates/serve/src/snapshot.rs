//! The name of the hot-tier snapshot file older daemons wrote.
//!
//! Daemons up to 0.24 wrote their hot tier to this file at a graceful
//! drain and reloaded it at startup. Every entry in it is also in the
//! content-addressed store, so this daemon neither writes nor reads
//! it: a restart answers previously computed keys from disk.

use std::path::{Path, PathBuf};

/// The file older daemons wrote; this daemon ignores it.
#[must_use]
pub fn snapshot_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join("hot.snapshot")
}
