//! Fleet profile aggregation and cross-input / cross-version transfer
//! (DESIGN.md §15).
//!
//! The paper scores how well a *training* run of the same binary on
//! the same input predicts final behaviour (`INIP(train)`). Deployed
//! two-phase translators face a harder problem: the profile that seeds
//! initial prediction was usually recorded on a *different* input, an
//! older *binary version*, or is the aggregate of a whole fleet of
//! clients. This crate supplies the three mechanisms that gap needs:
//!
//! * [`fingerprint`] — digest-independent structural block-graph
//!   signatures (control-flow shape + terminator kinds, deliberately
//!   excluding addresses and block lengths) so profiles survive the PC
//!   shifts of a rebuilt binary;
//! * [`transfer`] — counter remapping from a source profile onto a
//!   structurally matched target CFG, plus [`transfer::seed_for_threshold`]
//!   which clamps a transferred seed into the engine's `T ≤ use ≤ 2T`
//!   frozen-counter invariant;
//! * [`merge`] — deterministic, commutative, associative weighted
//!   merging of N observed profiles into a fleet consensus
//!   ([`tpdbt_store::MergedArtifact`]), with visit-count and
//!   phase-coverage weighting.
//!
//! The `tpdbt-merge` binary and the serve daemon's `contribute` /
//! `consensus` endpoints are thin shells over [`merge`]; because the
//! persisted artifact stores weighted counter *sums* (never quotients),
//! an incrementally grown server-side consensus is byte-identical to an
//! offline merge of the same contributions in any order or grouping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod merge;
pub mod transfer;

use tpdbt_store::CacheKey;
use tpdbt_suite::Scale;

pub use merge::{contribute, finalize, merge, MergeError, WeightMode};
pub use transfer::{seed_for_threshold, transfer, TransferOutcome};

/// Marker byte distinguishing consensus cache keys from sweep keys
/// (sweep input codes are 0/1 and mode codes 0–3; `0xFC` collides with
/// neither).
const CONSENSUS_MARKER: u8 = 0xFC;

/// The cache key addressing the fleet consensus for one
/// `(workload, scale, weighting mode)`. Both `tpdbt-merge` and the
/// serve `contribute`/`consensus` endpoints derive the same key, so the
/// offline and online consensus land in the same store slot.
#[must_use]
pub fn consensus_key(workload: &str, scale: Scale, mode: WeightMode) -> CacheKey {
    CacheKey {
        workload: workload.to_string(),
        input: CONSENSUS_MARKER,
        scale: scale.code(),
        mode: CONSENSUS_MARKER,
        threshold: u64::from(mode.code()),
        fingerprint: tpdbt_store::digest::fnv64(b"tpdbt-fleet-consensus-v1"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_keys_are_distinct_per_workload_scale_and_mode() {
        let mut digests = std::collections::BTreeSet::new();
        for workload in ["gzip", "mcf"] {
            for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
                for mode in [WeightMode::VisitCount, WeightMode::PhaseCoverage] {
                    digests.insert(consensus_key(workload, scale, mode).digest());
                }
            }
        }
        assert_eq!(digests.len(), 12, "consensus keys must not collide");
    }

    #[test]
    fn consensus_key_is_stable() {
        let a = consensus_key("gzip", Scale::Tiny, WeightMode::VisitCount);
        let b = consensus_key("gzip", Scale::Tiny, WeightMode::VisitCount);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.file_name(), b.file_name());
    }
}
