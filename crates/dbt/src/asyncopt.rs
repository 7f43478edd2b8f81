//! Deferred installation for asynchronous optimization (`--opt-mode
//! async`).
//!
//! A real two-phase translator decides to optimize a hot candidate and
//! installs the optimized code some time later; meanwhile execution,
//! and profiling, go on. [`crate::OptMode::Async`] models that gap
//! deterministically, on the execution thread: when the trigger fires,
//! each pooled seed's region is formed at once against the live profile
//! (exactly as in sync mode) and parked as a [`PendingRegion`] that
//! installs [`INSTALL_LATENCY`] guest instructions later. A candidate
//! whose member blocks were retired or reformed while it waited, or
//! whose seed was meanwhile covered or frozen, is discarded, never
//! installed stale.
//!
//! The deliberate semantic difference from sync mode is *when counters
//! freeze*. Sync freezes at the trigger (`T ≤ use ≤ 2T`, the paper's
//! initial profile); async freezes at install, after the profile has
//! kept drifting — each install therefore records `(p_enqueue,
//! p_install, use_install)` drift points, the raw material of the
//! `Sd.IP` metric (`tpdbt_profile::metrics::sd_ip`). Guest *output* is
//! identical in both modes: regions only change how code runs, not what
//! it computes.

use tpdbt_isa::Pc;

use crate::region::FormedRegion;

/// Guest instructions between a candidate's enqueue and its install.
///
/// Measured once on the threaded optimizer this model replaced: the
/// pooled median enqueue→resolve distance over five runs of
/// `reproduce ext-async --scale tiny` (2,609 candidates, 2-core Xeon
/// host) was 57,497 instructions, rounded here. Part of the async
/// [`crate::DbtConfig::fingerprint`].
pub(crate) const INSTALL_LATENCY: u64 = 57_500;

/// A region formed at a trigger, waiting for its install time.
pub(crate) struct PendingRegion {
    pub seed: Pc,
    pub formed: FormedRegion,
    /// The instruction count at which the region installs.
    pub install_at: u64,
    /// Epoch of each distinct member block at enqueue.
    pub stamps: Vec<(Pc, u64)>,
    /// Branch probability of each conditional member at enqueue (the
    /// drift baseline).
    pub probs: Vec<(Pc, f64)>,
}
