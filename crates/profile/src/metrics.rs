//! The paper's §2 standard-deviation metrics: `Sd.BP`, `Sd.CP`, `Sd.LP`.

use crate::error::ProfileError;
use crate::model::{BlockPc, InipDump, PlainProfile, RegionKind, SuccSlot, TermKind};
use crate::navep::Navep;
use crate::regionprob::{completion_probability, loopback_probability};

/// Frequency-weighted standard deviation
/// `sqrt(Σ (predicted − actual)² · w / Σ w)` over `(predicted, actual,
/// weight)` points — the common shape of all three paper metrics.
///
/// Returns `None` when the total weight is zero.
#[must_use]
pub fn weighted_sd(points: impl IntoIterator<Item = (f64, f64, f64)>) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for (predicted, actual, w) in points {
        num += (predicted - actual).powi(2) * w;
        den += w;
    }
    if den <= 0.0 {
        None
    } else {
        Some((num / den).sqrt())
    }
}

/// The `(BT, BM, W)` branch-probability points behind `Sd.BP(T)` and the
/// BP mismatch rate: one point per NAVEP node whose block ends in a
/// conditional branch executed in both profiles. `BT` is the INIP
/// prediction, `BM` the AVEP average, `W` the NAVEP frequency.
#[must_use]
pub fn bp_points(inip: &InipDump, avep: &PlainProfile, navep: &Navep) -> Vec<(f64, f64, f64)> {
    navep
        .nodes
        .iter()
        .filter_map(|node| {
            let i = inip.blocks.get(&node.pc)?;
            let a = avep.blocks.get(&node.pc)?;
            if i.kind != Some(TermKind::Cond) || a.kind != Some(TermKind::Cond) {
                return None;
            }
            let bt = i.branch_probability()?;
            let bm = a.branch_probability()?;
            Some((bt, bm, node.frequency))
        })
        .collect()
}

/// The branch-probability points for a plain profile pair (no regions):
/// used for `Sd.BP(train)` with `predicted` read from the training run
/// and weights from AVEP. Blocks not executed in both runs are skipped.
#[must_use]
pub fn bp_points_plain(predicted: &PlainProfile, avep: &PlainProfile) -> Vec<(f64, f64, f64)> {
    avep.blocks
        .iter()
        .filter_map(|(pc, a)| {
            let p = predicted.blocks.get(pc)?;
            let bt = p.branch_probability()?;
            let bm = a.branch_probability()?;
            Some((bt, bm, a.use_count as f64))
        })
        .collect()
}

/// `Sd.BP(T)` (paper §2.1): weighted SD of branch probabilities between
/// `INIP(T)` and `AVEP`, weights from NAVEP frequencies.
///
/// # Errors
///
/// Returns [`ProfileError::EmptyPopulation`] if no conditional branch
/// executed in both profiles.
pub fn sd_bp(inip: &InipDump, avep: &PlainProfile, navep: &Navep) -> Result<f64, ProfileError> {
    weighted_sd(bp_points(inip, avep, navep))
        .ok_or(ProfileError::EmptyPopulation { metric: "Sd.BP" })
}

/// `Sd.BP(train)`: weighted SD of branch probabilities between a
/// training-input run and `AVEP`, weights from AVEP frequencies.
///
/// # Errors
///
/// Returns [`ProfileError::EmptyPopulation`] if the profiles share no
/// executed conditional branch.
pub fn sd_bp_plain(predicted: &PlainProfile, avep: &PlainProfile) -> Result<f64, ProfileError> {
    weighted_sd(bp_points_plain(predicted, avep)).ok_or(ProfileError::EmptyPopulation {
        metric: "Sd.BP(train)",
    })
}

/// The `(CT, CM, W)` completion-probability points of all non-loop
/// regions: `CT` from frozen INIP counters, `CM` from AVEP counters,
/// `W` the NAVEP frequency of the region entry copy.
#[must_use]
pub fn cp_points(inip: &InipDump, avep: &PlainProfile, navep: &Navep) -> Vec<(f64, f64, f64)> {
    strip_index(region_points(inip, avep, navep, RegionKind::Trace))
}

/// The `(LT, LM, W)` loop-back-probability points of all loop regions.
#[must_use]
pub fn lp_points(inip: &InipDump, avep: &PlainProfile, navep: &Navep) -> Vec<(f64, f64, f64)> {
    strip_index(region_points(inip, avep, navep, RegionKind::Loop))
}

/// [`cp_points`] with the region index attached:
/// `(region, CT, CM, W)` — used by the diagnosis tooling.
#[must_use]
pub fn cp_points_indexed(
    inip: &InipDump,
    avep: &PlainProfile,
    navep: &Navep,
) -> Vec<(usize, f64, f64, f64)> {
    region_points(inip, avep, navep, RegionKind::Trace)
}

/// [`lp_points`] with the region index attached.
#[must_use]
pub fn lp_points_indexed(
    inip: &InipDump,
    avep: &PlainProfile,
    navep: &Navep,
) -> Vec<(usize, f64, f64, f64)> {
    region_points(inip, avep, navep, RegionKind::Loop)
}

fn strip_index(points: Vec<(usize, f64, f64, f64)>) -> Vec<(f64, f64, f64)> {
    points.into_iter().map(|(_, a, b, w)| (a, b, w)).collect()
}

fn region_points(
    inip: &InipDump,
    avep: &PlainProfile,
    navep: &Navep,
    kind: RegionKind,
) -> Vec<(usize, f64, f64, f64)> {
    let inip_probs = |pc: BlockPc, slot: SuccSlot| inip.blocks.get(&pc)?.slot_probability(slot);
    let avep_probs = |pc: BlockPc, slot: SuccSlot| avep.blocks.get(&pc)?.slot_probability(slot);
    inip.regions
        .iter()
        .enumerate()
        .filter(|(_, r)| r.kind == kind)
        .filter_map(|(ri, region)| {
            let (predicted, actual) = match kind {
                RegionKind::Trace => (
                    completion_probability(region, &inip_probs)?,
                    completion_probability(region, &avep_probs)?,
                ),
                RegionKind::Loop => (
                    loopback_probability(region, &inip_probs)?,
                    loopback_probability(region, &avep_probs)?,
                ),
            };
            let w = navep.region_entry_frequency(ri);
            // A region the normalized average profile never enters has
            // zero entry weight; admitting its point would feed 0/0
            // (NaN) into the weighted SD. Skip it here — the skipped
            // indices are reported by [`zero_weight_regions`].
            (w.is_finite() && w > 0.0 && predicted.is_finite() && actual.is_finite())
                .then_some((ri, predicted, actual, w))
        })
        .collect()
}

/// Region indices whose NAVEP entry weight is zero (or not finite) —
/// regions the normalized average profile says were never entered.
///
/// These contribute no point to `Sd.CP` / `Sd.LP` (see
/// [`cp_points`] / [`lp_points`]); diagnosis tooling should surface
/// them so the exclusion is visible instead of silent.
#[must_use]
pub fn zero_weight_regions(inip: &InipDump, navep: &Navep) -> Vec<usize> {
    (0..inip.regions.len())
        .filter(|&ri| {
            let w = navep.region_entry_frequency(ri);
            !(w.is_finite() && w > 0.0)
        })
        .collect()
}

/// `Sd.CP(T)` (paper §2.2): weighted SD of non-loop region completion
/// probabilities between `INIP(T)` and `AVEP` (via NAVEP).
///
/// # Errors
///
/// Returns [`ProfileError::EmptyPopulation`] when the dump has no
/// non-loop regions with positive entry weight.
pub fn sd_cp(inip: &InipDump, avep: &PlainProfile, navep: &Navep) -> Result<f64, ProfileError> {
    weighted_sd(cp_points(inip, avep, navep))
        .ok_or(ProfileError::EmptyPopulation { metric: "Sd.CP" })
}

/// `Sd.LP(T)` (paper §2.3): weighted SD of loop-back probabilities
/// between `INIP(T)` and `AVEP` (via NAVEP).
///
/// # Errors
///
/// Returns [`ProfileError::EmptyPopulation`] when the dump has no loop
/// regions with positive entry weight.
pub fn sd_lp(inip: &InipDump, avep: &PlainProfile, navep: &Navep) -> Result<f64, ProfileError> {
    weighted_sd(lp_points(inip, avep, navep))
        .ok_or(ProfileError::EmptyPopulation { metric: "Sd.LP" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BlockRecord, RegionDump, RegionEdge};
    use crate::navep::normalize;
    use std::collections::BTreeMap;

    #[test]
    fn weighted_sd_basics() {
        assert_eq!(weighted_sd(vec![]), None);
        assert_eq!(weighted_sd(vec![(0.5, 0.5, 10.0)]), Some(0.0));
        // Single point: sqrt((0.8-0.6)^2) = 0.2 regardless of weight.
        let sd = weighted_sd(vec![(0.8, 0.6, 42.0)]).unwrap();
        assert!((sd - 0.2).abs() < 1e-12);
        // Weighting: deviations 0.1 (w=3) and 0.3 (w=1).
        let sd = weighted_sd(vec![(0.1, 0.0, 3.0), (0.3, 0.0, 1.0)]).unwrap();
        let expect = ((0.01 * 3.0 + 0.09) / 4.0f64).sqrt();
        assert!((sd - expect).abs() < 1e-12);
    }

    fn two_block_profiles(bt: f64, bm: f64) -> (InipDump, PlainProfile) {
        // One conditional block (pc 0) and a halt block (pc 9).
        let mk = |p: f64| {
            let use_count = 1000u64;
            let taken = (p * use_count as f64) as u64;
            BlockRecord {
                len: 2,
                kind: Some(TermKind::Cond),
                use_count,
                edges: vec![
                    (SuccSlot::Taken, 0, taken),
                    (SuccSlot::Fallthrough, 9, use_count - taken),
                ],
            }
        };
        let halt = BlockRecord {
            len: 1,
            kind: Some(TermKind::Halt),
            use_count: 1,
            ..Default::default()
        };
        let mut inip_blocks = BTreeMap::new();
        inip_blocks.insert(0, mk(bt));
        inip_blocks.insert(9, halt.clone());
        let mut avep_blocks = BTreeMap::new();
        avep_blocks.insert(0, mk(bm));
        avep_blocks.insert(9, halt);
        (
            InipDump {
                threshold: 10,
                regions: vec![],
                blocks: inip_blocks,
                entry: 0,
                profiling_ops: 0,
                cycles: 0,
                instructions: 0,
            },
            PlainProfile {
                blocks: avep_blocks,
                entry: 0,
                profiling_ops: 0,
                instructions: 0,
            },
        )
    }

    #[test]
    fn sd_bp_single_block() {
        let (inip, avep) = two_block_profiles(0.8, 0.6);
        let navep = normalize(&inip, &avep).unwrap();
        let sd = sd_bp(&inip, &avep, &navep).unwrap();
        assert!((sd - 0.2) < 1e-9, "sd = {sd}");
    }

    #[test]
    fn sd_bp_plain_matches_direct_comparison() {
        let (inip, avep) = two_block_profiles(0.75, 0.5);
        let train = PlainProfile {
            blocks: inip.blocks.clone(),
            entry: 0,
            profiling_ops: 0,
            instructions: 0,
        };
        let sd = sd_bp_plain(&train, &avep).unwrap();
        assert!((sd - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_population_is_an_error() {
        let empty_inip = InipDump {
            threshold: 1,
            regions: vec![],
            blocks: BTreeMap::new(),
            entry: 0,
            profiling_ops: 0,
            cycles: 0,
            instructions: 0,
        };
        let empty = PlainProfile::default();
        let navep = normalize(&empty_inip, &empty).unwrap();
        assert!(matches!(
            sd_bp(&empty_inip, &empty, &navep),
            Err(ProfileError::EmptyPopulation { .. })
        ));
        assert!(matches!(
            sd_cp(&empty_inip, &empty, &navep),
            Err(ProfileError::EmptyPopulation { .. })
        ));
        assert!(matches!(
            sd_lp(&empty_inip, &empty, &navep),
            Err(ProfileError::EmptyPopulation { .. })
        ));
    }

    /// A loop region whose frozen INIP counters say LP 0.9 but whose
    /// AVEP counters say LP 0.5.
    #[test]
    fn sd_lp_detects_trip_count_drift() {
        let cond = |p: f64, back_target: usize, exit: usize| {
            let use_count = 1000u64;
            let taken = (p * use_count as f64) as u64;
            BlockRecord {
                len: 2,
                kind: Some(TermKind::Cond),
                use_count,
                edges: vec![
                    (SuccSlot::Taken, back_target, taken),
                    (SuccSlot::Fallthrough, exit, use_count - taken),
                ],
            }
        };
        let halt = BlockRecord {
            len: 1,
            kind: Some(TermKind::Halt),
            use_count: 1,
            ..Default::default()
        };
        let region = RegionDump {
            id: 0,
            kind: RegionKind::Loop,
            copies: vec![0],
            edges: vec![RegionEdge {
                from: 0,
                slot: SuccSlot::Taken,
                to: 0,
            }],
            tail: 0,
        };
        let mut inip_blocks = BTreeMap::new();
        inip_blocks.insert(0, cond(0.9, 0, 9));
        inip_blocks.insert(9, halt.clone());
        let mut avep_blocks = BTreeMap::new();
        avep_blocks.insert(0, cond(0.5, 0, 9));
        avep_blocks.insert(9, halt);
        let inip = InipDump {
            threshold: 10,
            regions: vec![region],
            blocks: inip_blocks,
            entry: 0,
            profiling_ops: 0,
            cycles: 0,
            instructions: 0,
        };
        let avep = PlainProfile {
            blocks: avep_blocks,
            entry: 0,
            profiling_ops: 0,
            instructions: 0,
        };
        let navep = normalize(&inip, &avep).unwrap();
        let sd = sd_lp(&inip, &avep, &navep).unwrap();
        assert!((sd - 0.4).abs() < 1e-9, "sd = {sd}");
        // And there are no trace regions.
        assert!(sd_cp(&inip, &avep, &navep).is_err());
    }

    /// A region whose entry copy the normalized profile never enters
    /// (here: a duplicate region on the same entry block — all dispatch
    /// flow goes to the first region's entry copy, so the second solves
    /// to frequency 0) must be skipped with its index reported, never
    /// fed into the SD as a `0/0`.
    #[test]
    fn never_entered_region_is_skipped_not_nan() {
        let cond = |p: f64| {
            let use_count = 1000u64;
            let taken = (p * use_count as f64) as u64;
            BlockRecord {
                len: 2,
                kind: Some(TermKind::Cond),
                use_count,
                edges: vec![
                    (SuccSlot::Taken, 0, taken),
                    (SuccSlot::Fallthrough, 9, use_count - taken),
                ],
            }
        };
        let halt = BlockRecord {
            len: 1,
            kind: Some(TermKind::Halt),
            use_count: 1,
            ..Default::default()
        };
        let region = |id: usize| RegionDump {
            id,
            kind: RegionKind::Loop,
            copies: vec![0],
            edges: vec![RegionEdge {
                from: 0,
                slot: SuccSlot::Taken,
                to: 0,
            }],
            tail: 0,
        };
        let mut inip_blocks = BTreeMap::new();
        inip_blocks.insert(0, cond(0.9));
        inip_blocks.insert(9, halt.clone());
        let mut avep_blocks = BTreeMap::new();
        avep_blocks.insert(0, cond(0.5));
        avep_blocks.insert(9, halt);
        let mut inip = InipDump {
            threshold: 10,
            regions: vec![region(0), region(1)],
            blocks: inip_blocks,
            entry: 0,
            profiling_ops: 0,
            cycles: 0,
            instructions: 0,
        };
        let avep = PlainProfile {
            blocks: avep_blocks,
            entry: 0,
            profiling_ops: 0,
            instructions: 0,
        };
        let navep = normalize(&inip, &avep).unwrap();
        assert_eq!(navep.region_entry_frequency(1), 0.0);
        // The zero-weight region is excluded from the points…
        let points = lp_points_indexed(&inip, &avep, &navep);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].0, 0);
        // …the metric stays finite…
        let sd = sd_lp(&inip, &avep, &navep).unwrap();
        assert!(sd.is_finite());
        assert!((sd - 0.4).abs() < 1e-9, "sd = {sd}");
        // …and the exclusion is reported.
        assert_eq!(zero_weight_regions(&inip, &navep), vec![1]);

        // When the ONLY loop region is a never-entered one (the trace
        // region on the same entry soaks up all dispatch flow), the
        // metric is an explicit empty-population error, not NaN.
        inip.regions[0].kind = RegionKind::Trace;
        let navep = normalize(&inip, &avep).unwrap();
        assert_eq!(navep.region_entry_frequency(1), 0.0);
        assert!(lp_points_indexed(&inip, &avep, &navep).is_empty());
        assert!(matches!(
            sd_lp(&inip, &avep, &navep),
            Err(ProfileError::EmptyPopulation { .. })
        ));
        assert_eq!(zero_weight_regions(&inip, &navep), vec![1]);
    }
}
