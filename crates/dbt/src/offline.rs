//! Offline region formation over a plain profile (paper §5,
//! future-work bullet 3).
//!
//! The paper does not compute `Sd.CP(train)` / `Sd.LP(train)` because
//! `INIP(train)` and `AVEP` carry no region information; it suggests
//! applying a region-formation algorithm to the profiles offline. This
//! module does exactly that: it runs the translator's region former
//! over a [`PlainProfile`]'s counters (instead of live frozen
//! counters), producing [`RegionDump`]s that the analyzer can evaluate
//! against `AVEP` like any `INIP(T)` dump.

use std::borrow::Cow;
use std::collections::BTreeMap;

use tpdbt_isa::{decode_block, Pc, Program, Terminator};
use tpdbt_profile::{BlockRecord, InipDump, PlainProfile, RegionDump};

use crate::config::RegionPolicy;
use crate::region::{form_region, BlockSource};

struct ProfileSource<'a> {
    terminators: BTreeMap<Pc, Terminator>,
    lens: BTreeMap<Pc, u32>,
    profile: &'a PlainProfile,
}

impl<'a> BlockSource for ProfileSource<'a> {
    fn terminator(&self, pc: Pc) -> Option<&Terminator> {
        self.terminators.get(&pc)
    }
    fn record(&self, pc: Pc) -> Option<Cow<'_, BlockRecord>> {
        self.profile.blocks.get(&pc).map(Cow::Borrowed)
    }
    fn block_len(&self, pc: Pc) -> Option<u32> {
        self.lens.get(&pc).copied()
    }
}

/// Forms regions from a whole-run profile, mirroring the runtime
/// optimizer's policy: blocks whose `use` count reaches `threshold`
/// seed regions, hottest first; a block swallowed by an earlier region
/// neither seeds nor re-enters as an entry.
///
/// Returns regions in formation order with dense ids.
#[must_use]
pub fn form_offline_regions(
    program: &Program,
    profile: &PlainProfile,
    policy: &RegionPolicy,
    threshold: u64,
) -> Vec<RegionDump> {
    let mut terminators = BTreeMap::new();
    let mut lens = BTreeMap::new();
    for &pc in profile.blocks.keys() {
        if let Some(block) = decode_block(program, pc) {
            lens.insert(pc, (block.end - block.start) as u32);
            terminators.insert(pc, block.terminator);
        }
    }
    let src = ProfileSource {
        terminators,
        lens,
        profile: &profile.clone(),
    };

    let mut seeds: Vec<(&Pc, &BlockRecord)> = profile
        .blocks
        .iter()
        .filter(|(_, r)| r.use_count >= threshold)
        .collect();
    seeds.sort_by_key(|(_, r)| std::cmp::Reverse(r.use_count));

    let mut taken_entries: std::collections::BTreeSet<Pc> = std::collections::BTreeSet::new();
    let mut members: std::collections::BTreeSet<Pc> = std::collections::BTreeSet::new();
    let mut regions = Vec::new();
    for (&pc, _) in seeds {
        if taken_entries.contains(&pc) || members.contains(&pc) {
            continue;
        }
        let Some(formed) = form_region(&src, policy, pc) else {
            continue;
        };
        taken_entries.insert(pc);
        for &m in &formed.copies {
            members.insert(m);
        }
        let id = regions.len();
        regions.push(formed.into_dump(id));
    }
    regions
}

/// Packages a plain profile plus offline-formed regions as an
/// [`InipDump`], so the standard analyzer (`NAVEP` → `Sd.CP`/`Sd.LP`)
/// applies. Regions whose blocks are absent from `reference` are
/// dropped (a training run can touch blocks the reference run never
/// executes, and normalization needs reference probabilities for every
/// copy).
#[must_use]
pub fn as_inip_with_regions(
    profile: &PlainProfile,
    mut regions: Vec<RegionDump>,
    reference: &PlainProfile,
    threshold: u64,
) -> InipDump {
    regions.retain(|r| r.copies.iter().all(|pc| reference.blocks.contains_key(pc)));
    for (i, r) in regions.iter_mut().enumerate() {
        r.id = i;
    }
    InipDump {
        threshold,
        regions,
        blocks: profile.blocks.clone(),
        entry: profile.entry,
        profiling_ops: profile.profiling_ops,
        cycles: 0,
        instructions: profile.instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dbt, DbtConfig};
    use tpdbt_isa::{structured, Cond, ProgramBuilder, Reg};
    use tpdbt_profile::RegionKind;

    fn looped_program() -> Program {
        let mut b = ProgramBuilder::new();
        let r = Reg::new(0);
        structured::counted_loop(&mut b, r, 0, 1, Cond::Lt, 5000, |_| {}).unwrap();
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn offline_former_finds_the_hot_loop() {
        let p = looped_program();
        let profile = Dbt::new(DbtConfig::no_opt())
            .run(&p, &[])
            .unwrap()
            .as_plain_profile();
        let regions = form_offline_regions(&p, &profile, &RegionPolicy::default(), 100);
        assert!(!regions.is_empty());
        assert!(regions.iter().any(|r| r.kind == RegionKind::Loop));
        // Edges respect the analyzer's topological invariant.
        for r in &regions {
            for e in &r.edges {
                assert!(e.to > e.from || e.to == 0);
            }
        }
    }

    #[test]
    fn cold_profile_forms_no_regions() {
        let p = looped_program();
        let profile = Dbt::new(DbtConfig::no_opt())
            .run(&p, &[])
            .unwrap()
            .as_plain_profile();
        assert!(form_offline_regions(&p, &profile, &RegionPolicy::default(), 1 << 40).is_empty());
    }

    #[test]
    fn packaging_drops_regions_missing_from_reference() {
        let p = looped_program();
        let profile = Dbt::new(DbtConfig::no_opt())
            .run(&p, &[])
            .unwrap()
            .as_plain_profile();
        let regions = form_offline_regions(&p, &profile, &RegionPolicy::default(), 100);
        let n = regions.len();
        assert!(n > 0);
        // Against itself: everything retained, ids dense.
        let dump = as_inip_with_regions(&profile, regions.clone(), &profile, 100);
        assert_eq!(dump.regions.len(), n);
        assert_eq!(dump.regions[0].id, 0);
        // Against an empty reference: everything dropped.
        let empty = PlainProfile::default();
        let dump = as_inip_with_regions(&profile, regions, &empty, 100);
        assert!(dump.regions.is_empty());
    }

    #[test]
    fn offline_regions_analyze_cleanly() {
        let p = looped_program();
        let profile = Dbt::new(DbtConfig::no_opt())
            .run(&p, &[])
            .unwrap()
            .as_plain_profile();
        let regions = form_offline_regions(&p, &profile, &RegionPolicy::default(), 100);
        let dump = as_inip_with_regions(&profile, regions, &profile, 100);
        let m = tpdbt_profile::report::analyze(&dump, &profile).unwrap();
        // Self-comparison: zero deviation everywhere it is defined.
        assert_eq!(m.sd_bp, Some(0.0));
        if let Some(lp) = m.sd_lp {
            assert!(lp.abs() < 1e-12);
        }
    }
}
