//! Extension experiments: the paper's §5 future-work items, implemented
//! and measured.
//!
//! * [`train_regions`] — future-work bullet 3: form regions *offline*
//!   from the `INIP(train)` profile and compute `Sd.CP(train)` /
//!   `Sd.LP(train)` against `AVEP`, the comparison the paper could not
//!   run.
//! * [`continuous_study`] — the §5 "selective continuous profiling"
//!   idea: compare two-phase and continuous modes on cycles and
//!   re-optimization counts.
//! * [`diagnose_suite`] — future-work bullet 1: characterize the worst
//!   mis-predicted branches per benchmark and how few blocks continuous
//!   profiling would need to watch.
//! * [`threshold_selection`] — future-work bullet 2: pick the best
//!   per-benchmark retranslation threshold by simulated cycles and
//!   report the spread versus any fixed global threshold.
//! * [`backend_study`] — the execution-backend axis (DESIGN.md §16):
//!   relate initial-prediction accuracy (`Sd.BP`, region completion
//!   rate) to the measured wall-clock speedup of the translation cache
//!   and trace-compiled regions (`--backend cached-fused`).

use std::time::Instant;

use tpdbt_dbt::offline::{as_inip_with_regions, form_offline_regions};
use tpdbt_dbt::{Backend, CostModel, Dbt, DbtConfig, Lockstep, RegionPolicy, RunOutcome};
use tpdbt_profile::report::analyze;
use tpdbt_profile::{diagnose, navep};
use tpdbt_suite::{workload, InputKind, Scale, Workload};

use crate::runner::ladder;
use crate::table::Table;
use crate::Result;

/// Runs `w` once under both `configs` in lockstep: the outcomes equal
/// two single runs.
fn lockstep(configs: [DbtConfig; 2], w: &Workload) -> Result<[RunOutcome; 2]> {
    let outs = Lockstep::new(configs.to_vec()).run_built(&w.binary, &w.input)?;
    Ok(outs.try_into().expect("one outcome per config"))
}

/// Future-work bullet 3: `Sd.CP(train)` and `Sd.LP(train)` per
/// benchmark, with regions formed offline from the training profile at
/// a given nominal threshold.
///
/// # Errors
///
/// Propagates workload, guest, and analyzer failures.
pub fn train_regions(names: &[&str], scale: Scale, nominal_threshold: u64) -> Result<Table> {
    let threshold = (nominal_threshold / scale.divisor() as u64).max(2);
    let mut t = Table::new(
        format!(
            "Extension (paper §5.3): Sd.CP(train)/Sd.LP(train) via offline region formation (T={nominal_threshold})"
        ),
        &["bench", "regions", "Sd.BP(train)", "Sd.CP(train)", "Sd.LP(train)"],
    );
    for name in names {
        let reference = workload(name, scale, InputKind::Ref)?;
        let training = workload(name, scale, InputKind::Train)?;
        let avep = Dbt::new(DbtConfig::no_opt())
            .run_built(&reference.binary, &reference.input)?
            .as_plain_profile();
        let train = Dbt::new(DbtConfig::no_opt())
            .run_built(&training.binary, &training.input)?
            .as_plain_profile();
        let regions = form_offline_regions(&train, &RegionPolicy::default(), threshold);
        let dump = as_inip_with_regions(&train, regions, &avep, threshold);
        let m = analyze(&dump, &avep)?;
        t.row(vec![
            (*name).to_string(),
            dump.regions.len().to_string(),
            Table::metric(m.sd_bp),
            Table::metric(m.sd_cp),
            Table::metric(m.sd_lp),
        ]);
    }
    Ok(t)
}

/// The §5 continuous-profiling study: cycles and re-optimizations,
/// continuous vs two-phase, at one nominal threshold.
///
/// # Errors
///
/// Propagates workload and guest failures.
pub fn continuous_study(names: &[&str], scale: Scale, nominal_threshold: u64) -> Result<Table> {
    let threshold = (nominal_threshold / scale.divisor() as u64).max(2);
    let mut t = Table::new(
        format!("Extension (paper §5): continuous vs two-phase profiling (T={nominal_threshold})"),
        &[
            "bench",
            "2p_cycles",
            "cont_cycles",
            "cont/2p",
            "2p_opts",
            "cont_opts",
        ],
    );
    for name in names {
        let w = workload(name, scale, InputKind::Ref)?;
        let [two, cont] = lockstep(
            [
                DbtConfig::two_phase(threshold),
                DbtConfig::continuous(threshold),
            ],
            &w,
        )?;
        let [two_cycles, cont_cycles] = [&two, &cont].map(|o| CostModel::DEFAULT.price(&o.stats));
        t.row(vec![
            (*name).to_string(),
            two_cycles.to_string(),
            cont_cycles.to_string(),
            format!("{:.3}", cont_cycles as f64 / two_cycles as f64),
            two.stats.opt_invocations.to_string(),
            cont.stats.opt_invocations.to_string(),
        ]);
    }
    Ok(t)
}

/// The §5 side-exit-adaptation study: two-phase vs adaptive mode on
/// side exits, retirements, and cycles — "effectively monitoring region
/// side exits to trigger retranslation and adaptation looks promising".
///
/// # Errors
///
/// Propagates workload and guest failures.
pub fn adaptive_study(names: &[&str], scale: Scale, nominal_threshold: u64) -> Result<Table> {
    let threshold = (nominal_threshold / scale.divisor() as u64).max(2);
    let mut t = Table::new(
        format!("Extension (paper §5): side-exit-triggered adaptation (T={nominal_threshold})"),
        &[
            "bench",
            "2p_side_exits",
            "ad_side_exits",
            "retire",
            "2p_cycles",
            "ad_cycles",
            "ad/2p",
        ],
    );
    for name in names {
        let w = workload(name, scale, InputKind::Ref)?;
        let [two, ad] = lockstep(
            [
                DbtConfig::two_phase(threshold),
                DbtConfig::adaptive(threshold),
            ],
            &w,
        )?;
        let [two_cycles, ad_cycles] = [&two, &ad].map(|o| CostModel::DEFAULT.price(&o.stats));
        t.row(vec![
            (*name).to_string(),
            two.stats.side_exits.to_string(),
            ad.stats.side_exits.to_string(),
            ad.stats.retirements.to_string(),
            two_cycles.to_string(),
            ad_cycles.to_string(),
            format!("{:.3}", ad_cycles as f64 / two_cycles as f64),
        ]);
    }
    Ok(t)
}

/// Future-work bullet 1: the worst mis-predicted branch per benchmark
/// and how many blocks cover 90% of the squared-deviation mass (the
/// candidates for selective continuous profiling).
///
/// # Errors
///
/// Propagates workload, guest, and analyzer failures.
pub fn diagnose_suite(names: &[&str], scale: Scale, nominal_threshold: u64) -> Result<Table> {
    let threshold = (nominal_threshold / scale.divisor() as u64).max(2);
    let mut t = Table::new(
        format!("Extension (paper §5.1): mis-prediction characterization (T={nominal_threshold})"),
        &[
            "bench",
            "branches",
            "watch_90pct",
            "worst_pc",
            "predicted",
            "actual",
        ],
    );
    for name in names {
        let w = workload(name, scale, InputKind::Ref)?;
        let [avep, inip] = lockstep([DbtConfig::no_opt(), DbtConfig::two_phase(threshold)], &w)?;
        let (avep, inip) = (avep.as_plain_profile(), inip.inip);
        let nav = navep::normalize(&inip, &avep)?;
        let diags = diagnose::diagnose_branches(&inip, &avep, &nav);
        let watch = diagnose::select_for_continuous_profiling(&diags, 0.9);
        let (worst_pc, pred, act) = diags.first().map_or(
            (String::from("-"), String::from("-"), String::from("-")),
            |d| {
                (
                    d.pc.to_string(),
                    format!("{:.3}", d.predicted),
                    format!("{:.3}", d.actual),
                )
            },
        );
        t.row(vec![
            (*name).to_string(),
            diags.len().to_string(),
            watch.len().to_string(),
            worst_pc,
            pred,
            act,
        ]);
    }
    Ok(t)
}

/// The zero-profile baseline: Wu–Larus static branch prediction (the
/// paper's reference \[20]) against `AVEP`, alongside the initial
/// profile and the training input. Conditional branches are matched by
/// their *terminator* address (static blocks are leader-partitioned
/// while dynamic blocks may overlap).
///
/// # Errors
///
/// Propagates workload, guest, solver, and analyzer failures.
pub fn static_baseline(names: &[&str], scale: Scale, nominal_threshold: u64) -> Result<Table> {
    let threshold = (nominal_threshold / scale.divisor() as u64).max(2);
    let mut t = Table::new(
        format!(
            "Extension: static prediction (Wu-Larus) vs INIP({nominal_threshold}) vs train — Sd.BP / mismatch vs AVEP"
        ),
        &["bench", "sd_static", "mis_static", "sd_inip", "mis_inip", "sd_train", "mis_train"],
    );
    for name in names {
        let reference = workload(name, scale, InputKind::Ref)?;
        let training = workload(name, scale, InputKind::Train)?;
        let [avep, inip] = lockstep(
            [DbtConfig::no_opt(), DbtConfig::two_phase(threshold)],
            &reference,
        )?;
        let (avep, inip) = (avep.as_plain_profile(), inip.inip);
        let train = Dbt::new(DbtConfig::no_opt())
            .run_built(&training.binary, &training.input)?
            .as_plain_profile();
        let nav = navep::normalize(&inip, &avep)?;
        let static_prof = tpdbt_staticpred::static_profile(&reference.binary.program)?;

        // Match static predictions to dynamic blocks by terminator pc.
        let static_bps: std::collections::BTreeMap<usize, f64> = static_prof
            .blocks
            .iter()
            .filter_map(|(pc, r)| Some((pc + r.len as usize - 1, r.branch_probability()?)))
            .collect();
        let points: Vec<(f64, f64, f64)> = avep
            .blocks
            .iter()
            .filter_map(|(pc, r)| {
                let bm = r.branch_probability()?;
                let bt = *static_bps.get(&(pc + r.len as usize - 1))?;
                Some((bt, bm, r.use_count as f64))
            })
            .collect();
        let sd_static = tpdbt_profile::metrics::weighted_sd(points.clone());
        let mis_static = {
            let mut mism = 0.0;
            let mut total = 0.0;
            for (bt, bm, w) in &points {
                if tpdbt_profile::mismatch::bp_range(bt.clamp(0.0, 1.0))
                    != tpdbt_profile::mismatch::bp_range(bm.clamp(0.0, 1.0))
                {
                    mism += w;
                }
                total += w;
            }
            (total > 0.0).then_some(mism / total)
        };

        let sd_inip = tpdbt_profile::metrics::sd_bp(&inip, &avep, &nav).ok();
        let mis_inip = tpdbt_profile::mismatch::bp_mismatch(&inip, &avep, &nav).ok();
        let sd_train = tpdbt_profile::metrics::sd_bp_plain(&train, &avep).ok();
        let mis_train = tpdbt_profile::mismatch::bp_mismatch_plain(&train, &avep).ok();
        t.row(vec![
            (*name).to_string(),
            Table::metric(sd_static),
            Table::metric(mis_static),
            Table::metric(sd_inip),
            Table::metric(mis_inip),
            Table::metric(sd_train),
            Table::metric(mis_train),
        ]);
    }
    Ok(t)
}

/// Phase detection across the suite (paper §1's "some programs exhibit
/// multiple phases", refs \[3]\[12]\[16]): record interval profiles during
/// an AVEP run and segment them. Benchmarks the paper calls
/// phase-changers (mcf, wupwise) should report several phases; stable
/// stencils one.
///
/// # Errors
///
/// Propagates workload and guest failures.
pub fn phase_census(names: &[&str], scale: Scale) -> Result<Table> {
    let mut t = Table::new(
        "Extension: phase census (interval profiling + greedy segmentation, eps=0.1)",
        &["bench", "intervals", "phases", "longest_phase_frac"],
    );
    for name in names {
        let w = workload(name, scale, InputKind::Ref)?;
        // ~64 intervals per run regardless of scale.
        let probe = Dbt::new(DbtConfig::no_opt()).run_built(&w.binary, &w.input)?;
        let interval = (probe.stats.instructions / 64).max(1_000);
        let out =
            Dbt::new(DbtConfig::no_opt().with_interval(interval)).run_built(&w.binary, &w.input)?;
        let phases = tpdbt_profile::phases::detect_phases(&out.intervals, 0.1);
        let longest = phases
            .iter()
            .map(tpdbt_profile::Phase::len)
            .max()
            .unwrap_or(0);
        t.row(vec![
            (*name).to_string(),
            out.intervals.len().to_string(),
            phases.len().to_string(),
            format!("{:.2}", longest as f64 / out.intervals.len().max(1) as f64),
        ]);
    }
    Ok(t)
}

/// Future-work bullet 2: per-benchmark best threshold by simulated
/// cycles, versus the best single global threshold.
///
/// # Errors
///
/// Propagates workload and guest failures.
pub fn threshold_selection(names: &[&str], scale: Scale) -> Result<Table> {
    let points = ladder(scale);
    let mut t = Table::new(
        "Extension (paper §5.2): per-benchmark threshold selection (relative perf vs T=1)",
        &["bench", "best_T", "best_rel_perf", "rel_perf_at_2k"],
    );
    for name in names {
        let w = workload(name, scale, InputKind::Ref)?;
        // The base and the whole ladder share one guest execution.
        let configs = std::iter::once(1)
            .chain(points.iter().map(|p| p.actual))
            .map(DbtConfig::two_phase)
            .collect();
        let outs = Lockstep::new(configs).run_built(&w.binary, &w.input)?;
        let (base, ladder_outs) = outs.split_first().expect("the base config runs");
        let cycles = |o: &RunOutcome| CostModel::DEFAULT.price(&o.stats) as f64;
        let mut best: Option<(&str, f64)> = None;
        let mut at_2k = None;
        for (p, out) in points.iter().zip(ladder_outs) {
            let rel = cycles(base) / cycles(out);
            if best.is_none_or(|(_, b)| rel > b) {
                best = Some((p.label, rel));
            }
            if p.nominal == 2_000 {
                at_2k = Some(rel);
            }
        }
        let (label, rel) = best.expect("ladder non-empty");
        t.row(vec![
            (*name).to_string(),
            label.to_string(),
            format!("{rel:.3}"),
            at_2k.map_or_else(|| "-".into(), |r| format!("{r:.3}")),
        ]);
    }
    Ok(t)
}

/// The backend-vs-backend figure (DESIGN.md §16): how the accuracy of
/// the initial prediction translates into host-side speedup once
/// regions are compiled to straight-line guarded traces
/// (`--backend cached-fused`).
///
/// Per benchmark: `Sd.BP` of `INIP(T)` against `AVEP` (how well the
/// formation-time prediction matched whole-run behavior), the region
/// completion rate (dynamic fraction of region entries that ran the
/// whole trace to its tail), and the measured wall-clock of the same
/// run under each backend. A compiled trace only pays off on entries
/// that follow the predicted path — a side exit abandons the
/// straight-line code at a guard — so benchmarks whose initial
/// prediction is accurate (low `Sd.BP`, high completion rate) are the
/// ones where `fused/interp` speedup concentrates. The baseline is the
/// reference interpreter, which compiles nothing: it walks each region
/// block by block through the policy's automaton.
///
/// Both backends are checked bitwise-identical (output *and* stats)
/// before any timing is reported; each timing is the best of three
/// runs after a warm-up.
///
/// # Errors
///
/// Propagates workload, guest, and metric failures, and reports any
/// cross-backend divergence as an error.
pub fn backend_study(names: &[&str], scale: Scale, nominal_threshold: u64) -> Result<Table> {
    let threshold = (nominal_threshold / scale.divisor() as u64).max(2);
    let mut t = Table::new(
        format!(
            "Extension (DESIGN.md §16): trace-compiled backend speedup vs initial-prediction accuracy (T={nominal_threshold})"
        ),
        &[
            "bench",
            "Sd.BP",
            "regions",
            "compl%",
            "interp_ms",
            "fused_ms",
            "fused/interp",
        ],
    );
    let mut speedups = Vec::new();
    for name in names {
        let w = workload(name, scale, InputKind::Ref)?;
        let avep = Dbt::new(DbtConfig::no_opt())
            .run_built(&w.binary, &w.input)?
            .as_plain_profile();
        let cfg = DbtConfig::two_phase(threshold);
        let mut outs = Vec::new();
        let mut times = Vec::new();
        for backend in Backend::ALL {
            let bcfg = cfg.with_backend(backend);
            let out = Dbt::new(bcfg).run_built(&w.binary, &w.input)?; // warm-up
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                let timed = Dbt::new(bcfg).run_built(&w.binary, &w.input)?;
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                if timed.output != out.output {
                    return Err(format!("{name}: {backend} run is not deterministic").into());
                }
            }
            outs.push(out);
            times.push(best);
        }
        if outs
            .iter()
            .any(|o| o.output != outs[0].output || o.stats != outs[0].stats)
        {
            return Err(format!("{name}: backends diverged on output or stats").into());
        }
        let m = analyze(&outs[0].inip, &avep)?;
        let entries = outs[0].stats.completions + outs[0].stats.side_exits;
        let compl =
            (entries > 0).then(|| 100.0 * outs[0].stats.completions as f64 / entries as f64);
        let speedup = times[0] / times[1];
        speedups.push(speedup);
        t.row(vec![
            (*name).to_string(),
            Table::metric(m.sd_bp),
            m.regions.to_string(),
            Table::metric(compl),
            format!("{:.2}", times[0]),
            format!("{:.2}", times[1]),
            format!("{speedup:.2}x"),
        ]);
    }
    if !speedups.is_empty() {
        let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
        t.row(vec![
            "geomean".to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            format!("{geomean:.2}x"),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offline formation's output, pinned: regions formed from each
    /// training profile and their deviations against AVEP, exactly.
    #[test]
    fn train_regions_runs_on_a_mini_suite() {
        let t = train_regions(&["bzip2", "swim", "mcf", "gcc"], Scale::Tiny, 2_000).unwrap();
        assert_eq!(
            t.to_csv(),
            "# Extension (paper §5.3): Sd.CP(train)/Sd.LP(train) via offline region formation (T=2000)\n\
             bench,regions,Sd.BP(train),Sd.CP(train),Sd.LP(train)\n\
             bzip2,7,0.060,0.128,0.002\n\
             swim,3,0.005,0.012,0.000\n\
             mcf,9,0.019,0.053,0.003\n\
             gcc,32,0.241,0.075,0.253\n"
        );
    }

    #[test]
    fn continuous_study_reports_ratios() {
        let t = continuous_study(&["mcf"], Scale::Tiny, 1_000).unwrap();
        assert!(t.to_csv().lines().count() >= 3);
    }

    #[test]
    fn diagnosis_lists_watch_set() {
        let t = diagnose_suite(&["gzip"], Scale::Tiny, 1_000).unwrap();
        let csv = t.to_csv();
        let row = csv.lines().nth(2).unwrap();
        // branches > 0.
        let cells: Vec<&str> = row.split(',').collect();
        assert!(cells[1].parse::<usize>().unwrap() > 0);
    }

    #[test]
    fn static_baseline_is_below_profiles() {
        let t = static_baseline(&["swim"], Scale::Tiny, 1_000).unwrap();
        let csv = t.to_csv();
        let row: Vec<&str> = csv
            .lines()
            .find(|l| l.starts_with("swim"))
            .unwrap()
            .split(',')
            .collect();
        let sd_static: f64 = row[1].parse().unwrap();
        let sd_inip: f64 = row[3].parse().unwrap();
        assert!(
            sd_static > sd_inip,
            "static {sd_static} must be worse than inip {sd_inip}"
        );
    }

    #[test]
    fn phase_census_flags_phase_changers() {
        let t = phase_census(&["mcf", "swim"], Scale::Tiny).unwrap();
        let csv = t.to_csv();
        let phases = |name: &str| -> usize {
            csv.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split(',').nth(2))
                .and_then(|c| c.parse().ok())
                .unwrap()
        };
        assert!(phases("mcf") >= 2, "{csv}");
        assert_eq!(phases("swim"), 1, "{csv}");
    }

    #[test]
    fn threshold_selection_finds_a_best_point() {
        let t = threshold_selection(&["bzip2"], Scale::Tiny).unwrap();
        assert!(t.to_csv().contains("bzip2"));
    }
}
