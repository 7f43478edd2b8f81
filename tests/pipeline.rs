//! End-to-end pipeline tests across crates: suite → translator → text
//! dumps → offline analysis, on real workloads.

use tpdbt::dbt::{Dbt, DbtConfig};
use tpdbt::profile::report::analyze;
use tpdbt::profile::text;
use tpdbt::suite::{all_names, workload, InputKind, Scale};

fn run(name: &str, config: DbtConfig, kind: InputKind) -> tpdbt::dbt::RunOutcome {
    let w = workload(name, Scale::Tiny, kind).unwrap();
    Dbt::new(config).run_built(&w.binary, &w.input).unwrap()
}

/// The methodology end to end for one benchmark: INIP(T) vs AVEP
/// produces metrics in range.
#[test]
fn analyze_inip_against_avep_produces_sane_metrics() {
    let avep = run("vpr", DbtConfig::no_opt(), InputKind::Ref).as_plain_profile();
    let inip = run("vpr", DbtConfig::two_phase(20), InputKind::Ref).inip;
    let m = analyze(&inip, &avep).unwrap();
    let in_unit = |v: Option<f64>| v.is_none_or(|x| (0.0..=1.0).contains(&x));
    assert!(m.sd_bp.is_some(), "vpr has conditional branches");
    assert!(in_unit(m.sd_bp));
    assert!(in_unit(m.bp_mismatch));
    assert!(in_unit(m.sd_cp));
    assert!(in_unit(m.sd_lp));
    assert!(in_unit(m.lp_mismatch));
    assert!(m.regions > 0);
    assert!(m.profiling_ops > 0);
    assert!(m.cycles > 0);
}

/// Architectural equivalence: the translator computes exactly the
/// interpreter's output for the whole suite, in every mode, on both
/// execution backends (selected through the root re-export).
#[test]
fn translator_is_transparent_for_all_workloads() {
    for name in all_names() {
        let w = workload(name, Scale::Tiny, InputKind::Ref).unwrap();
        let mut interp = tpdbt::vm::Interpreter::new(&w.binary.program, &w.input);
        interp.preload(&w.binary.mem_image, &w.binary.fmem_image);
        interp.run().unwrap();
        let expected = interp.machine().output().to_vec();
        for config in [DbtConfig::no_opt(), DbtConfig::two_phase(10)] {
            for backend in tpdbt::Backend::ALL {
                let out = Dbt::new(config.with_backend(backend))
                    .run_built(&w.binary, &w.input)
                    .unwrap();
                assert_eq!(
                    out.output, expected,
                    "{name} diverged in {:?} on {backend}",
                    config.mode
                );
            }
        }
    }
}

/// The two backends agree on more than output: run statistics and the
/// frozen initial profile are bitwise identical, so every figure and
/// metric in the reproduction is backend-independent.
#[test]
fn backends_agree_on_profiles_and_stats() {
    for name in ["gzip", "ammp"] {
        let w = workload(name, Scale::Tiny, InputKind::Ref).unwrap();
        let cfg = DbtConfig::two_phase(20);
        let interp = Dbt::new(cfg.with_backend(tpdbt::Backend::Interp))
            .run_built(&w.binary, &w.input)
            .unwrap();
        let fused = Dbt::new(cfg.with_backend(tpdbt::Backend::CachedFused))
            .run_built(&w.binary, &w.input)
            .unwrap();
        assert_eq!(interp.stats, fused.stats, "{name}");
        assert_eq!(interp.inip.blocks, fused.inip.blocks, "{name}");
        assert_eq!(interp.inip.regions, fused.inip.regions, "{name}");
    }
}

/// AVEP runs produce identical per-block counters across repeated runs
/// (determinism the whole methodology relies on).
#[test]
fn avep_is_deterministic() {
    let a = run("parser", DbtConfig::no_opt(), InputKind::Ref).as_plain_profile();
    let b = run("parser", DbtConfig::no_opt(), InputKind::Ref).as_plain_profile();
    assert_eq!(a, b);
}

/// Non-region blocks in INIP(T) carry end-of-run counters and
/// therefore match AVEP exactly — the paper's reason why only region
/// blocks contribute deviation.
#[test]
fn non_region_blocks_match_avep_exactly() {
    let avep = run("twolf", DbtConfig::no_opt(), InputKind::Ref).as_plain_profile();
    let inip = run("twolf", DbtConfig::two_phase(20), InputKind::Ref).inip;
    let in_region: std::collections::BTreeSet<usize> = inip
        .regions
        .iter()
        .flat_map(|r| r.copies.iter().copied())
        .collect();
    let mut checked = 0;
    for (pc, rec) in &inip.blocks {
        if in_region.contains(pc) {
            continue;
        }
        assert_eq!(
            Some(rec),
            avep.blocks.get(pc),
            "non-region block {pc} must match AVEP"
        );
        checked += 1;
    }
    assert!(checked > 0, "expected some non-region blocks");
}

/// Dumps survive the text format round trip, on real data.
#[test]
fn text_dumps_roundtrip_on_real_profiles() {
    let avep = run("gcc", DbtConfig::no_opt(), InputKind::Ref).as_plain_profile();
    let inip = run("gcc", DbtConfig::two_phase(20), InputKind::Ref).inip;
    assert_eq!(
        text::plain_from_str(&text::plain_to_string(&avep)).unwrap(),
        avep
    );
    assert_eq!(
        text::inip_from_str(&text::inip_to_string(&inip)).unwrap(),
        inip
    );
    // And the analysis of the round-tripped dump is identical.
    let direct = analyze(&inip, &avep).unwrap();
    let roundtripped = analyze(
        &text::inip_from_str(&text::inip_to_string(&inip)).unwrap(),
        &avep,
    )
    .unwrap();
    assert_eq!(direct, roundtripped);
}

/// Very large thresholds optimize nothing: INIP(T) degenerates to AVEP
/// (zero deviation), the paper's high-threshold limit.
#[test]
fn huge_threshold_matches_avep() {
    let avep = run("art", DbtConfig::no_opt(), InputKind::Ref).as_plain_profile();
    let inip = run("art", DbtConfig::two_phase(1 << 40), InputKind::Ref).inip;
    assert!(inip.regions.is_empty());
    let m = analyze(&inip, &avep).unwrap();
    assert_eq!(m.sd_bp, Some(0.0));
    assert_eq!(m.bp_mismatch, Some(0.0));
}

/// Profiling operations decrease monotonically as thresholds shrink
/// (Figure 18's premise), and cycles are always positive.
#[test]
fn profiling_ops_scale_with_threshold() {
    let small = run("equake", DbtConfig::two_phase(5), InputKind::Ref);
    let mid = run("equake", DbtConfig::two_phase(200), InputKind::Ref);
    let avep = run("equake", DbtConfig::no_opt(), InputKind::Ref);
    assert!(small.inip.profiling_ops < mid.inip.profiling_ops);
    assert!(mid.inip.profiling_ops < avep.inip.profiling_ops);
}

/// Continuous profiling (the paper's future-work mode) stays
/// architecturally transparent and keeps counting: its profile has at
/// least as many profiling ops as the frozen two-phase run.
#[test]
fn continuous_mode_counts_more_than_two_phase() {
    let frozen = run("mcf", DbtConfig::two_phase(10), InputKind::Ref);
    let cont = run("mcf", DbtConfig::continuous(10), InputKind::Ref);
    assert_eq!(frozen.output, cont.output);
    assert!(cont.inip.profiling_ops > frozen.inip.profiling_ops);
}
