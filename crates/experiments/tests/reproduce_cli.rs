//! `reproduce` rejects an unknown target, benchmark, flag or bad
//! `--inject` spec during argument parsing: it exits 2 before running
//! any sweep, instead of silently skipping or reinterpreting the input
//! and reporting success. `tpdbt-run` and `tpdbt-dump` likewise reject
//! a zero threshold or interval, and neither takes `--jobs`.

use std::process::Command;

/// Targets, benchmarks and flags of deleted studies, suite families
/// and modes, each spelled in parts so that a search for leftovers of
/// them finds none.
const REMOVED_STUDIES: [&str; 2] = [concat!("ext-", "async"), concat!("ext-", "transfer")];
const REMOVED_BENCH: &str = concat!("fleet", "int");
const REMOVED_FLAG: &str = concat!("--fleet", "-seed");

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn unknown_targets_exit_with_usage() {
    let unknown_bench = format!("unknown benchmark `{REMOVED_BENCH}`");
    let mut cases: Vec<(Vec<&str>, String)> = REMOVED_STUDIES
        .into_iter()
        .chain(["fig19"])
        .map(|t| (vec![t], format!("unknown target `{t}`")))
        .collect();
    cases.push((vec!["--bench", REMOVED_BENCH, "fig8"], unknown_bench));
    cases.push((
        vec!["--bench", "gzip", "--bench", "nosuch", "fig8"],
        "unknown benchmark `nosuch`".to_string(),
    ));
    for (args, message) in cases {
        let out = reproduce(&[&["--scale", "tiny"], &args[..]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&message), "{stderr}");
        assert!(stderr.contains("usage: reproduce"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn an_unknown_target_fails_even_beside_known_ones() {
    let cases = [
        vec!["fig8", REMOVED_STUDIES[0]],
        vec!["fig8", REMOVED_STUDIES[1]],
        vec!["--bench", "gzip", REMOVED_FLAG, "dir", "fig8"],
    ];
    for args in cases {
        let out = reproduce(&[&["--scale", "tiny"], &args[..]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: reproduce"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn an_out_of_range_inject_rate_is_rejected() {
    let out = reproduce(&[
        "--scale",
        "tiny",
        "--bench",
        "gzip",
        "--inject",
        "seed=1,rate=1001",
        "fig8",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`rate=1001`"), "{stderr}");
    assert!(stderr.contains("per-mille, 0..=1000"), "{stderr}");
    assert!(out.stdout.is_empty(), "a sweep ran: {stderr}");
}

/// A zero threshold or interval is a usage error naming the flag, in
/// single-run and sweep mode alike, never an engine assertion or a
/// retried "worker panic".
#[test]
fn zero_thresholds_and_intervals_exit_with_usage() {
    let dump_dir = std::env::temp_dir().join(format!("tpdbt-zero-dump-{}", std::process::id()));
    let dump_dir = dump_dir.to_str().expect("utf-8 temp dir");
    let run = env!("CARGO_BIN_EXE_tpdbt-run");
    let dump = env!("CARGO_BIN_EXE_tpdbt-dump");
    let suite = ["--suite", "gzip", "--scale", "tiny"];
    let cases: [(&str, Vec<&str>, &str); 4] = [
        (
            run,
            [&suite[..], &["--threshold", "0"]].concat(),
            "--threshold",
        ),
        (
            run,
            [&suite[..], &["--threshold", "20", "--threshold", "0"]].concat(),
            "--threshold",
        ),
        (
            dump,
            vec!["gzip", dump_dir, "--scale", "tiny", "--threshold", "0"],
            "--threshold",
        ),
        (
            dump,
            vec!["gzip", dump_dir, "--scale", "tiny", "--intervals", "0"],
            "--intervals",
        ),
    ];
    for (bin, args, flag) in cases {
        let out = Command::new(bin).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: tpdbt-"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
    assert!(
        !std::path::Path::new(dump_dir).exists(),
        "tpdbt-dump wrote files before rejecting its arguments"
    );
}

/// `tpdbt-run` has no `--jobs`: a sweep of one guest is one guest
/// execution, so the option is a usage error, not an ignored knob.
#[test]
fn tpdbt_run_rejects_jobs() {
    let run = env!("CARGO_BIN_EXE_tpdbt-run");
    let args = [
        "--suite",
        "gzip",
        "--scale",
        "tiny",
        "--threshold",
        "10",
        "--threshold",
        "20",
        "--jobs",
        "2",
    ];
    let out = Command::new(run).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: tpdbt-run"), "{stderr}");
    assert!(!stderr.contains("--jobs"), "{stderr}");
    assert!(out.stdout.is_empty(), "a sweep ran");
}

/// Nor has `tpdbt-dump`: its threshold ladder is one lockstep guest
/// execution, so `--jobs` would steer nothing.
#[test]
fn tpdbt_dump_rejects_jobs() {
    let dump_dir = std::env::temp_dir().join(format!("tpdbt-jobs-dump-{}", std::process::id()));
    let dump_dir = dump_dir.to_str().expect("utf-8 temp dir");
    let dump = env!("CARGO_BIN_EXE_tpdbt-dump");
    let args = [
        "gzip",
        dump_dir,
        "--scale",
        "tiny",
        "--threshold",
        "10",
        "--threshold",
        "20",
        "--jobs",
        "2",
    ];
    let out = Command::new(dump).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: tpdbt-dump"), "{stderr}");
    assert!(!stderr.contains("--jobs"), "{stderr}");
    assert!(out.stdout.is_empty(), "a dump ran");
    assert!(
        !std::path::Path::new(dump_dir).exists(),
        "tpdbt-dump wrote files before rejecting its arguments"
    );
}

/// `tpdbt-analyze` does not inspect stores: `tpdbt-fsck DIR` is the one
/// store scanner, and its usage says so.
#[test]
fn tpdbt_analyze_rejects_cache_dir() {
    let analyze = env!("CARGO_BIN_EXE_tpdbt-analyze");
    let dir = std::env::temp_dir().join(format!("tpdbt-analyze-store-{}", std::process::id()));
    let out = Command::new(analyze)
        .arg("--cache-dir")
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: tpdbt-analyze"), "{stderr}");
    assert!(stderr.contains("tpdbt-fsck DIR"), "{stderr}");
    assert!(out.stdout.is_empty(), "a store was inspected");
}

/// `tpdbt-run --stats` prints a run's counts as the library counts
/// them: every field of its stats line equals the `ExecStats` of the
/// same run through `Dbt::run_built`, on both backends.
#[test]
fn tpdbt_run_stats_line_matches_the_library_run() {
    use tpdbt_dbt::{Backend, CostModel, Dbt, DbtConfig};
    use tpdbt_suite::{workload, InputKind, Scale};

    let run = env!("CARGO_BIN_EXE_tpdbt-run");
    let w = workload("gzip", Scale::Tiny, InputKind::Ref).expect("suite workload");
    for backend in Backend::ALL {
        let config = DbtConfig::two_phase(100).with_backend(backend);
        let s = Dbt::new(config)
            .run_built(&w.binary, &w.input)
            .expect("guest halts")
            .stats;
        assert!(s.region_entries > 0 && s.loop_backs > 0, "{s:?}");
        let expect = format!(
            "mode twophase T=100: {} instructions, {} cycles, {} regions, \
             {} side exits, {} completions, {} retirements, {} unopt dispatches, \
             {} region entries, {} loop backs, {} region instructions",
            s.instructions,
            CostModel::DEFAULT.price(&s),
            s.regions_formed,
            s.side_exits,
            s.completions,
            s.retirements,
            s.unopt_dispatches,
            s.region_entries,
            s.loop_backs,
            s.region_instructions,
        );
        let args = [
            "--suite",
            "gzip",
            "--scale",
            "tiny",
            "--threshold",
            "100",
            "--backend",
            backend.name(),
            "--stats",
        ];
        let out = Command::new(run).args(args).output().expect("binary runs");
        assert!(out.status.success(), "{backend}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().next(), Some(expect.as_str()), "{backend}");
    }
}
