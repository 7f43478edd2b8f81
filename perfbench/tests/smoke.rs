//! Minimal-length runs of every workload, untraced and traced: each
//! must exit 0, print every metric `BENCHMARK.json` names (and the
//! printed-only `op_p90_ms`, `op_p99_ms` and `fail_frac`) with its unit
//! and sample count, and end with a correct JSON result line.
//!
//! The runs execute real guests, so they need an optimized build:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["reproduce-small", "guest-paper", "serve-zipf"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        obj[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Asserts the table row of `name` shows `unit` and a sample count.
fn assert_row(workload: &str, stdout: &str, name: &str, unit: &str) {
    let row = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .unwrap_or_else(|| panic!("{workload}: no table row for {name}"));
    let cols: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(cols.get(2), Some(&unit), "{workload}: {row}");
    assert!(
        cols.get(3).is_some_and(|n| n.parse::<usize>().is_ok()),
        "{workload}: no sample count in {row}"
    );
}

/// Runs `workload` and checks that every metric of `section` is in the
/// JSON line and the table, and that `printed_only` metrics are in the
/// table.
fn check(workload: &str, trace: bool, section: &str, printed_only: &[(&str, &str)]) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with(r#"{"correct": true, "attempted": "#),
        "{workload}: {last}"
    );
    for (name, unit) in declared(section) {
        let entry = format!(r#""{name}": {{"value": "#);
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
        let tail = &last[at + entry.len()..];
        assert!(
            tail.split('}')
                .next()
                .is_some_and(|m| m.ends_with(&format!(r#""unit": "{unit}""#))),
            "{workload}: {name} lacks unit {unit}: {last}"
        );
        assert_row(workload, &stdout, &name, &unit);
    }
    for (name, unit) in printed_only {
        assert_row(workload, &stdout, name, unit);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release")]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        let mut printed = vec![("op_p90_ms", "ms"), ("fail_frac", "ratio")];
        if w == "serve-zipf" {
            printed.push(("op_p99_ms", "ms"));
        }
        check(w, false, "end_to_end", &printed);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release")]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for w in WORKLOADS {
        check(w, true, "per_layer", &[]);
    }
}
