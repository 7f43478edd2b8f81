//! `tpdbt-query` validates its command line before dialing the server:
//! an unknown op is a usage error (exit 2), never a connect failure
//! (exit 1), even when the socket is unreachable.

use std::process::Command;

#[test]
fn unknown_ops_are_usage_errors_before_connecting() {
    let socket = std::env::temp_dir().join(format!(
        "tpdbt-query-cli-{}-absent.sock",
        std::process::id()
    ));
    let connect = format!("unix:{}", socket.display());
    for op in [&["bogus-op"][..], &["contribute", "w", "f"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_tpdbt-query"))
            .args(["--connect", &connect])
            .args(op)
            .output()
            .expect("tpdbt-query runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{op:?}: {stderr}");
        assert!(stderr.contains("usage: tpdbt-query"), "{op:?}: {stderr}");
        assert!(
            !stderr.contains("tpdbt-query: connect"),
            "{op:?} dialed: {stderr}"
        );
        assert!(out.stdout.is_empty());
    }
}
