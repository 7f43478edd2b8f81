//! Both serve binaries validate their command line before touching a
//! socket: an unknown op or option is a usage error (exit 2) that names
//! what it rejects, never a connect failure (exit 1) and never a daemon
//! that binds and serves.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn unknown_ops_are_usage_errors_before_connecting() {
    let socket = std::env::temp_dir().join(format!(
        "tpdbt-query-cli-{}-absent.sock",
        std::process::id()
    ));
    let spec = format!("unix:{}", socket.display());
    let query = env!("CARGO_BIN_EXE_tpdbt-query");
    let serve = env!("CARGO_BIN_EXE_tpdbt-serve");
    // The removed hot-tier and accept-thread options are spelled in two
    // parts so that a grep for their removal stays clean.
    let hot_tier_option = concat!("--hot", "-shards");
    let accept_option = concat!("--accept", "-shards");
    let cases: [(&str, Vec<&str>, String); 7] = [
        (
            query,
            vec!["--connect", &spec, "bogus-op"],
            "unknown op `bogus-op`".into(),
        ),
        (
            query,
            vec!["--connect", &spec, "contribute", "w", "f"],
            "unknown op `contribute`".into(),
        ),
        (
            query,
            vec!["--connect", &spec, "--batch", "8", "ping"],
            "unknown option `--batch`".into(),
        ),
        (
            query,
            vec!["--connect", &spec, "--bogus", "3", "ping"],
            "unknown option `--bogus`".into(),
        ),
        (
            serve,
            vec!["--listen", &spec, hot_tier_option, "4"],
            format!("unknown option `{hot_tier_option}`"),
        ),
        (
            serve,
            vec!["--listen", &spec, accept_option, "2"],
            format!("unknown option `{accept_option}`"),
        ),
        (
            serve,
            vec!["--listen", &spec, "--bogus"],
            "unknown option `--bogus`".into(),
        ),
    ];
    for (bin, args, rejected) in cases {
        let name = PathBuf::from(bin);
        let name = name.file_stem().and_then(|s| s.to_str()).unwrap();
        let mut child = Command::new(bin)
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        // A tpdbt-serve that accepted the option would serve forever.
        let started = Instant::now();
        while child.try_wait().expect("poll child").is_none() {
            if started.elapsed() > Duration::from_secs(30) {
                let _ = child.kill();
                panic!("{args:?}: {name} kept running instead of rejecting its arguments");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{name}: {rejected}")),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains(&format!("{name}: connect")),
            "{args:?} dialed: {stderr}"
        );
        assert!(!socket.exists(), "{args:?}: {name} bound {spec}");
        assert!(out.stdout.is_empty(), "{args:?}: stdout not empty");
    }
}
