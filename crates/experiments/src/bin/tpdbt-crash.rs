//! `tpdbt-crash` — the supervised crash-restart harness (DESIGN.md
//! §14).
//!
//! Forks the real binaries (`reproduce`, `tpdbt-serve`, `tpdbt-query`,
//! `tpdbt-fsck` — located next to this executable) and sweeps every
//! registered crash site in [`FaultSite::CRASH_SITES`], killing the
//! process at that exact point via deterministic crash injection
//! (`std::process::abort`, the in-process stand-in for `kill -9`:
//! no destructors, no flushing). After every kill it verifies the two
//! crash-safety invariants:
//!
//! 1. **Atomicity** — every store entry is either fully absent or
//!    fully valid: a scan finds zero corrupt and zero mismatched
//!    entries (orphaned temp files are allowed; they are the swept
//!    debris of the torn write).
//! 2. **Determinism** — after `tpdbt-fsck --repair`, a warm rerun over
//!    the crashed cache directory produces stdout bitwise identical to
//!    an uncrashed baseline run.
//!
//! The serve-side sites get their own legs: a daemon crashed on the
//! cold-path install window must leave a durable entry a restarted
//! daemon serves from disk, and a daemon crashed mid-quarantine must
//! leave the (healthy) entry untouched.
//!
//! Exit status: 0 when every leg holds, 1 on an invariant violation,
//! 2 when the harness cannot run (missing sibling binaries).

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Output, Stdio};

use tpdbt_faults::FaultSite;
use tpdbt_store::{fsck, FsckOptions};

/// The reproduce invocation used for the baseline and every warm
/// rerun: one benchmark, one figure, tiny scale, single-threaded so
/// the crash point is deterministic.
const REPRO_ARGS: &[&str] = &["--scale", "tiny", "--jobs", "1", "--bench", "gzip", "fig8"];

struct Harness {
    bin_dir: PathBuf,
    scratch: PathBuf,
    failures: u32,
}

fn main() -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let bin_dir = exe.parent().expect("bin dir").to_path_buf();
    for bin in ["reproduce", "tpdbt-serve", "tpdbt-query", "tpdbt-fsck"] {
        if !bin_dir.join(bin).exists() {
            eprintln!(
                "tpdbt-crash: sibling binary {bin} not found in {} \
                 (build the whole workspace first)",
                bin_dir.display()
            );
            return ExitCode::from(2);
        }
    }
    let scratch = std::env::temp_dir().join(format!("tpdbt-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut h = Harness {
        bin_dir,
        scratch,
        failures: 0,
    };

    eprintln!("tpdbt-crash: baseline (uncrashed) run");
    let baseline = h.reproduce(&h.dir("baseline"), None);
    if !baseline.status.success() {
        eprintln!(
            "tpdbt-crash: baseline run failed:\n{}",
            String::from_utf8_lossy(&baseline.stderr)
        );
        return ExitCode::from(2);
    }

    for site in FaultSite::CRASH_SITES {
        match site {
            FaultSite::CrashServeInstall => h.serve_install_leg(),
            FaultSite::CrashStoreQuarantine => h.quarantine_leg(),
            _ => h.sweep_crash_leg(site, &baseline.stdout),
        }
    }

    let _ = std::fs::remove_dir_all(&h.scratch);
    if h.failures == 0 {
        eprintln!(
            "tpdbt-crash: all {} crash sites hold",
            FaultSite::CRASH_SITES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("tpdbt-crash: {} invariant violation(s)", h.failures);
        ExitCode::from(1)
    }
}

/// Whether `status` is the abort the injected crash causes (killed by
/// a signal on Unix; any non-success elsewhere).
fn crashed(status: &std::process::ExitStatus) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt as _;
        status.signal().is_some()
    }
    #[cfg(not(unix))]
    {
        !status.success()
    }
}

impl Harness {
    fn dir(&self, tag: &str) -> PathBuf {
        self.scratch.join(tag)
    }

    fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    fn fail(&mut self, leg: &str, what: &str) {
        self.failures += 1;
        eprintln!("tpdbt-crash: FAIL [{leg}] {what}");
    }

    /// One `reproduce` run against `cache_dir`, optionally with an
    /// injection spec.
    fn reproduce(&self, cache_dir: &Path, inject: Option<&str>) -> Output {
        let mut cmd = Command::new(self.bin("reproduce"));
        cmd.args(REPRO_ARGS).arg("--cache-dir").arg(cache_dir);
        if let Some(spec) = inject {
            cmd.arg("--inject").arg(spec);
        }
        cmd.output().expect("spawn reproduce")
    }

    /// One `tpdbt-query` run; returns (success, stdout).
    fn query(&self, addr: &str, args: &[&str]) -> (bool, String) {
        let out = Command::new(self.bin("tpdbt-query"))
            .args(["--connect", addr, "--deadline-ms", "60000"])
            .args(args)
            .output()
            .expect("spawn tpdbt-query");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    }

    /// Spawns `tpdbt-serve` and waits for its readiness line. Returns
    /// the child and the bound address.
    fn spawn_daemon(&self, cache_dir: &Path, extra: &[&str]) -> (Child, String) {
        let mut child = Command::new(self.bin("tpdbt-serve"))
            .args(["--listen", "127.0.0.1:0", "--jobs", "2", "--hot", "0"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn tpdbt-serve");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = lines
            .next()
            .and_then(Result::ok)
            .and_then(|l| l.strip_prefix("listening on ").map(str::to_string))
            .expect("daemon readiness line");
        (child, addr)
    }

    /// Runs the `tpdbt-fsck` binary; returns its exit code.
    fn fsck_bin(&self, dir: &Path, repair: bool) -> i32 {
        let mut cmd = Command::new(self.bin("tpdbt-fsck"));
        cmd.arg(dir);
        if repair {
            cmd.arg("--repair");
        }
        let out = cmd.output().expect("spawn tpdbt-fsck");
        out.status.code().unwrap_or(-1)
    }

    /// Atomicity invariant: zero corrupt and zero mismatched entries
    /// in `dir` (orphans are legal crash debris).
    fn assert_atomic(&mut self, leg: &str, dir: &Path) {
        let report = fsck(dir, FsckOptions::default()).expect("fsck scan");
        if !report.corrupt.is_empty() || !report.mismatched.is_empty() {
            self.fail(
                leg,
                &format!(
                    "store left partially-written state: {} corrupt, {} mismatched\n{}",
                    report.corrupt.len(),
                    report.mismatched.len(),
                    report.render(dir)
                ),
            );
        }
    }

    /// Sweep-side crash site: kill `reproduce` mid-sweep at `site`,
    /// assert atomicity, repair with the real `tpdbt-fsck` binary, and
    /// assert a warm rerun is bitwise identical to the baseline.
    fn sweep_crash_leg(&mut self, site: FaultSite, baseline_stdout: &[u8]) {
        let leg = site.name().to_string();
        eprintln!("tpdbt-crash: leg {leg}: crash mid-sweep, restart, verify");
        let dir = self.dir(&leg);
        let crashed_run = self.reproduce(&dir, Some(&format!("{leg}:0")));
        if !crashed(&crashed_run.status) {
            self.fail(&leg, "injected crash did not kill the process");
            return;
        }
        self.assert_atomic(&leg, &dir);
        let code = self.fsck_bin(&dir, true);
        if code != 0 {
            self.fail(&leg, &format!("tpdbt-fsck --repair exited {code}"));
        }
        let warm = self.reproduce(&dir, None);
        if !warm.status.success() {
            self.fail(&leg, "warm rerun after the crash failed");
            return;
        }
        if warm.stdout != baseline_stdout {
            self.fail(&leg, "warm rerun diverged from the uncrashed baseline");
        }
    }

    /// Serve cold-path install crash: the artifact is durable on disk
    /// before the hot-tier install, so the crash loses only cache
    /// warmth — a restarted daemon must answer the same query from
    /// disk.
    fn serve_install_leg(&mut self) {
        let leg = FaultSite::CrashServeInstall.name();
        eprintln!("tpdbt-crash: leg {leg}: crash daemon on install, restart, verify");
        let dir = self.dir(leg);
        let (mut daemon, addr) = self.spawn_daemon(&dir, &["--inject", "crash_serve_install:0"]);
        let (ok, _) = self.query(&addr, &["base", "gzip", "--scale", "tiny"]);
        if ok {
            self.fail(leg, "query succeeded although the daemon was to crash");
        }
        let status = daemon.wait().expect("daemon exit");
        if !crashed(&status) {
            self.fail(leg, "daemon did not die of the injected crash");
            return;
        }
        self.assert_atomic(leg, &dir);
        if self.fsck_bin(&dir, true) != 0 {
            self.fail(leg, "tpdbt-fsck --repair failed after daemon crash");
        }
        let (mut daemon, addr) = self.spawn_daemon(&dir, &[]);
        let (ok, body) = self.query(&addr, &["base", "gzip", "--scale", "tiny"]);
        if !ok {
            self.fail(leg, "restarted daemon could not answer the query");
        } else if !body.contains("\"source\":\"disk\"") {
            self.fail(
                leg,
                &format!("entry was not durable before the crash: {body}"),
            );
        }
        let _ = self.query(&addr, &["shutdown"]);
        let _ = daemon.wait();
    }

    /// Mid-quarantine crash: two injected-corrupt decodes of one key
    /// push it to the quarantine path, where the crash fires before
    /// the entry moves. The on-disk entry is healthy (the corruption
    /// was injected at decode time), so a restarted daemon serves it.
    fn quarantine_leg(&mut self) {
        let leg = FaultSite::CrashStoreQuarantine.name();
        eprintln!("tpdbt-crash: leg {leg}: crash daemon mid-quarantine, restart, verify");
        let dir = self.dir(leg);

        // Pre-warm the entry with a clean daemon.
        let (mut daemon, addr) = self.spawn_daemon(&dir, &[]);
        let (ok, _) = self.query(&addr, &["base", "gzip", "--scale", "tiny"]);
        if !ok {
            self.fail(leg, "pre-warm query failed");
        }
        let _ = self.query(&addr, &["shutdown"]);
        let _ = daemon.wait();

        // Two consecutive corrupt decodes of the same key reach the
        // quarantine path (`--hot 0` forces the second query back to
        // disk); the crash fires there.
        let (mut daemon, addr) = self.spawn_daemon(
            &dir,
            &[
                "--inject",
                "store_corrupt:0,store_corrupt:1,crash_store_quarantine:0",
            ],
        );
        let (ok, _) = self.query(&addr, &["base", "gzip", "--scale", "tiny"]);
        if !ok {
            self.fail(leg, "strike-one query should recompute and succeed");
        }
        let (ok, _) = self.query(&addr, &["base", "gzip", "--scale", "tiny"]);
        if ok {
            self.fail(leg, "strike-two query should die with the daemon");
        }
        let status = daemon.wait().expect("daemon exit");
        if !crashed(&status) {
            self.fail(leg, "daemon did not die of the injected crash");
            return;
        }
        self.assert_atomic(leg, &dir);
        if self.fsck_bin(&dir, true) != 0 {
            self.fail(leg, "tpdbt-fsck --repair failed after quarantine crash");
        }
        let (mut daemon, addr) = self.spawn_daemon(&dir, &[]);
        let (ok, body) = self.query(&addr, &["base", "gzip", "--scale", "tiny"]);
        if !ok || !body.contains("\"source\":\"disk\"") {
            self.fail(
                leg,
                &format!("healthy entry lost across the quarantine crash: {body}"),
            );
        }
        let _ = self.query(&addr, &["shutdown"]);
        let _ = daemon.wait();
    }
}
