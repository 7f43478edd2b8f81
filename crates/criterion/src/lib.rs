//! Offline stand-in for the slice of the `criterion` 0.5 API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so external
//! dependencies are replaced by minimal in-repo path crates (DESIGN.md,
//! "Dependency policy"). This shim keeps `benches/` source-compatible:
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! `benchmark_group` and `Bencher::iter`.
//! It measures wall time with `std::time::Instant` and prints a
//! median/min/max line per benchmark — no statistics engine, plots, or
//! baselines.
//!
//! Beyond the printed lines, every completed benchmark is appended to a
//! process-wide registry; when the `TPDBT_BENCH_JSON` environment
//! variable names a path, the `criterion_main!`-generated `main` writes
//! the registry there as machine-readable JSON (one object per
//! benchmark with nanosecond timings) so CI and scripts can diff runs
//! without scraping stdout.

#![forbid(unsafe_code)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable naming the JSON results file, if any.
pub const JSON_ENV: &str = "TPDBT_BENCH_JSON";

/// One completed benchmark in the process-wide registry.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Full benchmark name (`group/name` for grouped benchmarks).
    pub name: String,
    /// Median sample, in nanoseconds.
    pub median_ns: u128,
    /// Fastest sample, in nanoseconds.
    pub min_ns: u128,
    /// Slowest sample, in nanoseconds.
    pub max_ns: u128,
    /// 50th-percentile sample, in nanoseconds (the median again, kept
    /// as an explicit field so latency records read p50/p99/p999).
    pub p50_ns: u128,
    /// 99th-percentile sample, in nanoseconds.
    pub p99_ns: u128,
    /// 99.9th-percentile sample, in nanoseconds.
    pub p999_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
}

static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Times one benchmark body.
pub struct Bencher {
    samples: Vec<Duration>,
    target_samples: usize,
}

impl Bencher {
    /// Times `routine` once per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.target_samples {
            let t0 = Instant::now();
            let out = routine();
            self.samples.push(t0.elapsed());
            drop(out);
        }
    }
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: impl AsRef<str>, mut f: F) {
        let mut b = Bencher {
            samples: Vec::new(),
            target_samples: self.sample_size,
        };
        f(&mut b);
        report(name.as_ref(), &mut b.samples);
    }

    /// Opens a named group; benchmarks report as `group/name`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: impl AsRef<str>, f: F) {
        let full = format!("{}/{}", self.name, name.as_ref());
        self.criterion.bench_function(full, f);
    }

    /// Ends the group (no-op; present for API compatibility).
    pub fn finish(self) {}
}

/// Nearest-rank percentile over *sorted ascending* nanosecond samples:
/// `q` in percent (50.0, 99.0, 99.9). Small sample sets saturate to
/// the maximum, which is the honest tail estimate.
///
/// # Panics
///
/// If `sorted_ns` is empty.
#[must_use]
pub fn percentile_ns(sorted_ns: &[u128], q: f64) -> u128 {
    assert!(!sorted_ns.is_empty());
    let n = sorted_ns.len();
    // The epsilon keeps exact ranks exact: 0.999 * 1000 lands a hair
    // above 999.0 in binary and must not ceil into rank 1000.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q / 100.0) * n as f64 - 1e-9).ceil() as usize;
    sorted_ns[rank.clamp(1, n) - 1]
}

fn report(name: &str, samples: &mut [Duration]) {
    if samples.is_empty() {
        println!("{name:<44} no samples");
        return;
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let min = samples[0];
    let max = samples[samples.len() - 1];
    println!(
        "{name:<44} median {:>12?}  (min {:?}, max {:?}, n={})",
        median,
        min,
        max,
        samples.len()
    );
    let sorted_ns: Vec<u128> = samples.iter().map(Duration::as_nanos).collect();
    RESULTS.lock().unwrap().push(BenchRecord {
        name: name.to_string(),
        median_ns: median.as_nanos(),
        min_ns: min.as_nanos(),
        max_ns: max.as_nanos(),
        p50_ns: percentile_ns(&sorted_ns, 50.0),
        p99_ns: percentile_ns(&sorted_ns, 99.0),
        p999_ns: percentile_ns(&sorted_ns, 99.9),
        samples: samples.len(),
    });
}

/// Returns a snapshot of every benchmark recorded so far in this
/// process, in completion order.
#[must_use]
pub fn results() -> Vec<BenchRecord> {
    RESULTS.lock().unwrap().clone()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the registry as a JSON document: `{"benchmarks": [...]}`
/// with one object per benchmark carrying nanosecond timings.
#[must_use]
pub fn results_json() -> String {
    let rows: Vec<String> = results()
        .iter()
        .map(|r| format!(
            "  {{\"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"samples\": {}}}",
            json_escape(&r.name),
            r.median_ns,
            r.min_ns,
            r.max_ns,
            r.p50_ns,
            r.p99_ns,
            r.p999_ns,
            r.samples
        ))
        .collect();
    format!("{{\"benchmarks\": [\n{}\n]}}\n", rows.join(",\n"))
}

/// Writes [`results_json`] to the path named by `TPDBT_BENCH_JSON`, if
/// set. Called by the `criterion_main!`-generated `main` after all
/// groups finish; harmless to call again. I/O failures are reported on
/// stderr rather than panicking so a read-only filesystem cannot fail a
/// bench run that otherwise succeeded.
pub fn write_json_if_requested() {
    let Ok(path) = std::env::var(JSON_ENV) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    match std::fs::write(&path, results_json()) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Returns true when the binary was invoked by `cargo test --benches`
/// (criterion proper also recognizes `--test`); benches then smoke-run
/// with one sample instead of the full budget.
#[must_use]
pub fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Declares a group of benchmark functions, with optional config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            if $crate::test_mode() {
                criterion = criterion.sample_size(1);
            }
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_if_requested();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default().sample_size(3);
        let mut runs = 0;
        c.bench_function("shim/self_test", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 3);
    }

    #[test]
    fn reports_land_in_the_registry_and_render_as_json() {
        let mut c = Criterion::default().sample_size(2);
        c.bench_function("shim/json \"quoted\"", |b| b.iter(|| 1 + 1));
        let recorded = results();
        let rec = recorded
            .iter()
            .find(|r| r.name == "shim/json \"quoted\"")
            .expect("benchmark recorded");
        assert_eq!(rec.samples, 2);
        assert!(rec.min_ns <= rec.median_ns && rec.median_ns <= rec.max_ns);
        assert!(rec.p50_ns <= rec.p99_ns && rec.p99_ns <= rec.p999_ns);
        let json = results_json();
        assert!(json.starts_with("{\"benchmarks\": ["));
        assert!(json.contains("\"name\": \"shim/json \\\"quoted\\\"\""));
        assert!(json.contains("\"median_ns\": "));
        assert!(json.contains("\"p999_ns\": "));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u128> = (1..=1000).collect();
        assert_eq!(percentile_ns(&samples, 50.0), 500);
        assert_eq!(percentile_ns(&samples, 99.0), 990);
        assert_eq!(percentile_ns(&samples, 99.9), 999);
        // Small sets saturate to the max: the honest tail estimate.
        assert_eq!(percentile_ns(&[7], 99.9), 7);
        assert_eq!(percentile_ns(&[1, 2, 3], 99.0), 3);
    }
}
