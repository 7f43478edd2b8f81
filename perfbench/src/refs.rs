//! Reference outputs, kept in `refs/` and produced by the interpreter
//! backend (`Backend::Interp`, the differential oracle), never by the
//! backends under measurement:
//!
//! * `figures-small.txt`: fig08–fig18 exactly as
//!   `reproduce --scale small --backend interp` prints them;
//! * `results-small.txt`: one line per benchmark with every number
//!   those figures are built from, so each op is checked on its own;
//! * `digests.txt`: the output digest of each guest's no-opt run at
//!   paper scale and, for the serve workload, at tiny scale.
//!
//! `perfbench refs` rebuilds them and fails when the result differs
//! from the kept copy; `perfbench refs --write` replaces the copy.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use tpdbt_dbt::{Backend, Dbt, DbtConfig};
use tpdbt_experiments::figures;
use tpdbt_experiments::runner::BenchResult;
use tpdbt_experiments::sweep::{parallel_map, run_sweep, SweepOptions};
use tpdbt_store::digest::fnv64_words;
use tpdbt_suite::{all_names, workload, InputKind, Scale};

const FIGURES: &str = "figures-small.txt";
const RESULTS: &str = "results-small.txt";
const DIGESTS: &str = "digests.txt";

fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("refs")
}

fn input_name(kind: InputKind) -> &'static str {
    match kind {
        InputKind::Ref => "ref",
        InputKind::Train => "train",
    }
}

/// Every number one benchmark contributes to fig08–fig18, exactly
/// (`Debug` prints each `f64` with all its digits).
#[must_use]
pub fn result_line(r: &BenchResult) -> String {
    let ladder: Vec<_> = r.per_threshold.iter().map(|(p, m)| (p.label, m)).collect();
    format!(
        "{} train={:?} base_cycles={} avep_ops={} ladder={:?}",
        r.name, r.train, r.base_cycles, r.avep_ops, ladder
    )
}

/// fig08–fig18 as `reproduce` prints them, from results in any order.
#[must_use]
pub fn figures_text(results: &[BenchResult]) -> String {
    let names = all_names();
    let mut ordered: Vec<BenchResult> = results.to_vec();
    ordered.sort_by_key(|r| names.iter().position(|n| *n == r.name));
    figures::all(&ordered)
        .iter()
        .map(|t| format!("{}\n", t.to_text()))
        .collect()
}

/// The kept references, parsed.
#[derive(Debug)]
pub struct Refs {
    figures: String,
    results: HashMap<String, String>,
    digests: HashMap<String, u64>,
}

impl Refs {
    /// Reads `refs/`.
    ///
    /// # Errors
    ///
    /// A missing or malformed reference file.
    pub fn load() -> Result<Refs, String> {
        let read = |file: &str| {
            std::fs::read_to_string(dir().join(file))
                .map_err(|e| format!("reading refs/{file}: {e}"))
        };
        let results = read(RESULTS)?
            .lines()
            .filter_map(|l| Some((l.split_once(' ')?.0.to_string(), l.to_string())))
            .collect();
        let mut digests = HashMap::new();
        for line in read(DIGESTS)?.lines() {
            let (key, hex) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("refs/{DIGESTS}: malformed line `{line}`"))?;
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("refs/{DIGESTS}: `{line}`: {e}"))?;
            digests.insert(key.to_string(), digest);
        }
        Ok(Refs {
            figures: read(FIGURES)?,
            results,
            digests,
        })
    }

    /// Whether one benchmark's sweep matches its reference line.
    #[must_use]
    pub fn result_matches(&self, r: &BenchResult) -> bool {
        self.results.get(r.name) == Some(&result_line(r))
    }

    /// Whether rendered figures equal the reference figures.
    #[must_use]
    pub fn figures_match(&self, figures: &str) -> bool {
        figures == self.figures
    }

    /// Output digest of `name`'s no-opt run on the ref input at paper
    /// scale.
    #[must_use]
    pub fn paper_digest(&self, name: &str) -> Option<u64> {
        self.digests.get(&format!("paper {name} ref")).copied()
    }

    /// Output digest of `name`'s no-opt run on `kind` input at tiny
    /// scale.
    #[must_use]
    pub fn tiny_digest(&self, name: &str, kind: InputKind) -> Option<u64> {
        self.digests
            .get(&format!("tiny {name} {}", input_name(kind)))
            .copied()
    }
}

/// The interpreter's no-opt output digest of one guest.
fn interp_digest(name: &str, scale: Scale, kind: InputKind) -> Result<u64, String> {
    let w = workload(name, scale, kind).map_err(|e| format!("{name}: {e}"))?;
    let out = Dbt::new(DbtConfig::no_opt().with_backend(Backend::Interp))
        .run_built(&w.binary, &w.input)
        .map_err(|e| format!("{name}: {e}"))?;
    Ok(fnv64_words(&out.output))
}

/// Builds all three reference files, returned as `(file, contents)`.
fn build() -> Result<Vec<(&'static str, String)>, String> {
    let names = all_names();
    let opts = SweepOptions {
        jobs: 2,
        backend: Backend::Interp,
        ..SweepOptions::default()
    };
    let report = run_sweep(&names, Scale::Small, &opts, |name| {
        eprintln!("  sweep {name}")
    })
    .map_err(|e| e.to_string())?;
    if report.degraded.is_degraded() {
        return Err(format!("degraded sweep:\n{}", report.degraded.render()));
    }
    let results: String = report
        .results
        .iter()
        .map(|r| format!("{}\n", result_line(r)))
        .collect();
    let per_guest = parallel_map(2, &names, |_, name| -> Result<String, String> {
        eprintln!("  digests {name}");
        Ok(format!(
            "paper {name} ref {:016x}\ntiny {name} ref {:016x}\ntiny {name} train {:016x}\n",
            interp_digest(name, Scale::Paper, InputKind::Ref)?,
            interp_digest(name, Scale::Tiny, InputKind::Ref)?,
            interp_digest(name, Scale::Tiny, InputKind::Train)?,
        ))
    });
    let digests = per_guest.into_iter().collect::<Result<String, String>>()?;
    Ok(vec![
        (FIGURES, figures_text(&report.results)),
        (RESULTS, results),
        (DIGESTS, digests),
    ])
}

/// `perfbench refs [--write]`: rebuilds the references; without
/// `--write`, exits 1 when they differ from the kept copy.
#[must_use]
pub fn command(write: bool) -> i32 {
    let built = match build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench refs: {e}");
            return 1;
        }
    };
    let mut status = 0;
    for (file, contents) in built {
        let path = dir().join(file);
        if write {
            if let Err(e) =
                std::fs::create_dir_all(dir()).and_then(|()| std::fs::write(&path, contents))
            {
                eprintln!("perfbench refs: writing {}: {e}", path.display());
                status = 1;
            }
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(kept) if kept == contents => println!("refs/{file}: identical"),
            Ok(kept) => {
                let first = kept
                    .lines()
                    .zip(contents.lines())
                    .position(|(a, b)| a != b)
                    .unwrap_or(kept.lines().count().min(contents.lines().count()));
                println!(
                    "refs/{file}: DIFFERS from the rebuild, first at line {}",
                    first + 1
                );
                status = 1;
            }
            Err(e) => {
                println!("refs/{file}: cannot read the kept copy: {e}");
                status = 1;
            }
        }
    }
    status
}
