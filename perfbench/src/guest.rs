//! `guest-paper`: long guest runs where installed regions and compiled
//! traces do most of the work. One op is one `Dbt::run_built` of a
//! paper-scale reference guest under `DbtConfig::two_phase(2000)` on
//! the `cached-fused` backend, sharing one `PredecodedProgram` per
//! guest across runs; a pass is all 26 guests in seeded order. No
//! analysis, store or sweep code runs.

use std::sync::Arc;
use std::time::Instant;

use tpdbt_dbt::{Backend, Dbt, DbtConfig, RunOutcome};
use tpdbt_isa::{decode_block, BlockBody, DecodedBlock, PredecodedProgram};
use tpdbt_store::digest::fnv64_words;
use tpdbt_suite::{all_names, workload, InputKind, Scale, Workload};

use crate::refs::Refs;
use crate::rng::{seeded, shuffle};
use crate::spans::SpanLog;
use crate::{ms_since, whole_passes, DbtCounts, Measured, RunArgs, SETUP_ROUNDS};

/// Guests run by each setup round: fixed, so the warm-up does not
/// depend on the seed.
const WARM_UP: [&str; 4] = ["gzip", "mcf", "swim", "art"];

/// The paper's mid-ladder threshold.
const THRESHOLD: u64 = 2000;

/// Stream id of the guest order.
const ORDER_STREAM: u64 = 2;

struct Guest {
    w: Workload,
    predecoded: Arc<PredecodedProgram>,
    digest: u64,
}

impl Guest {
    fn run(&self) -> Result<RunOutcome, String> {
        Dbt::new(DbtConfig::two_phase(THRESHOLD).with_backend(Backend::CachedFused))
            .with_predecoded(Arc::clone(&self.predecoded))
            .run_built(&self.w.binary, &self.w.input)
            .map_err(|e| format!("{}: {e}", self.w.name))
    }

    fn check(&self, out: &RunOutcome) -> Result<(), String> {
        if fnv64_words(&out.output) == self.digest {
            Ok(())
        } else {
            Err(format!(
                "{}: output differs from the reference",
                self.w.name
            ))
        }
    }
}

fn build(refs: &Refs, log: &mut SpanLog) -> Result<Vec<Guest>, String> {
    all_names()
        .into_iter()
        .map(|name| {
            let w = log
                .span("suite.workload", || {
                    workload(name, Scale::Paper, InputKind::Ref)
                })
                .map_err(|e| format!("{name}: {e}"))?;
            let digest = refs
                .paper_digest(name)
                .ok_or_else(|| format!("no reference digest for {name}"))?;
            Ok(Guest {
                predecoded: Arc::new(PredecodedProgram::new(&w.binary.program)),
                w,
                digest,
            })
        })
        .collect()
}

/// Decodes and fuses every static block of every guest, as the
/// `cached-fused` backend does at translation time: time per block and
/// fused ops per flat op.
fn decode_fuse(guests: &[Guest], log: &mut SpanLog, m: &mut Measured) {
    let (mut blocks, mut flat, mut fused) = (0usize, 0usize, 0usize);
    for g in guests {
        let program = &g.w.binary.program;
        let mut leaders = program.static_leaders();
        leaders.sort_unstable();
        leaders.dedup();
        let found: Vec<_> = leaders
            .iter()
            .filter_map(|&pc| decode_block(program, pc))
            .collect();
        let decoded: Vec<DecodedBlock> = log.span("isa.decode_fuse", || {
            found
                .iter()
                .map(|b| DecodedBlock::from_block(program, b).fused())
                .collect()
        });
        blocks += decoded.len();
        for d in &decoded {
            flat += d.body.instr_count();
            fused += match &d.body {
                BlockBody::Flat(ops) => ops.len(),
                BlockBody::Fused(ops) => ops.len(),
            };
        }
    }
    let total_us: f64 = log.durations_ms("isa.decode_fuse").iter().sum::<f64>() * 1e3;
    m.layer(
        "isa.decode_fuse_us_per_block",
        total_us / blocks.max(1) as f64,
        blocks,
    );
    m.layer(
        "isa.fused_dispatch_ratio",
        fused as f64 / flat.max(1) as f64,
        blocks,
    );
}

/// Runs the workload.
///
/// # Errors
///
/// Setup failures: missing references, warm-up mismatches.
pub fn run(args: &RunArgs, refs: &Refs) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut log = SpanLog::new(Instant::now());
    let mut guests = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        guests = build(refs, &mut log)?;
        for g in guests.iter().filter(|g| WARM_UP.contains(&g.w.name)) {
            let out = g.run().map_err(|e| format!("warm-up: {e}"))?;
            g.check(&out).map_err(|e| format!("warm-up: {e}"))?;
        }
        m.setup_rounds_s.push(t.elapsed().as_secs_f64());
    }

    let mut order_rng = seeded(args.seed, ORDER_STREAM);
    let n = guests.len();
    let mut next_order = move || {
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut order_rng);
        order
    };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut ops = Vec::new();
    m.timed_wall_s = whole_passes(budget, || {
        for i in next_order() {
            let t = Instant::now();
            let out = guests[i].run();
            ops.push(ms_since(t));
            m.tally(out.and_then(|o| guests[i].check(&o)));
        }
        Ok(())
    })?;
    m.timed_ops = ops.len() as u64;
    m.ops_ms = ops;
    if !args.trace {
        return Ok(m);
    }

    decode_fuse(&guests, &mut log, &mut m);
    let mut traced = Vec::new();
    let mut first_pass: Option<DbtCounts> = None;
    let mut instructions = 0;
    whole_passes(budget, || {
        let mut counts = DbtCounts::default();
        for i in next_order() {
            let t = Instant::now();
            let out = log.span("dbt.fused_run", || guests[i].run());
            traced.push(ms_since(t));
            if let Ok(o) = &out {
                counts.add(&o.stats);
            }
            m.tally(out.and_then(|o| guests[i].check(&o)));
        }
        instructions += counts.instructions();
        match first_pass {
            None => first_pass = Some(counts),
            Some(first) if first != counts => {
                m.problems.push("dbt counts differ between passes".into());
            }
            Some(_) => {}
        }
        Ok(())
    })?;
    m.traced_ops_ms = traced;
    m.layer_median("suite.workload_ms", &log.durations_ms("suite.workload"));
    let runs = log.durations_ms("dbt.fused_run");
    m.layer_median("dbt.fused_run_ms", &runs);
    first_pass
        .unwrap_or_default()
        .report(&mut m, instructions, runs.iter().sum(), runs.len());
    m.spans = Some(log);
    Ok(m)
}
