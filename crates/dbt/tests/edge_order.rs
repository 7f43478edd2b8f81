//! Golden edge orders: a block record lists its edges in order of first
//! count since the block's last reset, with hand-written expectations
//! for small programs. Lockstep and single runs share the counting
//! code, so only expectations written out here can catch a drift in
//! this order; region formation breaks ties by it, and the dumps store
//! it.

use tpdbt_dbt::{Backend, Dbt, DbtConfig, Lockstep};
use tpdbt_isa::{Cond, Program, ProgramBuilder, Reg};
use tpdbt_profile::{BlockRecord, IntervalProfile, SuccSlot};

type Edges = Vec<(SuccSlot, usize, u64)>;

/// Interval snapshots as `(end_instructions, [(pc, (use, taken))])`.
type Snapshots = Vec<(u64, Vec<(usize, (u64, u64))>)>;

/// The record of the block at `pc` under `config`, checked equal on
/// both backends and in a lockstep call beside AVEP.
fn record(p: &Program, config: DbtConfig, pc: usize) -> BlockRecord {
    let mut records = Vec::new();
    for backend in Backend::ALL {
        let config = config.with_backend(backend);
        let single = Dbt::new(config).run(p, &[]).unwrap();
        records.push(single.inip.block(pc).cloned().expect("block ran"));
        let both = Lockstep::new(vec![DbtConfig::no_opt().with_backend(backend), config])
            .run(p, &[])
            .unwrap();
        records.push(both[1].inip.block(pc).cloned().expect("block ran"));
    }
    assert!(records.windows(2).all(|w| w[0] == w[1]), "{records:?}");
    records.swap_remove(0)
}

fn edges(p: &Program, config: DbtConfig, pc: usize) -> Edges {
    record(p, config, pc).edges
}

/// ```text
/// 0: movi r0, 0
/// 1: addi r0, r0, 1      <- top
/// 2: br r0 < 3, top
/// 3: halt
/// ```
/// The block at 1 runs twice: taken, then falling through.
#[test]
fn branch_first_taken_lists_taken_first() {
    let mut b = ProgramBuilder::new();
    let r0 = Reg::new(0);
    let top = b.fresh_label("top");
    b.movi(r0, 0);
    b.bind(top).unwrap();
    b.addi(r0, r0, 1);
    b.br_imm(Cond::Lt, r0, 3, top);
    b.halt();
    let p = b.build().unwrap();
    let expect: Edges = vec![(SuccSlot::Taken, 1, 1), (SuccSlot::Fallthrough, 3, 1)];
    assert_eq!(edges(&p, DbtConfig::no_opt(), 1), expect);
    // The entry block's own copy of the branch ran once, taken.
    assert_eq!(
        edges(&p, DbtConfig::no_opt(), 0),
        vec![(SuccSlot::Taken, 1, 1)]
    );
}

/// ```text
/// 0: movi r0, 0
/// 1: addi r0, r0, 1      <- top
/// 2: br r0 >= 3, done
/// 3: jmp top
/// 4: halt                <- done
/// ```
/// The block at 1 falls through once, then is taken.
#[test]
fn branch_first_falling_through_lists_fallthrough_first() {
    let mut b = ProgramBuilder::new();
    let r0 = Reg::new(0);
    let (top, done) = (b.fresh_label("top"), b.fresh_label("done"));
    b.movi(r0, 0);
    b.bind(top).unwrap();
    b.addi(r0, r0, 1);
    b.br_imm(Cond::Ge, r0, 3, done);
    b.jmp(top);
    b.bind(done).unwrap();
    b.halt();
    let p = b.build().unwrap();
    let expect: Edges = vec![(SuccSlot::Fallthrough, 3, 1), (SuccSlot::Taken, 4, 1)];
    assert_eq!(edges(&p, DbtConfig::no_opt(), 1), expect);
    assert_eq!(
        edges(&p, DbtConfig::no_opt(), 3),
        vec![(SuccSlot::Other(0), 1, 2)]
    );
}

/// ```text
/// 0: movi r0, 0
/// 1: call f              <- top
/// 2: call f
/// 3: call f
/// 4: addi r0, r0, 1
/// 5: br r0 < 2, top
/// 6: halt
/// 7: ret                 <- f
/// ```
/// The return block's targets are numbered in order of first
/// occurrence, and the second round counts onto the same edges.
#[test]
fn return_targets_keep_first_occurrence_order() {
    let mut b = ProgramBuilder::new();
    let r0 = Reg::new(0);
    let (top, f) = (b.fresh_label("top"), b.fresh_label("f"));
    b.movi(r0, 0);
    b.bind(top).unwrap();
    b.call(f);
    b.call(f);
    b.call(f);
    b.addi(r0, r0, 1);
    b.br_imm(Cond::Lt, r0, 2, top);
    b.halt();
    b.bind(f).unwrap();
    b.ret();
    let p = b.build().unwrap();
    let expect: Edges = vec![
        (SuccSlot::Other(0), 2, 2),
        (SuccSlot::Other(1), 3, 2),
        (SuccSlot::Other(2), 4, 2),
    ];
    assert_eq!(edges(&p, DbtConfig::no_opt(), 7), expect);
}

/// The head branch `X` is taken for `i < H1`, falls through for
/// `H1 <= i <= H2`, and is taken again after that:
///
/// ```text
///  0: movi r3, H1
///  1: movi r0, 0
///  2: jmp head
///  3: br r0 < r3, a      <- head (X)
///  4: addi r2, r2, 2
///  5: br r0 != H2, join
///  6: movi r3, N
///  7: jmp join
///  8: addi r2, r2, 1     <- a
///  9: addi r0, r0, 1     <- join
/// 10: br r0 < N, head
/// 11: halt
/// ```
const H1: i64 = 2_500;
const H2: i64 = H1 + 200;
const N: i64 = H2 + 300;
const X: usize = 3;

fn phased_branch() -> Program {
    let mut b = ProgramBuilder::new();
    let (i, acc, bound) = (Reg::new(0), Reg::new(2), Reg::new(3));
    let (head, a, join) = (
        b.fresh_label("head"),
        b.fresh_label("a"),
        b.fresh_label("join"),
    );
    b.movi(bound, H1);
    b.movi(i, 0);
    b.jmp(head);
    b.bind(head).unwrap();
    b.br_reg(Cond::Lt, i, bound, a);
    b.addi(acc, acc, 2);
    b.br_imm(Cond::Ne, i, H2, join);
    b.movi(bound, N);
    b.jmp(join);
    b.bind(a).unwrap();
    b.addi(acc, acc, 1);
    b.bind(join).unwrap();
    b.addi(i, i, 1);
    b.br_imm(Cond::Lt, i, N, head);
    b.halt();
    b.build().unwrap()
}

/// Adaptive mode forms the loop `[X, a]` at `use == 2T` in the first
/// phase, which freezes `X` with only its taken edge. Entered at `X`
/// in the second phase, the region side-exits at once on every entry
/// and retires on its 64th; that resets `X`, which re-profiles falling
/// through for the rest of the second phase (201 - 64 = 137 times) and
/// taken in the third (299 times), so its edges now list the
/// fall-through first. No-opt and two-phase keep the first phase's
/// order.
#[test]
fn adaptive_retirement_reprofiles_in_the_opposite_order() {
    let p = phased_branch();
    let (taken, fall) = (8, 4);
    let whole: Edges = vec![
        (SuccSlot::Taken, taken, (N - 201) as u64),
        (SuccSlot::Fallthrough, fall, 201),
    ];
    assert_eq!(edges(&p, DbtConfig::no_opt(), X), whole);
    assert_eq!(
        edges(&p, DbtConfig::two_phase(1_000), X),
        vec![(SuccSlot::Taken, taken, 2_000)]
    );
    let adaptive = DbtConfig::adaptive(1_000);
    let out = Dbt::new(adaptive).run(&p, &[]).unwrap();
    assert_eq!(out.stats.retirements, 1, "{:?}", out.stats);
    let reprofiled = record(&p, adaptive, X);
    assert_eq!(
        reprofiled.edges,
        vec![
            (SuccSlot::Fallthrough, fall, 137),
            (SuccSlot::Taken, taken, 299)
        ]
    );
    assert_eq!(reprofiled.use_count, 137 + 299);
}

/// The interval snapshots of `p` under `config`, checked equal on both
/// backends and in a lockstep call beside AVEP.
fn intervals(p: &Program, config: DbtConfig) -> Vec<IntervalProfile> {
    let mut runs = Vec::new();
    for backend in Backend::ALL {
        let config = config.with_backend(backend);
        runs.push(Dbt::new(config).run(p, &[]).unwrap().intervals);
        let both = Lockstep::new(vec![DbtConfig::no_opt().with_backend(backend), config])
            .run(p, &[])
            .unwrap();
        runs.push(both[1].intervals.clone());
    }
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    runs.swap_remove(0)
}

/// An interval's delta is what a block profiled in it, across an
/// adaptive reset. On `phased_branch` with 6 000-instruction
/// intervals (the run is 12 207 instructions: 3 before the loop, 4
/// per first- and third-phase iteration, 5 per second-phase one and 7
/// at `i == H2`, then the halt):
///
/// * The first snapshot falls at X of `i = 1 499` (instruction 6 000):
///   X has run 1 500 times, taken, and `a` 1 499 times.
/// * The loop `[X, a]` forms at X's 2 000th use and freezes `a` at
///   1 999. Its run ends at instruction 10 004, before the next
///   snapshot is due (12 000), so none falls while it is frozen.
/// * The region retires at `i = 2 563`. The reset carries X's and
///   `a`'s 500 counts since the first snapshot and restarts their
///   baselines at zero.
/// * The second snapshot falls at `a` of `i = 2 948` (instruction
///   12 002). X has re-profiled 137 falls and 248 takens, so its delta
///   is 500 + 385 uses and 500 + 248 takens; `a` ran 248 times, all
///   taken. The second-phase blocks at 4 and 9 appear for their 201
///   runs (4 is taken except at `H2`, 9 always).
/// * The closing snapshot at the halt holds the last 51 iterations:
///   `a` falls through once, on the last.
#[test]
fn adaptive_reset_carries_interval_deltas() {
    let p = phased_branch();
    let snaps = intervals(&p, DbtConfig::adaptive(1_000).with_interval(6_000));
    let expect: Snapshots = vec![
        (6_000, vec![(X, (1_500, 1_500)), (8, (1_499, 1_499))]),
        (
            12_002,
            vec![
                (X, (885, 748)),
                (4, (201, 200)),
                (8, (748, 748)),
                (9, (201, 201)),
            ],
        ),
        (12_207, vec![(X, (51, 51)), (8, (51, 50))]),
    ];
    let got: Snapshots = snaps
        .iter()
        .map(|iv| {
            let branches = iv.branches.iter().map(|(&pc, &d)| (pc, d)).collect();
            (iv.end_instructions, branches)
        })
        .collect();
    assert_eq!(got, expect);
    let out = Dbt::new(DbtConfig::adaptive(1_000)).run(&p, &[]).unwrap();
    assert_eq!(out.stats.retirements, 1);
    assert_eq!(out.stats.instructions, 12_207);
}
