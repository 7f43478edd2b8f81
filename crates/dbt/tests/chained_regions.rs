//! Chained region entries, with hand-written totals: a two-phase walk
//! that leaves one region straight into another enters it without
//! returning to the profiling phase. The walk keeps its totals in
//! locals across the chain and across chunk boundaries, so only
//! expectations written out here can catch it counting an entry, an
//! exit or a loop-back twice or not at all; lockstep parity alone
//! cannot, because the walk is shared.

use tpdbt_dbt::{Backend, CostModel, Dbt, DbtConfig, ExecStats, Lockstep, RunOutcome};
use tpdbt_isa::{Cond, Program, ProgramBuilder, Reg};

/// B-runs of the program below.
const M: i64 = 200;

/// Two loops that hand off to each other directly, `M` times:
///
/// ```text
///  0: movi r0, 0
///  1: addi r0, r0, 1      <- A
///  2: and r1, r0, 7
///  3: br r1 != 0, A       A loops until r0 % 8 == 0, then falls into B
///  4: addi r0, r0, 1      <- B
///  5: and r1, r0, 7
///  6: br r1 == 4, A       B leaves straight into A at r0 % 8 == 4
///  7: br r0 < N, B        <- J, B's latch; N = 8M + 2
///  8: out r0
///  9: halt
/// ```
///
/// The entry block (0..=3) runs once and A seven times (r0 = 2..=8).
/// Then B-run `m` covers r0 = 8m+1..=8m+4 (B four times, J three) and
/// A-run `m` r0 = 8m+5..=8m+8 (A four times), for m = 1..M-1. B-run M
/// stops at r0 = 8M+2, where J falls through to the exit block (8..=9).
/// That is 11M + 2 block events and 27M + 8 instructions.
fn handoff() -> Program {
    let mut b = ProgramBuilder::new();
    let (r0, r1) = (Reg::new(0), Reg::new(1));
    let (a, bb) = (b.fresh_label("A"), b.fresh_label("B"));
    b.movi(r0, 0);
    b.bind(a).unwrap();
    b.addi(r0, r0, 1);
    b.and(r1, r0, 7);
    b.br_imm(Cond::Ne, r1, 0, a);
    b.bind(bb).unwrap();
    b.addi(r0, r0, 1);
    b.and(r1, r0, 7);
    b.br_imm(Cond::Eq, r1, 4, a);
    b.br_imm(Cond::Lt, r0, 8 * M + 2, bb);
    b.out(r0);
    b.halt();
    b.build().unwrap()
}

/// `config`'s outcome on `handoff`, checked equal across a lockstep
/// call beside AVEP and `T = 1` (the region walk) and single runs on
/// `cached-fused` (a guarded trace per region) and `interp` (the walk
/// again, as a lockstep run of one).
fn outcome(config: DbtConfig) -> RunOutcome {
    let p = handoff();
    let fused = config.with_backend(Backend::CachedFused);
    let lockstep = Lockstep::new(vec![DbtConfig::no_opt(), DbtConfig::two_phase(1), fused])
        .run(&p, &[])
        .unwrap()
        .swap_remove(2);
    let traced = Dbt::new(fused).run(&p, &[]).unwrap();
    let walked = Dbt::new(config.with_backend(Backend::Interp))
        .run(&p, &[])
        .unwrap();
    for (single, path) in [(&traced, "cached-fused"), (&walked, "interp")] {
        assert_eq!(lockstep.output, single.output, "{path}");
        assert_eq!(lockstep.stats, single.stats, "{path}");
        assert_eq!(lockstep.inip, single.inip, "{path}");
        assert_eq!(lockstep.intervals, single.intervals, "{path}");
    }
    lockstep
}

/// At `T = 8` A registers first (its 8th use is r0 = 13), then B (r0 =
/// 20) and J (r0 = 26). A's 16th use, r0 = 29, registers it twice: the
/// optimizer forms the loop `[A]` (taken 13 of 16) and the loop `[B,
/// J]` (B falls through 9 of 12, J always taken), whose tail is J.
///
/// From r0 = 30 on, the run never leaves the regions until the exit
/// block, and every entry after the first is chained:
///
/// * the rest of A-run 3: two loop-backs, then a completion;
/// * B-runs 4..=M-1: three loop-backs (J to B), then a side exit from B
///   straight into A;
/// * A-runs 4..=M-1: three loop-backs, then a completion into B;
/// * B-run M: one loop-back, then J completes into the exit block,
///   which halts the guest on the next event.
///
/// The optimizer ran at event 38; the chained run crosses the chunk
/// boundaries at events 1 024 and 2 048 and ends at event 2 201. A
/// block that halts runs once, so it is never a region copy: the guest
/// halts here on the very next event, in the chunk the chained run
/// ends in.
///
/// So 39 events ran as profiling-phase blocks: the first 38 and the
/// exit block. They are the entry block (4 instructions), A-run 0's
/// seven A's (21), two whole B/A-run pairs (27 each), B-run 3 (15), A
/// at r0 = 29 (3) and the exit block (2): 99 instructions, and the
/// other 27M - 91 ran inside regions. The five translated blocks hold
/// 4 + 3 + 3 + 1 + 2 = 13 instructions, and the optimizer retranslated
/// 3 (`[A]`) + 4 (`[B, J]`) = 7. Every profiling op was counted
/// outside a region. At the default prices that is 60·13 + 4·99 +
/// 1·65 + 2·39 + 500·7 + 2·5 309 + 16·196 + 1·394 = 18 967 cycles.
#[test]
fn chained_entries_count_every_entry_exit_and_loop_back() {
    let out = outcome(DbtConfig::two_phase(8));
    assert_eq!(out.output, vec![8 * M + 2]);
    // 27M + 8 instructions; 2M - 6 entries, of which M - 2 complete
    // and M - 4 side-exit; 2 + 3(M - 4) + 3(M - 4) + 1 loop-backs.
    let expect = ExecStats {
        instructions: 5_408,
        region_entries: 394,
        completions: 198,
        side_exits: 196,
        loop_backs: 1_179,
        regions_formed: 2,
        opt_invocations: 1,
        blocks_translated: 5,
        retirements: 0,
        unopt_dispatches: 39,
        region_instructions: 5_309,
        cold_instructions: 13,
        retranslated_instructions: 7,
        region_profiling_ops: 0,
        ..out.stats
    };
    assert_eq!(out.stats, expect);
    assert_eq!(CostModel::DEFAULT.price(&out.stats), 18_967);
}

/// An interval boundary stops a chained walk so the snapshot is taken
/// where a block-by-block run takes it; the walk then resumes chaining.
/// Snapshots do not touch the stats, so they equal the run without
/// intervals. The regions froze their blocks at event 38, so the
/// snapshots add up to the frozen counts: A 16, B 12, J 9 and the
/// entry block 1.
#[test]
fn interval_boundaries_stop_the_chain_and_change_no_stats() {
    let plain = outcome(DbtConfig::two_phase(8));
    let sliced = outcome(DbtConfig::two_phase(8).with_interval(100));
    assert_eq!(sliced.stats, plain.stats);
    let used = |pc: usize| -> u64 {
        sliced
            .intervals
            .iter()
            .filter_map(|iv| iv.branches.get(&pc))
            .map(|&(uses, _)| uses)
            .sum()
    };
    assert_eq!([0, 1, 4, 7].map(used), [1, 16, 12, 9]);
}
