//! Property tests for superinstruction fusion: for any legal
//! straight-line micro-op window, fusing is architecturally invisible
//! and exactly invertible.
//!
//! Two invariants are pinned over random windows and random machine
//! states:
//!
//! 1. **Round trip** — `unfuse_ops(fuse_ops(w)) == w`, and the fused
//!    widths tile the window exactly.
//! 2. **Semantics** — executing the fused window leaves the machine
//!    bitwise identical to executing the flat window, including on
//!    trapping windows: the same [`tpdbt_vm::VmError`] (with the same
//!    constituent guest pc) at the same point, with the same partial
//!    architectural effects committed before the trap.
//!
//! The window generator deliberately over-samples the fuser's idioms:
//! three-ALU runs (with a `div` mixed in, so the trap-free `AluSpec`
//! refusal splits the run), FPU pairs, and ALU + float load (the load
//! may read out of bounds, so `AluFLoad`'s `pc + 1` trap attribution is
//! exercised). Registers alias freely, and single-op tokens include the
//! other trapping ops (division, out-of-bounds memory traffic,
//! exhausted input), so trap-pc attribution is covered, not just the
//! happy path.

use proptest::prelude::*;

use tpdbt_isa::{
    fuse_ops, unfuse_ops, BlockBody, DecodedBlock, FReg, FusedOp, ProgramBuilder, Reg,
};
use tpdbt_vm::{exec_body, exec_fused, exec_op, Machine, VmError};

/// One generator token: either a single random instruction or a
/// fusable idiom of 2-3 instructions.
type Tok = (u8, u8, u8, u8, i64);

fn emit(b: &mut ProgramBuilder, tok: Tok) {
    let (code, d8, a8, x8, imm) = tok;
    let r = |i: u8| Reg::new(i % 8);
    let f = |i: u8| FReg::new(i % 4);
    let (d, a, x) = (r(d8), r(a8), r(x8));
    match code % 21 {
        0 => b.movi(d, imm),
        1 => b.addi(d, a, imm),
        2 => b.add(d, a, x),
        3 => b.div(d, a, x), // traps when x == 0
        4 => b.shl(d, a, imm),
        5 => b.load(d, a, imm.rem_euclid(20)), // may trap OOB (mem = 16)
        6 => b.store(a, x, imm.rem_euclid(20)),
        7 => b.muli(d, a, imm),
        8 => b.xor(d, a, imm),
        9 => b.mov(d, a),
        10 => b.fmovi(f(x8), imm as f64 * 0.5),
        11 => b.fadd(f(d8), f(a8), f(x8)),
        12 => b.itof(f(x8), a),
        13 => b.ftoi(d, f(x8)),
        14 => b.fcmp_lt(d, f(a8), f(x8)),
        15 => b.out(a),
        16 => b.input(d), // traps when input is exhausted
        // Fusable idioms, over-sampled (aliasing included: `d` may
        // equal `a`, and the float load's base may be the ALU result).
        17 => {
            // three-ALU run (AluAlu3)
            b.addi(d, a, imm);
            b.xor(a, d, x);
            b.shl(x, a, imm);
        }
        18 => {
            // ALU run with a `div` in the middle: the trapping op
            // refuses both the run and the pairs around it.
            b.add(d, a, x);
            b.div(a, d, x); // traps when x == 0
            b.muli(x, a, imm);
        }
        19 => {
            // FPU pair (FpuFpu)
            b.fmul(f(d8), f(a8), f(x8));
            b.fadd(f(a8), f(d8), f(x8));
        }
        _ => {
            // ALU + float load (AluFLoad): the masked base lands in
            // 0..8 but the offset reaches past the 8-word fmem, so the
            // load half traps at pc + 1 about half the time.
            b.and(d, a, 7);
            b.fload(f(x8), d, imm.rem_euclid(12));
        }
    }
}

/// Builds a straight-line window program and returns it with its
/// decoded flat micro-ops.
fn window(toks: &[Tok]) -> (tpdbt_isa::Program, Vec<tpdbt_isa::MicroOp>) {
    let mut b = ProgramBuilder::new();
    b.reserve_mem(16);
    b.reserve_fmem(8);
    for &tok in toks {
        emit(&mut b, tok);
    }
    b.halt();
    let p = b.build().expect("straight-line windows always validate");
    let block = DecodedBlock::decode(&p, 0).expect("entry block decodes");
    let ops = block.body.flat_ops().into_owned();
    (p, ops)
}

/// Executes `ops` flat, one micro-op at a time from guest pc 0.
fn run_flat(ops: &[tpdbt_isa::MicroOp], m: &mut Machine) -> Result<(), VmError> {
    for (k, op) in ops.iter().enumerate() {
        exec_op(op, k, m)?;
    }
    Ok(())
}

fn arb_toks() -> impl Strategy<Value = Vec<Tok>> {
    prop::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            -40i64..40,
        ),
        1..24,
    )
}

/// Registers, float registers, memory, float memory, input stream.
type State = (Vec<i64>, Vec<f64>, Vec<i64>, Vec<f64>, Vec<i64>);

fn arb_state() -> impl Strategy<Value = State> {
    (
        prop::collection::vec(-100i64..100, 8),
        prop::collection::vec(-100.0f64..100.0, 4),
        prop::collection::vec(-100i64..100, 16),
        prop::collection::vec(-100.0f64..100.0, 8),
        prop::collection::vec(-100i64..100, 0..4),
    )
}

fn load_state(m: &mut Machine, state: &State) {
    for (i, &v) in state.0.iter().enumerate() {
        m.set_reg(i, v);
    }
    for (i, &v) in state.1.iter().enumerate() {
        m.set_freg(i, v);
    }
    for (i, &v) in state.2.iter().enumerate() {
        m.set_mem(i, v);
    }
    for (i, &v) in state.3.iter().enumerate() {
        m.set_fmem(i, v);
    }
}

/// Each idiom token fuses to the superinstruction it is meant to
/// sample, so the generator cannot silently drift off the fuser.
#[test]
fn idiom_tokens_hit_their_superinstructions() {
    let fused = |code: u8| fuse_ops(&window(&[(code, 1, 2, 3, 5)]).1);
    assert!(matches!(fused(17)[..], [FusedOp::AluAlu3 { .. }]));
    assert!(fused(18).iter().all(|f| matches!(f, FusedOp::One(_))));
    assert!(matches!(fused(19)[..], [FusedOp::FpuFpu { .. }]));
    assert!(matches!(fused(20)[..], [FusedOp::AluFLoad { .. }]));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Fusing then unfusing any legal window is the identity, and the
    /// fused widths tile the window.
    #[test]
    fn fuse_then_unfuse_is_identity(toks in arb_toks()) {
        let (_, ops) = window(&toks);
        let fused = fuse_ops(&ops);
        prop_assert_eq!(&unfuse_ops(&fused)[..], &ops[..]);
        let width: usize = fused.iter().map(|f| f.width()).sum();
        prop_assert_eq!(width, ops.len());
    }

    /// Fused execution reproduces flat execution bit for bit on random
    /// machine states: same result (same trap, same pc) and same final
    /// architectural state — registers, floats, memory, output.
    #[test]
    fn fused_window_matches_flat_on_random_states(
        toks in arb_toks(),
        state in arb_state(),
    ) {
        let (p, ops) = window(&toks);
        let mut flat_m = Machine::new(&p, &state.4);
        load_state(&mut flat_m, &state);
        let fused_m0 = flat_m.clone();

        let flat_r = run_flat(&ops, &mut flat_m);

        // Via exec_fused directly.
        let mut fused_m = fused_m0.clone();
        let fused_r = (|| {
            let mut pc = 0;
            for fop in fuse_ops(&ops).iter() {
                exec_fused(fop, pc, &mut fused_m)?;
                pc += fop.width();
            }
            Ok(())
        })();
        prop_assert_eq!(&flat_r, &fused_r, "trap divergence (exec_fused)");
        prop_assert_eq!(&flat_m, &fused_m, "state divergence (exec_fused)");

        // Via the shared body funnel (what the backends execute).
        let mut body_m = fused_m0.clone();
        let body = BlockBody::Fused(fuse_ops(&ops));
        let body_r = exec_body(&body, 0, &mut body_m);
        prop_assert_eq!(&flat_r, &body_r, "trap divergence (exec_body)");
        prop_assert_eq!(&flat_m, &body_m, "state divergence (exec_body)");
    }
}
