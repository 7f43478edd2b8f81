//! Property tests for the decoded body: running a block's specialized
//! micro-ops through [`tpdbt_vm::exec_body`] is architecturally
//! indistinguishable from stepping the same instructions one at a time
//! through [`tpdbt_vm::step`], the reference interpreter.
//!
//! The invariant is pinned over random straight-line windows and random
//! machine states, trapping windows included: the same
//! [`tpdbt_vm::VmError`] with the same guest pc, and the same partial
//! architectural effects committed before the trap.
//!
//! The window generator covers every ALU operation in both operand
//! forms, every FPU operation, and every other straight-line
//! instruction. Registers alias freely, and the tokens include the
//! trapping ops (division and remainder by zero, out-of-bounds memory
//! traffic), so trap-pc attribution is covered, not just the happy
//! path.

use proptest::prelude::*;

use tpdbt_isa::{AluOp, DecodedBlock, FReg, FpuOp, MicroOp, Program, ProgramBuilder, Reg};
use tpdbt_vm::{exec_body, step, Machine, VmError};

const ALU: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
];

const FPU: [FpuOp; 6] = [
    FpuOp::Add,
    FpuOp::Sub,
    FpuOp::Mul,
    FpuOp::Div,
    FpuOp::Max,
    FpuOp::Min,
];

/// One generator token: either a single random instruction or a short
/// run of 2-3 instructions whose registers chain through each other.
type Tok = (u8, u8, u8, u8, i64);

fn emit(b: &mut ProgramBuilder, tok: Tok) {
    let (code, d8, a8, x8, imm) = tok;
    let r = |i: u8| Reg::new(i % 8);
    let f = |i: u8| FReg::new(i % 4);
    let (d, a, x) = (r(d8), r(a8), r(x8));
    match code % 21 {
        0 => b.movi(d, imm),
        // Every ALU op in immediate form (div/rem trap when imm == 0).
        1 => b.alu(ALU[usize::from(x8) % 10], d, a, imm),
        // Every ALU op in register form (div/rem trap when x == 0).
        2 => b.alu(ALU[imm.rem_euclid(10) as usize], d, a, x),
        3 => b.div(d, a, x),                   // traps when x == 0
        4 => b.rem(d, a, imm.rem_euclid(3)),   // traps when the immediate is 0
        5 => b.load(d, a, imm.rem_euclid(20)), // may trap OOB (mem = 16)
        6 => b.store(a, x, imm.rem_euclid(20)),
        7 => b.fstore(f(d8), a, imm.rem_euclid(12)), // may trap OOB (fmem = 8)
        8 => b.fpu(FPU[imm.rem_euclid(6) as usize], f(d8), f(a8), f(x8)),
        9 => b.mov(d, a),
        10 => b.fmovi(f(x8), imm as f64 * 0.5),
        11 => b.fmov(f(d8), f(a8)),
        12 => b.itof(f(x8), a),
        13 => b.ftoi(d, f(x8)),
        14 => b.fcmp_lt(d, f(a8), f(x8)),
        15 => b.out(a),
        16 => b.input(d), // reads -1 once the input stream is exhausted
        // Chained runs (aliasing included: `d` may equal `a`, and the
        // float load's base may be the ALU result).
        17 => {
            b.addi(d, a, imm);
            b.xor(a, d, x);
            b.shl(x, a, imm);
        }
        18 => {
            // A `div` between two ALU ops: a trap leaves the first
            // op's write committed and the third's not.
            b.add(d, a, x);
            b.div(a, d, x); // traps when x == 0
            b.muli(x, a, imm);
        }
        19 => {
            b.fmul(f(d8), f(a8), f(x8));
            b.fadd(f(a8), f(d8), f(x8));
        }
        _ => {
            // The masked base lands in 0..8 but the offset reaches past
            // the 8-word fmem, so the load traps about half the time.
            b.and(d, a, 7);
            b.fload(f(x8), d, imm.rem_euclid(12));
        }
    }
}

/// Builds a straight-line window program and returns it with its
/// decoded micro-ops.
fn window(toks: &[Tok]) -> (Program, Vec<MicroOp>) {
    let mut b = ProgramBuilder::new();
    b.reserve_mem(16);
    b.reserve_fmem(8);
    for &tok in toks {
        emit(&mut b, tok);
    }
    b.halt();
    let p = b.build().expect("straight-line windows always validate");
    let block = DecodedBlock::decode(&p, 0).expect("entry block decodes");
    let ops = block.body.ops().to_vec();
    (p, ops)
}

/// Steps the first `n` instructions of `p` through the interpreter,
/// stopping at the first trap, and leaves the pc where it started.
fn run_step(p: &Program, n: usize, m: &mut Machine) -> Result<(), VmError> {
    let start = m.pc();
    let r = (0..n).try_for_each(|pc| {
        m.set_pc(pc);
        step(p, m).map(drop)
    });
    m.set_pc(start);
    r
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

/// Each guest instruction decodes to the op of its operation and
/// operand form, so the property below runs every handler.
#[test]
fn each_operand_form_decodes_to_its_op() {
    let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let (f1, f2, f3) = (FReg::new(1), FReg::new(2), FReg::new(3));
    let mut b = ProgramBuilder::new();
    for op in ALU {
        b.alu(op, r1, r2, r3);
        b.alu(op, r1, r2, 5);
    }
    for op in FPU {
        b.fpu(op, f1, f2, f3);
    }
    b.mov(r1, r2);
    b.movi(r1, 5);
    b.fmov(f1, f2);
    b.fmovi(f1, 0.5);
    b.itof(f1, r2);
    b.ftoi(r1, f2);
    b.fcmp_lt(r1, f2, f3);
    b.load(r1, r2, 5);
    b.store(r1, r2, 5);
    b.fload(f1, r2, 5);
    b.fstore(f1, r2, 5);
    b.input(r1);
    b.out(r1);
    b.halt();
    let p = b.build().unwrap();
    let ops = DecodedBlock::decode(&p, 0).unwrap().body.ops().to_vec();
    let names: Vec<String> = ops
        .iter()
        .map(|op| format!("{op:?}").split(' ').next().unwrap().to_owned())
        .collect();
    let expected = "AddRR AddRI SubRR SubRI MulRR MulRI DivRR DivRI RemRR RemRI \
         AndRR AndRI OrRR OrRI XorRR XorRI ShlRR ShlRI ShrRR ShrRI \
         FAdd FSub FMul FDiv FMax FMin Mov MovI FMov FMovI IToF FToI FCmpLt \
         Load Store FLoad FStore In Out";
    assert_eq!(names.join(" "), expected);
    // `add` reads its second operand from a register, `addi` carries
    // the immediate; both keep raw register indices.
    assert_eq!(ops[0], MicroOp::AddRR { dst: 1, a: 2, b: 3 });
    assert_eq!(
        ops[1],
        MicroOp::AddRI {
            dst: 1,
            a: 2,
            imm: 5
        }
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Running a decoded window through `exec_body` reproduces
    /// stepping it bit for bit on random machine states: same result
    /// (same trap, same pc) and same final architectural state —
    /// registers, floats, memory, input cursor, output.
    #[test]
    fn exec_body_matches_step_on_random_states(
        toks in arb_toks(),
        state in arb_state(),
    ) {
        let (p, ops) = window(&toks);
        prop_assert_eq!(ops.len() + 1, p.len(), "one op per instruction");
        let mut step_m = Machine::new(&p, &state.4);
        load_state(&mut step_m, &state);
        let mut body_m = step_m.clone();

        let step_r = run_step(&p, ops.len(), &mut step_m);
        let body_r = exec_body(&ops, 0, &mut body_m);
        prop_assert_eq!(&step_r, &body_r, "trap divergence");
        prop_assert_eq!(&step_m, &body_m, "state divergence");
    }
}
