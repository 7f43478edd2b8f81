//! The bytecode-interpreter template: a jump-table dispatch loop whose
//! opcode stream is the input — the shape of perlbmk and gap, whose
//! initial-profile behaviour is dominated by the opcode mix.

use tpdbt_isa::{structured, BuiltProgram, Cond, IsaError, ProgramBuilder, Reg};

/// Structural knobs for an interpreter program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterpShape {
    /// Number of opcode handlers (2..=16).
    pub opcodes: usize,
    /// Extra work per handler (arithmetic ops).
    pub handler_ops: usize,
}

const W: Reg = Reg::new(0);
const OP: Reg = Reg::new(4);
const ACC: Reg = Reg::new(3);
const STEER: Reg = Reg::new(2);
const TRIP: Reg = Reg::new(1);
const SCRATCH: Reg = Reg::new(9);

/// Builds the interpreter program.
///
/// Handler `k`'s body depends on `k`: every third handler runs an
/// inner loop (trip count from the record), and every handler branches
/// on two steering bits (`k % 6` and `(k + 3) % 6`), so the hot
/// handler set — and therefore the hot-block profile — follows the
/// opcode mix, and the conditional-branch weight is dominated by the
/// handlers rather than loop latches (perlbmk's profile is its script's
/// branch behaviour, not loop trip counts).
///
/// # Errors
///
/// Returns [`IsaError`] only on internal template bugs.
///
/// # Panics
///
/// Panics if `opcodes` is outside `2..=16`.
pub fn build(name: &str, shape: InterpShape) -> Result<BuiltProgram, IsaError> {
    assert!((2..=16).contains(&shape.opcodes), "opcodes out of range");
    let mut b = ProgramBuilder::named(name);
    b.reserve_mem(64);

    let dispatch = b.fresh_label("dispatch");
    let end = b.fresh_label("end");

    b.movi(ACC, 0);
    b.bind(dispatch)?;
    b.input(W);
    b.br_imm(Cond::Lt, W, 0, end);
    b.shr(OP, W, 24);
    b.and(OP, OP, 0xF);

    let arms: Vec<structured::Arm> = (0..shape.opcodes)
        .map(|k| {
            let handler_ops = shape.handler_ops;
            Box::new(move |b: &mut ProgramBuilder| {
                emit_handler(b, k, handler_ops);
            }) as structured::Arm
        })
        .collect();
    structured::switch(&mut b, OP, arms)?;
    b.jmp(dispatch);

    b.bind(end)?;
    b.out(ACC);
    b.halt();
    b.build_with_data()
}

fn emit_handler(b: &mut ProgramBuilder, k: usize, handler_ops: usize) {
    b.addi(ACC, ACC, k as i64 + 1);
    for i in 0..handler_ops {
        if i % 2 == 0 {
            b.xor(SCRATCH, ACC, k as i64);
        } else {
            b.addi(ACC, ACC, 1);
        }
    }
    if k.is_multiple_of(3) {
        // Loopy handler: trip count from the record.
        b.shr(TRIP, W, 8);
        b.and(TRIP, TRIP, 0xFF);
        b.addi(TRIP, TRIP, 1);
        let head = b.fresh_label(format!("h{k}_loop"));
        b.bind(head).expect("fresh label");
        b.add(ACC, ACC, W);
        b.subi(TRIP, TRIP, 1);
        b.br_imm(Cond::Gt, TRIP, 0, head);
    }
    // Two steering branches per handler: handlers are structural
    // twins, like real threaded-interpreter handlers; only their bits
    // differ.
    for bit in [k % 6, (k + 3) % 6] {
        b.shr(STEER, W, bit as i64);
        b.and(STEER, STEER, 1);
        structured::if_else(
            b,
            Cond::Eq,
            STEER,
            1,
            |b| b.addi(ACC, ACC, 5),
            |b| b.subi(ACC, ACC, 2),
        )
        .expect("fresh labels");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_input;
    use crate::spec::Segment;

    #[test]
    fn builds_and_runs_all_opcodes() {
        let built = build(
            "interp",
            InterpShape {
                opcodes: 12,
                handler_ops: 2,
            },
        )
        .unwrap();
        // Uniform mix over 12 opcodes.
        let seg = Segment::new(1.0, &[0.7, 0.3], (2, 9), (1, 4)).with_mix(vec![1.0; 12]);
        let input = generate_input(&[seg], 500, 3);
        let out = tpdbt_vm::run_collect(&built.program, &input).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn opcode_mix_shifts_dynamic_profile() {
        let built = build(
            "interp",
            InterpShape {
                opcodes: 8,
                handler_ops: 1,
            },
        )
        .unwrap();
        let loopy = Segment::new(1.0, &[0.5], (100, 200), (1, 4))
            .with_mix(vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]); // handler 0 loops
        let flat = Segment::new(1.0, &[0.5], (100, 200), (1, 4))
            .with_mix(vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]); // handler 1 does not
        let run = |seg: Segment| {
            let input = generate_input(&[seg], 200, 3);
            let mut i = tpdbt_vm::Interpreter::new(&built.program, &input);
            i.run().unwrap().instructions
        };
        assert!(run(loopy) > run(flat) * 5);
    }

    #[test]
    #[should_panic(expected = "opcodes out of range")]
    fn too_many_opcodes_rejected() {
        let _ = build(
            "t",
            InterpShape {
                opcodes: 17,
                handler_ops: 0,
            },
        );
    }
}
