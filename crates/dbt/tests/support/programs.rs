//! Guest programs for the parity tests: random structured programs,
//! plus a hot loop and a phase-flipping loop for the boundary cases.
//!
//! Shared by `tests/backend_differential.rs` and `tests/lockstep.rs`
//! (whole runs) and the per-block lockstep test in `src/backend.rs`,
//! which includes this file by path; each uses a subset.
#![allow(dead_code)]

use proptest::prelude::*;
use tpdbt_isa::{structured, Cond, FReg, Program, ProgramBuilder, Reg};

/// A random structured statement. Richer than the ISA-layer generator:
/// includes calls, memory and float traffic, and input-driven branches
/// so every terminator kind and trap-free op reaches both backends.
#[derive(Clone, Debug)]
pub enum Stmt {
    HotLoop { trips: i64, body_ops: u8 },
    IfElse { bias_imm: i64 },
    Switch { arms: u8 },
    MemOps { slots: u8 },
    FloatOps { n: u8 },
    CallLeaf { times: i64 },
    ReadInput,
}

pub fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (20i64..200, 0u8..4).prop_map(|(trips, body_ops)| Stmt::HotLoop { trips, body_ops }),
        (0i64..10).prop_map(|bias_imm| Stmt::IfElse { bias_imm }),
        (1u8..5).prop_map(|arms| Stmt::Switch { arms }),
        (1u8..8).prop_map(|slots| Stmt::MemOps { slots }),
        (1u8..5).prop_map(|n| Stmt::FloatOps { n }),
        (1i64..60).prop_map(|times| Stmt::CallLeaf { times }),
        Just(Stmt::ReadInput),
    ]
}

pub fn build(stmts: &[Stmt]) -> Program {
    let mut b = ProgramBuilder::named("diff");
    b.reserve_mem(16);
    b.reserve_fmem(4);
    let acc = Reg::new(3);
    let tmp = Reg::new(4);
    let leaf = b.fresh_label("leaf");
    let start = b.fresh_label("start");
    b.jmp(start);
    // fn leaf(): acc = acc * 3 + 1
    b.bind(leaf).unwrap();
    b.muli(acc, acc, 3);
    b.addi(acc, acc, 1);
    b.ret();
    b.bind(start).unwrap();
    b.movi(acc, 0);
    for (i, stmt) in stmts.iter().enumerate() {
        match stmt {
            Stmt::HotLoop { trips, body_ops } => {
                let ctr = Reg::new(10 + (i % 4) as u8);
                structured::counted_loop(&mut b, ctr, 0, 1, Cond::Lt, *trips, |b| {
                    for _ in 0..*body_ops {
                        b.addi(acc, acc, 1);
                    }
                })
                .unwrap();
            }
            Stmt::IfElse { bias_imm } => {
                b.and(tmp, acc, 7);
                structured::if_else(
                    &mut b,
                    Cond::Lt,
                    tmp,
                    *bias_imm,
                    |b| b.addi(acc, acc, 2),
                    |b| b.subi(acc, acc, 1),
                )
                .unwrap();
            }
            Stmt::Switch { arms } => {
                b.and(tmp, acc, 15);
                let arms: Vec<structured::Arm> = (0..*arms)
                    .map(|k| {
                        Box::new(move |b: &mut ProgramBuilder| b.addi(acc, acc, i64::from(k)))
                            as structured::Arm
                    })
                    .collect();
                structured::switch(&mut b, tmp, arms).unwrap();
            }
            Stmt::MemOps { slots } => {
                for s in 0..*slots {
                    b.movi(tmp, i64::from(s));
                    b.store(acc, tmp, 0);
                    b.load(Reg::new(5), tmp, 0);
                    b.add(acc, acc, Reg::new(5));
                }
            }
            Stmt::FloatOps { n } => {
                for _ in 0..*n {
                    b.itof(FReg::new(0), acc);
                    b.fmovi(FReg::new(1), 1.5);
                    b.fmul(FReg::new(2), FReg::new(0), FReg::new(1));
                    b.ftoi(acc, FReg::new(2));
                }
            }
            Stmt::CallLeaf { times } => {
                let ctr = Reg::new(14 + (i % 2) as u8);
                structured::counted_loop(&mut b, ctr, 0, 1, Cond::Lt, *times, |b| {
                    b.call(leaf);
                })
                .unwrap();
            }
            Stmt::ReadInput => {
                b.input(tmp);
                b.add(acc, acc, tmp);
            }
        }
        b.out(acc);
    }
    b.out(acc);
    b.halt();
    b.build().expect("structured composition always validates")
}

/// A counted loop of `iters` trips around one block.
pub fn hot_loop(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let r = Reg::new(0);
    structured::counted_loop(&mut b, r, 0, 1, Cond::Lt, iters, |_| {}).unwrap();
    b.halt();
    b.build().unwrap()
}

/// A loop whose likely branch direction flips halfway through the run.
pub fn phase_flip_program() -> Program {
    let mut b = ProgramBuilder::new();
    let (i, x, half) = (Reg::new(0), Reg::new(1), Reg::new(2));
    b.movi(half, 60_000);
    let head = b.fresh_label("head");
    let then = b.fresh_label("then");
    let join = b.fresh_label("join");
    b.movi(i, 0);
    b.bind(head).unwrap();
    b.br_reg(Cond::Lt, i, half, then);
    b.addi(x, x, 2);
    b.jmp(join);
    b.bind(then).unwrap();
    b.addi(x, x, 1);
    b.bind(join).unwrap();
    b.addi(i, i, 1);
    b.br_imm(Cond::Lt, i, 120_000, head);
    b.halt();
    b.build().unwrap()
}
