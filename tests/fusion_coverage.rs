//! Traffic coverage of the superinstruction set: every [`FusedOp`]
//! variant must occur in some static block of the suite guests.
//!
//! The fuser keeps only idioms the suite executes (DESIGN.md §16). The
//! `match` below is exhaustive, so a new variant cannot compile without
//! being listed here, and once listed it fails this test until some
//! suite block actually produces it.

use tpdbt::isa::{decode_block, BlockBody, DecodedBlock, FusedOp, Program};
use tpdbt::suite::{all_names, workload, InputKind, Scale};

const VARIANTS: [&str; 5] = ["AluAlu", "AluAlu3", "FpuFpu", "AluFLoad", "One"];

fn slot(op: &FusedOp) -> usize {
    match op {
        FusedOp::AluAlu { .. } => 0,
        FusedOp::AluAlu3 { .. } => 1,
        FusedOp::FpuFpu { .. } => 2,
        FusedOp::AluFLoad { .. } => 3,
        FusedOp::One(_) => 4,
    }
}

/// Every address a block can start at: the static leaders plus the
/// instruction after each terminator (fall-throughs and return
/// addresses).
fn block_starts(p: &Program) -> Vec<usize> {
    let mut starts = p.static_leaders();
    starts.extend(
        p.instrs()
            .iter()
            .enumerate()
            .filter(|(pc, i)| i.is_terminator() && pc + 1 < p.len())
            .map(|(pc, _)| pc + 1),
    );
    starts.sort_unstable();
    starts.dedup();
    starts
}

#[test]
fn every_fused_op_variant_has_suite_traffic() {
    let mut counts = [0usize; VARIANTS.len()];
    for name in all_names() {
        let w = workload(name, Scale::Tiny, InputKind::Ref).unwrap();
        let p = &w.binary.program;
        for pc in block_starts(p) {
            let block = decode_block(p, pc).unwrap();
            if let BlockBody::Fused(ops) = DecodedBlock::from_block(p, &block).fused().body {
                for op in ops.iter() {
                    counts[slot(op)] += 1;
                }
            }
        }
    }
    for (variant, n) in VARIANTS.iter().zip(counts) {
        assert!(n > 0, "FusedOp::{variant} occurs in no suite block");
    }
}
