//! Pre-decoded micro-op representation of translated code.
//!
//! A real two-phase translator decodes a guest block once, at
//! translation time, into host code; every later execution runs the
//! translated body without touching the guest encoding again. This
//! module provides the analogous representation for the `tpdbt` guest
//! ISA: a [`DecodedBlock`] holds the straight-line body of a basic
//! block as a flat buffer of [`MicroOp`]s plus a pre-resolved
//! [`MicroTerm`] terminator. Executors iterate the buffer directly —
//! no per-instruction fetch, no `Vec` clones for jump tables, and (for
//! [`Terminator::Switch`](crate::Terminator)) a pre-sorted successor
//! table.
//!
//! The decode half lives here; the execute half (the operational
//! semantics of a [`MicroOp`]) lives in `tpdbt-vm` so the interpreter
//! and the translation cache provably share one implementation.

use std::sync::{Arc, OnceLock};

use crate::block::{decode_block, Block};
use crate::instr::{AluOp, Cond, FpuOp, Instr, Operand};
use crate::program::{Pc, Program};

/// The second operand of a micro-op: a pre-resolved register index or
/// an immediate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MicroOperand {
    /// Integer register index (`0..NUM_REGS`).
    Reg(u8),
    /// Immediate value.
    Imm(i64),
}

impl From<Operand> for MicroOperand {
    fn from(op: Operand) -> Self {
        match op {
            Operand::Reg(r) => MicroOperand::Reg(r.index() as u8),
            Operand::Imm(v) => MicroOperand::Imm(v),
        }
    }
}

/// A straight-line (non-terminator) instruction with all register
/// operands pre-resolved to raw indices. One `MicroOp` corresponds to
/// exactly one guest [`Instr`]; the mapping is performed once at
/// translation time by [`DecodedBlock::from_block`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MicroOp {
    /// `dst = a OP b` integer ALU operation.
    Alu {
        /// Operation selector.
        op: AluOp,
        /// Destination register index.
        dst: u8,
        /// Left operand register index.
        a: u8,
        /// Right operand.
        b: MicroOperand,
    },
    /// `dst = src` register move.
    Mov {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst = imm` load immediate.
    MovI {
        /// Destination register index.
        dst: u8,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = a OP b` floating-point operation.
    Fpu {
        /// Operation selector.
        op: FpuOp,
        /// Destination float register index.
        dst: u8,
        /// Left operand float register index.
        a: u8,
        /// Right operand float register index.
        b: u8,
    },
    /// `dst = src` float register move.
    FMov {
        /// Destination float register index.
        dst: u8,
        /// Source float register index.
        src: u8,
    },
    /// `dst = imm` float load immediate.
    FMovI {
        /// Destination float register index.
        dst: u8,
        /// Immediate value.
        imm: f64,
    },
    /// `dst = src as f64` integer-to-float conversion.
    IToF {
        /// Destination float register index.
        dst: u8,
        /// Source integer register index.
        src: u8,
    },
    /// `dst = src as i64` float-to-integer conversion.
    FToI {
        /// Destination integer register index.
        dst: u8,
        /// Source float register index.
        src: u8,
    },
    /// `dst = if a < b { 1 } else { 0 }` float comparison.
    FCmpLt {
        /// Destination integer register index.
        dst: u8,
        /// Left float operand index.
        a: u8,
        /// Right float operand index.
        b: u8,
    },
    /// `dst = mem[base + offset]` word load.
    Load {
        /// Destination register index.
        dst: u8,
        /// Base address register index.
        base: u8,
        /// Signed word offset.
        offset: i64,
    },
    /// `mem[base + offset] = src` word store.
    Store {
        /// Source register index.
        src: u8,
        /// Base address register index.
        base: u8,
        /// Signed word offset.
        offset: i64,
    },
    /// `dst = fmem[base + offset]` float load.
    FLoad {
        /// Destination float register index.
        dst: u8,
        /// Base address register index.
        base: u8,
        /// Signed word offset.
        offset: i64,
    },
    /// `fmem[base + offset] = src` float store.
    FStore {
        /// Source float register index.
        src: u8,
        /// Base address register index.
        base: u8,
        /// Signed word offset.
        offset: i64,
    },
    /// `dst = next input word`.
    In {
        /// Destination register index.
        dst: u8,
    },
    /// Appends the register value to the program output.
    Out {
        /// Source register index.
        src: u8,
    },
}

impl MicroOp {
    /// Decodes a straight-line instruction into its micro-op, or `None`
    /// for terminators (which decode to a [`MicroTerm`] instead).
    #[must_use]
    pub fn from_instr(instr: &Instr) -> Option<MicroOp> {
        Some(match instr {
            Instr::Alu { op, dst, a, b } => MicroOp::Alu {
                op: *op,
                dst: dst.index() as u8,
                a: a.index() as u8,
                b: (*b).into(),
            },
            Instr::Mov { dst, src } => MicroOp::Mov {
                dst: dst.index() as u8,
                src: src.index() as u8,
            },
            Instr::MovI { dst, imm } => MicroOp::MovI {
                dst: dst.index() as u8,
                imm: *imm,
            },
            Instr::Fpu { op, dst, a, b } => MicroOp::Fpu {
                op: *op,
                dst: dst.index() as u8,
                a: a.index() as u8,
                b: b.index() as u8,
            },
            Instr::FMov { dst, src } => MicroOp::FMov {
                dst: dst.index() as u8,
                src: src.index() as u8,
            },
            Instr::FMovI { dst, imm } => MicroOp::FMovI {
                dst: dst.index() as u8,
                imm: *imm,
            },
            Instr::IToF { dst, src } => MicroOp::IToF {
                dst: dst.index() as u8,
                src: src.index() as u8,
            },
            Instr::FToI { dst, src } => MicroOp::FToI {
                dst: dst.index() as u8,
                src: src.index() as u8,
            },
            Instr::FCmpLt { dst, a, b } => MicroOp::FCmpLt {
                dst: dst.index() as u8,
                a: a.index() as u8,
                b: b.index() as u8,
            },
            Instr::Load { dst, base, offset } => MicroOp::Load {
                dst: dst.index() as u8,
                base: base.index() as u8,
                offset: *offset,
            },
            Instr::Store { src, base, offset } => MicroOp::Store {
                src: src.index() as u8,
                base: base.index() as u8,
                offset: *offset,
            },
            Instr::FLoad { dst, base, offset } => MicroOp::FLoad {
                dst: dst.index() as u8,
                base: base.index() as u8,
                offset: *offset,
            },
            Instr::FStore { src, base, offset } => MicroOp::FStore {
                src: src.index() as u8,
                base: base.index() as u8,
                offset: *offset,
            },
            Instr::In { dst } => MicroOp::In {
                dst: dst.index() as u8,
            },
            Instr::Out { src } => MicroOp::Out {
                src: src.index() as u8,
            },
            Instr::Jmp { .. }
            | Instr::Br { .. }
            | Instr::JmpTable { .. }
            | Instr::Call { .. }
            | Instr::Ret
            | Instr::Halt => return None,
        })
    }
}

/// A superinstruction: one dispatch executing a short run of adjacent
/// micro-ops. The profile-guided second phase fuses the hot micro-op
/// pairs/triples of region code into these (see `tpdbt-dbt`'s trace
/// compiler); the execute half lives in `tpdbt-vm` next to
/// [`MicroOp`]'s, so fused and 1:1 execution provably share semantics.
///
/// Every variant is a *sequential composition* of its constituent
/// micro-ops — the fused handler performs the same architectural
/// writes in the same order, and a constituent at offset `k` traps
/// with guest pc `base + k` — which makes fusion legal for any window
/// of straight-line ops regardless of register aliasing, and makes
/// [`unfuse_ops`] an exact inverse of [`fuse_ops`].
///
/// The idiom set is exactly the windows the suite executes: every
/// variant must occur in some suite block (the root `fusion_coverage`
/// test), so an idiom without traffic fails the build's tests instead
/// of lingering as dead handler code.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FusedOp {
    /// Two trap-free ALU ops back to back (neither is `Div`/`Rem`):
    /// `r[s1.dst] = r[s1.a] OP1 s1.b; r[s2.dst] = r[s2.a] OP2 s2.b`.
    /// The trap-free guarantee lets the handler skip `Result` plumbing
    /// entirely — this is the workhorse of integer loop bodies.
    AluAlu {
        /// First ALU constituent.
        s1: AluSpec,
        /// Second ALU constituent.
        s2: AluSpec,
    },
    /// Three trap-free ALU ops back to back.
    AluAlu3 {
        /// First ALU constituent.
        s1: AluSpec,
        /// Second ALU constituent.
        s2: AluSpec,
        /// Third ALU constituent.
        s3: AluSpec,
    },
    /// Two FPU ops back to back (FPU ops never trap):
    /// `f[d1] = f[a1] OP1 f[b1]; f[d2] = f[a2] OP2 f[b2]`.
    FpuFpu {
        /// First FPU operation selector.
        op1: FpuOp,
        /// First destination float register.
        d1: u8,
        /// First left operand float register.
        a1: u8,
        /// First right operand float register.
        b1: u8,
        /// Second FPU operation selector.
        op2: FpuOp,
        /// Second destination float register.
        d2: u8,
        /// Second left operand float register.
        a2: u8,
        /// Second right operand float register.
        b2: u8,
    },
    /// Trap-free ALU op + float load (the index computation feeding a
    /// stencil read): `r[s.dst] = r[s.a] OP s.b; f[ld_dst] =
    /// fmem[base+offset]`.
    AluFLoad {
        /// The ALU constituent.
        s: AluSpec,
        /// Destination float register of the load.
        ld_dst: u8,
        /// Base address register.
        base: u8,
        /// Signed word offset.
        offset: i64,
    },
    /// Unfused single op (pass-through).
    One(MicroOp),
}

/// One trap-free ALU constituent of an [`FusedOp::AluAlu`] /
/// [`FusedOp::AluAlu3`] / [`FusedOp::AluFLoad`] superinstruction. The
/// fuser only builds these for operations that cannot trap (never
/// `Div`/`Rem`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AluSpec {
    /// ALU operation selector (never `Div`/`Rem`).
    pub op: AluOp,
    /// Destination register.
    pub dst: u8,
    /// Left operand register.
    pub a: u8,
    /// Right operand.
    pub b: MicroOperand,
}

impl AluSpec {
    /// Extracts a trap-free ALU spec from a micro-op, or `None` when
    /// the op is not an ALU op or could trap.
    #[must_use]
    pub fn from_op(op: &MicroOp) -> Option<AluSpec> {
        match *op {
            MicroOp::Alu { op, dst, a, b } if !matches!(op, AluOp::Div | AluOp::Rem) => {
                Some(AluSpec { op, dst, a, b })
            }
            _ => None,
        }
    }

    /// The constituent micro-op this spec was extracted from.
    #[must_use]
    pub fn to_op(self) -> MicroOp {
        MicroOp::Alu {
            op: self.op,
            dst: self.dst,
            a: self.a,
            b: self.b,
        }
    }
}

impl FusedOp {
    /// Number of guest instructions (original micro-ops) this
    /// superinstruction covers.
    #[must_use]
    #[inline]
    pub fn width(&self) -> usize {
        match self {
            FusedOp::One(_) => 1,
            FusedOp::AluAlu { .. } | FusedOp::FpuFpu { .. } | FusedOp::AluFLoad { .. } => 2,
            FusedOp::AluAlu3 { .. } => 3,
        }
    }

    /// The exact constituent micro-ops, in execution order.
    #[must_use]
    pub fn constituents(self) -> Vec<MicroOp> {
        match self {
            FusedOp::AluAlu { s1, s2 } => vec![s1.to_op(), s2.to_op()],
            FusedOp::AluAlu3 { s1, s2, s3 } => vec![s1.to_op(), s2.to_op(), s3.to_op()],
            FusedOp::FpuFpu {
                op1,
                d1,
                a1,
                b1,
                op2,
                d2,
                a2,
                b2,
            } => vec![
                MicroOp::Fpu {
                    op: op1,
                    dst: d1,
                    a: a1,
                    b: b1,
                },
                MicroOp::Fpu {
                    op: op2,
                    dst: d2,
                    a: a2,
                    b: b2,
                },
            ],
            FusedOp::AluFLoad {
                s,
                ld_dst,
                base,
                offset,
            } => vec![
                s.to_op(),
                MicroOp::FLoad {
                    dst: ld_dst,
                    base,
                    offset,
                },
            ],
            FusedOp::One(x) => vec![x],
        }
    }
}

/// Tries the specialized pair patterns on two adjacent ops.
fn fuse_pair(x: &MicroOp, y: &MicroOp) -> Option<FusedOp> {
    match (*x, *y) {
        // FPU pair — FPU ops never trap, so the handler is branch-free.
        (
            MicroOp::Fpu {
                op: op1,
                dst: d1,
                a: a1,
                b: b1,
            },
            MicroOp::Fpu {
                op: op2,
                dst: d2,
                a: a2,
                b: b2,
            },
        ) => Some(FusedOp::FpuFpu {
            op1,
            d1,
            a1,
            b1,
            op2,
            d2,
            a2,
            b2,
        }),
        // index computation + float load (stencil read).
        (
            alu @ MicroOp::Alu { .. },
            MicroOp::FLoad {
                dst: ld_dst,
                base,
                offset,
            },
        ) => AluSpec::from_op(&alu).map(|s| FusedOp::AluFLoad {
            s,
            ld_dst,
            base,
            offset,
        }),
        // Any two trap-free ALU ops.
        _ => {
            let (s1, s2) = (AluSpec::from_op(x)?, AluSpec::from_op(y)?);
            Some(FusedOp::AluAlu { s1, s2 })
        }
    }
}

/// Peephole-fuses a straight-line micro-op window into
/// superinstructions: three-wide trap-free ALU runs first, then the
/// pairs (FPU pairs, ALU + float load, two-wide ALU runs); ops that
/// start no window pass through 1:1 as [`FusedOp::One`]. Total:
/// [`unfuse_ops`] of the result is exactly `ops`.
#[must_use]
pub fn fuse_ops(ops: &[MicroOp]) -> Box<[FusedOp]> {
    let mut out = Vec::with_capacity(ops.len().div_ceil(2));
    let mut i = 0;
    while i < ops.len() {
        let rest = &ops[i..];
        // Three trap-free ALU ops — the integer loop-body workhorse.
        if let [x, y, z, ..] = rest {
            if let (Some(s1), Some(s2), Some(s3)) = (
                AluSpec::from_op(x),
                AluSpec::from_op(y),
                AluSpec::from_op(z),
            ) {
                out.push(FusedOp::AluAlu3 { s1, s2, s3 });
                i += 3;
                continue;
            }
        }
        if let [x, y, ..] = rest {
            if let Some(fused) = fuse_pair(x, y) {
                out.push(fused);
                i += 2;
                continue;
            }
        }
        // No window starts here: pass the op through 1:1. Generic
        // grouping would be a pessimization — it re-dispatches per
        // constituent and can swallow the head of a window one op
        // further on.
        out.push(FusedOp::One(rest[0]));
        i += 1;
    }
    out.into_boxed_slice()
}

/// Expands superinstructions back to the original 1:1 micro-op
/// sequence — the exact inverse of [`fuse_ops`].
#[must_use]
pub fn unfuse_ops(fused: &[FusedOp]) -> Vec<MicroOp> {
    fused.iter().flat_map(|f| f.constituents()).collect()
}

/// A pre-decoded block terminator. Owns its jump table (so a decoded
/// block is self-contained); executors borrow it through
/// [`MicroTerm::view`] to avoid copies on the hot path.
#[derive(Clone, Debug, PartialEq)]
pub enum MicroTerm {
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: Pc,
    },
    /// Conditional branch with pre-resolved fallthrough.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// Left operand register index.
        a: u8,
        /// Right operand.
        b: MicroOperand,
        /// Target when the condition holds.
        taken: Pc,
        /// Target when it does not.
        fallthrough: Pc,
    },
    /// Indirect jump through a jump table.
    Switch {
        /// Selector register index.
        selector: u8,
        /// Jump targets, in guest order (possibly with duplicates).
        table: Box<[Pc]>,
    },
    /// Call with pre-resolved return address.
    Call {
        /// Callee entry.
        target: Pc,
        /// Return address.
        next: Pc,
    },
    /// Return through the call stack.
    Return,
    /// Program end.
    Halt,
}

impl MicroTerm {
    /// Decodes a terminator instruction at address `pc`, or `None` for
    /// straight-line instructions.
    #[must_use]
    pub fn from_instr(instr: &Instr, pc: Pc) -> Option<MicroTerm> {
        Some(match instr {
            Instr::Jmp { target } => MicroTerm::Jump { target: *target },
            Instr::Br { cond, a, b, taken } => MicroTerm::Branch {
                cond: *cond,
                a: a.index() as u8,
                b: (*b).into(),
                taken: *taken,
                fallthrough: pc + 1,
            },
            Instr::JmpTable { selector, table } => MicroTerm::Switch {
                selector: selector.index() as u8,
                table: table.clone().into_boxed_slice(),
            },
            Instr::Call { target } => MicroTerm::Call {
                target: *target,
                next: pc + 1,
            },
            Instr::Ret => MicroTerm::Return,
            Instr::Halt => MicroTerm::Halt,
            _ => return None,
        })
    }

    /// A borrowed, `Copy` view for execution.
    #[must_use]
    pub fn view(&self) -> TermView<'_> {
        match self {
            MicroTerm::Jump { target } => TermView::Jump { target: *target },
            MicroTerm::Branch {
                cond,
                a,
                b,
                taken,
                fallthrough,
            } => TermView::Branch {
                cond: *cond,
                a: *a,
                b: *b,
                taken: *taken,
                fallthrough: *fallthrough,
            },
            MicroTerm::Switch { selector, table } => TermView::Switch {
                selector: *selector,
                table,
            },
            MicroTerm::Call { target, next } => TermView::Call {
                target: *target,
                next: *next,
            },
            MicroTerm::Return => TermView::Return,
            MicroTerm::Halt => TermView::Halt,
        }
    }
}

/// A borrowed terminator, cheap to construct and pass by value. The
/// interpreter builds one directly from the guest [`Instr`] each step
/// (its decode half); the translation cache builds one from a stored
/// [`MicroTerm`] without copying the jump table.
#[derive(Clone, Copy, Debug)]
pub enum TermView<'a> {
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: Pc,
    },
    /// Conditional branch.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// Left operand register index.
        a: u8,
        /// Right operand.
        b: MicroOperand,
        /// Target when the condition holds.
        taken: Pc,
        /// Target when it does not.
        fallthrough: Pc,
    },
    /// Indirect jump through a borrowed jump table.
    Switch {
        /// Selector register index.
        selector: u8,
        /// Jump targets.
        table: &'a [Pc],
    },
    /// Call.
    Call {
        /// Callee entry.
        target: Pc,
        /// Return address.
        next: Pc,
    },
    /// Return through the call stack.
    Return,
    /// Program end.
    Halt,
}

impl<'a> TermView<'a> {
    /// Builds a view directly from a terminator instruction at `pc`
    /// (borrowing its jump table), or `None` for straight-line
    /// instructions.
    #[must_use]
    pub fn of_instr(instr: &'a Instr, pc: Pc) -> Option<TermView<'a>> {
        Some(match instr {
            Instr::Jmp { target } => TermView::Jump { target: *target },
            Instr::Br { cond, a, b, taken } => TermView::Branch {
                cond: *cond,
                a: a.index() as u8,
                b: (*b).into(),
                taken: *taken,
                fallthrough: pc + 1,
            },
            Instr::JmpTable { selector, table } => TermView::Switch {
                selector: selector.index() as u8,
                table,
            },
            Instr::Call { target } => TermView::Call {
                target: *target,
                next: pc + 1,
            },
            Instr::Ret => TermView::Return,
            Instr::Halt => TermView::Halt,
            _ => return None,
        })
    }
}

/// A block body: either the 1:1 micro-op translation produced at
/// fast-translation time, or the profile-guided fused
/// (superinstruction) representation the second phase compiles hot
/// blocks into.
#[derive(Clone, Debug, PartialEq)]
pub enum BlockBody {
    /// One [`MicroOp`] per guest instruction, in address order:
    /// `ops[i]` is the instruction at `start + i`.
    Flat(Box<[MicroOp]>),
    /// Fused superinstructions; consecutive entries cover consecutive
    /// address runs ([`FusedOp::width`] instructions each).
    Fused(Box<[FusedOp]>),
}

impl BlockBody {
    /// Number of guest instructions the body covers.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        match self {
            BlockBody::Flat(ops) => ops.len(),
            BlockBody::Fused(ops) => ops.iter().map(|f| f.width()).sum(),
        }
    }

    /// The 1:1 representation: borrowed for flat bodies, reconstructed
    /// via [`unfuse_ops`] for fused ones.
    #[must_use]
    pub fn flat_ops(&self) -> std::borrow::Cow<'_, [MicroOp]> {
        match self {
            BlockBody::Flat(ops) => std::borrow::Cow::Borrowed(ops),
            BlockBody::Fused(ops) => std::borrow::Cow::Owned(unfuse_ops(ops)),
        }
    }
}

/// A basic block decoded once into executable micro-ops: the
/// translation cache's unit of storage.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodedBlock {
    /// Address of the first instruction (the block's cache identity).
    pub start: Pc,
    /// One past the terminator.
    pub end: Pc,
    /// The straight-line body — 1:1 at fast-translation time, fused
    /// once the block is compiled into an optimized region.
    pub body: BlockBody,
    /// The pre-decoded terminator (at address `end - 1`).
    pub term: MicroTerm,
}

impl DecodedBlock {
    /// Decodes the body and terminator of an already-discovered block.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not describe a valid basic block of
    /// `program` (interior terminator, truncated range) — impossible
    /// for blocks produced by [`decode_block`] on the same program.
    #[must_use]
    pub fn from_block(program: &Program, block: &Block) -> DecodedBlock {
        let term_pc = block.end - 1;
        let ops: Box<[MicroOp]> = (block.start..term_pc)
            .map(|pc| {
                let instr = program.get(pc).expect("block range within program");
                MicroOp::from_instr(instr).expect("interior instructions are straight-line")
            })
            .collect();
        let term_instr = program.get(term_pc).expect("block range within program");
        let term = MicroTerm::from_instr(term_instr, term_pc).expect("blocks end at a terminator");
        DecodedBlock {
            start: block.start,
            end: block.end,
            body: BlockBody::Flat(ops),
            term,
        }
    }

    /// The fused (superinstruction) form of this block: the body is
    /// peephole-compiled by [`fuse_ops`]; start/end/terminator are
    /// unchanged. A body in which fusion finds no specialized window
    /// (every op would pass through as [`FusedOp::One`]) stays `Flat` —
    /// the 1:1 loop is the faster representation for it. Idempotent on
    /// already-fused blocks.
    #[must_use]
    pub fn fused(&self) -> DecodedBlock {
        let body = match &self.body {
            BlockBody::Flat(ops) => {
                let fused = fuse_ops(ops);
                if fused.len() < ops.len() {
                    BlockBody::Fused(fused)
                } else {
                    BlockBody::Flat(ops.clone())
                }
            }
            fused @ BlockBody::Fused(_) => fused.clone(),
        };
        DecodedBlock {
            start: self.start,
            end: self.end,
            body,
            term: self.term.clone(),
        }
    }

    /// Discovers and decodes the block at `pc` in one call. `None` when
    /// `pc` is outside the program.
    #[must_use]
    pub fn decode(program: &Program, pc: Pc) -> Option<DecodedBlock> {
        let block = decode_block(program, pc)?;
        Some(DecodedBlock::from_block(program, &block))
    }

    /// Number of instructions, terminator included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block is empty (never true for decoded blocks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Address of the terminator instruction.
    #[must_use]
    pub fn term_pc(&self) -> Pc {
        self.end - 1
    }
}

/// A lazily-populated, thread-safe cache of fused [`DecodedBlock`]s
/// for one program, indexed by block start address.
///
/// Decoding and fusion ([`DecodedBlock::fused`]) happen at most once
/// per address across all threads and runs sharing the same
/// `PredecodedProgram` (ladder cells in a sweep, concurrent serve
/// queries, repeated runs of one guest), which is what makes the
/// translation cost a per-*guest* cost instead of a per-*run* cost.
///
/// The cache stores no reference to the program; callers pass the same
/// [`Program`] it was created for to [`PredecodedProgram::block`].
#[derive(Debug, Default)]
pub struct PredecodedProgram {
    slots: Vec<OnceLock<Arc<DecodedBlock>>>,
}

impl PredecodedProgram {
    /// Creates an empty cache sized for `program`.
    #[must_use]
    pub fn new(program: &Program) -> PredecodedProgram {
        PredecodedProgram::with_len(program.len())
    }

    /// Creates an empty cache for a program of `len` instructions.
    #[must_use]
    pub fn with_len(len: usize) -> PredecodedProgram {
        PredecodedProgram {
            slots: (0..len).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of addressable slots (the program length this cache was
    /// sized for).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The fused block starting at `pc`, decoding and fusing it on
    /// first access. `None` when `pc` is out of range.
    #[must_use]
    pub fn block(&self, program: &Program, pc: Pc) -> Option<Arc<DecodedBlock>> {
        let slot = self.slots.get(pc)?;
        if let Some(cached) = slot.get() {
            return Some(Arc::clone(cached));
        }
        let decoded = Arc::new(DecodedBlock::decode(program, pc)?.fused());
        // Racing initialisers build identical blocks; first write wins.
        let _ = slot.set(decoded);
        slot.get().map(Arc::clone)
    }

    /// The fused form of an already-discovered `block` (skips the
    /// second block discovery [`PredecodedProgram::block`] would do).
    ///
    /// # Panics
    ///
    /// Panics if `block.start` is outside the program this cache was
    /// sized for.
    #[must_use]
    pub fn translate(&self, program: &Program, block: &Block) -> Arc<DecodedBlock> {
        let slot = &self.slots[block.start];
        Arc::clone(slot.get_or_init(|| Arc::new(DecodedBlock::from_block(program, block).fused())))
    }

    /// How many blocks have been decoded so far.
    #[must_use]
    pub fn decoded_count(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Reg;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.movi(Reg::new(0), 0); // 0
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 1); // 1
        b.br_imm(Cond::Lt, Reg::new(0), 10, top); // 2
        b.halt(); // 3
        b.build().unwrap()
    }

    #[test]
    fn decoded_block_mirrors_decode_block() {
        let p = sample();
        let blk = decode_block(&p, 0).unwrap();
        let d = DecodedBlock::from_block(&p, &blk);
        assert_eq!((d.start, d.end), (blk.start, blk.end));
        assert_eq!(d.len(), blk.len());
        assert_eq!(d.term_pc(), 2);
        let ops = d.body.flat_ops();
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], MicroOp::MovI { dst: 0, imm: 0 }));
        assert!(matches!(
            d.term,
            MicroTerm::Branch {
                taken: 1,
                fallthrough: 3,
                ..
            }
        ));
    }

    #[test]
    fn micro_op_rejects_terminators_and_term_rejects_bodies() {
        assert!(MicroOp::from_instr(&Instr::Halt).is_none());
        assert!(MicroOp::from_instr(&Instr::Jmp { target: 0 }).is_none());
        let mov = Instr::MovI {
            dst: Reg::new(3),
            imm: 7,
        };
        assert!(MicroOp::from_instr(&mov).is_some());
        assert!(MicroTerm::from_instr(&mov, 0).is_none());
        assert!(TermView::of_instr(&mov, 0).is_none());
    }

    #[test]
    fn switch_view_borrows_the_stored_table() {
        let instr = Instr::JmpTable {
            selector: Reg::new(2),
            table: vec![4, 9, 4],
        };
        let term = MicroTerm::from_instr(&instr, 5).unwrap();
        match term.view() {
            TermView::Switch { selector, table } => {
                assert_eq!(selector, 2);
                assert_eq!(table, &[4, 9, 4]);
            }
            other => panic!("unexpected view {other:?}"),
        }
        match TermView::of_instr(&instr, 5).unwrap() {
            TermView::Switch { table, .. } => assert_eq!(table, &[4, 9, 4]),
            other => panic!("unexpected view {other:?}"),
        }
    }

    #[test]
    fn predecoded_program_decodes_once_and_shares() {
        let p = sample();
        let cache = PredecodedProgram::new(&p);
        assert_eq!(cache.len(), p.len());
        assert_eq!(cache.decoded_count(), 0);
        let a = cache.block(&p, 0).unwrap();
        let b = cache.block(&p, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.decoded_count(), 1);
        // The cache holds the fused form, whichever way it is filled.
        assert_eq!(*a, DecodedBlock::decode(&p, 0).unwrap().fused());
        assert!(Arc::ptr_eq(
            &a,
            &cache.translate(&p, &decode_block(&p, 0).unwrap())
        ));
        // Overlapping interior block gets its own slot.
        let tail = cache.block(&p, 1).unwrap();
        assert_eq!(tail.start, 1);
        assert_eq!(cache.decoded_count(), 2);
        assert!(cache.block(&p, 99).is_none());
    }

    fn movi(dst: u8, imm: i64) -> MicroOp {
        MicroOp::MovI { dst, imm }
    }

    fn addi(dst: u8, imm: i64) -> MicroOp {
        MicroOp::Alu {
            op: AluOp::Add,
            dst,
            a: dst,
            b: MicroOperand::Imm(imm),
        }
    }

    #[test]
    fn fuse_recognizes_the_idioms() {
        // ALU runs: greedy three-wide windows, a pair for the remainder.
        let alus: Vec<MicroOp> = (0..6).map(|r| addi(r, 1)).collect();
        assert!(matches!(
            fuse_ops(&alus)[..],
            [FusedOp::AluAlu3 { .. }, FusedOp::AluAlu3 { .. }]
        ));
        assert!(matches!(
            fuse_ops(&alus[..5])[..],
            [FusedOp::AluAlu3 { .. }, FusedOp::AluAlu { .. }]
        ));
        // FPU pair
        let fpu = |dst| MicroOp::Fpu {
            op: FpuOp::Mul,
            dst,
            a: 1,
            b: 2,
        };
        assert!(matches!(
            fuse_ops(&[fpu(0), fpu(3)])[..],
            [FusedOp::FpuFpu { d1: 0, d2: 3, .. }]
        ));
        // index computation + float load
        let fload = MicroOp::FLoad {
            dst: 1,
            base: 2,
            offset: 4,
        };
        assert!(matches!(
            fuse_ops(&[addi(2, 1), fload])[..],
            [FusedOp::AluFLoad { ld_dst: 1, .. }]
        ));
        // A trapping ALU op refuses every window it would join.
        let div = MicroOp::Alu {
            op: AluOp::Div,
            dst: 0,
            a: 1,
            b: MicroOperand::Reg(2),
        };
        assert!(fuse_ops(&[addi(0, 1), div, addi(1, 1)])
            .iter()
            .all(|f| matches!(f, FusedOp::One(_))));
        assert!(matches!(
            fuse_ops(&[div, fload])[..],
            [FusedOp::One(_), FusedOp::One(_)]
        ));
        // Shapes outside the idiom set pass through 1:1.
        let store = MicroOp::Store {
            src: 3,
            base: 6,
            offset: 0,
        };
        assert!(matches!(
            fuse_ops(&[movi(7, 3), addi(3, 1), store])[..],
            [FusedOp::One(_), FusedOp::One(_), FusedOp::One(_)]
        ));
    }

    #[test]
    fn fuse_unfuse_round_trips_and_preserves_widths() {
        let window = [
            movi(7, 3),
            MicroOp::Alu {
                op: AluOp::Sub,
                dst: 1,
                a: 2,
                b: MicroOperand::Reg(7),
            },
            MicroOp::In { dst: 0 },
            MicroOp::Out { src: 0 },
            MicroOp::FMov { dst: 1, src: 2 },
            addi(0, 1),
            addi(2, 2),
            MicroOp::Mov { dst: 3, src: 0 },
        ];
        let fused = fuse_ops(&window);
        assert_eq!(unfuse_ops(&fused), window.to_vec());
        assert_eq!(fused.iter().map(|f| f.width()).sum::<usize>(), window.len());
        // Fusion never inflates dispatch count.
        assert!(fused.len() <= window.len());
    }

    #[test]
    fn fused_block_keeps_identity_and_reconstructs_flat_ops() {
        let mut b = ProgramBuilder::new();
        b.addi(Reg::new(0), Reg::new(0), 1);
        b.addi(Reg::new(0), Reg::new(0), 2);
        b.halt();
        let p = b.build().unwrap();
        let d = DecodedBlock::decode(&p, 0).unwrap();
        let f = d.fused();
        assert_eq!((f.start, f.end, &f.term), (d.start, d.end, &d.term));
        assert!(matches!(f.body, BlockBody::Fused(_)));
        assert_eq!(f.body.instr_count(), d.body.instr_count());
        assert_eq!(f.body.flat_ops(), d.body.flat_ops());
        // Idempotent.
        assert_eq!(f.fused(), f);
        // A body with no specialized window keeps the flat
        // representation: the 1:1 loop is the faster form for it.
        let plain = sample();
        let single = DecodedBlock::decode(&plain, 1).unwrap().fused();
        assert!(matches!(single.body, BlockBody::Flat(_)));
    }
}
