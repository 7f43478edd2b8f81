//! Pre-decoded micro-op representation of translated code.
//!
//! A real two-phase translator decodes a guest block once, at
//! translation time, into host code; every later execution runs the
//! translated body without touching the guest encoding again. This
//! module provides the analogous representation for the `tpdbt` guest
//! ISA: a [`DecodedBlock`] holds the straight-line body of a basic
//! block as a flat buffer of 16-byte [`MicroOp`]s, one per guest
//! instruction, plus a pre-resolved [`MicroTerm`] terminator. Each op
//! is specialized by operation and operand form when it is decoded, so
//! running it is one dispatch. Executors iterate the buffer directly —
//! no per-instruction fetch, no `Vec` clones for jump tables, and (for
//! [`Terminator::Switch`](crate::Terminator)) a pre-sorted successor
//! table.
//!
//! The decode half lives here; the execute half (the operational
//! semantics of a [`MicroOp`]) lives in `tpdbt-vm` so the interpreter,
//! the translation cache and compiled traces provably share one
//! implementation.

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

/// A straight-line (non-terminator) instruction, specialized once at
/// translation time by [`MicroOp::from_instr`]: one variant per ALU
/// operation and operand form (`AddRR` reads two registers, `AddRI` a
/// register and an immediate) and one per FPU operation, so executing
/// an op is a single dispatch with no operation selector or operand
/// kind left to decode. One `MicroOp` corresponds to exactly one guest
/// [`Instr`].
///
/// Every field is a raw register index (`u8`: `dst`, `src`, `a`, `b`,
/// `base`, float or integer as the guest instruction has it) or one
/// immediate: `imm` for a value, `offset` for a signed word offset.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MicroOp {
    /// `r[dst] = r[a] + r[b]` (wrapping).
    AddRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] + imm` (wrapping).
    AddRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] - r[b]` (wrapping).
    SubRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] - imm` (wrapping).
    SubRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] * r[b]` (wrapping).
    MulRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] * imm` (wrapping).
    MulRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] / r[b]`; traps when `r[b] == 0`.
    DivRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] / imm`; traps when `imm == 0`.
    DivRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] % r[b]`; traps when `r[b] == 0`.
    RemRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] % imm`; traps when `imm == 0`.
    RemRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] & r[b]`.
    AndRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] & imm`.
    AndRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] | r[b]`.
    OrRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] | imm`.
    OrRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] ^ r[b]`.
    XorRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] ^ imm`.
    XorRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] << (r[b] & 63)`.
    ShlRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] << (imm & 63)`.
    ShlRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[a] >> (r[b] & 63)` (arithmetic).
    ShrRR { dst: u8, a: u8, b: u8 },
    /// `r[dst] = r[a] >> (imm & 63)` (arithmetic).
    ShrRI { dst: u8, a: u8, imm: i64 },
    /// `r[dst] = r[src]`.
    Mov { dst: u8, src: u8 },
    /// `r[dst] = imm`.
    MovI { dst: u8, imm: i64 },
    /// `f[dst] = f[a] + f[b]`.
    FAdd { dst: u8, a: u8, b: u8 },
    /// `f[dst] = f[a] - f[b]`.
    FSub { dst: u8, a: u8, b: u8 },
    /// `f[dst] = f[a] * f[b]`.
    FMul { dst: u8, a: u8, b: u8 },
    /// `f[dst] = f[a] / f[b]`.
    FDiv { dst: u8, a: u8, b: u8 },
    /// `f[dst] = f[a].max(f[b])`.
    FMax { dst: u8, a: u8, b: u8 },
    /// `f[dst] = f[a].min(f[b])`.
    FMin { dst: u8, a: u8, b: u8 },
    /// `f[dst] = f[src]`.
    FMov { dst: u8, src: u8 },
    /// `f[dst] = imm`.
    FMovI { dst: u8, imm: f64 },
    /// `f[dst] = r[src] as f64`.
    IToF { dst: u8, src: u8 },
    /// `r[dst] = f[src] as i64` (NaN converts to 0).
    FToI { dst: u8, src: u8 },
    /// `r[dst] = (f[a] < f[b]) as i64`.
    FCmpLt { dst: u8, a: u8, b: u8 },
    /// `r[dst] = mem[r[base] + offset]`.
    Load { dst: u8, base: u8, offset: i64 },
    /// `mem[r[base] + offset] = r[src]`.
    Store { src: u8, base: u8, offset: i64 },
    /// `f[dst] = fmem[r[base] + offset]`.
    FLoad { dst: u8, base: u8, offset: i64 },
    /// `fmem[r[base] + offset] = f[src]`.
    FStore { src: u8, base: u8, offset: i64 },
    /// `r[dst] = next input word` (−1 once the stream is exhausted).
    In { dst: u8 },
    /// Appends `r[src]` to the program output.
    Out { src: u8 },
}

// Register indices and one 8-byte immediate: every op is 16 bytes.
const _: () = assert!(size_of::<MicroOp>() == 16);

impl MicroOp {
    /// Decodes a straight-line instruction into its specialized
    /// micro-op, or `None` for terminators (which decode to a
    /// [`MicroTerm`] instead).
    #[must_use]
    pub fn from_instr(instr: &Instr) -> Option<MicroOp> {
        let r = |reg: &crate::Reg| reg.index() as u8;
        let f = |reg: &crate::FReg| reg.index() as u8;
        Some(match instr {
            Instr::Alu { op, dst, a, b } => {
                let (dst, a) = (r(dst), r(a));
                match *b {
                    Operand::Reg(b) => {
                        let b = r(&b);
                        match op {
                            AluOp::Add => MicroOp::AddRR { dst, a, b },
                            AluOp::Sub => MicroOp::SubRR { dst, a, b },
                            AluOp::Mul => MicroOp::MulRR { dst, a, b },
                            AluOp::Div => MicroOp::DivRR { dst, a, b },
                            AluOp::Rem => MicroOp::RemRR { dst, a, b },
                            AluOp::And => MicroOp::AndRR { dst, a, b },
                            AluOp::Or => MicroOp::OrRR { dst, a, b },
                            AluOp::Xor => MicroOp::XorRR { dst, a, b },
                            AluOp::Shl => MicroOp::ShlRR { dst, a, b },
                            AluOp::Shr => MicroOp::ShrRR { dst, a, b },
                        }
                    }
                    Operand::Imm(imm) => match op {
                        AluOp::Add => MicroOp::AddRI { dst, a, imm },
                        AluOp::Sub => MicroOp::SubRI { dst, a, imm },
                        AluOp::Mul => MicroOp::MulRI { dst, a, imm },
                        AluOp::Div => MicroOp::DivRI { dst, a, imm },
                        AluOp::Rem => MicroOp::RemRI { dst, a, imm },
                        AluOp::And => MicroOp::AndRI { dst, a, imm },
                        AluOp::Or => MicroOp::OrRI { dst, a, imm },
                        AluOp::Xor => MicroOp::XorRI { dst, a, imm },
                        AluOp::Shl => MicroOp::ShlRI { dst, a, imm },
                        AluOp::Shr => MicroOp::ShrRI { dst, a, imm },
                    },
                }
            }
            Instr::Mov { dst, src } => MicroOp::Mov {
                dst: r(dst),
                src: r(src),
            },
            Instr::MovI { dst, imm } => MicroOp::MovI {
                dst: r(dst),
                imm: *imm,
            },
            Instr::Fpu { op, dst, a, b } => {
                let (dst, a, b) = (f(dst), f(a), f(b));
                match op {
                    FpuOp::Add => MicroOp::FAdd { dst, a, b },
                    FpuOp::Sub => MicroOp::FSub { dst, a, b },
                    FpuOp::Mul => MicroOp::FMul { dst, a, b },
                    FpuOp::Div => MicroOp::FDiv { dst, a, b },
                    FpuOp::Max => MicroOp::FMax { dst, a, b },
                    FpuOp::Min => MicroOp::FMin { dst, a, b },
                }
            }
            Instr::FMov { dst, src } => MicroOp::FMov {
                dst: f(dst),
                src: f(src),
            },
            Instr::FMovI { dst, imm } => MicroOp::FMovI {
                dst: f(dst),
                imm: *imm,
            },
            Instr::IToF { dst, src } => MicroOp::IToF {
                dst: f(dst),
                src: r(src),
            },
            Instr::FToI { dst, src } => MicroOp::FToI {
                dst: r(dst),
                src: f(src),
            },
            Instr::FCmpLt { dst, a, b } => MicroOp::FCmpLt {
                dst: r(dst),
                a: f(a),
                b: f(b),
            },
            Instr::Load { dst, base, offset } => MicroOp::Load {
                dst: r(dst),
                base: r(base),
                offset: *offset,
            },
            Instr::Store { src, base, offset } => MicroOp::Store {
                src: r(src),
                base: r(base),
                offset: *offset,
            },
            Instr::FLoad { dst, base, offset } => MicroOp::FLoad {
                dst: f(dst),
                base: r(base),
                offset: *offset,
            },
            Instr::FStore { src, base, offset } => MicroOp::FStore {
                src: f(src),
                base: r(base),
                offset: *offset,
            },
            Instr::In { dst } => MicroOp::In { dst: r(dst) },
            Instr::Out { src } => MicroOp::Out { src: r(src) },
            Instr::Jmp { .. }
            | Instr::Br { .. }
            | Instr::JmpTable { .. }
            | Instr::Call { .. }
            | Instr::Ret
            | Instr::Halt => return None,
        })
    }
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

/// A block body: one specialized [`MicroOp`] per guest instruction, in
/// address order (`ops[i]` is the instruction at `start + i`).
///
/// Translation only ever builds [`BlockBody::Flat`]. [`BlockBody::Fused`]
/// holds the same ops and is never constructed: it is kept only so that
/// perfbench, which matches both variants, builds unchanged.
#[derive(Clone, Debug, PartialEq)]
pub enum BlockBody {
    /// The block's ops, one per guest instruction.
    Flat(Box<[MicroOp]>),
    /// Never constructed; kept only for perfbench.
    Fused(Box<[MicroOp]>),
}

impl BlockBody {
    /// The ops, one per guest instruction in address order.
    #[must_use]
    #[inline(always)]
    pub fn ops(&self) -> &[MicroOp] {
        match self {
            BlockBody::Flat(ops) | BlockBody::Fused(ops) => ops,
        }
    }

    /// Number of guest instructions the body covers.
    #[must_use]
    pub fn instr_count(&self) -> usize {
        self.ops().len()
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
    /// The straight-line body, one op per instruction.
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

    /// The block unchanged: there is no second, fused form any more.
    /// Kept only for perfbench, which still calls it.
    #[must_use]
    pub fn fused(&self) -> DecodedBlock {
        self.clone()
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

/// A lazily-populated, thread-safe cache of [`DecodedBlock`]s for one
/// program, indexed by block start address.
///
/// Decoding happens at most once per address across all threads and
/// runs sharing the same `PredecodedProgram` (ladder cells in a sweep,
/// concurrent serve queries, repeated runs of one guest), which is what
/// makes the translation cost a per-*guest* cost instead of a per-*run*
/// cost. Every executor and trace of the guest shares the one decoded
/// body per block.
///
/// The cache stores no reference to the program; callers pass the same
/// [`Program`] it was created for to [`PredecodedProgram::translate`].
#[derive(Debug, Default)]
pub struct PredecodedProgram {
    slots: Vec<OnceLock<Arc<DecodedBlock>>>,
}

impl PredecodedProgram {
    /// Creates an empty cache sized for `program`.
    #[must_use]
    pub fn new(program: &Program) -> PredecodedProgram {
        PredecodedProgram {
            slots: (0..program.len()).map(|_| OnceLock::new()).collect(),
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

    /// The decoded form of an already-discovered `block`, decoding it
    /// on first access. Racing initialisers build identical blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block.start` is outside the program this cache was
    /// sized for.
    #[must_use]
    pub fn translate(&self, program: &Program, block: &Block) -> Arc<DecodedBlock> {
        let slot = &self.slots[block.start];
        Arc::clone(slot.get_or_init(|| Arc::new(DecodedBlock::from_block(program, block))))
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
        let ops = d.body.ops();
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
        let entry = decode_block(&p, 0).unwrap();
        let a = cache.translate(&p, &entry);
        let b = cache.translate(&p, &entry);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.decoded_count(), 1);
        assert_eq!(*a, DecodedBlock::decode(&p, 0).unwrap());
        // Overlapping interior block gets its own slot.
        let tail = cache.translate(&p, &decode_block(&p, 1).unwrap());
        assert_eq!(tail.start, 1);
        assert_eq!(cache.decoded_count(), 2);
    }

    #[test]
    fn fused_returns_the_block_unchanged() {
        let d = DecodedBlock::decode(&sample(), 1).unwrap();
        assert_eq!(d.fused(), d);
        assert!(matches!(d.body, BlockBody::Flat(_)));
        assert_eq!(d.body.instr_count(), 1);
    }
}
