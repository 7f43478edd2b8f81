//! Execution backends: how a translated guest block actually runs.
//!
//! The executor in [`crate::exec`] owns the code half of the one
//! translation cache. A block is fast-translated into it once, and its
//! exit resolved then ([`crate::exec::BlockExit`]: a branch's compare
//! table, edges and targets). [`Backend`] is only a tag picking which
//! executable form the executor keeps per block:
//!
//! * `interp` — the block's extent, run by [`step_block`]:
//!   per-instruction [`tpdbt_vm::step`] dispatch, the terminator's flow
//!   mapped to its edge. Regions are walked block by block through the
//!   policy's automaton; nothing is compiled. This is the reference
//!   form and differential oracle.
//! * `cached-fused` (the default) — the block decoded once per guest
//!   into one specialized [`tpdbt_isa::MicroOp`] per instruction
//!   ([`tpdbt_isa::PredecodedProgram`]). [`crate::exec::Executor::step`]
//!   runs the body through [`tpdbt_vm::exec_body`] and decides a branch
//!   or jump from the resolved exit; calls, returns, switches and halts
//!   run their terminator. In a single two-phase or adaptive run, a
//!   region's guarded trace ([`crate::trace`]) copies these records at
//!   the region's first entry; continuous-mode regions, which re-form,
//!   are walked. The name is historical: there is no separate fused
//!   form.
//!
//! Both forms drive the same execute-half semantics in `tpdbt-vm`, so
//! architectural state, outputs, and every profile counter are bitwise
//! identical by construction. The lockstep test below pins this per
//! block; `tests/backend_differential.rs` pins it per run.

use tpdbt_isa::{Pc, Program};
use tpdbt_vm::{step, Flow, Machine, VmError};

/// Which execution backend runs translated code — the user-facing
/// selection knob (`--backend {interp,cached-fused}` on every binary).
///
/// The backend never changes a run's observable results (profiles,
/// outputs, stats, simulated cycles) — only how fast the host executes
/// the guest — so it is deliberately excluded from
/// [`crate::DbtConfig::fingerprint`] and both backends share
/// profile-store cache entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Reference per-instruction interpreter dispatch.
    Interp,
    /// Translation cache of decoded blocks plus trace-compiled regions
    /// (the default).
    #[default]
    CachedFused,
}

impl Backend {
    /// All backends, for test matrices.
    pub const ALL: [Backend; 2] = [Backend::Interp, Backend::CachedFused];

    /// The flag-value name (`"interp"` / `"cached-fused"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Interp => "interp",
            Backend::CachedFused => "cached-fused",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" => Ok(Backend::Interp),
            "cached-fused" => Ok(Backend::CachedFused),
            "cached" => {
                Err("backend 'cached' was removed; use 'cached-fused' (the default)".to_string())
            }
            other => Err(format!(
                "unknown backend '{other}' (expected 'interp' or 'cached-fused')"
            )),
        }
    }
}

/// Steps the block `[start, end)` one instruction at a time through
/// [`tpdbt_vm::step`] — the `interp` form, and the reference every other
/// form must match. Returns the terminator's flow; after success the
/// machine PC rests on the terminator.
///
/// # Errors
///
/// Propagates guest traps exactly as interpretation does.
pub(crate) fn step_block(
    program: &Program,
    start: Pc,
    end: Pc,
    machine: &mut Machine,
) -> Result<Flow, VmError> {
    debug_assert!(start < end, "blocks end in a terminator");
    // Only the terminator's flow is kept. Carrying the flow across
    // iterations made the compiled loop copy it through the stack on
    // every instruction, which made `interp` blocks about 1.5x slower.
    for at in start..end - 1 {
        machine.set_pc(at);
        let flow = step(program, machine)?;
        debug_assert_eq!(flow, Flow::Next, "only terminators transfer control");
    }
    machine.set_pc(end - 1);
    step(program, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, TAKEN};
    use crate::programs::{arb_stmt, build};
    use proptest::prelude::*;
    use tpdbt_isa::{decode_block, Cond, ProgramBuilder, Reg};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.reserve_mem(8);
        let top = b.fresh_label("top");
        b.movi(Reg::new(1), 3); // 0
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 5); // 1
        b.xor(Reg::new(2), Reg::new(0), Reg::new(1)); // 2
        b.store(Reg::new(2), Reg::new(1), 0); // 3
        b.out(Reg::new(0)); // 4
        b.br_imm(Cond::Lt, Reg::new(0), 20, top); // 5
        b.halt(); // 6
        b.build().unwrap()
    }

    #[test]
    fn backend_flag_round_trips() {
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), b.name());
        }
        assert!("jit".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::CachedFused);
        // The removed plain cache is rejected with a pointer to its
        // replacement.
        let err = "cached".parse::<Backend>().unwrap_err();
        assert!(err.contains("cached-fused"), "{err}");
    }

    /// One executor per backend, each with a fresh machine on `p`.
    fn pair<'p>(p: &'p Program, input: &[i64]) -> [(Executor<'p>, Machine); 2] {
        Backend::ALL.map(|b| (Executor::new(p, b, u64::MAX, None), Machine::new(p, input)))
    }

    #[test]
    fn both_forms_run_a_block_identically() {
        let p = sample();
        let block = decode_block(&p, 1).unwrap();
        let [(mut is, mut ms), (mut id, mut md)] = pair(&p, &[]);
        let fs = is.step(1, &mut ms).unwrap();
        let fd = id.step(1, &mut md).unwrap();
        assert_eq!(fs, fd);
        assert_eq!(fs.1, Some(1), "r0 = 5 < 20: the latch is taken");
        assert_eq!(fs.0.column, TAKEN);
        assert_eq!(ms, md, "architectural state must be bitwise identical");
        assert_eq!(ms.pc(), block.end - 1, "the pc rests on the terminator");
        // `interp` keeps the extent only; `cached-fused` the decoded body.
        assert!(is.code.blocks[0].code.is_none());
        let decoded = id.code.blocks[0].code.as_ref().unwrap();
        assert_eq!(decoded.body.ops().len(), block.len() - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Architectural state, block by block: walking a whole program
        /// through the two forms in lockstep keeps the events, next pcs
        /// and machines bitwise-equal after every single block
        /// execution.
        #[test]
        fn lockstep_walk_keeps_machines_bitwise_equal(
            stmts in prop::collection::vec(arb_stmt(), 1..6),
            input in prop::collection::vec(-50i64..50, 0..6),
        ) {
            let p = build(&stmts);
            let [(mut is, mut ms), (mut id, mut md)] = pair(&p, &input);
            let mut pc = p.entry();
            let mut halted = false;
            for n in 0..200_000u32 {
                let fs = is.step(pc, &mut ms).expect("trap-free");
                let fd = id.step(pc, &mut md).expect("trap-free");
                prop_assert_eq!(fs, fd, "event diverged at pc {} (block #{})", pc, n);
                prop_assert_eq!(&ms, &md, "machine diverged at pc {} (block #{})", pc, n);
                match fs.1 {
                    None => {
                        halted = true;
                        break;
                    }
                    Some(next) => pc = next,
                }
            }
            prop_assert!(halted, "generated program did not halt within the walk budget");
        }
    }
}
