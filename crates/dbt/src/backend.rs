//! Pluggable execution backends: how translated guest code actually
//! runs.
//!
//! The engine in [`crate::engine`] owns *when* things happen — block
//! discovery, counter bumps, threshold registration, region formation,
//! freezing — while an [`ExecBackend`] owns *how* a translated block's
//! instructions execute and which [`CompiledTrace`] an installed
//! region runs (see [`crate::trace`] for the segment forms):
//!
//! * [`InterpBackend`] (`interp`) — the reference backend and
//!   differential oracle: per-instruction [`tpdbt_vm::step`] dispatch,
//!   in profiling-phase blocks and (as stepped traces) in regions.
//! * [`CachedBackend`] (`cached-fused`, the default) — a translation
//!   cache of blocks decoded and re-encoded as
//!   [`tpdbt_isa::FusedOp`] superinstructions once per guest, replayed
//!   through [`tpdbt_vm::exec_body`] / [`tpdbt_vm::exec_term`].
//!
//! Both drive the same execute-half semantics in `tpdbt-vm`, so
//! architectural state, outputs, and every profile counter are bitwise
//! identical by construction — `tests/backend_differential.rs` pins
//! this.

use std::sync::Arc;

use tpdbt_isa::{Block, DecodedBlock, Pc, PredecodedProgram, Program};
use tpdbt_profile::RegionDump;
use tpdbt_vm::{exec_body, exec_term, step, Flow, Machine, VmError};

use crate::trace::{compile_trace, step_trace, CompiledTrace};

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
    /// Translation cache of fused blocks plus trace-compiled regions
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

/// How translated code executes. Implementations must be semantically
/// transparent: for any block, [`ExecBackend::exec_block`] must effect
/// exactly the architectural-state transition and [`Flow`] that
/// per-instruction [`tpdbt_vm::step`] dispatch would, including trap
/// payloads — and so must every segment of the traces they install.
///
/// The engine reports translation-cache lifecycle events through the
/// remaining hooks: [`ExecBackend::on_translate`] at fast-translation
/// (cache insert), [`ExecBackend::install_region`] at region formation
/// *and* re-formation (optimized-code insert / replace), and
/// [`ExecBackend::retire_region`] at adaptive retirement (optimized-code
/// invalidation). Install hooks receive the full [`RegionDump`] — the
/// copy list plus the internal edge table — because trace compilation
/// needs the region's shape, not just its members.
pub trait ExecBackend {
    /// The block at `block.start` was fast-translated.
    fn on_translate(&mut self, program: &Program, block: &Block);

    /// Region `region` was formed or re-formed; `dump` describes its
    /// copies (entry first) and internal edges. The backend compiles
    /// and installs the region's trace, replacing any previous one.
    fn install_region(&mut self, region: usize, dump: &RegionDump);

    /// Region `region` was retired: its optimized code must never run
    /// again.
    fn retire_region(&mut self, region: usize);

    /// The trace installed for `region`, if any. The engine snapshots
    /// it (an [`Arc`] clone) per region entry, so a mid-execution
    /// retire or reform can replace the slot without tearing the
    /// running trace.
    fn region_trace(&self, region: usize) -> Option<Arc<CompiledTrace>>;

    /// Executes the translated block spanning `[start, end)`, returning
    /// the terminator's control flow.
    ///
    /// # Errors
    ///
    /// Propagates guest traps ([`VmError`]) exactly as interpretation
    /// of the same instructions would.
    fn exec_block(
        &mut self,
        program: &Program,
        start: Pc,
        end: Pc,
        machine: &mut Machine,
    ) -> Result<Flow, VmError>;
}

/// One installed-trace slot per region id. A slot is replaced or
/// cleared by a single assignment; readers hold their own [`Arc`].
#[derive(Clone, Debug, Default)]
struct RegionTable(Vec<Option<Arc<CompiledTrace>>>);

impl RegionTable {
    fn get(&self, region: usize) -> Option<Arc<CompiledTrace>> {
        self.0.get(region).and_then(Clone::clone)
    }

    fn set(&mut self, region: usize, trace: Option<Arc<CompiledTrace>>) {
        if self.0.len() <= region {
            self.0.resize(region + 1, None);
        }
        self.0[region] = trace;
    }
}

/// The reference backend: per-instruction dispatch through
/// [`tpdbt_vm::step`], byte-for-byte the execution model the engine
/// used before the translation cache existed. Its regions install as
/// stepped traces, so region code is interpreted too.
#[derive(Clone, Debug, Default)]
pub struct InterpBackend {
    /// One past the terminator of each translated block, by start
    /// address (0 = not translated): the extents stepped traces need.
    ends: Vec<Pc>,
    regions: RegionTable,
}

impl InterpBackend {
    /// Creates the reference backend.
    #[must_use]
    pub fn new() -> InterpBackend {
        InterpBackend::default()
    }
}

impl ExecBackend for InterpBackend {
    fn on_translate(&mut self, _program: &Program, block: &Block) {
        if self.ends.len() <= block.start {
            self.ends.resize(block.start + 1, 0);
        }
        self.ends[block.start] = block.end;
    }

    fn install_region(&mut self, region: usize, dump: &RegionDump) {
        let trace = step_trace(&dump.copies, |pc| {
            self.ends.get(pc).copied().filter(|&end| end > pc)
        })
        .expect("region members are translated before formation");
        self.regions.set(region, Some(Arc::new(trace)));
    }

    fn retire_region(&mut self, region: usize) {
        self.regions.set(region, None);
    }

    fn region_trace(&self, region: usize) -> Option<Arc<CompiledTrace>> {
        self.regions.get(region)
    }

    fn exec_block(
        &mut self,
        program: &Program,
        start: Pc,
        end: Pc,
        machine: &mut Machine,
    ) -> Result<Flow, VmError> {
        let mut flow = Flow::Halted;
        for at in start..end {
            machine.set_pc(at);
            flow = step(program, machine)?;
            if matches!(flow, Flow::Halted) && at + 1 < end {
                unreachable!("halt only terminates blocks");
            }
        }
        Ok(flow)
    }
}

/// Replays a decoded block's body (flat or fused) and terminator.
/// After a successful block the machine PC rests on the terminator,
/// matching the interpreter backend's final state exactly.
fn run_decoded(block: &DecodedBlock, machine: &mut Machine) -> Result<Flow, VmError> {
    exec_body(&block.body, block.start, machine)?;
    let pc = block.term_pc();
    machine.set_pc(pc);
    exec_term(block.term.view(), pc, machine)
}

/// The `cached-fused` backend: a translation cache of fused blocks
/// plus trace-compiled regions.
///
/// Blocks come from a [`PredecodedProgram`], which decodes and fuses
/// each one once per *guest*, so runs sharing it (sweep cells, serve
/// queries, repeated runs of one guest) skip that work. Fusion is
/// architecturally invisible (pinned by
/// `crates/vm/tests/fusion_props.rs`), so profiling-phase blocks run
/// as superinstructions too. Region installs compile a guarded trace,
/// or the observed form when the run must see every flow inside
/// regions (continuous profiling).
#[derive(Debug)]
pub struct CachedBackend {
    /// The decode-once block cache (shared by the driver, or private).
    predecoded: Arc<PredecodedProgram>,
    /// This run's translated blocks, by start address.
    blocks: Vec<Option<Arc<DecodedBlock>>>,
    regions: RegionTable,
    /// Whether installed traces use fast guards (unset: observed form).
    guarded: bool,
}

impl CachedBackend {
    /// Creates a translation cache for a program of `program_len`
    /// instructions. When `shared` is given (and sized for the same
    /// program), fused blocks are pulled from — and published to — it,
    /// so concurrent and successive runs of the same guest decode and
    /// fuse each block only once globally.
    #[must_use]
    pub fn new(program_len: usize, shared: Option<Arc<PredecodedProgram>>) -> CachedBackend {
        let predecoded = shared
            .filter(|p| p.len() == program_len)
            .unwrap_or_else(|| Arc::new(PredecodedProgram::with_len(program_len)));
        CachedBackend {
            predecoded,
            blocks: vec![None; program_len],
            regions: RegionTable::default(),
            guarded: true,
        }
    }

    /// Number of blocks currently in the translation cache.
    #[must_use]
    pub fn cached_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }
}

impl ExecBackend for CachedBackend {
    fn on_translate(&mut self, program: &Program, block: &Block) {
        let pc = block.start;
        if self.blocks[pc].is_none() {
            self.blocks[pc] = Some(self.predecoded.translate(program, block));
        }
    }

    fn install_region(&mut self, region: usize, dump: &RegionDump) {
        let chain: Vec<Arc<DecodedBlock>> = dump
            .copies
            .iter()
            .map(|&pc| {
                Arc::clone(
                    self.blocks[pc]
                        .as_ref()
                        .expect("region members are translated before formation"),
                )
            })
            .collect();
        let trace = compile_trace(&dump.copies, &dump.edges, &chain, self.guarded)
            .expect("the chain covers the copy list");
        self.regions.set(region, Some(Arc::new(trace)));
    }

    fn retire_region(&mut self, region: usize) {
        self.regions.set(region, None);
    }

    fn region_trace(&self, region: usize) -> Option<Arc<CompiledTrace>> {
        self.regions.get(region)
    }

    fn exec_block(
        &mut self,
        program: &Program,
        start: Pc,
        end: Pc,
        machine: &mut Machine,
    ) -> Result<Flow, VmError> {
        if self.blocks[start].is_none() {
            // Defensive: the engine always translates before executing,
            // but a standalone user of the backend may not.
            self.blocks[start] = self.predecoded.block(program, start);
        }
        let block = self.blocks[start]
            .as_ref()
            .ok_or(VmError::BadPc { pc: start })?;
        debug_assert_eq!((block.start, block.end), (start, end));
        let _ = end;
        run_decoded(block, machine)
    }
}

/// Static dispatch over the built-in backends (keeps the engine's
/// hot loop free of virtual calls).
#[derive(Debug)]
pub(crate) enum BackendImpl {
    Interp(InterpBackend),
    Cached(CachedBackend),
}

impl BackendImpl {
    /// The backend a run executes on. `shared` is the caller's
    /// decode-once cache (used by `cached-fused` when it fits the
    /// program); `guarded` unset selects the observed trace form.
    pub(crate) fn new(
        backend: Backend,
        program: &Program,
        shared: Option<Arc<PredecodedProgram>>,
        guarded: bool,
    ) -> BackendImpl {
        match backend {
            Backend::Interp => BackendImpl::Interp(InterpBackend::new()),
            Backend::CachedFused => BackendImpl::Cached(CachedBackend {
                guarded,
                ..CachedBackend::new(program.len(), shared)
            }),
        }
    }
}

impl ExecBackend for BackendImpl {
    fn on_translate(&mut self, program: &Program, block: &Block) {
        match self {
            BackendImpl::Interp(b) => b.on_translate(program, block),
            BackendImpl::Cached(b) => b.on_translate(program, block),
        }
    }

    fn install_region(&mut self, region: usize, dump: &RegionDump) {
        match self {
            BackendImpl::Interp(b) => b.install_region(region, dump),
            BackendImpl::Cached(b) => b.install_region(region, dump),
        }
    }

    fn retire_region(&mut self, region: usize) {
        match self {
            BackendImpl::Interp(b) => b.retire_region(region),
            BackendImpl::Cached(b) => b.retire_region(region),
        }
    }

    fn region_trace(&self, region: usize) -> Option<Arc<CompiledTrace>> {
        match self {
            BackendImpl::Interp(b) => b.region_trace(region),
            BackendImpl::Cached(b) => b.region_trace(region),
        }
    }

    fn exec_block(
        &mut self,
        program: &Program,
        start: Pc,
        end: Pc,
        machine: &mut Machine,
    ) -> Result<Flow, VmError> {
        match self {
            BackendImpl::Interp(b) => b.exec_block(program, start, end, machine),
            BackendImpl::Cached(b) => b.exec_block(program, start, end, machine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpdbt_isa::{decode_block, BlockBody, Cond, ProgramBuilder, Reg};
    use tpdbt_profile::{RegionEdge, RegionKind, SuccSlot};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.reserve_mem(8);
        let top = b.fresh_label("top");
        b.movi(Reg::new(1), 3); // 0
        b.bind(top).unwrap();
        b.addi(Reg::new(0), Reg::new(0), 5); // 1
        b.xor(Reg::new(2), Reg::new(0), Reg::new(1)); // 2 (fuses with 1)
        b.store(Reg::new(2), Reg::new(1), 0); // 3
        b.out(Reg::new(0)); // 4
        b.br_imm(Cond::Lt, Reg::new(0), 20, top); // 5
        b.halt(); // 6
        b.build().unwrap()
    }

    /// A loop-shaped region dump over copies of the interior block.
    fn loop_dump(copies: Vec<Pc>) -> RegionDump {
        let edges = (0..copies.len())
            .map(|i| RegionEdge {
                from: i,
                slot: SuccSlot::Taken,
                to: if i + 1 < copies.len() { i + 1 } else { 0 },
            })
            .collect();
        let tail = copies.len() - 1;
        RegionDump {
            id: 0,
            kind: RegionKind::Loop,
            copies,
            edges,
            tail,
        }
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

    #[test]
    fn both_backends_step_a_block_identically() {
        let p = sample();
        let block = decode_block(&p, 0).unwrap();
        let mut interp = InterpBackend::new();
        let mut cached = CachedBackend::new(p.len(), None);
        cached.on_translate(&p, &block);
        assert_eq!(cached.cached_blocks(), 1);

        let mut mi = Machine::new(&p, &[]);
        let mut mc = mi.clone();
        let fi = interp
            .exec_block(&p, block.start, block.end, &mut mi)
            .unwrap();
        let fc = cached
            .exec_block(&p, block.start, block.end, &mut mc)
            .unwrap();
        assert_eq!(fi, fc);
        assert_eq!(mi, mc, "architectural state must be bitwise identical");
    }

    #[test]
    fn shared_predecode_is_published_across_backends() {
        let p = sample();
        let shared = Arc::new(PredecodedProgram::new(&p));
        let block = decode_block(&p, 0).unwrap();
        let mut first = CachedBackend::new(p.len(), Some(Arc::clone(&shared)));
        first.on_translate(&p, &block);
        assert_eq!(shared.decoded_count(), 1);
        // A second run of the same guest reuses the decode.
        let mut second = CachedBackend::new(p.len(), Some(Arc::clone(&shared)));
        second.on_translate(&p, &block);
        assert_eq!(shared.decoded_count(), 1);
        let a = first.blocks[0].as_ref().unwrap();
        let b = second.blocks[0].as_ref().unwrap();
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn mismatched_shared_cache_is_ignored() {
        let p = sample();
        let mut other = ProgramBuilder::new();
        other.halt();
        let tiny = other.build().unwrap();
        let shared = Arc::new(PredecodedProgram::new(&tiny));
        let backend = CachedBackend::new(p.len(), Some(Arc::clone(&shared)));
        assert!(!Arc::ptr_eq(&backend.predecoded, &shared));
        assert_eq!(backend.predecoded.len(), p.len());
    }

    #[test]
    fn region_traces_install_and_retire() {
        let p = sample();
        let entry = decode_block(&p, 0).unwrap();
        let body = decode_block(&p, 1).unwrap();
        let mut cached = CachedBackend::new(p.len(), None);
        cached.on_translate(&p, &entry);
        cached.on_translate(&p, &body);
        cached.install_region(0, &loop_dump(vec![1, 1]));
        let trace = cached.region_trace(0).expect("installed");
        assert_eq!(trace.starts(), vec![1, 1]);
        assert_eq!(trace.fast_guards(), 2, "both latches compile to guards");
        cached.retire_region(0);
        assert!(cached.region_trace(0).is_none());
        // Re-formation reinstalls.
        cached.install_region(0, &loop_dump(vec![1]));
        assert_eq!(cached.region_trace(0).unwrap().len(), 1);
    }

    #[test]
    fn installs_replace_slots_old_snapshots_survive() {
        let p = sample();
        let body = decode_block(&p, 1).unwrap();
        let mut cached = CachedBackend::new(p.len(), None);
        cached.on_translate(&p, &body);
        cached.install_region(0, &loop_dump(vec![1]));
        // A reader's snapshot taken before a retire keeps working.
        let snapshot = cached.region_trace(0).unwrap();
        cached.retire_region(0);
        assert_eq!(snapshot.len(), 1, "old trace untouched");
        assert!(cached.region_trace(0).is_none(), "slot cleared");
        // Retiring a region that was never installed is a no-op.
        cached.retire_region(9);
        assert!(cached.region_trace(9).is_none());
    }

    /// Installs compile a fused, guarded trace, and re-formation /
    /// retirement replace or clear it in one slot — the stale-trace
    /// regression surface.
    #[test]
    fn fused_install_compiles_trace_and_retire_drops_it() {
        let p = sample();
        let entry = decode_block(&p, 0).unwrap();
        let body = decode_block(&p, 1).unwrap();
        let mut fused = CachedBackend::new(p.len(), None);
        fused.on_translate(&p, &entry);
        fused.on_translate(&p, &body);
        // Translated blocks are cached in fused form.
        assert!(matches!(
            fused.blocks[1].as_ref().unwrap().body,
            BlockBody::Fused(_)
        ));
        fused.install_region(0, &loop_dump(vec![1]));
        let trace = fused.region_trace(0).expect("fused install compiles");
        assert_eq!(trace.starts(), vec![1]);

        // A reader mid-execution holds its own snapshot...
        let snapshot = fused.region_trace(0).unwrap();
        // ...while a re-formation replaces the slot.
        fused.install_region(0, &loop_dump(vec![1, 1]));
        let reformed = fused.region_trace(0).expect("reinstalled");
        assert_eq!(reformed.starts(), vec![1, 1], "trace tracks the new shape");
        assert_eq!(snapshot.len(), 1, "old snapshot untouched");

        // Retirement clears the slot.
        fused.retire_region(0);
        assert!(fused.region_trace(0).is_none(), "no stale trace");
    }

    /// The three segment forms cover the same copies; only the guarded
    /// form has fast guards.
    #[test]
    fn every_backend_installs_a_trace_of_the_region_shape() {
        let p = sample();
        let body = decode_block(&p, 1).unwrap();
        let dump = loop_dump(vec![1, 1]);
        let mut interp = InterpBackend::new();
        let mut guarded = CachedBackend::new(p.len(), None);
        let mut observed = CachedBackend {
            guarded: false,
            ..CachedBackend::new(p.len(), None)
        };
        interp.on_translate(&p, &body);
        guarded.on_translate(&p, &body);
        observed.on_translate(&p, &body);
        interp.install_region(0, &dump);
        guarded.install_region(0, &dump);
        observed.install_region(0, &dump);
        let shapes: Vec<(Vec<Pc>, usize)> = [
            interp.region_trace(0),
            guarded.region_trace(0),
            observed.region_trace(0),
        ]
        .into_iter()
        .map(|t| {
            let t = t.expect("installed");
            (t.starts(), t.fast_guards())
        })
        .collect();
        assert_eq!(
            shapes,
            vec![(vec![1, 1], 0), (vec![1, 1], 2), (vec![1, 1], 0)]
        );
        interp.retire_region(0);
        assert!(interp.region_trace(0).is_none());
    }

    #[test]
    fn backends_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InterpBackend>();
        assert_send_sync::<CachedBackend>();
        assert_send_sync::<BackendImpl>();
    }
}
