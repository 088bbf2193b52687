//! The pipeline stages: pure passes over an explicit [`MachineState`].
//!
//! Each stage lives in its own module — [`fetch`], [`rename`], [`issue`],
//! [`execute`], [`commit`], [`squash`] — and exposes free functions of the
//! shape `fn run(st: &mut MachineState, engine: &mut dyn ReuseEngine,
//! tracer: &mut Tracer, ...)`. A stage owns no state of its own: every
//! architectural and microarchitectural register lives in [`MachineState`]
//! (checkpointed as a unit by `crate::ckpt`), while per-cycle temporaries
//! live in the [`Scratch`] buffers the orchestrator passes in — cleared,
//! never dropped, so the steady-state hot loop performs no heap
//! allocation.
//!
//! The `Simulator` in `crate::pipeline` is the thin orchestrator: it owns
//! the state, the engine, the tracer and the sampler, and calls the stages
//! in commit → writeback → issue → rename → fetch → flush order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mssr_isa::{Inst, Opcode, Pc, Program};

use crate::account::CycleAccount;
use crate::bpred::{BranchPredictor, PredMeta};
use crate::config::SimConfig;
use crate::engine::{BlockRange, ReuseEngine, SquashEvent};
use crate::iq::IssueQueue;
use crate::lsq::Lsq;
use crate::mem::{Hierarchy, MainMemory};
use crate::rename::{FreeList, Prf, Rat, RgidAlloc};
use crate::rob::{Rob, RobEntry};
use crate::stats::SimStats;
use crate::types::{FlushKind, FuClass, PhysReg, SeqNum};

pub(crate) mod commit;
pub(crate) mod execute;
pub(crate) mod fetch;
pub(crate) mod issue;
pub(crate) mod rename;
pub(crate) mod squash;

/// An instruction in flight between prediction and rename.
#[derive(Clone, Debug)]
pub(crate) struct FrontInst {
    pub(crate) ready_cycle: u64,
    pub(crate) pc: Pc,
    pub(crate) inst: Inst,
    pub(crate) pred_taken: bool,
    pub(crate) pred_next: Pc,
    pub(crate) meta: PredMeta,
    pub(crate) ghr_before: u64,
    pub(crate) ras_sp_before: u64,
}

/// A flush discovered during execution, applied at end of cycle.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingFlush {
    /// First (oldest) squashed sequence number.
    pub(crate) first_squashed: SeqNum,
    pub(crate) redirect: Pc,
    pub(crate) kind: FlushKind,
    /// For mispredictions: the branch. Otherwise the flushed instruction.
    pub(crate) cause_seq: SeqNum,
    pub(crate) cause_pc: Pc,
}

/// The complete machine state of one simulated core — everything the
/// stages read and write, and exactly what a checkpoint captures (the
/// engine, tracer and sampler ride alongside it in `Simulator`).
///
/// Ownership rules: stages receive `&mut MachineState` and may touch any
/// field; the engine is always passed separately so engine hooks can
/// borrow disjoint state through [`ectx!`]; nothing in here may hold a
/// per-cycle temporary (those belong in [`Scratch`]).
pub(crate) struct MachineState {
    pub(crate) cfg: SimConfig,
    pub(crate) program: Program,
    pub(crate) cycle: u64,
    pub(crate) next_seq: u64,
    pub(crate) squash_ctr: u64,
    pub(crate) halted: bool,

    pub(crate) bpred: BranchPredictor,
    pub(crate) fetch_pc: Option<Pc>,
    pub(crate) fetch_resume_at: u64,
    pub(crate) frontend_q: VecDeque<FrontInst>,

    pub(crate) rat: Rat,
    pub(crate) free_list: FreeList,
    pub(crate) prf: Prf,
    pub(crate) rgids: RgidAlloc,
    pub(crate) rgid_reset_requested: bool,

    pub(crate) rob: Rob,
    pub(crate) iq_int: IssueQueue,
    pub(crate) iq_mem: IssueQueue,
    pub(crate) lsq: Lsq,
    pub(crate) completions: BinaryHeap<Reverse<(u64, u64)>>,
    pub(crate) pending_flushes: Vec<PendingFlush>,

    pub(crate) memory: MainMemory,
    pub(crate) hier: Hierarchy,

    pub(crate) stats: SimStats,
    pub(crate) rgid_overflows_total: u64,
    pub(crate) rgid_resets_total: u64,

    pub(crate) account: CycleAccount,
    /// After a squash, idle-ROB cycles are blamed on the flush kind until
    /// an instruction from the refilled (post-squash) stream — `seq >=`
    /// the stored boundary — commits.
    pub(crate) refill_blame: Option<(FlushKind, SeqNum)>,
    pub(crate) grants_total: u64,
}

impl MachineState {
    /// A pristine machine about to fetch `program`'s entry point.
    pub(crate) fn new(cfg: SimConfig, program: Program) -> MachineState {
        let fetch_pc = Some(program.base());
        MachineState {
            bpred: BranchPredictor::new(&cfg),
            fetch_pc,
            fetch_resume_at: 0,
            frontend_q: VecDeque::new(),
            rat: Rat::new(),
            free_list: FreeList::new(cfg.phys_regs, mssr_isa::NUM_ARCH_REGS),
            prf: Prf::new(cfg.phys_regs),
            rgids: RgidAlloc::new(cfg.rgid_values()),
            rgid_reset_requested: false,
            rob: Rob::new(cfg.rob_size),
            iq_int: IssueQueue::new(cfg.iq_int_size, cfg.phys_regs),
            iq_mem: IssueQueue::new(cfg.iq_mem_size, cfg.phys_regs),
            lsq: Lsq::new(cfg.lq_size, cfg.sq_size),
            completions: BinaryHeap::new(),
            pending_flushes: Vec::new(),
            memory: MainMemory::new(cfg.mem_bytes),
            hier: Hierarchy::new(&cfg),
            stats: SimStats::default(),
            rgid_overflows_total: 0,
            rgid_resets_total: 0,
            account: CycleAccount::default(),
            refill_blame: None,
            grants_total: 0,
            cycle: 0,
            next_seq: 1,
            squash_ctr: 0,
            halted: false,
            program,
            cfg,
        }
    }
}

/// Per-cycle temporaries, hoisted out of the stages so the hot loop is
/// steady-state allocation-free: every buffer is cleared (capacity kept)
/// at the start of the pass that fills it, never dropped. Excluded from
/// checkpoints — scratch contents never outlive a cycle.
pub(crate) struct Scratch {
    /// Issue stage: the per-class selection lists.
    pub(crate) sel_alu: Vec<SeqNum>,
    pub(crate) sel_bru: Vec<SeqNum>,
    pub(crate) sel_mem: Vec<SeqNum>,
    /// Squash stage: the unwound ROB tail (youngest first).
    pub(crate) squashed: Vec<RobEntry>,
    /// Squash stage: the reusable [`SquashEvent`] handed to the engine
    /// (its `insts` / `frontend_blocks` vectors are cleared per squash).
    pub(crate) squash_ev: SquashEvent,
    /// Checker: the live-register bitmap used by the debug sweeps.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) live: Vec<bool>,
    /// Checker: the free-list queue-membership bitmap.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) queued: Vec<bool>,
}

impl Scratch {
    pub(crate) fn new() -> Scratch {
        Scratch {
            sel_alu: Vec::new(),
            sel_bru: Vec::new(),
            sel_mem: Vec::new(),
            squashed: Vec::new(),
            squash_ev: SquashEvent {
                squash_id: 0,
                cause_seq: SeqNum::new(1),
                cause_pc: Pc::new(0),
                redirect: Pc::new(0),
                insts: Vec::new(),
                frontend_blocks: Vec::new(),
            },
            live: Vec::new(),
            queued: Vec::new(),
        }
    }
}

/// Builds an [`EngineCtx`](crate::engine::EngineCtx) from disjoint
/// [`MachineState`] fields so the engine (passed alongside) can be called
/// simultaneously.
macro_rules! ectx {
    ($s:expr) => {
        crate::engine::EngineCtx {
            free_list: &mut $s.free_list,
            stage: crate::engine::StageCtx { cycle: $s.cycle, rob_size: $s.cfg.rob_size },
            rgid_reset_requested: &mut $s.rgid_reset_requested,
        }
    };
}
pub(crate) use ectx;

/// Releases one hold on `p`, notifying the engine when the register
/// becomes allocatable again.
pub(crate) fn release_preg(st: &mut MachineState, engine: &mut dyn ReuseEngine, p: PhysReg) {
    st.free_list.release(p);
    if st.free_list.holds(p) == 0 {
        engine.on_preg_freed(p, &mut ectx!(st));
    }
}

/// The functional-unit class an opcode executes on (`None`: retires
/// without executing).
pub(crate) fn fu_class(op: Opcode) -> Option<FuClass> {
    match op {
        Opcode::Nop | Opcode::Halt => None,
        Opcode::Ld | Opcode::St => Some(FuClass::Lsu),
        op if op.is_control() => Some(FuClass::Bru),
        _ => Some(FuClass::Alu),
    }
}

/// Groups a predicted instruction stream into contiguous [`BlockRange`]s,
/// splitting on taken predictions, PC discontinuities, and `max_block`.
/// Clears `out` first and fills it in place (hot-loop scratch
/// discipline: capacity is kept, nothing is dropped or reallocated in
/// steady state).
pub(crate) fn group_blocks_into(
    pcs: impl Iterator<Item = (Pc, bool)>,
    max_block: usize,
    out: &mut Vec<BlockRange>,
) {
    out.clear();
    let mut cur: Option<(BlockRange, usize, bool)> = None;
    for (pc, taken) in pcs {
        match cur.as_mut() {
            Some((range, n, last_taken))
                if !*last_taken && pc == range.end.next() && *n < max_block =>
            {
                range.end = pc;
                *n += 1;
                *last_taken = taken;
            }
            _ => {
                if let Some((range, _, _)) = cur.take() {
                    out.push(range);
                }
                cur = Some((BlockRange { start: pc, end: pc }, 1, taken));
            }
        }
    }
    if let Some((range, _, _)) = cur {
        out.push(range);
    }
}

/// Allocating convenience wrapper over [`group_blocks_into`] (tests and
/// cold paths only; the squash stage uses the `_into` variant).
#[cfg(test)]
pub(crate) fn group_blocks(
    pcs: impl Iterator<Item = (Pc, bool)>,
    max_block: usize,
) -> Vec<BlockRange> {
    let mut out = Vec::new();
    group_blocks_into(pcs, max_block, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_blocks_splits_on_discontinuity_and_size() {
        let blocks = group_blocks((0..10).map(|i| (Pc::new(0x1000 + i * 4), false)), 8);
        assert_eq!(blocks.len(), 2, "8-instruction limit splits the run");
        assert_eq!(blocks[0], BlockRange { start: Pc::new(0x1000), end: Pc::new(0x101c) });
        assert_eq!(blocks[1], BlockRange { start: Pc::new(0x1020), end: Pc::new(0x1024) });

        let jumpy = vec![
            (Pc::new(0x1000), false),
            (Pc::new(0x1004), true), // taken branch ends the block
            (Pc::new(0x2000), false),
        ];
        let blocks = group_blocks(jumpy.into_iter(), 8);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0], BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1004) });
        assert_eq!(blocks[1], BlockRange { start: Pc::new(0x2000), end: Pc::new(0x2000) });
    }

    #[test]
    fn group_blocks_empty_stream_yields_no_blocks() {
        assert!(group_blocks(std::iter::empty(), 8).is_empty());
    }

    #[test]
    fn group_blocks_single_pc_is_one_degenerate_block() {
        let blocks = group_blocks(std::iter::once((Pc::new(0x1000), false)), 8);
        assert_eq!(blocks, vec![BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1000) }]);
        // A lone taken branch is still one block; the split it would
        // force has nothing after it.
        let taken = group_blocks(std::iter::once((Pc::new(0x1000), true)), 8);
        assert_eq!(taken, vec![BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1000) }]);
    }

    #[test]
    fn group_blocks_run_exactly_at_max_block_stays_whole() {
        let blocks = group_blocks((0..8).map(|i| (Pc::new(0x1000 + i * 4), false)), 8);
        assert_eq!(blocks, vec![BlockRange { start: Pc::new(0x1000), end: Pc::new(0x101c) }]);
    }

    #[test]
    fn group_blocks_pc_gap_splits_even_without_taken_prediction() {
        // A discontinuity with `taken == false` (e.g. a not-taken
        // prediction followed by a wrong-path redirect) still splits.
        let pcs = vec![
            (Pc::new(0x1000), false),
            (Pc::new(0x1004), false),
            (Pc::new(0x1010), false), // gap: 0x1008 missing
        ];
        let blocks = group_blocks(pcs.into_iter(), 8);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0], BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1004) });
        assert_eq!(blocks[1], BlockRange { start: Pc::new(0x1010), end: Pc::new(0x1010) });
    }

    #[test]
    fn group_blocks_into_clears_previous_contents() {
        let mut out = vec![BlockRange { start: Pc::new(0xdead), end: Pc::new(0xdead) }];
        group_blocks_into(std::iter::once((Pc::new(0x1000), false)), 8, &mut out);
        assert_eq!(out, vec![BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1000) }]);
    }
}
