//! Oracle-fed predictors: a perfect conditional/indirect predictor and
//! an always-wrong adversarial conditional predictor, both driven by an
//! [`OracleFeed`] — the architectural interpreter's branch stream,
//! replayed ahead of detailed simulation.
//!
//! The feed contract: the feed is computed from a *pristine* simulator
//! (architectural registers all zero, workload memory image already
//! written) by replaying the shared [`arch_step`] semantics over a
//! clone of simulated memory, collecting every conditional outcome and
//! every `jalr` target in architectural order. Oracle predictors walk
//! the feed with cursors that ride the pipeline's existing recovery
//! tokens — `PredMeta::ghr_before` for the conditional cursor and the
//! RAS top-of-stack counter for the indirect cursor — so squash
//! recovery realigns them with no new pipeline state. Because the feed
//! is a function of the initial state, it is serialized into
//! checkpoints rather than recomputed: a restored mid-run simulator
//! could not rebuild it.

use mssr_isa::{Pc, Program, NUM_ARCH_REGS};

use crate::ckpt::{CkptError, CkptReader, CkptWriter};
use crate::interp::{arch_step, ArchKind, ArchState};
use crate::mem::MainMemory;

use super::{CondPredictor, IndirectPredictor, PredMeta};

/// The architectural branch stream: bitpacked conditional outcomes and
/// `jalr` targets, in program order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleFeed {
    cond_bits: Vec<u64>,
    n_cond: u64,
    jalr: Vec<Pc>,
}

impl OracleFeed {
    /// Replays up to `max_insts` instructions of `program` against a
    /// clone of `memory` (architectural registers start at zero, as in
    /// a pristine pipeline), recording the branch stream. Stops early
    /// at `halt` or when control leaves the program image — exactly the
    /// conditions that stop detailed simulation.
    pub(crate) fn compute(program: &Program, memory: &MainMemory, max_insts: u64) -> OracleFeed {
        let mut st = FeedState { regs: [0; NUM_ARCH_REGS], memory: memory.clone() };
        let mut feed = OracleFeed::default();
        let mut pc = program.base();
        let mut executed = 0u64;
        while executed < max_insts {
            let Some(out) = arch_step(program, pc, &mut st) else {
                break;
            };
            executed += 1;
            match out.kind {
                ArchKind::Cond { taken } => feed.push_cond(taken),
                ArchKind::Jalr { target } => feed.push_jalr(target),
                _ => {}
            }
            match out.next {
                Some(next) => pc = next,
                None => break,
            }
        }
        feed
    }

    /// Builds a feed from explicit streams — the test-side entry point
    /// for driving the oracle predictors with a hand-written branch
    /// trace instead of an interpreter replay.
    pub fn from_streams(cond: &[bool], jalr: &[Pc]) -> OracleFeed {
        let mut feed = OracleFeed::default();
        for &taken in cond {
            feed.push_cond(taken);
        }
        for &target in jalr {
            feed.push_jalr(target);
        }
        feed
    }

    pub(crate) fn push_cond(&mut self, taken: bool) {
        let bit = self.n_cond % 64;
        if bit == 0 {
            self.cond_bits.push(0);
        }
        if taken {
            *self.cond_bits.last_mut().expect("pushed above") |= 1 << bit;
        }
        self.n_cond += 1;
    }

    pub(crate) fn push_jalr(&mut self, target: Pc) {
        self.jalr.push(target);
    }

    /// The `i`-th conditional outcome, or `None` beyond the feed (a
    /// fetch run ahead of the recorded stream — predictions there fall
    /// back to not-taken and may deterministically mispredict).
    pub(crate) fn cond(&self, i: u64) -> Option<bool> {
        (i < self.n_cond).then(|| self.cond_bits[(i / 64) as usize] >> (i % 64) & 1 == 1)
    }

    /// The `i`-th `jalr` target, or `None` beyond the feed.
    pub(crate) fn jalr(&self, i: u64) -> Option<Pc> {
        self.jalr.get(i as usize).copied()
    }

    /// Conditional outcomes recorded.
    pub fn cond_len(&self) -> u64 {
        self.n_cond
    }

    pub(crate) fn save(&self, w: &mut CkptWriter) {
        w.u64(self.n_cond);
        for &word in &self.cond_bits {
            w.u64(word);
        }
        w.u64(self.jalr.len() as u64);
        for &t in &self.jalr {
            w.pc(t);
        }
    }

    pub(crate) fn load(r: &mut CkptReader) -> Result<OracleFeed, CkptError> {
        let n_cond = r.u64()?;
        let words = usize::try_from(n_cond.div_ceil(64))
            .map_err(|_| CkptError::Corrupt(format!("oracle feed of {n_cond} outcomes")))?;
        let mut cond_bits = Vec::new();
        for _ in 0..words {
            cond_bits.push(r.u64()?);
        }
        let nj = r.seq_len(8)?;
        let mut jalr = Vec::with_capacity(nj);
        for _ in 0..nj {
            jalr.push(r.pc()?);
        }
        Ok(OracleFeed { cond_bits, n_cond, jalr })
    }
}

/// The interpreter state of the feed replay: a flat register file
/// (zeroed, as in a pristine pipeline) over a clone of simulated
/// memory — stores during the replay never touch the real image.
struct FeedState {
    regs: [u64; NUM_ARCH_REGS],
    memory: MainMemory,
}

impl ArchState for FeedState {
    fn reg(&self, a: mssr_isa::ArchReg) -> u64 {
        self.regs[a.index()]
    }

    fn set_reg(&mut self, a: mssr_isa::ArchReg, v: u64) {
        self.regs[a.index()] = v;
    }

    fn mem_read(&mut self, addr: u64) -> u64 {
        self.memory.read_u64(addr)
    }

    fn mem_write(&mut self, addr: u64, v: u64) {
        self.memory.write_u64(addr, v)
    }

    fn wrap(&self, addr: u64) -> u64 {
        self.memory.wrap(addr)
    }
}

/// The perfect conditional predictor: reads the feed at a cursor that
/// advances per prediction. The cursor rides `PredMeta::ghr_before`, so
/// the pipeline's existing history recovery realigns it on squashes.
#[derive(Clone, Debug, Default)]
pub(crate) struct OracleCond {
    cursor: u64,
}

/// The adversarial conditional predictor: the oracle's exact
/// complement. Every committed conditional branch mispredicts, which
/// maximizes the squash stream reuse engines feed on.
#[derive(Clone, Debug, Default)]
pub(crate) struct AlwaysWrongCond {
    cursor: u64,
}

fn feed_cond(feed: Option<&OracleFeed>, i: u64) -> bool {
    feed.and_then(|f| f.cond(i)).unwrap_or(false)
}

macro_rules! cursor_cond {
    ($ty:ty, $invert:expr) => {
        impl CondPredictor for $ty {
            fn predict(&mut self, _pc: Pc, feed: Option<&OracleFeed>) -> (bool, PredMeta) {
                let meta = PredMeta { ghr_before: self.cursor };
                let pred = feed_cond(feed, self.cursor) ^ $invert;
                self.cursor = self.cursor.wrapping_add(1);
                (pred, meta)
            }

            fn recover(&mut self, meta: PredMeta, _actual_taken: bool) {
                // The branch itself survives a squash it caused: its
                // feed slot stays consumed.
                self.cursor = meta.ghr_before.wrapping_add(1);
            }

            fn train(&mut self, _pc: Pc, _taken: bool, _meta: PredMeta) {}

            fn history(&self) -> u64 {
                self.cursor
            }

            fn restore_history(&mut self, cursor: u64) {
                self.cursor = cursor;
            }

            fn occupancy(&self) -> (usize, usize) {
                (0, 0)
            }

            fn save_state(&self, w: &mut CkptWriter) {
                w.u64(self.cursor);
            }

            fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
                self.cursor = r.u64()?;
                Ok(())
            }
        }
    };
}

cursor_cond!(OracleCond, false);
cursor_cond!(AlwaysWrongCond, true);

/// The perfect indirect predictor: a cursor over the feed's `jalr`
/// targets. The cursor rides the RAS top-of-stack token (the facade
/// makes `ras_sp()` return it and `ras_push`/`ras_pop` no-ops), so the
/// pipeline's per-instruction RAS snapshot/restore realigns it on
/// squashes with no new recovery state.
#[derive(Clone, Debug, Default)]
pub(crate) struct OracleIndirect {
    cursor: u64,
}

impl OracleIndirect {
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    pub(crate) fn set_cursor(&mut self, cursor: u64) {
        self.cursor = cursor;
    }
}

impl IndirectPredictor for OracleIndirect {
    fn predict(&mut self, _pc: Pc, feed: Option<&OracleFeed>) -> Option<Pc> {
        let t = feed.and_then(|f| f.jalr(self.cursor));
        self.cursor = self.cursor.wrapping_add(1);
        t
    }

    fn update(&mut self, _pc: Pc, _target: Pc) {}

    fn digest(&self) -> u64 {
        self.cursor
    }

    fn save_state(&self, w: &mut CkptWriter) {
        w.u64(self.cursor);
    }

    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.cursor = r.u64()?;
        Ok(())
    }
}
