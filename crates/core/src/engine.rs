//! The Multi-Stream Squash Reuse engine (the paper's contribution).
//!
//! Responsibilities, mapped to the paper:
//!
//! * **Stream capture** (§3.3): every branch-misprediction squash dumps
//!   the wrong path into a round-robin-selected [`Stream`] (WPB blocks +
//!   Squash Log entries), reserving the destination physical registers of
//!   executed instructions via free-list holds.
//! * **Reconvergence detection** (§3.4): each new prediction block is
//!   range-checked against every stream's WPB with the left/right aligner
//!   logic; the most recently updated stream wins, and within it the
//!   entry closest to the mispredicted branch. Each detection is
//!   classified (simple / software-induced / hardware-induced) and its
//!   stream distance recorded — the data behind Figures 4 and 11.
//! * **The reuse test** (§3.1, §3.5): once the corrected stream reaches
//!   the reconvergence PC, the Squash Log is walked in lockstep with
//!   rename. An instruction is reused when its source RGIDs match the
//!   logged ones pairwise; the squashed mapping (physical register and
//!   RGID) is forwarded to the new instruction.
//! * **Register freeing policy** (§3.3.2): holds are dropped when an
//!   entry was never executed, fails its test, is skipped, diverges,
//!   times out (1024 instructions), or is reclaimed under register
//!   pressure (least-recent stream first).
//! * **Memory hazards** (§3.8): reused loads either re-execute and
//!   verify (the paper's evaluated mechanism — the pipeline implements
//!   the comparison) or are filtered through a Bloom filter of executed
//!   store/snoop addresses.
//! * **RGID reset protocol** (§3.3.2): after more than the threshold of
//!   overflow events (or when all logs empty out with overflows pending),
//!   the engine requests a global RGID reset. The paper then suspends
//!   stream capture until a ROB's worth of instructions has committed, so
//!   no pre-reset RGID can enter a Squash Log; this implementation is
//!   *strictly stronger* — the pipeline nulls every live RGID (RAT and
//!   ROB) at the reset instant, making pre-reset generations unmatchable
//!   immediately — so the capture-suspension window is unnecessary and
//!   omitted. (In tight loops, 6-bit generation counters wrap every ~63
//!   iterations; with the paper's drain window that would suspend capture
//!   almost continuously.)

use mssr_isa::{Opcode, Pc};
use mssr_sim::{
    fnv1a64, CkptError, CkptReader, CkptWriter, DstBinding, EngineCtx, EngineStats, FlushKind,
    PredBlock, RenamedInst, ReuseEngine, ReuseGrant, ReuseQuery, SeqNum, SquashEvent,
};

use crate::align;
use crate::config::{MemCheckPolicy, MssrConfig};
use crate::memcheck::HazardEvidence;
use crate::stream::Stream;

/// Fetch-block instruction limit used when regrouping squashed PCs into
/// WPB entries (32-byte blocks of 4-byte instructions, Table 3).
const FETCH_BLOCK_INSTS: usize = 8;

/// A detected reconvergence waiting for the corrected stream to reach the
/// reconvergence PC at rename.
#[derive(Clone, Copy, Debug)]
struct Pending {
    stream: usize,
    /// Instruction offset from the start of the squashed stream.
    offset: u64,
    reconv_pc: Pc,
    created_at: u64,
}

/// An in-progress lockstep walk of one Squash Log.
#[derive(Clone, Copy, Debug)]
struct Active {
    stream: usize,
    idx: usize,
}

/// The Multi-Stream Squash Reuse engine. Plug into the simulator with
/// [`Simulator::with_engine`](mssr_sim::Simulator::with_engine).
///
/// # Example
///
/// ```
/// use mssr_core::{MssrConfig, MultiStreamReuse};
/// use mssr_sim::{SimConfig, Simulator};
/// use mssr_isa::{regs::*, Assembler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Assembler::new();
/// a.li(T0, 1);
/// a.halt();
/// let engine = MultiStreamReuse::new(MssrConfig::default());
/// let mut sim = Simulator::with_engine(SimConfig::default(), a.assemble()?, Box::new(engine));
/// sim.run();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiStreamReuse {
    cfg: MssrConfig,
    streams: Vec<Stream>,
    next_stream: usize,
    pending: Option<Pending>,
    active: Option<Active>,
    /// Total instructions renamed (the timeout clock).
    renamed: u64,
    last_squash_id: u64,
    last_cause_seq: SeqNum,
    hazards: HazardEvidence,
    overflow_events: u64,
    commits: u64,
    stats: EngineStats,
}

impl MultiStreamReuse {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: MssrConfig) -> MultiStreamReuse {
        MultiStreamReuse {
            streams: (0..cfg.streams).map(|_| Stream::default()).collect(),
            next_stream: 0,
            pending: None,
            active: None,
            renamed: 0,
            last_squash_id: 0,
            last_cause_seq: SeqNum::ZERO,
            hazards: HazardEvidence::new(cfg.mem_policy, cfg.bloom_bits),
            overflow_events: 0,
            commits: 0,
            stats: EngineStats::default(),
            cfg,
        }
    }

    /// A DCI-equivalent engine: single-stream queue-based squash reuse
    /// (the paper's §4.1.2 DCI comparison point).
    pub fn dci() -> MultiStreamReuse {
        MultiStreamReuse::new(MssrConfig::dci())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MssrConfig {
        &self.cfg
    }

    /// Number of currently valid streams (for tests and introspection).
    pub fn valid_streams(&self) -> usize {
        self.streams.iter().filter(|s| s.valid).count()
    }

    fn invalidate_stream(&mut self, i: usize, ctx: &mut EngineCtx<'_>) {
        if !self.streams[i].valid {
            return;
        }
        self.streams[i].invalidate(|p| ctx.free_list.release(p));
        if let Some(a) = self.active {
            if a.stream == i {
                self.active = None;
            }
        }
        if let Some(p) = self.pending {
            if p.stream == i {
                self.pending = None;
            }
        }
        self.after_invalidation(ctx);
    }

    fn invalidate_all(&mut self, ctx: &mut EngineCtx<'_>) {
        self.pending = None;
        self.active = None;
        for i in 0..self.streams.len() {
            if self.streams[i].valid {
                self.streams[i].invalidate(|p| ctx.free_list.release(p));
            }
        }
        self.after_invalidation(ctx);
    }

    /// Bloom reset and the "all logs unoccupied" RGID-reset trigger.
    fn after_invalidation(&mut self, ctx: &mut EngineCtx<'_>) {
        if self.streams.iter().all(|s| !s.valid) {
            self.hazards.clear();
            if self.overflow_events > 0 {
                self.request_rgid_reset(ctx);
            }
        }
    }

    fn request_rgid_reset(&mut self, ctx: &mut EngineCtx<'_>) {
        *ctx.rgid_reset_requested = true;
        self.overflow_events = 0;
        // The pipeline nulls all live RGIDs when it applies the reset, so
        // (unlike the paper's ROB-drain suspension) capture can continue
        // immediately. Pre-reset RGIDs become unusable; drop everything.
        self.pending = None;
        self.active = None;
        for s in &mut self.streams {
            if s.valid {
                s.invalidate(|p| ctx.free_list.release(p));
            }
        }
        self.hazards.clear();
    }

    /// Activates a pending reconvergence when the corrected stream
    /// reaches the reconvergence PC at rename. Skipped entries (before
    /// the offset) can no longer be reused in this pass, so their
    /// registers are freed (§3.3.2 policy).
    fn maybe_activate(&mut self, pc: Pc, ctx: &mut EngineCtx<'_>) {
        let Some(p) = self.pending else { return };
        if p.reconv_pc != pc {
            return;
        }
        self.pending = None;
        let s = &mut self.streams[p.stream];
        if !s.valid {
            return;
        }
        let idx = (p.offset as usize).min(s.log.len());
        for e in &mut s.log[..idx] {
            if e.preg_held {
                e.preg_held = false;
                e.consumed = true;
                if let Some(d) = e.dst {
                    ctx.free_list.release(d.preg);
                }
            }
        }
        if idx >= s.log.len() {
            // Reconvergence landed beyond the Squash Log capacity (the
            // WPB saw further than the log): nothing to reuse.
            self.invalidate_stream(p.stream, ctx);
            return;
        }
        self.active = Some(Active { stream: p.stream, idx });
    }

    fn check_timeouts(&mut self, ctx: &mut EngineCtx<'_>) {
        for i in 0..self.streams.len() {
            if !self.streams[i].valid {
                continue;
            }
            if self.active.is_some_and(|a| a.stream == i)
                || self.pending.is_some_and(|p| p.stream == i)
            {
                continue;
            }
            if self.renamed.saturating_sub(self.streams[i].created_at) > self.cfg.timeout_insts {
                self.stats.timeouts += 1;
                self.invalidate_stream(i, ctx);
            }
        }
        if let Some(p) = self.pending {
            if self.renamed.saturating_sub(p.created_at) > self.cfg.timeout_insts {
                self.pending = None;
            }
        }
    }
}

impl ReuseEngine for MultiStreamReuse {
    fn name(&self) -> &'static str {
        if self.cfg.streams == 1 {
            "dci"
        } else {
            "mssr"
        }
    }

    fn on_block(&mut self, block: &PredBlock, ctx: &mut EngineCtx<'_>) {
        let _ = ctx;
        // Detection pauses once a reconvergence has been identified and
        // until the reuse pass terminates (§3.3.1).
        if self.pending.is_some() || self.active.is_some() {
            return;
        }
        let mut best: Option<(usize, align::OverlapHit, u64)> = None;
        for (i, s) in self.streams.iter().enumerate() {
            if !s.valid {
                continue;
            }
            let hit = if self.cfg.vpn_restrict {
                align::find_overlap_vpn(
                    &block.range,
                    align::vpn(block.range.start),
                    &s.blocks,
                    s.vpn,
                )
            } else {
                align::find_overlap(&block.range, &s.blocks)
            };
            if let Some(h) = hit {
                // Select the most recently updated stream (§3.3.1).
                if best.is_none_or(|(_, _, sid)| s.squash_id > sid) {
                    best = Some((i, h, s.squash_id));
                }
            }
        }
        let Some((si, hit, sid)) = best else { return };
        let s = &self.streams[si];
        self.stats.reconvergences += 1;
        let distance = self.last_squash_id - sid + 1;
        self.stats.record_distance(distance);
        if sid == self.last_squash_id {
            self.stats.recon_simple += 1;
        } else if s.cause_seq < self.last_cause_seq {
            // Merging onto the squashed path of an elder branch.
            self.stats.recon_software += 1;
        } else {
            // Merging onto the squashed path of a younger branch — only
            // possible through out-of-order branch resolution.
            self.stats.recon_hardware += 1;
        }
        let offset = s.offset_of(hit.entry, hit.reconv_pc);
        self.pending = Some(Pending {
            stream: si,
            offset,
            reconv_pc: hit.reconv_pc,
            created_at: self.renamed,
        });
    }

    fn on_mispredict_squash(&mut self, ev: &SquashEvent, ctx: &mut EngineCtx<'_>) {
        // The corrected stream is being replaced: any in-progress reuse
        // pass is void. The partially consumed stream stays valid — the
        // *new* corrected stream may reconverge with its remainder.
        self.pending = None;
        self.active = None;
        self.last_squash_id = ev.squash_id;
        self.last_cause_seq = ev.cause_seq;
        if ev.insts.is_empty() && ev.frontend_blocks.is_empty() {
            return;
        }
        let si = self.next_stream;
        self.next_stream = (si + 1) % self.cfg.streams.max(1);
        if self.streams[si].valid {
            self.streams[si].invalidate(|p| ctx.free_list.release(p));
        }
        let load_barrier = self.hazards.load_barrier();
        self.streams[si].capture(
            ev,
            self.renamed,
            self.cfg.wpb_entries,
            self.cfg.log_entries,
            FETCH_BLOCK_INSTS,
            self.cfg.vpn_restrict,
            load_barrier,
        );
        for e in self.streams[si].log.iter().filter(|e| e.preg_held) {
            ctx.free_list.retain(e.dst.expect("held entry has dst").preg);
        }
        self.stats.streams_captured += 1;
        self.stats.entries_logged += self.streams[si].log.len() as u64;
    }

    fn on_flush(&mut self, kind: FlushKind, ctx: &mut EngineCtx<'_>) {
        match kind {
            // A reused load carried stale data: the paper flushes and
            // invalidates the Squash Logs (§3.8.3).
            FlushKind::ReuseVerification => self.invalidate_all(ctx),
            // A memory-order replay rewinds the RAT; the in-progress pass
            // no longer corresponds to the rename stream.
            FlushKind::MemoryOrder => {
                self.pending = None;
                self.active = None;
            }
            FlushKind::BranchMispredict => {} // handled by on_mispredict_squash
        }
    }

    fn try_reuse(&mut self, q: &ReuseQuery<'_>, ctx: &mut EngineCtx<'_>) -> Option<ReuseGrant> {
        self.maybe_activate(q.pc, ctx);
        let a = self.active?;
        let e = self.streams[a.stream].log.get(a.idx)?;
        if e.pc != q.pc || e.op != q.inst.op() {
            // Divergence; on_renamed terminates the pass.
            return None;
        }
        self.stats.reuse_tests += 1;
        if e.consumed || !e.executed || !e.preg_held {
            self.stats.reuse_fail_not_executed += 1;
            return None;
        }
        let DstBinding { arch: dst_arch, preg, rgid } = e.dst?;
        if Some(dst_arch) != q.inst.dst() {
            return None;
        }
        // The pairwise RGID comparison (§3.1): all source generations
        // must match their squashed counterparts. Null never matches.
        for i in 0..2 {
            match (q.src_rgids[i], e.src_rgids[i]) {
                (None, None) => {}
                (Some(cur), Some(old)) if cur.matches(old) => {}
                _ => {
                    self.stats.reuse_fail_stale += 1;
                    return None;
                }
            }
        }
        let needs_load_verify = if e.is_load {
            let Some(verify) = self.hazards.admit_load(e.load_addr) else {
                self.stats.reuse_fail_mem += 1;
                return None;
            };
            verify
        } else {
            false
        };
        let load_addr = e.load_addr;
        // The hold transfers to the new live mapping: stop tracking it.
        let e = self.streams[a.stream].log.get_mut(a.idx).expect("entry exists");
        e.preg_held = false;
        e.consumed = true;
        self.stats.reuse_grants += 1;
        if e.is_load {
            self.stats.reused_loads += 1;
        }
        Some(ReuseGrant { preg, rgid: Some(rgid), load_addr, needs_load_verify })
    }

    fn on_renamed(&mut self, r: &RenamedInst, ctx: &mut EngineCtx<'_>) {
        self.renamed += 1;
        self.hazards.renamed(r.seq);
        // Reconvergence instructions that are not reuse-eligible (stores,
        // branches) still begin the lockstep walk.
        self.maybe_activate(r.pc, ctx);
        if let Some(a) = self.active {
            let s = &mut self.streams[a.stream];
            let matches = s.log.get(a.idx).is_some_and(|e| e.pc == r.pc && e.op == r.op);
            if matches {
                let e = &mut s.log[a.idx];
                if !r.reused && e.preg_held {
                    // Failed or skipped: freeing condition 3 of §3.3.2.
                    e.preg_held = false;
                    if let Some(d) = e.dst {
                        ctx.free_list.release(d.preg);
                    }
                }
                e.consumed = true;
                let next = a.idx + 1;
                if next >= s.log.len() {
                    // Stream fully walked; nothing left to offer.
                    self.active = None;
                    self.invalidate_stream(a.stream, ctx);
                } else {
                    self.active = Some(Active { stream: a.stream, idx: next });
                }
            } else {
                // The corrected stream diverged from the squashed one:
                // freeing condition 4 of §3.3.2.
                self.stats.divergences += 1;
                self.active = None;
                self.invalidate_stream(a.stream, ctx);
            }
        }
        self.check_timeouts(ctx);
    }

    fn on_register_pressure(&mut self, ctx: &mut EngineCtx<'_>) {
        // Freeing condition 5: reclaim the least recent stream.
        let victim = self
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.valid)
            .min_by_key(|(_, s)| s.squash_id)
            .map(|(i, _)| i);
        if let Some(i) = victim {
            self.stats.pressure_reclaims += 1;
            self.invalidate_stream(i, ctx);
        }
    }

    fn on_store_executed(&mut self, addr: u64, _ctx: &mut EngineCtx<'_>) {
        self.hazards.record_write(addr);
    }

    fn on_snoop(&mut self, addr: u64, _ctx: &mut EngineCtx<'_>) {
        self.hazards.record_write(addr);
    }

    fn on_commit(&mut self, n: u64, _ctx: &mut EngineCtx<'_>) {
        self.commits += n;
    }

    fn on_rgid_overflow(&mut self, ctx: &mut EngineCtx<'_>) {
        self.overflow_events += 1;
        if self.overflow_events > self.cfg.overflow_reset_threshold {
            self.request_rgid_reset(ctx);
        }
    }

    fn on_rgid_reset(&mut self, ctx: &mut EngineCtx<'_>) {
        // Old-window generations can never be compared against the new
        // window; drop everything (streams captured after the reset
        // request but before the end-of-cycle application included).
        self.invalidate_all(ctx);
    }

    fn reuse_credit_latency(&self, op: Opcode, pipeline_estimate: u64) -> u64 {
        // Under load verification a reused load still re-executes (the
        // grant only unblocks dependents earlier, commit waits for the
        // verify), so the grant recovers no execution latency.
        if op == Opcode::Ld && self.cfg.mem_policy == MemCheckPolicy::LoadVerification {
            0
        } else {
            pipeline_estimate
        }
    }

    fn stats(&self) -> EngineStats {
        let mut s = self.stats.clone();
        s.valid_streams = self.valid_streams() as u64;
        s
    }

    fn reserved_hold_count(&self) -> u64 {
        // One hold per Squash Log entry still flagged `preg_held`:
        // `Stream::invalidate` releases its entries and clears the log,
        // and a grant flips the flag off as the hold transfers to the
        // new live mapping — so counting flags across all streams is
        // exactly the engine's outstanding reservations.
        self.streams.iter().flat_map(|s| s.log.iter()).filter(|e| e.preg_held).count() as u64
    }

    fn ckpt_save(&self, w: &mut CkptWriter) {
        // The engine configuration shapes the serialized state (stream
        // count, Bloom size) and the engine's future behaviour; guard it
        // the same way the simulator guards `SimConfig`.
        w.u64(fnv1a64(format!("{:?}", self.cfg).as_bytes()));
        w.u64(self.streams.len() as u64);
        for s in &self.streams {
            s.ckpt_save(w);
        }
        w.u64(self.next_stream as u64);
        match self.pending {
            None => w.bool(false),
            Some(p) => {
                w.bool(true);
                w.u64(p.stream as u64);
                w.u64(p.offset);
                w.pc(p.reconv_pc);
                w.u64(p.created_at);
            }
        }
        match self.active {
            None => w.bool(false),
            Some(a) => {
                w.bool(true);
                w.u64(a.stream as u64);
                w.u64(a.idx as u64);
            }
        }
        w.u64(self.renamed);
        w.u64(self.last_squash_id);
        w.seq(self.last_cause_seq);
        self.hazards.ckpt_save(w);
        w.u64(self.overflow_events);
        w.u64(self.commits);
        self.stats.ckpt_save(w);
    }

    fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        if r.u64()? != fnv1a64(format!("{:?}", self.cfg).as_bytes()) {
            return Err(CkptError::ConfigMismatch);
        }
        let n = r.seq_len(19)?;
        if n != self.streams.len() {
            return Err(CkptError::Corrupt(format!(
                "{n} streams in checkpoint, engine has {}",
                self.streams.len()
            )));
        }
        for s in &mut self.streams {
            *s = Stream::ckpt_load(r)?;
        }
        let stream_bound = |i: u64, what: &str| -> Result<usize, CkptError> {
            if (i as usize) < n {
                Ok(i as usize)
            } else {
                Err(CkptError::Corrupt(format!("{what} stream index {i} out of range")))
            }
        };
        self.next_stream = stream_bound(r.u64()?, "next")?;
        self.pending = if r.bool()? {
            Some(Pending {
                stream: stream_bound(r.u64()?, "pending")?,
                offset: r.u64()?,
                reconv_pc: r.pc()?,
                created_at: r.u64()?,
            })
        } else {
            None
        };
        self.active = if r.bool()? {
            Some(Active { stream: stream_bound(r.u64()?, "active")?, idx: r.u64()? as usize })
        } else {
            None
        };
        self.renamed = r.u64()?;
        self.last_squash_id = r.u64()?;
        self.last_cause_seq = r.seq()?;
        self.hazards.ckpt_load(r)?;
        self.overflow_events = r.u64()?;
        self.commits = r.u64()?;
        self.stats = EngineStats::ckpt_load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_isa::{ArchReg, Opcode};
    use mssr_sim::{BlockRange, FreeList, PhysReg, Rgid, SquashedInst};

    fn ctx<'a>(fl: &'a mut FreeList, reset: &'a mut bool) -> EngineCtx<'a> {
        EngineCtx {
            free_list: fl,
            stage: mssr_sim::StageCtx { cycle: 0, rob_size: 256 },
            rgid_reset_requested: reset,
        }
    }

    fn sq_inst(pc: u64, preg: usize, executed: bool) -> SquashedInst {
        SquashedInst {
            seq: SeqNum::new(pc / 4),
            pc: Pc::new(pc),
            op: Opcode::Add,
            dst: Some(mssr_sim::DstBinding {
                arch: ArchReg::A0,
                preg: PhysReg::new(preg),
                rgid: Rgid::new(1),
            }),
            src_rgids: [None, None],
            src_pregs: [None, None],
            executed,
            is_load: false,
            is_store: false,
            load_addr: None,
        }
    }

    fn event(id: u64, cause: u64, pcs: &[(u64, usize, bool)]) -> SquashEvent {
        SquashEvent {
            squash_id: id,
            cause_seq: SeqNum::new(cause),
            cause_pc: Pc::new(0xf00),
            redirect: Pc::new(0x2000),
            insts: pcs.iter().map(|&(pc, preg, ex)| sq_inst(pc, preg, ex)).collect(),
            frontend_blocks: vec![],
        }
    }

    /// A free list whose first 100 registers are live (retainable).
    fn freelist() -> FreeList {
        FreeList::new(256, 100)
    }

    #[test]
    fn capture_is_round_robin_and_reserves_executed_registers() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default().with_streams(2));
        e.on_mispredict_squash(
            &event(1, 10, &[(0x1000, 80, true), (0x1004, 81, false)]),
            &mut ctx(&mut fl, &mut reset),
        );
        assert_eq!(e.valid_streams(), 1);
        assert_eq!(fl.holds(PhysReg::new(80)), 2, "executed dst retained");
        assert_eq!(fl.holds(PhysReg::new(81)), 1, "unexecuted dst not retained");
        e.on_mispredict_squash(&event(2, 20, &[(0x3000, 82, true)]), &mut ctx(&mut fl, &mut reset));
        assert_eq!(e.valid_streams(), 2);
        // Third capture wraps to slot 0, releasing its previous holds.
        e.on_mispredict_squash(&event(3, 30, &[(0x5000, 83, true)]), &mut ctx(&mut fl, &mut reset));
        assert_eq!(e.valid_streams(), 2);
        assert_eq!(fl.holds(PhysReg::new(80)), 1, "replaced stream released its register");
        assert_eq!(fl.holds(PhysReg::new(83)), 2);
    }

    #[test]
    fn detection_prefers_the_most_recent_stream() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default().with_streams(2));
        // Both streams cover 0x1000..0x1004.
        e.on_mispredict_squash(
            &event(1, 10, &[(0x1000, 80, true), (0x1004, 81, true)]),
            &mut ctx(&mut fl, &mut reset),
        );
        e.on_mispredict_squash(
            &event(2, 20, &[(0x1000, 82, true), (0x1004, 83, true)]),
            &mut ctx(&mut fl, &mut reset),
        );
        let blk = PredBlock {
            range: BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1004) },
            cycle: 0,
        };
        e.on_block(&blk, &mut ctx(&mut fl, &mut reset));
        let s = ReuseEngine::stats(&e);
        assert_eq!(s.reconvergences, 1);
        assert_eq!(s.recon_simple, 1, "most recent stream is the redirecting squash's own");
        assert_eq!(s.stream_distance[0], 1, "distance 1");
    }

    #[test]
    fn detection_falls_back_to_older_streams() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default().with_streams(2));
        e.on_mispredict_squash(&event(1, 30, &[(0x1000, 80, true)]), &mut ctx(&mut fl, &mut reset));
        e.on_mispredict_squash(&event(2, 20, &[(0x3000, 81, true)]), &mut ctx(&mut fl, &mut reset));
        // Only the OLDER stream covers this block.
        let blk = PredBlock {
            range: BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1000) },
            cycle: 0,
        };
        e.on_block(&blk, &mut ctx(&mut fl, &mut reset));
        let s = ReuseEngine::stats(&e);
        assert_eq!(s.reconvergences, 1);
        assert_eq!(s.stream_distance[1], 1, "distance 2: one intermediate squash");
        // Stream 1's cause (seq 30) is younger than the redirecting
        // branch (seq 20): hardware-induced.
        assert_eq!(s.recon_hardware, 1);
    }

    #[test]
    fn software_induced_when_the_older_streams_branch_is_elder() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default().with_streams(2));
        e.on_mispredict_squash(&event(1, 10, &[(0x1000, 80, true)]), &mut ctx(&mut fl, &mut reset));
        e.on_mispredict_squash(&event(2, 20, &[(0x3000, 81, true)]), &mut ctx(&mut fl, &mut reset));
        let blk = PredBlock {
            range: BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1000) },
            cycle: 0,
        };
        e.on_block(&blk, &mut ctx(&mut fl, &mut reset));
        assert_eq!(ReuseEngine::stats(&e).recon_software, 1);
    }

    #[test]
    fn pressure_reclaim_drops_the_least_recent_stream() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default().with_streams(2));
        e.on_mispredict_squash(&event(1, 10, &[(0x1000, 80, true)]), &mut ctx(&mut fl, &mut reset));
        e.on_mispredict_squash(&event(2, 20, &[(0x3000, 81, true)]), &mut ctx(&mut fl, &mut reset));
        e.on_register_pressure(&mut ctx(&mut fl, &mut reset));
        assert_eq!(e.valid_streams(), 1);
        assert_eq!(fl.holds(PhysReg::new(80)), 1, "oldest stream reclaimed");
        assert_eq!(fl.holds(PhysReg::new(81)), 2, "newest stream survives");
        assert_eq!(ReuseEngine::stats(&e).pressure_reclaims, 1);
    }

    #[test]
    fn no_detection_while_a_pass_is_pending() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default());
        e.on_mispredict_squash(&event(1, 10, &[(0x1000, 80, true)]), &mut ctx(&mut fl, &mut reset));
        let blk = PredBlock {
            range: BlockRange { start: Pc::new(0x1000), end: Pc::new(0x1000) },
            cycle: 0,
        };
        e.on_block(&blk, &mut ctx(&mut fl, &mut reset));
        e.on_block(&blk, &mut ctx(&mut fl, &mut reset));
        assert_eq!(
            ReuseEngine::stats(&e).reconvergences,
            1,
            "detection pauses once a reconvergence is pending (§3.3.1)"
        );
    }

    #[test]
    fn rgid_reset_request_after_overflow_threshold() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default());
        e.on_mispredict_squash(&event(1, 10, &[(0x1000, 80, true)]), &mut ctx(&mut fl, &mut reset));
        for _ in 0..9 {
            e.on_rgid_overflow(&mut ctx(&mut fl, &mut reset));
        }
        assert!(reset, "more than 8 overflows requests a global reset");
        assert_eq!(e.valid_streams(), 0, "streams dropped with the request");
        assert_eq!(fl.holds(PhysReg::new(80)), 1, "holds released");
    }

    #[test]
    fn on_rgid_reset_drops_streams_captured_after_the_request() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default());
        for _ in 0..9 {
            e.on_rgid_overflow(&mut ctx(&mut fl, &mut reset));
        }
        // A squash lands in the same cycle, after the request.
        e.on_mispredict_squash(&event(1, 10, &[(0x1000, 80, true)]), &mut ctx(&mut fl, &mut reset));
        assert_eq!(e.valid_streams(), 1);
        // The pipeline applies the reset at end of cycle.
        e.on_rgid_reset(&mut ctx(&mut fl, &mut reset));
        assert_eq!(e.valid_streams(), 0, "old-window generations must not survive the reset");
        assert_eq!(fl.holds(PhysReg::new(80)), 1);
    }

    #[test]
    fn timeout_expires_unmatched_streams() {
        let mut fl = freelist();
        let mut reset = false;
        let mut e = MultiStreamReuse::new(MssrConfig::default().with_timeout(4));
        e.on_mispredict_squash(&event(1, 10, &[(0x1000, 80, true)]), &mut ctx(&mut fl, &mut reset));
        for i in 0..6u64 {
            let r = RenamedInst {
                seq: SeqNum::new(100 + i),
                pc: Pc::new(0x9000 + 4 * i),
                op: Opcode::Add,
                dst: None,
                reused: false,
            };
            e.on_renamed(&r, &mut ctx(&mut fl, &mut reset));
        }
        assert_eq!(e.valid_streams(), 0, "stream expired after the timeout");
        assert_eq!(ReuseEngine::stats(&e).timeouts, 1);
        assert_eq!(fl.holds(PhysReg::new(80)), 1);
    }
}
