//! The pipeline orchestrator: an execution-driven, cycle-level
//! out-of-order core.
//!
//! Each simulated cycle runs commit → writeback → issue → rename → fetch,
//! then applies at most one pipeline flush (the oldest discovered this
//! cycle). The stage passes themselves live in [`crate::stage`] as pure
//! functions over an explicit machine state; [`Simulator`] owns that
//! state (plus the engine, tracer, sampler, and per-cycle scratch
//! buffers) and sequences the passes. The frontend predicts and fetches
//! one prediction block per cycle; instructions travel through a latency
//! queue modelling the frontend depth before renaming. Wrong-path
//! instructions execute with real values — the property squash reuse
//! depends on.

use mssr_isa::{ArchReg, Pc, Program};

use crate::account::{Category, CycleAccount};
use crate::bpred::BranchPredictor;
use crate::check::{self, Violation};
use crate::ckpt::{self, CkptError};
use crate::config::SimConfig;
use crate::engine::{NoReuse, ReuseEngine};
use crate::interp::{arch_step, ArchKind, ArchState};
use crate::mem::{Hierarchy, MainMemory};
use crate::prof::{Prof, ProfBucket, ProfReport, StageStamp};
use crate::rename::{Prf, Rat};
use crate::sample::{Sample, Sampler};
use crate::stage::{self, ectx, MachineState, PendingFlush, Scratch};
use crate::stats::SimStats;
use crate::trace::{CkptAction, TraceEvent, TraceSink, Tracer};
use crate::types::{FlushKind, PhysReg, Rgid};

/// The simulator: one out-of-order core running one program.
///
/// A thin orchestrator over the stage passes in [`crate::stage`]: it owns
/// the machine state, the reuse engine, the tracer, the sampler, and the
/// per-cycle scratch buffers, and calls the stages in order from
/// [`Simulator::step`].
///
/// # Example
///
/// ```
/// use mssr_isa::{regs::*, Assembler};
/// use mssr_sim::{SimConfig, Simulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Assembler::new();
/// a.li(T0, 41);
/// a.addi(T0, T0, 1);
/// a.st(ZERO, T0, 0x100);
/// a.halt();
/// let mut sim = Simulator::new(SimConfig::default(), a.assemble()?);
/// let stats = sim.run();
/// assert_eq!(sim.read_mem_u64(0x100), 42);
/// assert_eq!(stats.committed_instructions, 4);
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    st: MachineState,
    engine: Box<dyn ReuseEngine>,
    tracer: Tracer,
    sampler: Sampler,
    scratch: Scratch,
    prof: Prof,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.st.cycle)
            .field("engine", &self.engine.name())
            .field("halted", &self.st.halted)
            .field("committed", &self.st.stats.committed_instructions)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator with the baseline [`NoReuse`] engine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig, program: Program) -> Simulator {
        Simulator::with_engine(cfg, program, Box::new(NoReuse))
    }

    /// Creates a simulator with a squash-reuse engine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn with_engine(
        cfg: SimConfig,
        program: Program,
        engine: Box<dyn ReuseEngine>,
    ) -> Simulator {
        cfg.validate().expect("invalid simulator configuration");
        Simulator {
            st: MachineState::new(cfg, program),
            engine,
            tracer: Tracer::default(),
            sampler: Sampler::new(0),
            scratch: Scratch::new(),
            prof: Prof::off(),
        }
    }

    /// Writes a 64-bit word into simulated memory (workload setup).
    pub fn write_mem_u64(&mut self, addr: u64, value: u64) {
        self.st.memory.write_u64(addr, value);
    }

    /// Reads a 64-bit word from simulated memory (result inspection).
    pub fn read_mem_u64(&self, addr: u64) -> u64 {
        self.st.memory.read_u64(addr)
    }

    /// Injects an external snoop request (multicore load-to-load hazard
    /// stimulus, §3.8.2).
    ///
    /// The reuse engine is notified (so squashed-load reuse candidates
    /// are poisoned), and — as in the XiangShan-style LSQ the paper
    /// assumes — any speculatively executed, uncommitted load to the
    /// snooped address is scheduled for replay at the end of the next
    /// cycle, since its value may no longer be coherent.
    pub fn inject_snoop(&mut self, addr: u64) {
        let st = &mut self.st;
        st.stats.snoops += 1;
        self.engine.on_snoop(addr, &mut ectx!(st));
        let victim = st
            .lsq
            .loads()
            .filter(|l| l.issued && l.addr.is_some_and(|a| a >> 3 == addr >> 3))
            .map(|l| l.seq)
            .min();
        if let Some(seq) = victim {
            if let Some(e) = st.rob.get(seq) {
                st.pending_flushes.push(PendingFlush {
                    first_squashed: seq,
                    redirect: e.pc,
                    kind: FlushKind::MemoryOrder,
                    cause_seq: seq,
                    cause_pc: e.pc,
                });
            }
        }
    }

    /// Whether the program has retired its `halt` (or hit a bound).
    pub fn is_halted(&self) -> bool {
        self.st.halted
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.st.cycle
    }

    /// The active engine's name.
    pub fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    /// Frontend snapshot for state dumps: fetch PC and in-flight count.
    pub(crate) fn frontend_state(&self) -> (Option<Pc>, usize) {
        (self.st.fetch_pc, self.st.frontend_q.len())
    }

    /// ROB snapshot for state dumps: occupancy, capacity, head summary.
    pub(crate) fn rob_state(&self) -> (usize, usize, Option<String>) {
        (
            self.st.rob.len(),
            self.st.rob.capacity(),
            self.st.rob.head().map(|e| format!("{} {} ({})", e.seq, e.pc, e.inst)),
        )
    }

    /// Allocatable physical registers.
    ///
    /// After a halted run with an empty pipeline, every transient hold
    /// (in-flight destinations, engine stream reservations that were
    /// ruled out) must have been released, so this is the basis of the
    /// free-list conservation tests: a reuse engine may never leak a
    /// physical register.
    pub fn free_phys_regs(&self) -> usize {
        self.st.free_list.available()
    }

    /// The committed architectural value of register `a` (read through
    /// the RAT into the physical register file). Meaningful once the
    /// pipeline has drained (e.g. after `run()` halts); used by the
    /// cross-engine equivalence tests to compare final register state.
    pub fn read_arch_reg(&self, a: ArchReg) -> u64 {
        self.st.prf.read(self.st.rat.lookup(a))
    }

    /// Current mapping of an architectural register.
    pub(crate) fn rat_entry(&self, a: ArchReg) -> (PhysReg, Rgid) {
        (self.st.rat.lookup(a), self.st.rat.rgid(a))
    }

    /// Attaches a trace sink recording the event kinds in `mask` (a
    /// bitwise OR of [`TraceKind::bit`](crate::TraceKind::bit) values;
    /// `!0` records every kind): from the next cycle on, every such
    /// pipeline event is recorded into it (see [`TraceEvent`] for the
    /// schema). Replaces any previously attached sink.
    ///
    /// A sink attached at a fast-forward boundary — after
    /// [`Simulator::fast_forward`], or after restoring a snapshot taken
    /// there, before any detailed cycle — first receives the boundary's
    /// `ffwd` [`TraceEvent::Ckpt`] event, so it records the same stream
    /// as a sink attached before the fast-forward.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>, mask: u64) {
        self.tracer.set_sink(sink);
        self.tracer.set_mask(mask);
        if self.st.cycle == 0 && self.st.stats.ffwd_insts > 0 {
            self.tracer.emit(TraceEvent::Ckpt {
                cycle: 0,
                action: CkptAction::Ffwd,
                insts: self.st.stats.ffwd_insts,
            });
        }
    }

    /// Enables interval sampling: every `interval` cycles a [`Sample`] of
    /// statistics deltas is emitted as a [`TraceEvent::Sample`] if a
    /// trace sink is attached. `0` (the default) disables sampling.
    /// Resets the delta baseline, so the next sample counts from zero.
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.sampler = Sampler::new(interval);
    }

    /// The CPI-stack account accumulated so far (see [`crate::account`]).
    pub fn account(&self) -> &CycleAccount {
        &self.st.account
    }

    /// Corrupts the CPI-stack account by one slot. Test-only hook used by
    /// the invariant suite to prove the conservation rule trips; never
    /// call it anywhere else.
    #[doc(hidden)]
    pub fn corrupt_account_for_test(&mut self) {
        self.st.account.slots[Category::Base.index()] += 1;
    }

    /// Runs until `halt` retires or a configured bound is reached,
    /// returning the final statistics.
    pub fn run(&mut self) -> SimStats {
        while !self.st.halted && self.st.cycle < self.st.cfg.max_cycles {
            self.step();
        }
        self.stats()
    }

    /// Runs at most `n` cycles (stops early on halt).
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            if self.st.halted || self.st.cycle >= self.st.cfg.max_cycles {
                break;
            }
            self.step();
        }
    }

    /// The [`SimStats`] counters [`Simulator::stats`] recomposes from the
    /// cycle counter and the cache hierarchy; the pipeline's own copies
    /// stay zero, and the machine checkpoint skips them.
    pub(crate) const RECOMPOSED: [&'static str; 5] =
        ["cycles", "l1_hits", "l1_misses", "l2_hits", "l2_misses"];

    /// A statistics snapshot (cheap; can be taken mid-run).
    pub fn stats(&self) -> SimStats {
        let mut s = self.st.stats.clone();
        s.cycles = self.st.cycle;
        s.l1_hits = self.st.hier.l1.hits();
        s.l1_misses = self.st.hier.l1.misses();
        s.l2_hits = self.st.hier.l2.hits();
        s.l2_misses = self.st.hier.l2.misses();
        s.engine = self.engine.stats();
        s.account = self.st.account;
        // RGID overflow/reset accounting is authoritative on the pipeline
        // side (it owns the counters); engines need not track it.
        s.engine.rgid_overflows = self.st.rgid_overflows_total;
        s.engine.rgid_resets = self.st.rgid_resets_total;
        s
    }

    /// Advances the simulation by one cycle: the stage passes in order,
    /// then flush arbitration, the RGID reset, accounting, and (in debug
    /// builds) the invariant sweep.
    ///
    /// When self-profiling is armed ([`Simulator::set_profiling`]) and
    /// this cycle falls on the sampling stride, the clock is read
    /// between stage passes and the deltas accumulate in the profiler —
    /// the stages themselves run identically either way.
    pub fn step(&mut self) {
        if self.st.bpred.feed_pending() {
            self.install_oracle_feed(0);
        }
        let mut stamp = self.prof.cycle_due(self.st.cycle).then(StageStamp::start);
        self.step_inner(&mut stamp);
        if let Some(s) = stamp {
            self.prof.absorb(&s);
        }
    }

    /// Computes and installs the architectural branch stream the
    /// oracle-fed predictors read (see [`crate::bpred::OracleFeed`]).
    ///
    /// Deferred to the first cycle (or fast-forward) rather than done at
    /// construction because workload memory images are written *after*
    /// `Simulator::new`; by the first step the initial state is final.
    /// The replay is bounded by every instruction the run can consume:
    /// `extra` not-yet-counted instructions (the fast-forward span when
    /// called from there), plus the committed-instruction bound, capped
    /// by the cycle bound times the commit width, plus slack for
    /// in-flight fetch runahead. Restored simulators never recompute the
    /// feed — it rides the checkpoint, because a mid-run restore no
    /// longer has the initial memory image to replay from.
    fn install_oracle_feed(&mut self, extra: u64) {
        const FEED_SLACK: u64 = 65_536;
        let cfg = &self.st.cfg;
        let bound = cfg
            .max_insts
            .min(cfg.max_cycles.saturating_mul(cfg.commit_width as u64))
            .saturating_add(FEED_SLACK)
            .saturating_add(extra);
        let feed = crate::bpred::OracleFeed::compute(&self.st.program, &self.st.memory, bound);
        self.st.bpred.install_feed(feed);
    }

    fn step_inner(&mut self, stamp: &mut Option<StageStamp>) {
        fn mark(stamp: &mut Option<StageStamp>, bucket: ProfBucket) {
            if let Some(s) = stamp {
                s.mark(bucket);
            }
        }
        let (committed, blame) =
            stage::commit::run(&mut self.st, self.engine.as_mut(), &mut self.tracer);
        mark(stamp, ProfBucket::Commit);
        if self.st.halted {
            // The final partial cycle (the one that retired `halt` or hit
            // an instruction bound) is never counted — neither in the
            // cycle counter nor in the account — which keeps the
            // conservation law `sum(slots) == cycles × commit_width`
            // exact.
            return;
        }
        stage::execute::writeback(&mut self.st, &mut self.tracer);
        mark(stamp, ProfBucket::Execute);
        stage::issue::run(&mut self.st, self.engine.as_mut(), &mut self.tracer, &mut self.scratch);
        mark(stamp, ProfBucket::Issue);
        stage::rename::run(&mut self.st, self.engine.as_mut(), &mut self.tracer);
        mark(stamp, ProfBucket::Rename);
        stage::fetch::run(&mut self.st, self.engine.as_mut(), &mut self.tracer);
        mark(stamp, ProfBucket::Fetch);
        stage::squash::handle_flushes(
            &mut self.st,
            self.engine.as_mut(),
            &mut self.tracer,
            &mut self.scratch,
        );
        stage::squash::apply_rgid_reset(&mut self.st, self.engine.as_mut());
        mark(stamp, ProfBucket::Squash);
        self.st.account.accrue(committed, blame, self.st.cfg.commit_width as u64);
        self.st.cycle += 1;
        if self.sampler.due(self.st.cycle) {
            self.take_sample();
        }
        #[cfg(debug_assertions)]
        {
            let stride = check::check_stride();
            if stride > 0 && self.st.cycle.is_multiple_of(stride) {
                check::assert_sweep(&self.st, self.engine.as_ref(), &mut self.scratch);
            }
        }
    }

    /// Arms the self-profiler: one cycle in every `stride` is stamped
    /// per-stage, and the checkpoint/fast-forward paths are timed
    /// whole-call (see [`crate::prof`]). `0` (the default) disables it.
    /// Resets anything previously accumulated.
    ///
    /// Profiling is strictly out-of-band: simulation results, traces,
    /// and checkpoints are byte-identical with it on or off.
    pub fn set_profiling(&mut self, stride: u64) {
        self.prof.set_stride(stride);
    }

    /// A snapshot of the wall-clock profile accumulated since
    /// [`Simulator::set_profiling`] (all zeros when profiling is off).
    pub fn profile_report(&self) -> ProfReport {
        self.prof.report()
    }

    fn take_sample(&mut self) {
        let cumulative = Sample {
            cycle: self.st.cycle,
            insts: self.st.stats.committed_instructions,
            mispredicts: self.st.stats.mispredictions,
            squashed: self.st.stats.squashed_instructions,
            grants: self.st.grants_total,
            l1_misses: self.st.hier.l1.misses(),
            squash_slots: self.st.account.get(Category::SquashBranch),
        };
        let delta = self.sampler.record(cumulative);
        self.tracer.emit(TraceEvent::Sample(delta));
    }

    /// Sweeps the full machine state against every invariant
    /// [`Rule`](crate::check::Rule), returning all violations found
    /// (empty for a healthy pipeline).
    ///
    /// Debug builds run this every cycle (see `MSSR_CHECK_STRIDE` on
    /// [`check::check_stride`]) and after every squash, panicking on the
    /// first violation; the sweep itself is available in every build for
    /// tests and tools.
    pub fn invariant_violations(&self) -> Vec<Violation> {
        check::machine_violations(&self.st, self.engine.as_ref())
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore / functional fast-forward
    // ------------------------------------------------------------------

    /// Read access to the branch predictor (warmup-fidelity inspection).
    pub fn bpred(&self) -> &BranchPredictor {
        &self.st.bpred
    }

    /// Read access to the cache hierarchy (warmup-fidelity inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.st.hier
    }

    /// Serializes the complete simulation state — architectural and
    /// microarchitectural, in-flight instructions included — into a
    /// versioned, checksummed envelope (see [`crate::ckpt`]). The
    /// pipeline is captured exactly as it stands, never drained, so a
    /// restored simulator continues bit-identically: same cycle counts,
    /// same statistics, same trace from the restore point onward. Only
    /// the machine is captured, never the observers: the trace sink,
    /// mask and event counters and the sampler are the restoring
    /// simulator's own.
    ///
    /// Instructions are stored by PC and re-fetched from the program at
    /// restore, guarded by a program identity hash in the payload.
    pub fn snapshot(&self) -> Vec<u8> {
        let t0 = self.prof.begin();
        let bytes = ckpt::machine::save(&self.st, self.engine.as_ref());
        self.prof.finish(ProfBucket::Ckpt, t0);
        bytes
    }

    /// Restores a snapshot taken by [`Simulator::snapshot`] over this
    /// simulator, which must have been constructed with the same
    /// configuration, program, and engine (checked via identity hashes
    /// in the payload — mismatches are rejected before any state is
    /// touched, as are all envelope corruptions).
    ///
    /// The observers are left as they were: an attached trace sink
    /// keeps its mask and counters and records one `restore`
    /// [`TraceEvent::Ckpt`] event, and the sampler keeps its interval
    /// and delta baseline.
    ///
    /// On a mid-payload [`CkptError::Corrupt`] the simulator may be
    /// partially overwritten and must be discarded; no error path leaves
    /// a *silently* inconsistent simulator.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let t0 = self.prof.begin();
        let r = ckpt::machine::restore(&mut self.st, self.engine.as_mut(), bytes);
        self.prof.finish(ProfBucket::Ckpt, t0);
        r?;
        self.tracer.emit(TraceEvent::Ckpt {
            cycle: self.st.cycle,
            action: CkptAction::Restore,
            insts: self.st.stats.committed_instructions,
        });
        Ok(())
    }

    /// Functionally fast-forwards `n` instructions through the shared
    /// architectural step ([`crate::interp`]'s `arch_step` — the same
    /// semantics the interpreter oracle runs), warming the branch
    /// predictor and cache hierarchy along the way, then positions the
    /// fetch unit so detailed simulation resumes at the next PC. Returns
    /// the number of instructions actually executed (fewer than `n` only
    /// when the program halts or leaves its image first).
    ///
    /// Warming fidelity: conditional-branch state (bimodal, TAGE tables,
    /// global history) is updated exactly as a detailed run's commit
    /// stream would, so it matches a drained cycle-accurate run
    /// bit-for-bit; the RAS, BTB, and caches see the *architectural*
    /// stream only, so they diverge from a detailed run by its wrong-path
    /// accesses (pinned in the warmup-fidelity tests).
    ///
    /// The executed instructions are reported as
    /// [`SimStats::ffwd_insts`] / [`SimStats::skipped_cycles`] — they do
    /// not count as committed, so IPC measures the detailed region only.
    ///
    /// # Panics
    ///
    /// Panics unless the simulator is pristine (no cycles simulated, no
    /// instructions renamed): fast-forward replaces the start of the
    /// run, it cannot splice into the middle of one.
    pub fn fast_forward(&mut self, n: u64) -> u64 {
        self.fast_forward_inner(n, None)
    }

    /// Like [`Simulator::fast_forward`], but feeding every executed
    /// instruction into a [`BbvCollector`](crate::bbv::BbvCollector) —
    /// the SimPoint analysis pass. The collector observes the PC of each
    /// instruction and whether it ends a basic block (any control
    /// transfer, or `halt`); warming and stop conditions are identical
    /// to the plain fast-forward, and the plain path pays nothing for
    /// the hook.
    ///
    /// # Panics
    ///
    /// As [`Simulator::fast_forward`].
    pub fn fast_forward_collect(&mut self, n: u64, bbv: &mut crate::bbv::BbvCollector) -> u64 {
        self.fast_forward_inner(n, Some(bbv))
    }

    fn fast_forward_inner(
        &mut self,
        n: u64,
        mut bbv: Option<&mut crate::bbv::BbvCollector>,
    ) -> u64 {
        let bucket = if bbv.is_some() { ProfBucket::Bbv } else { ProfBucket::Ffwd };
        let t0 = self.prof.begin();
        if self.st.bpred.feed_pending() {
            self.install_oracle_feed(n);
        }
        let st = &mut self.st;
        assert!(
            st.cycle == 0 && st.next_seq == 1 && st.stats.committed_instructions == 0,
            "fast_forward requires a pristine simulator"
        );
        let mut pc = st.program.base();
        let mut executed = 0u64;
        while executed < n {
            let Some(&inst) = st.program.fetch(pc) else {
                break; // left the program image; resume detailed fetch here
            };
            let mut fst = FfwdState { rat: &st.rat, prf: &mut st.prf, memory: &mut st.memory };
            let out = arch_step(&st.program, pc, &mut fst).expect("fetch checked above");
            executed += 1;
            if let Some(c) = bbv.as_deref_mut() {
                c.step(pc.addr(), inst.is_control() || out.next.is_none());
            }
            match out.kind {
                // The detailed lifecycle (predict, recover on
                // mispredict, train at commit) in one call.
                ArchKind::Cond { taken } => st.bpred.warm_cond(pc, taken),
                ArchKind::Jalr { target } => {
                    // Probe before updating: a pure read for the
                    // table-based predictors (so the default kinds stay
                    // byte-identical), a cursor consume for the oracle
                    // indirect predictor, keeping its feed aligned with
                    // the architectural jalr stream.
                    let _ = st.bpred.predict_indirect(pc);
                    st.bpred.update_indirect(pc, target);
                }
                ArchKind::Load { addr } | ArchKind::Store { addr } => {
                    let _ = st.hier.access(addr);
                }
                ArchKind::Plain => {}
            }
            if inst.is_call() {
                st.bpred.ras_push(pc.next());
            } else if inst.is_return() {
                let _ = st.bpred.ras_pop();
            }
            match out.next {
                Some(next) => pc = next,
                None => {
                    st.halted = true;
                    break;
                }
            }
        }
        st.fetch_pc = if st.halted { None } else { Some(pc) };
        st.stats.ffwd_insts += executed;
        st.stats.skipped_cycles += executed;
        self.tracer.emit(TraceEvent::Ckpt {
            cycle: self.st.cycle,
            action: CkptAction::Ffwd,
            insts: executed,
        });
        self.prof.finish(bucket, t0);
        executed
    }

    /// Runs until at least `n` instructions have committed (or halt /
    /// the cycle bound). Used by the harness to place checkpoints at
    /// instruction-count boundaries.
    pub fn run_until_insts(&mut self, n: u64) {
        while !self.st.halted
            && self.st.cycle < self.st.cfg.max_cycles
            && self.st.stats.committed_instructions < n
        {
            self.step();
        }
    }
}

/// The RAT/PRF/memory of a pristine pipeline as an [`ArchState`]: reads
/// and writes go through the identity rename mapping, so the fast-forward
/// leaves the architectural values exactly where the detailed pipeline
/// expects them.
struct FfwdState<'a> {
    rat: &'a Rat,
    prf: &'a mut Prf,
    memory: &'a mut MainMemory,
}

impl ArchState for FfwdState<'_> {
    fn reg(&self, a: ArchReg) -> u64 {
        self.prf.read(self.rat.lookup(a))
    }

    fn set_reg(&mut self, a: ArchReg, v: u64) {
        self.prf.write(self.rat.lookup(a), v)
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

#[cfg(test)]
mod tests {
    use mssr_isa::{regs::*, Assembler};

    use super::*;
    use crate::bpred::BpredKind;
    use crate::ckpt::{seal, CkptWriter};

    /// The RAS counter and the oracle cursors are recovery tokens, not
    /// indices: a checkpoint that hands them `u64::MAX` restores, and
    /// the run wraps past it to halt (debug builds would panic on an
    /// unchecked `+ 1`).
    #[test]
    fn saturated_recovery_tokens_in_a_checkpoint_run_to_halt() {
        let mut a = Assembler::new();
        a.li(S0, 0);
        a.li(S1, 200);
        a.label("loop");
        a.call("f");
        a.addi(S0, S0, 1);
        a.blt(S0, S1, "loop");
        a.st(ZERO, S2, 0x200);
        a.halt();
        a.label("f");
        a.addi(S2, S2, 2);
        a.ret();
        let program = a.assemble().expect("assembles");
        for kind in [BpredKind::Tage, BpredKind::Oracle] {
            let cfg = SimConfig::default().with_max_cycles(100_000).with_bpred(kind);
            // Several snapshot points, so some restored run pushes onto
            // the patched counter before a squash restores an older one.
            for at_cycle in (20..200).step_by(9) {
                let mut sim = Simulator::new(cfg.clone(), program.clone());
                sim.run_cycles(at_cycle);
                assert!(!sim.is_halted(), "{kind}: the snapshot must be taken mid-run");
                let bytes = sim.snapshot();
                let mut w = CkptWriter::new();
                sim.st.bpred.ckpt_save(&mut w);
                let section = w.finish();
                let mut payload = bytes[20..bytes.len() - 8].to_vec();
                let at = payload
                    .windows(section.len())
                    .position(|win| win == section)
                    .expect("the predictor section is in the payload");
                // The patched counters' offsets in the predictor's
                // section: the oracle's conditional and indirect cursors
                // follow the kind tag; the RAS counter sits before the
                // one-byte "no feed" flag.
                let offsets = match kind {
                    BpredKind::Oracle => vec![1, 9],
                    _ => vec![section.len() - 9],
                };
                for off in offsets {
                    payload[at + off..at + off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                }
                let mut back = Simulator::new(cfg.clone(), program.clone());
                back.restore(&seal(&payload)).expect("every counter value is a legal state");
                assert_eq!(back.bpred().ras_sp(), u64::MAX, "{kind}: the patched token restored");
                back.run();
                assert!(back.is_halted(), "{kind}@{at_cycle}: the restored run halts");
                assert_eq!(
                    back.read_mem_u64(0x200),
                    400,
                    "{kind}@{at_cycle}: architectural result"
                );
            }
        }
    }
}
