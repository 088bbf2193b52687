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
use crate::sample::{Sample, SampleRing, Sampler, DEFAULT_RING_CAPACITY};
use crate::stage::{self, ectx, MachineState, PendingFlush, Scratch};
use crate::stats::SimStats;
use crate::trace::{CkptAction, TraceEvent, TraceKind, TraceSink, Tracer};
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
            sampler: Sampler::new(0, DEFAULT_RING_CAPACITY),
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

    /// Attaches a trace sink: from the next cycle on, every pipeline
    /// event is recorded into it (see [`TraceEvent`] for the schema).
    /// Replaces — and flushes — any previously attached sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.set_sink(sink);
    }

    /// Detaches and flushes the trace sink, if any. Event counters keep
    /// their values, so [`Simulator::stats`] still reports `trace_*`.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.take_sink()
    }

    /// Enables interval sampling: every `interval` cycles a [`Sample`] of
    /// statistics deltas is recorded into the sample ring and emitted as
    /// a [`TraceEvent::Sample`] if a trace sink is attached. `0` (the
    /// default) disables sampling. Resets any previously recorded
    /// samples.
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.sampler = Sampler::new(interval, DEFAULT_RING_CAPACITY);
    }

    /// The interval samples recorded so far (empty unless
    /// [`Simulator::set_sample_interval`] enabled sampling).
    pub fn samples(&self) -> &SampleRing {
        self.sampler.ring()
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
        if self.tracer.active() {
            for k in TraceKind::ALL {
                *s.engine.extra_mut(&format!("trace_{}", k.name())) = self.tracer.count(k);
            }
        }
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
    /// same statistics, same trace from the restore point onward.
    ///
    /// Instructions are stored by PC and re-fetched from the program at
    /// restore, guarded by a program identity hash in the payload.
    pub fn snapshot(&self) -> Vec<u8> {
        let t0 = self.prof.begin();
        let bytes =
            ckpt::machine::save(&self.st, self.engine.as_ref(), &self.sampler, &self.tracer);
        self.prof.finish(ProfBucket::Ckpt, t0);
        bytes
    }

    /// Restores a snapshot taken by [`Simulator::snapshot`] over this
    /// simulator, which must have been constructed with the same
    /// configuration, program, and engine (checked via identity hashes
    /// in the payload — mismatches are rejected before any state is
    /// touched, as are all envelope corruptions).
    ///
    /// On a mid-payload [`CkptError::Corrupt`] the simulator may be
    /// partially overwritten and must be discarded; no error path leaves
    /// a *silently* inconsistent simulator.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CkptError> {
        let t0 = self.prof.begin();
        let r = ckpt::machine::restore(
            &mut self.st,
            self.engine.as_mut(),
            &mut self.sampler,
            &mut self.tracer,
            bytes,
        );
        self.prof.finish(ProfBucket::Ckpt, t0);
        r
    }

    /// Re-arms event tracing after restoring a *fast-forward boundary*
    /// snapshot into a run whose trace configuration differs from the
    /// donor's (the serve path shares boundary snapshots across
    /// sampling modes). The checkpoint envelope restores the donor's
    /// trace mask and per-kind counters ([`Tracer`] state) — correct
    /// when resuming the same run, wrong for a recipient that filters
    /// different kinds: without this, a sample-masked run restored from
    /// an unmasked donor records the full event firehose. This zeroes
    /// the counters, installs `mask`, and re-emits the fast-forward
    /// `Ckpt` event a cold run would have produced under the recipient's
    /// own sink and mask, making statistics and event stream
    /// byte-identical to a cold run of this configuration.
    ///
    /// # Panics
    ///
    /// Panics when detailed cycles have already been simulated: mid-run
    /// restores carry event counters that cannot be reconstructed, so
    /// they may only resume under the donor's own configuration.
    pub fn rearm_tracing(&mut self, mask: u64) {
        assert!(
            self.st.cycle == 0,
            "rearm_tracing is only valid at a fast-forward boundary (cycle {})",
            self.st.cycle
        );
        self.tracer.reset_counts();
        self.tracer.set_mask(mask);
        if self.st.stats.ffwd_insts > 0 {
            self.tracer.emit(TraceEvent::Ckpt {
                cycle: self.st.cycle,
                action: CkptAction::Ffwd,
                insts: self.st.stats.ffwd_insts,
            });
        }
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
