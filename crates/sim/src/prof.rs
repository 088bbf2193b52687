//! Self-profiling: where does *host* wall-clock go?
//!
//! The simulator can account every simulated cycle (CPI stacks, traces,
//! invariant sweeps) but is otherwise blind to its own cost. This module
//! attributes host time to the pipeline stages — fetch, rename, issue,
//! execute, commit, squash — plus the three out-of-pipeline paths
//! (checkpoint save/restore, functional fast-forward, and the
//! BBV-collecting fast-forward) so `mssr-report --profile` can answer
//! "which stage is the hot loop spending its time in?".
//!
//! # Sampling, not tracing
//!
//! Stamping [`Instant::now`] between every stage of every cycle would
//! roughly double the cost of short stages. Instead the profiler stamps
//! one cycle in every `stride` ([`DEFAULT_STRIDE`] unless overridden):
//! a profiled cycle takes seven monotonic-clock reads, every other cycle
//! pays a single predictable branch. Stage *shares* converge quickly
//! because the sampled cycles are an unbiased-enough systematic sample
//! of the run; absolute per-stage times are extrapolations and are
//! reported as shares, not totals. The out-of-pipeline buckets (ckpt /
//! ffwd / bbv) are whole-call measurements, not samples — they are rare
//! and long, so stamping them is free.
//!
//! # Why it cannot perturb determinism
//!
//! The profiler is strictly out-of-band: it owns its own counters, never
//! reads or writes [`MachineState`](crate::stage::MachineState), the
//! tracer, the sampler, or the statistics, and nothing in the simulation
//! branches on it. Checkpoints don't serialize it (the envelope captures
//! machine state and engine only), trajectories don't
//! embed it (the harness emits profile records on stderr), and the
//! stage functions themselves are unchanged — the orchestrator merely
//! reads the clock between calls. Trajectories, traces, and checkpoints
//! are therefore byte-identical with profiling on or off; the
//! determinism suite pins this.
//!
//! Host-time measurements are machine-dependent by nature, so they live
//! outside every determinism contract.

use std::cell::Cell;
use std::time::Instant;

/// Default sampling stride: one cycle in 64 is stamped.
pub const DEFAULT_STRIDE: u64 = 64;

/// One wall-clock attribution bucket.
///
/// The first six are pipeline stages sampled per-`stride` cycles; the
/// last three are whole-call timings of the out-of-pipeline paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfBucket {
    /// Frontend prediction + fetch.
    Fetch,
    /// Rename/dispatch (including reuse-engine queries).
    Rename,
    /// Issue/select from the reservation stations.
    Issue,
    /// Execute + writeback.
    Execute,
    /// In-order retire.
    Commit,
    /// Flush arbitration, ROB-walk recovery, RGID reset.
    Squash,
    /// Checkpoint snapshot/restore (whole call).
    Ckpt,
    /// Functional fast-forward (whole call).
    Ffwd,
    /// BBV-collecting fast-forward (whole call).
    Bbv,
}

impl ProfBucket {
    /// Number of buckets (array sizes below).
    pub const COUNT: usize = 9;

    /// Every bucket, in report order: pipeline stages first, then the
    /// out-of-pipeline paths.
    pub const ALL: [ProfBucket; ProfBucket::COUNT] = [
        ProfBucket::Fetch,
        ProfBucket::Rename,
        ProfBucket::Issue,
        ProfBucket::Execute,
        ProfBucket::Commit,
        ProfBucket::Squash,
        ProfBucket::Ckpt,
        ProfBucket::Ffwd,
        ProfBucket::Bbv,
    ];

    /// The bucket's stable name, used in the harness profile record and
    /// the report table.
    pub fn name(self) -> &'static str {
        match self {
            ProfBucket::Fetch => "fetch",
            ProfBucket::Rename => "rename",
            ProfBucket::Issue => "issue",
            ProfBucket::Execute => "execute",
            ProfBucket::Commit => "commit",
            ProfBucket::Squash => "squash",
            ProfBucket::Ckpt => "ckpt",
            ProfBucket::Ffwd => "ffwd",
            ProfBucket::Bbv => "bbv",
        }
    }

    /// Index into [`ProfBucket::COUNT`]-sized arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the bucket holds sampled pipeline-stage time (one cycle
    /// in `stride` stamped) rather than whole-call time.
    pub fn sampled(self) -> bool {
        !matches!(self, ProfBucket::Ckpt | ProfBucket::Ffwd | ProfBucket::Bbv)
    }
}

/// The profiler state owned by a `Simulator`.
///
/// Interior-mutable (`Cell`) so the read-only paths — notably
/// `Simulator::snapshot(&self)` — can record without widening their
/// receivers. A `Simulator` is single-threaded, so `Cell` costs nothing.
#[derive(Debug, Default)]
pub struct Prof {
    stride: u64,
    sampled_cycles: Cell<u64>,
    ns: [Cell<u64>; ProfBucket::COUNT],
}

impl Prof {
    /// A disabled profiler (stride 0): `cycle_due` is one branch,
    /// `begin` returns `None`, nothing accumulates.
    pub fn off() -> Prof {
        Prof::default()
    }

    /// Enables stamping of one cycle in every `stride` (0 disables) and
    /// resets all accumulators.
    pub fn set_stride(&mut self, stride: u64) {
        *self = Prof { stride, ..Prof::default() };
    }

    /// Whether profiling is enabled at all.
    pub fn enabled(&self) -> bool {
        self.stride != 0
    }

    /// Whether this cycle is one of the stamped samples.
    #[inline]
    pub fn cycle_due(&self, cycle: u64) -> bool {
        self.stride != 0 && cycle.is_multiple_of(self.stride)
    }

    /// Starts a whole-call measurement (`None` when profiling is off).
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.enabled().then(Instant::now)
    }

    /// Closes a [`Prof::begin`] measurement into `bucket`.
    pub fn finish(&self, bucket: ProfBucket, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let cell = &self.ns[bucket.index()];
            cell.set(cell.get() + t0.elapsed().as_nanos() as u64);
        }
    }

    /// Folds one stamped cycle's stage deltas into the accumulators.
    pub fn absorb(&self, stamp: &StageStamp) {
        self.sampled_cycles.set(self.sampled_cycles.get() + 1);
        for (cell, ns) in self.ns.iter().zip(stamp.ns) {
            cell.set(cell.get() + ns);
        }
    }

    /// A plain-data snapshot of everything accumulated so far.
    pub fn report(&self) -> ProfReport {
        let mut ns = [0u64; ProfBucket::COUNT];
        for (out, cell) in ns.iter_mut().zip(&self.ns) {
            *out = cell.get();
        }
        ProfReport { stride: self.stride, sampled_cycles: self.sampled_cycles.get(), ns }
    }
}

/// Per-stage wall-clock deltas of one stamped cycle, accumulated on the
/// stack (no allocation in the hot loop) and folded into [`Prof`] by
/// [`Prof::absorb`] once the cycle completes.
#[derive(Debug)]
pub struct StageStamp {
    last: Instant,
    ns: [u64; ProfBucket::COUNT],
}

impl StageStamp {
    /// Starts stamping: the next [`StageStamp::mark`] measures from now.
    pub fn start() -> StageStamp {
        StageStamp { last: Instant::now(), ns: [0; ProfBucket::COUNT] }
    }

    /// Attributes the time since the previous mark (or start) to
    /// `bucket` and restarts the clock.
    #[inline]
    pub fn mark(&mut self, bucket: ProfBucket) {
        let now = Instant::now();
        self.ns[bucket.index()] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }
}

/// Accumulated profile as plain data: what the harness serializes into a
/// `{"type":"profile",...}` stderr record and `mssr-report --profile`
/// renders as stage shares.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfReport {
    /// Sampling stride the pipeline stages were stamped at (0 = off).
    pub stride: u64,
    /// How many cycles were stamped.
    pub sampled_cycles: u64,
    /// Accumulated nanoseconds per bucket, indexed by
    /// [`ProfBucket::index`]. Stage buckets hold sampled time; the
    /// ckpt/ffwd/bbv buckets hold whole-call time.
    pub ns: [u64; ProfBucket::COUNT],
}

impl ProfReport {
    /// Nanoseconds attributed to `bucket`.
    pub fn get(&self, bucket: ProfBucket) -> u64 {
        self.ns[bucket.index()]
    }

    /// Estimated whole-run nanoseconds of `bucket`: sampled stage time
    /// scaled by the stride, whole-call time as recorded.
    pub fn est_ns(&self, bucket: ProfBucket) -> u64 {
        if bucket.sampled() {
            self.get(bucket).saturating_mul(self.stride.max(1))
        } else {
            self.get(bucket)
        }
    }

    /// Estimated whole-run nanoseconds across every bucket (the share
    /// denominator).
    pub fn est_total_ns(&self) -> u64 {
        ProfBucket::ALL.iter().fold(0u64, |acc, &b| acc.saturating_add(self.est_ns(b)))
    }

    /// Folds another report into this one (SimPoint runs profile each
    /// representative separately and merge).
    pub fn merge(&mut self, other: &ProfReport) {
        if self.stride == 0 {
            self.stride = other.stride;
        }
        self.sampled_cycles += other.sampled_cycles;
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_profiler_never_fires_and_reports_zero() {
        let p = Prof::off();
        assert!(!p.enabled());
        assert!(!p.cycle_due(0));
        assert!(!p.cycle_due(64));
        assert!(p.begin().is_none());
        p.finish(ProfBucket::Ckpt, None);
        assert_eq!(p.report(), ProfReport::default());
    }

    #[test]
    fn stride_selects_every_nth_cycle() {
        let mut p = Prof::off();
        p.set_stride(4);
        let due: Vec<u64> = (0..10).filter(|&c| p.cycle_due(c)).collect();
        assert_eq!(due, vec![0, 4, 8]);
    }

    #[test]
    fn stamps_and_whole_calls_accumulate_into_the_report() {
        let mut p = Prof::off();
        p.set_stride(1);
        let mut s = StageStamp::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        s.mark(ProfBucket::Commit);
        p.absorb(&s);
        let t0 = p.begin();
        assert!(t0.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.finish(ProfBucket::Ffwd, t0);
        let r = p.report();
        assert_eq!(r.sampled_cycles, 1);
        assert!(r.get(ProfBucket::Commit) > 0);
        assert!(r.get(ProfBucket::Ffwd) > 0);
        assert_eq!(r.get(ProfBucket::Fetch), 0);
        assert_eq!(r.est_total_ns(), r.get(ProfBucket::Commit) + r.get(ProfBucket::Ffwd));
    }

    #[test]
    fn merge_sums_buckets_and_adopts_the_stride() {
        let mut a = ProfReport::default();
        let b = ProfReport { stride: 64, sampled_cycles: 3, ns: [10; ProfBucket::COUNT] };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.stride, 64);
        assert_eq!(a.sampled_cycles, 6);
        assert_eq!(a.get(ProfBucket::Squash), 20);
    }

    #[test]
    fn stage_buckets_scale_by_the_stride_and_whole_calls_do_not() {
        let sampled: Vec<&str> =
            ProfBucket::ALL.iter().filter(|b| b.sampled()).map(|b| b.name()).collect();
        assert_eq!(sampled, ["fetch", "rename", "issue", "execute", "commit", "squash"]);
        let r = ProfReport { stride: 64, sampled_cycles: 1, ns: [10; ProfBucket::COUNT] };
        assert_eq!(r.est_ns(ProfBucket::Execute), 640);
        assert_eq!(r.est_ns(ProfBucket::Ffwd), 10);
        assert_eq!(r.est_total_ns(), 6 * 640 + 3 * 10);
        let off = ProfReport { stride: 0, ..r };
        assert_eq!(off.est_ns(ProfBucket::Fetch), 10, "a zero stride counts as one");
    }

    #[test]
    fn set_stride_resets_accumulated_state() {
        let mut p = Prof::off();
        p.set_stride(1);
        let t0 = p.begin();
        p.finish(ProfBucket::Ckpt, t0);
        p.set_stride(2);
        assert_eq!(p.report(), ProfReport { stride: 2, ..ProfReport::default() });
    }
}
