//! The parallel experiment grid: cell pool, deduplication, workload
//! caching, and the work-stealing scoped-thread runner.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mssr_core::{MemCheckPolicy, MssrConfig, MultiStreamReuse, RegisterIntegration, RiConfig};
use mssr_sim::{
    fnv1a64, BbvCollector, BpredKind, CkptError, ProfReport, ReuseEngine, SimConfig, SimStats,
    Simulator, TraceEvent, TraceKind, TraceSink, PROF_DEFAULT_STRIDE,
};
use mssr_workloads::{Scale, Workload};

use super::metrics::warn;
use super::report::{CellProfile, SimpointCellResult, SimpointRep};
use super::simpoint::{self, SimpointPlan};
use super::{cell_seed, splitmix64, HarnessOpts};
use crate::EngineSpec;

/// Salt mixed into the root seed for SimPoint clustering, so the
/// clustering's random choices are independent of the per-cell seed
/// stream while remaining a pure function of the root seed.
const SIMPOINT_SEED_SALT: u64 = 0x5350_4f49_4e54; // "SPOINT"

/// Detailed warmup prefix of each representative interval, as a
/// fraction of the interval length (interval/4). The warmup runs in
/// detail before the measured region and its counters are subtracted
/// out, removing the cold-pipeline fill bias a representative would
/// otherwise pay at its start (a real mid-program interval runs with a
/// full ROB; a fast-forwarded one starts empty). Warmup instructions
/// still count against the detailed-simulation budget.
const SIMPOINT_WARMUP_DIV: u64 = 4;

/// Index of a cell in its [`CellPool`] (and of its result in the vector
/// returned by [`CellPool::run`]).
pub type CellId = usize;

/// An engine configuration under evaluation: a base [`EngineSpec`] plus
/// the ablation axes (memory-check policy, reconvergence timeout,
/// single-page WPB restriction) the `ablation` experiment sweeps.
#[derive(Clone, Debug)]
pub struct EngineCfg {
    /// The base engine shape.
    pub spec: EngineSpec,
    /// Override of the reused-load memory-check policy.
    pub mem_policy: Option<MemCheckPolicy>,
    /// Override of the reconvergence timeout (renamed instructions).
    pub timeout: Option<u64>,
    /// Override of the single-page WPB restriction.
    pub vpn_restrict: Option<bool>,
}

impl From<EngineSpec> for EngineCfg {
    fn from(spec: EngineSpec) -> EngineCfg {
        EngineCfg { spec, mem_policy: None, timeout: None, vpn_restrict: None }
    }
}

impl EngineCfg {
    /// Sets the memory-check policy override.
    pub fn with_mem_policy(mut self, p: MemCheckPolicy) -> EngineCfg {
        self.mem_policy = Some(p);
        self
    }

    /// Sets the reconvergence-timeout override.
    pub fn with_timeout(mut self, t: u64) -> EngineCfg {
        self.timeout = Some(t);
        self
    }

    /// Sets the single-page WPB override.
    pub fn with_vpn_restrict(mut self, on: bool) -> EngineCfg {
        self.vpn_restrict = Some(on);
        self
    }

    /// The configuration's label: the spec label plus one suffix per
    /// override, so deduplication and reports distinguish ablations.
    pub fn label(&self) -> String {
        let mut l = self.spec.label();
        match self.mem_policy {
            Some(MemCheckPolicy::LoadVerification) => l.push_str("+ldverify"),
            Some(MemCheckPolicy::BloomFilter) => l.push_str("+bloom"),
            None => {}
        }
        if let Some(t) = self.timeout {
            l.push_str(&format!("+t{t}"));
        }
        match self.vpn_restrict {
            Some(true) => l.push_str("+vpn"),
            Some(false) => l.push_str("+fullpc"),
            None => {}
        }
        l
    }

    fn mssr_config(&self, streams: usize, log_entries: usize) -> MssrConfig {
        let mut cfg = MssrConfig::default()
            .with_streams(streams)
            .with_log_entries(log_entries)
            .with_wpb_entries((log_entries / 4).max(4));
        if let Some(p) = self.mem_policy {
            cfg = cfg.with_mem_policy(p);
        }
        if let Some(t) = self.timeout {
            cfg = cfg.with_timeout(t);
        }
        if let Some(v) = self.vpn_restrict {
            cfg = cfg.with_vpn_restrict(v);
        }
        cfg
    }

    /// Builds the engine, or `None` for the baseline.
    pub fn build(&self) -> Option<Box<dyn ReuseEngine>> {
        match self.spec {
            EngineSpec::Baseline => None,
            EngineSpec::Mssr { streams, log_entries } => {
                Some(Box::new(MultiStreamReuse::new(self.mssr_config(streams, log_entries))))
            }
            EngineSpec::Ri { sets, ways } => {
                let mut cfg = RiConfig::default().with_sets(sets).with_ways(ways);
                if let Some(p) = self.mem_policy {
                    cfg = cfg.with_mem_policy(p);
                }
                Some(Box::new(RegisterIntegration::new(cfg)))
            }
        }
    }
}

/// One experiment cell: workload × engine configuration × simulator
/// configuration.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Workload id in the pool.
    pub workload: usize,
    /// Engine configuration.
    pub engine: EngineCfg,
    /// Simulator configuration.
    pub cfg: SimConfig,
}

/// The result of one cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell's deterministic seed (derived from the root seed).
    pub seed: u64,
    /// Simulated statistics.
    pub stats: SimStats,
    /// The cell's JSON-lines event trace (`--trace` runs only). Events
    /// are collected per cell on the worker thread that ran it and
    /// emitted in cell order, so trace output is byte-identical across
    /// `--jobs` values like every other grid output.
    pub trace: Option<String>,
    /// The cell's sampling plan and per-representative measurements
    /// (`--simpoint` runs only). [`CellResult::stats`] then holds the
    /// field-wise sum over representatives, not a whole-program run;
    /// `mssr-report` reconstructs whole-program CPI from this record.
    pub simpoint: Option<SimpointCellResult>,
    /// The cell's host wall-clock profile (`--profile` runs only). It is
    /// machine-dependent, which is why the harness emits it on stderr,
    /// never into the trajectory.
    pub profile: Option<CellProfile>,
    /// Checkpoint files the cell skipped as invalid before running cold
    /// (`--ckpt-dir` runs only; see [`record_ckpt_skips`]).
    pub ckpt_restore_skips: u64,
}

/// A process-wide in-memory checkpoint cache keyed by checkpoint stem —
/// the `mssr-serve` analogue of `--ckpt-dir`. It holds fast-forward
/// *boundary* snapshots only (taken before any detailed cycle has run),
/// which is what makes sharing them across sampling modes safe: a
/// restored boundary snapshot has no event-stream history to truncate,
/// unlike the mid-run checkpoints `--ckpt-every` writes to disk.
pub(crate) struct CkptMem {
    map: Mutex<HashMap<String, Arc<Vec<u8>>>>,
}

impl CkptMem {
    /// An empty cache.
    pub(crate) fn new() -> CkptMem {
        CkptMem { map: Mutex::new(HashMap::new()) }
    }

    /// The cached snapshot for `stem`, if one exists.
    pub(crate) fn get(&self, stem: &str) -> Option<Arc<Vec<u8>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).get(stem).cloned()
    }

    /// Caches `bytes` for `stem`; the first snapshot for a stem wins
    /// (identical stems are snapshots of identical simulator states).
    pub(crate) fn put(&self, stem: &str, bytes: Vec<u8>) {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(stem.to_string())
            .or_insert_with(|| Arc::new(bytes));
    }

    /// Number of cached snapshots.
    pub(crate) fn entries(&self) -> usize {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// A per-line observer of a cell's live trace stream: called with each
/// raw event line as the simulator emits it, before the line lands in
/// the cell's buffer. `mssr-serve` uses this to stream progress samples
/// to the requesting client while the cell is still running.
pub(crate) type LiveSink = Box<dyn FnMut(&str) + Send>;

/// A cell's event stream: the raw lines of every region in order, plus
/// the optional live observer.
struct CellTrace {
    buf: String,
    live: Option<LiveSink>,
}

/// The trace sink of one region: appends raw event lines to the cell's
/// [`CellTrace`] exactly like [`mssr_sim::BufferSink`] (same bytes, same
/// order) and feeds each line to the live observer.
struct CallbackSink(Rc<RefCell<CellTrace>>);

impl TraceSink for CallbackSink {
    fn record(&mut self, ev: &TraceEvent) {
        let line = ev.to_json();
        let t = &mut *self.0.borrow_mut();
        if let Some(f) = &mut t.live {
            f(&line);
        }
        t.buf.push_str(&line);
        t.buf.push('\n');
    }
}

/// How to execute one cell — the per-run subset of [`HarnessOpts`] plus
/// the serve-only in-memory checkpoint cache. Batch runs build one from
/// their options; `mssr-serve` builds one per request.
pub(crate) struct CellRun<'a> {
    /// Record the full pipeline event trace.
    pub trace: bool,
    /// Interval-sampling period in cycles (`0` = off).
    pub sample: u64,
    /// Functional fast-forward depth in instructions (plain cells; a
    /// SimPoint cell places its own per representative).
    pub ffwd: u64,
    /// On-disk checkpoint directory.
    pub ckpt_dir: Option<&'a Path>,
    /// Periodic checkpoint-save period (`0` = off).
    pub ckpt_every: u64,
    /// Arm the simulator's per-stage self-profiler and return a
    /// [`CellProfile`] with the result (out-of-band; simulated output is
    /// byte-identical either way).
    pub profile: bool,
    /// Shared in-memory cache of fast-forward boundary snapshots.
    pub ckpt_mem: Option<&'a CkptMem>,
}

impl<'a> CellRun<'a> {
    /// The batch harness's execution parameters.
    pub(crate) fn from_opts(opts: &'a HarnessOpts) -> CellRun<'a> {
        CellRun {
            trace: opts.trace,
            sample: opts.sample,
            ffwd: opts.ffwd,
            ckpt_dir: opts.ckpt_dir.as_deref(),
            ckpt_every: opts.ckpt_every,
            profile: opts.profile,
            ckpt_mem: None,
        }
    }
}

/// One detailed region of a cell. A plain or served cell is a single
/// region that runs to halt; a SimPoint cell runs one region per
/// representative interval.
struct Region {
    /// Functional fast-forward to the region's detailed start.
    ffwd: u64,
    /// `None`: run to halt. `Some((warm, insts))`: run `warm` detailed
    /// warmup instructions, whose counters are subtracted out, then
    /// measure `insts`.
    measure: Option<(u64, u64)>,
}

impl Region {
    /// The checkpoint rule. A mid-run `--ckpt-every` checkpoint is
    /// written and restored only by a region that runs to halt with no
    /// event stream: restoring one into a streamed run would emit only
    /// the tail of its events, and into a measured region would start
    /// it past its first instruction. Every other region restores only
    /// its `{stem}.0.ckpt` fast-forward boundary snapshot, which has no
    /// detailed cycles behind it.
    fn resumes_mid_run(&self, streamed: bool) -> bool {
        self.measure.is_none() && !streamed
    }
}

/// The shared cell pool of one harness invocation.
///
/// Workloads are interned by name, so each assembled `Program` (plus its
/// memory image and reference results) is built once and shared
/// immutably — `&Workload` — across every engine and worker thread.
/// Cells are deduplicated on (workload, engine label, simulator config),
/// so e.g. a GAP baseline declared by both `fig12` and `rollup` is
/// simulated once.
pub struct CellPool {
    scale: Scale,
    workloads: Vec<Workload>,
    by_name: HashMap<String, usize>,
    cells: Vec<CellSpec>,
    dedup: HashMap<(usize, String, String), CellId>,
    bpred_override: Option<BpredKind>,
}

impl CellPool {
    /// An empty pool at a workload scale.
    pub fn new(scale: Scale) -> CellPool {
        CellPool {
            scale,
            workloads: Vec::new(),
            by_name: HashMap::new(),
            cells: Vec::new(),
            dedup: HashMap::new(),
            bpred_override: None,
        }
    }

    /// Forces every subsequently declared cell onto one branch predictor
    /// (the harness's `--bpred` axis). Applied before deduplication and
    /// checkpoint-stem derivation, so overridden cells never collide
    /// with default ones.
    pub fn set_bpred_override(&mut self, kind: Option<BpredKind>) {
        self.bpred_override = kind;
    }

    /// The pool's workload scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Interns a workload by name (workload names encode their
    /// parameters, so equal names mean equal workloads).
    pub fn intern(&mut self, w: Workload) -> usize {
        if let Some(&id) = self.by_name.get(w.name()) {
            debug_assert_eq!(
                self.workloads[id].static_insts(),
                w.static_insts(),
                "name collision with different program: {}",
                w.name()
            );
            return id;
        }
        let id = self.workloads.len();
        self.by_name.insert(w.name().to_string(), id);
        self.workloads.push(w);
        id
    }

    /// The interned workload with id `id`.
    pub fn workload(&self, id: usize) -> &Workload {
        &self.workloads[id]
    }

    /// Declares a cell, returning its id (an existing id if an identical
    /// cell was declared before).
    pub fn cell(&mut self, workload: usize, engine: EngineCfg, mut cfg: SimConfig) -> CellId {
        if let Some(kind) = self.bpred_override {
            cfg = cfg.with_bpred(kind);
        }
        let key = (workload, engine.label(), format!("{cfg:?}"));
        if let Some(&id) = self.dedup.get(&key) {
            return id;
        }
        let id = self.cells.len();
        self.dedup.insert(key, id);
        self.cells.push(CellSpec { workload, engine, cfg });
        id
    }

    /// The spec of cell `id`.
    pub fn cell_spec(&self, id: CellId) -> &CellSpec {
        &self.cells[id]
    }

    /// The workload of cell `id`.
    pub fn cell_workload(&self, id: CellId) -> &Workload {
        &self.workloads[self.cells[id].workload]
    }

    /// Number of (deduplicated) cells declared.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are declared.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs every cell across `opts.jobs` workers; `results[i]` is cell
    /// `i`'s result regardless of which worker ran it or when.
    pub fn run(&self, opts: &HarnessOpts) -> Vec<CellResult> {
        let plans = opts.simpoint.map(|_| self.simpoint_plans(opts));
        let rp = CellRun::from_opts(opts);
        run_cells(self.cells.len(), opts.jobs, |i| {
            let plan = plans.as_ref().and_then(|p| p[self.cells[i].workload].as_ref());
            self.run_cell_with(i, cell_seed(opts.root_seed, i as u64), &rp, plan, None)
        })
    }

    /// The SimPoint analysis pass: one functional run per workload
    /// referenced by at least one cell, collecting basic-block vectors
    /// and clustering them into a sampling plan. Runs on the same
    /// work-stealing grid as the cells; plans are a pure function of
    /// (workload, interval, maxk, root seed), independent of `--jobs`.
    /// Workloads no cell references get no plan.
    fn simpoint_plans(&self, opts: &HarnessOpts) -> Vec<Option<SimpointPlan>> {
        let (interval, max_k) = opts.simpoint.expect("caller checked --simpoint");
        // The functional pass is engine-independent; only the simulator
        // config's instruction bound matters, taken from the first cell
        // that references the workload.
        let cfg_of: Vec<Option<&SimConfig>> = (0..self.workloads.len())
            .map(|w| self.cells.iter().find(|c| c.workload == w).map(|c| &c.cfg))
            .collect();
        run_cells(self.workloads.len(), opts.jobs, |w| {
            let cfg = cfg_of[w]?;
            let mut sim = self.workloads[w].instantiate(cfg.clone());
            let mut bbv = BbvCollector::new(interval);
            let executed = sim.fast_forward_collect(cfg.max_insts, &mut bbv);
            let trace = bbv.finish(executed);
            Some(simpoint::plan(
                &trace,
                max_k,
                cell_seed(opts.root_seed ^ splitmix64(SIMPOINT_SEED_SALT), w as u64),
            ))
        })
    }

    /// The stable checkpoint-file stem of a cell: everything that shapes
    /// its simulation (workload, engine, simulator config, seed, scale,
    /// fast-forward) is hashed in, so a stale directory can never hand a
    /// cell another cell's state. (`Simulator::restore` re-checks the
    /// config/program/engine identity anyway; the stem just makes
    /// distinct cells use distinct files.)
    fn ckpt_stem(&self, spec: &CellSpec, seed: u64, ffwd: u64) -> String {
        let w = &self.workloads[spec.workload];
        let key = fnv1a64(
            format!(
                "{}|{}|{:?}|{seed:#x}|{:?}|{ffwd}",
                w.name(),
                spec.engine.label(),
                spec.cfg,
                self.scale
            )
            .as_bytes(),
        );
        format!("{:016x}", key)
    }

    /// A freshly instantiated simulator for cell `spec`, armed for
    /// profiling but with no sampler or trace sink yet.
    fn fresh_sim(&self, spec: &CellSpec, profile: bool) -> Simulator {
        let w = &self.workloads[spec.workload];
        let mut sim = match spec.engine.build() {
            Some(e) => w.instantiate_with(spec.cfg.clone(), e),
            None => w.instantiate(spec.cfg.clone()),
        };
        if profile {
            sim.set_profiling(PROF_DEFAULT_STRIDE);
        }
        sim
    }

    /// Runs one cell under explicit execution parameters: the whole
    /// program, or under `plan` each SimPoint representative, as
    /// detailed regions started by [`CellPool::start_region`].
    /// Optionally feeds each raw trace line to `live` as it is emitted.
    /// This is the one execution path of the batch harness, SimPoint
    /// sampling and `mssr-serve`, which is what keeps served results
    /// byte-identical to batch trajectories.
    ///
    /// A SimPoint cell's `stats` are the field-wise sum over
    /// representatives; reconstruction to whole-program CPI happens in
    /// `mssr-report` using the plan's weights.
    pub(crate) fn run_cell_with(
        &self,
        i: CellId,
        seed: u64,
        rp: &CellRun<'_>,
        plan: Option<&SimpointPlan>,
        live: Option<LiveSink>,
    ) -> CellResult {
        let spec = &self.cells[i];
        let w = &self.workloads[spec.workload];
        let started = rp.profile.then(Instant::now);
        let trace = (rp.trace || rp.sample > 0)
            .then(|| Rc::new(RefCell::new(CellTrace { buf: String::new(), live })));
        let regions: Vec<Region> = match plan {
            None => vec![Region { ffwd: rp.ffwd, measure: None }],
            // Detailed warmup: back the fast-forward off by a quarter
            // interval (bounded by the program start) so the measured
            // region runs on a filled pipeline.
            Some(p) => p
                .reps
                .iter()
                .map(|rep| {
                    let warm = (p.interval / SIMPOINT_WARMUP_DIV).min(rep.start_inst);
                    Region { ffwd: rep.start_inst - warm, measure: Some((warm, rep.insts)) }
                })
                .collect(),
        };
        let mut skips: Vec<String> = Vec::new();
        let mut prof = ProfReport::default();
        let mut measured = Vec::with_capacity(regions.len());
        for region in &regions {
            let (mut sim, stem) = self.start_region(spec, seed, rp, region, &trace, &mut skips);
            measured.push(match region.measure {
                None => {
                    let periodic = rp.ckpt_every > 0 && region.resumes_mid_run(trace.is_some());
                    if let Some(dir) = rp.ckpt_dir.filter(|_| periodic) {
                        save_periodic_ckpts(&mut sim, dir, &stem, rp.ckpt_every);
                    }
                    (w.finish(&mut sim), 0)
                }
                Some((warm, insts)) => measure_region(&mut sim, warm, insts),
            });
            prof.merge(&sim.profile_report());
        }
        let (stats, simpoint) = match plan {
            None => (measured.swap_remove(0).0, None),
            Some(p) => {
                let mut sum = SimStats::default();
                let reps = p
                    .reps
                    .iter()
                    .zip(&measured)
                    .map(|(rep, (delta, warmup_insts))| {
                        sum.merge(delta, u64::wrapping_add);
                        SimpointRep {
                            index: rep.index,
                            start_inst: rep.start_inst,
                            planned_insts: rep.insts,
                            weight_insts: rep.weight_insts,
                            spread_milli: rep.spread_milli,
                            warmup_insts: *warmup_insts,
                            cycles: delta.cycles,
                            insts: delta.committed_instructions,
                            account: delta.account,
                        }
                    })
                    .collect();
                let sp = SimpointCellResult {
                    interval: p.interval,
                    total_insts: p.total_insts,
                    n_intervals: p.n_intervals,
                    k: p.k,
                    reps,
                };
                (sum, Some(sp))
            }
        };
        let profile = started.map(|t0| CellProfile {
            total_us: (t0.elapsed().as_micros() as u64).max(1),
            report: prof,
        });
        let ckpt_restore_skips = record_ckpt_skips(&skips, i, w.name(), &spec.engine.label());
        let trace = trace.map(|t| std::mem::take(&mut t.borrow_mut().buf));
        CellResult { seed, stats, trace, simpoint, profile, ckpt_restore_skips }
    }

    /// Starts one detailed region: a fresh simulator positioned at the
    /// region's detailed start with this run's sampler and trace sink
    /// armed, plus the region's checkpoint stem. The start is restored
    /// from a checkpoint [`Region::resumes_mid_run`] allows, else
    /// fast-forwarded, and then its boundary snapshot is stored on disk
    /// and in memory for later regions and runs.
    fn start_region(
        &self,
        spec: &CellSpec,
        seed: u64,
        rp: &CellRun<'_>,
        region: &Region,
        trace: &Option<Rc<RefCell<CellTrace>>>,
        skips: &mut Vec<String>,
    ) -> (Simulator, String) {
        // The stem hashes the region's fast-forward depth, so a SimPoint
        // representative and a plain `--ffwd` cell with the same detailed
        // start share their boundary snapshot.
        let stem = self.ckpt_stem(spec, seed, region.ffwd);
        let mid_run = region.resumes_mid_run(trace.is_some());
        let fresh = || self.fresh_sim(spec, rp.profile);
        let mut sim = fresh();
        // Restores and the fast-forward all run before the sink
        // attaches, so a restored start's stream opens, like a cold one,
        // with the boundary's `ffwd` event and nothing the restore did.
        let mut restored = false;
        if let Some(bytes) = rp.ckpt_mem.and_then(|mem| mem.get(&stem)) {
            match restore_or_renew(&mut sim, &bytes, &fresh) {
                Ok(()) => restored = true,
                Err(e) => skips.push(format!("<memory snapshot>: {e}")),
            }
        }
        if let Some(dir) = rp.ckpt_dir.filter(|_| !restored) {
            let (ok, disk_skips) = restore_newest_ckpt(&mut sim, dir, &stem, mid_run, &fresh);
            skips.extend(disk_skips);
            restored = ok;
        }
        if !restored && region.ffwd > 0 {
            sim.fast_forward(region.ffwd);
            if rp.ckpt_dir.is_some() || rp.ckpt_mem.is_some() {
                let bytes = sim.snapshot();
                if let Some(dir) = rp.ckpt_dir {
                    save_ckpt(dir, &stem, 0, &bytes);
                }
                if let Some(mem) = rp.ckpt_mem {
                    mem.put(&stem, bytes);
                }
            }
        }
        if let Some(t) = trace {
            // Checkpoints carry no observer state, so this run's sampler
            // and sink are a cold run's, whatever the snapshot's donor
            // traced or sampled.
            let mask = if rp.trace { !0 } else { TraceKind::Sample.bit() };
            sim.set_sample_interval(rp.sample);
            sim.set_trace_sink(Box::new(CallbackSink(Rc::clone(t))), mask);
        }
        (sim, stem)
    }
}

/// Restores `bytes` into `sim`. On failure `sim` is replaced by
/// `fresh()`: a failed [`Simulator::restore`] may have overwritten part
/// of the machine, which must then be discarded, so the caller's next
/// attempt or cold fallback starts from a clean one.
fn restore_or_renew(
    sim: &mut Simulator,
    bytes: &[u8],
    fresh: &dyn Fn() -> Simulator,
) -> Result<(), CkptError> {
    let r = sim.restore(bytes);
    if r.is_err() {
        *sim = fresh();
    }
    r
}

/// Runs a started SimPoint region: `warm` detailed warmup instructions,
/// then `insts` measured ones. Returns the measured region's statistics
/// — the post-warmup delta, with the warmup and the functional
/// fast-forward reported as skipped work — and the warmup instructions
/// actually run.
fn measure_region(sim: &mut Simulator, warm: u64, insts: u64) -> (SimStats, u64) {
    if warm > 0 {
        sim.run_until_insts(warm);
    }
    let warm_stats = sim.stats();
    sim.run_until_insts(warm_stats.committed_instructions + insts);
    let mut delta = sim.stats();
    delta.merge(&warm_stats, u64::saturating_sub);
    // Detailed simulation leaves the fast-forward counters alone.
    delta.ffwd_insts = warm_stats.ffwd_insts + warm_stats.committed_instructions;
    delta.skipped_cycles = warm_stats.skipped_cycles + warm_stats.cycles;
    (delta, warm_stats.committed_instructions)
}

/// Writes `bytes` as `{stem}.{insts}.ckpt` in `dir` unless that file
/// already exists, through a temporary name and a rename so concurrent
/// cells never see a torn file.
fn save_ckpt(dir: &Path, stem: &str, insts: u64, bytes: &[u8]) {
    let path = dir.join(format!("{stem}.{insts}.ckpt"));
    if path.exists() {
        return;
    }
    let _ = std::fs::create_dir_all(dir);
    let tmp = dir.join(format!("{stem}.{insts}.ckpt.tmp"));
    if std::fs::write(&tmp, bytes).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

/// Reports a cell's skipped-checkpoint tally: one stderr warning naming
/// every skipped file and its [`mssr_sim::CkptError`], and the count,
/// which the cell line records as `ckpt_restore_skips` so trajectories
/// show the degraded restore. Clean cells warn nothing and count 0,
/// which the cell line leaves out.
fn record_ckpt_skips(skips: &[String], i: CellId, w: &str, engine: &str) -> u64 {
    if !skips.is_empty() {
        warn(format_args!(
            "cell {i} ({w}/{engine}): skipped {} invalid checkpoint(s), ran cold: {}",
            skips.len(),
            skips.join("; ")
        ));
    }
    skips.len() as u64
}

/// Restores the newest valid checkpoint for `stem` from `dir` into
/// `sim`: any `{stem}.{insts}.ckpt` when `mid_run` (see
/// [`Region::resumes_mid_run`]), else only the `{stem}.0.ckpt` boundary
/// snapshot. Invalid or mismatched files (corruption, a different
/// build's config) are skipped in favour of the next-newest; with none
/// valid the cell just runs from scratch — checkpoints are an
/// accelerator, never a correctness dependency. Every failed attempt
/// leaves `sim` freshly re-instantiated by `fresh` (see
/// [`restore_or_renew`]). Each skipped file is reported back as
/// `"<name>: <reason>"` so the caller can surface the degradation
/// instead of silently eating the cold-start cost.
fn restore_newest_ckpt(
    sim: &mut Simulator,
    dir: &Path,
    stem: &str,
    mid_run: bool,
    fresh: &dyn Fn() -> Simulator,
) -> (bool, Vec<String>) {
    let mut skips = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return (false, skips) };
    let mut found: Vec<(u64, std::path::PathBuf)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let rest = name.strip_prefix(stem)?.strip_prefix('.')?;
            let insts: u64 = rest.strip_suffix(".ckpt")?.parse().ok()?;
            (mid_run || insts == 0).then_some((insts, path))
        })
        .collect();
    found.sort_unstable_by_key(|&(insts, _)| std::cmp::Reverse(insts));
    for (_, path) in found {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("<checkpoint>").to_string();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                skips.push(format!("{name}: unreadable ({e})"));
                continue;
            }
        };
        match restore_or_renew(sim, &bytes, fresh) {
            Ok(()) => return (true, skips),
            Err(e) => skips.push(format!("{name}: {e}")),
        }
    }
    (false, skips)
}

/// Runs `sim` to completion, saving a checkpoint into `dir` every
/// `every` committed instructions.
fn save_periodic_ckpts(sim: &mut Simulator, dir: &Path, stem: &str, every: u64) {
    loop {
        let committed = sim.stats().committed_instructions;
        sim.run_until_insts(committed + every);
        let now = sim.stats().committed_instructions;
        if sim.is_halted() || now < committed + every {
            // Halted, or stopped short (cycle bound): the final state is
            // the run's result, not a resume point worth saving.
            return;
        }
        save_ckpt(dir, stem, now, &sim.snapshot());
    }
}

/// Runs `n` independent cells across `jobs` scoped worker threads with a
/// work-stealing index queue (an atomic next-cell counter: idle workers
/// steal the next undone index, so long cells never serialize behind
/// short ones). Returns results in cell order — output is independent of
/// scheduling, which is what makes `--jobs N` byte-identical to
/// `--jobs 1`.
pub fn run_cells<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let jobs = jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    // Each worker catches its cell's panic and parks the payload in the
    // cell's slot; the collector below re-raises it with the failing
    // cell index attached. Without this, a worker panic surfaces only
    // as the scope's opaque "a scoped thread panicked" (the original
    // payload is lost) plus poisoned-mutex panics from the other
    // workers' slots.
    type Slot<T> = Mutex<Option<std::thread::Result<T>>>;
    let slots: Vec<Slot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = catch_unwind(AssertUnwindSafe(|| f(i)));
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| match m.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(v)) => v,
            Some(Err(payload)) => {
                panic!("grid cell {i} panicked: {}", panic_message(payload.as_ref()))
            }
            None => panic!("grid cell {i} was never run"),
        })
        .collect()
}

/// Best-effort text of a caught panic payload (`&str` and `String`
/// cover every `panic!` in this workspace).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_workloads::microbench;

    #[test]
    fn run_cells_preserves_order_under_parallelism() {
        // Uneven work so threads finish out of order.
        let out = run_cells(64, 8, |i| {
            let mut acc = 0u64;
            for k in 0..((64 - i as u64) * 1000) {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i, acc % 2)
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.0, i);
        }
    }

    #[test]
    fn run_cells_handles_empty_and_oversubscribed() {
        assert!(run_cells(0, 8, |i| i).is_empty());
        assert_eq!(run_cells(3, 64, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn run_cells_reports_the_failing_cell_on_worker_panic() {
        // Pre-fix, a worker panic surfaced as the scope's opaque
        // "a scoped thread panicked": no cell index, no original payload.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output quiet
        let res = std::panic::catch_unwind(|| {
            run_cells(8, 4, |i| {
                if i == 5 {
                    panic!("boom in cell five");
                }
                i
            })
        });
        std::panic::set_hook(hook);
        let payload = res.expect_err("a panicking cell must fail the grid");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("cell 5"), "failing index must be named: {msg}");
        assert!(msg.contains("boom in cell five"), "original payload must survive: {msg}");
    }

    #[test]
    fn restore_newest_ckpt_reports_each_skipped_invalid_file() {
        let dir = std::env::temp_dir().join(format!("mssr-grid-skips-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("aa.100.ckpt"), b"definitely not a checkpoint").unwrap();
        std::fs::write(dir.join("aa.50.ckpt"), b"also garbage").unwrap();
        std::fs::write(dir.join("bb.100.ckpt"), b"other stem, ignored").unwrap();
        let w = microbench::nested_mispred(10);
        let fresh = || w.instantiate(SimConfig::default().with_max_cycles(100_000));
        let mut sim = fresh();
        let (ok, skips) = restore_newest_ckpt(&mut sim, &dir, "aa", true, &fresh);
        assert!(!ok, "garbage files must not restore");
        assert_eq!(skips.len(), 2, "every invalid file for the stem is reported: {skips:?}");
        assert!(skips[0].contains("aa.100.ckpt"), "newest first: {skips:?}");
        assert!(skips[1].contains("aa.50.ckpt"), "{skips:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Re-seals a checkpoint with its first memory page index moved
    /// outside the window. Envelope, checksum and identity hashes all
    /// verify, so the restore fails mid-payload with
    /// `CkptError::Corrupt`, after the sections before memory have
    /// already overwritten the machine.
    fn with_page_outside_window(bytes: &[u8], window: usize) -> Vec<u8> {
        // Envelope: 20-byte header, 8-byte trailing checksum.
        let mut payload = bytes[20..bytes.len() - 8].to_vec();
        // The memory section opens with the window size, the page count,
        // then the first page's index and byte length.
        let size = (window as u64).to_le_bytes();
        let page_len = 4096u64.to_le_bytes();
        let at = (0..payload.len() - 32)
            .find(|&p| payload[p..p + 8] == size && payload[p + 24..p + 32] == page_len)
            .expect("checkpoint has a non-empty memory section");
        payload[at + 16..at + 24].copy_from_slice(&(window as u64 / 4096 + 1).to_le_bytes());
        mssr_sim::seal(&payload)
    }

    /// Corrupts every checkpoint file in `dir` in place; returns how many.
    fn corrupt_ckpt_dir(dir: &Path, window: usize) -> usize {
        let files: Vec<_> = std::fs::read_dir(dir)
            .expect("checkpoint dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        for f in &files {
            let bytes = std::fs::read(f).expect("checkpoint readable");
            std::fs::write(f, with_page_outside_window(&bytes, window)).expect("rewrite");
        }
        files.len()
    }

    /// A cell's observable result, less the skipped-checkpoint count
    /// (the one field a degraded restore may add).
    fn trajectory(r: &CellResult) -> String {
        format!("{}|{:?}|{:?}", r.stats.to_json(), r.stats.engine.set_replacements, r.simpoint)
    }

    /// BASE and RI (which also reports per-set replacement counts) on
    /// one microbenchmark.
    fn restore_pool() -> (CellPool, SimConfig) {
        let mut pool = CellPool::new(Scale::Test);
        let w = pool.intern(microbench::nested_mispred(200));
        let cfg = SimConfig::default().with_max_cycles(1_000_000);
        pool.cell(w, EngineSpec::Baseline.into(), cfg.clone());
        pool.cell(w, EngineSpec::Ri { sets: 64, ways: 2 }.into(), cfg.clone());
        (pool, cfg)
    }

    fn fresh_temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mssr-grid-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn failed_disk_restore_runs_cold_from_a_fresh_simulator() {
        let (pool, cfg) = restore_pool();
        let dir = fresh_temp_dir("half-restored");
        let mut opts = HarnessOpts::new(Scale::Test);
        opts.jobs = 1;
        let cold = pool.run(&opts);
        opts.ckpt_dir = Some(dir.clone());
        opts.ckpt_every = 500;
        pool.run(&opts);
        assert!(corrupt_ckpt_dir(&dir, cfg.mem_bytes) > 0, "periodic checkpoints were written");
        let warm = pool.run(&opts);
        for (c, w) in cold.iter().zip(&warm) {
            assert!(w.ckpt_restore_skips > 0, "the corrupt checkpoints are reported");
            assert_eq!(trajectory(w), trajectory(c), "a failed restore must leave a cold run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_simpoint_restore_runs_cold_from_a_fresh_simulator() {
        let (pool, cfg) = restore_pool();
        let dir = fresh_temp_dir("half-restored-simpoint");
        let mut opts = HarnessOpts::new(Scale::Test);
        opts.jobs = 1;
        opts.simpoint = Some((1000, 2));
        let cold = pool.run(&opts);
        opts.ckpt_dir = Some(dir.clone());
        pool.run(&opts);
        assert!(
            corrupt_ckpt_dir(&dir, cfg.mem_bytes) > 0,
            "representative checkpoints were written"
        );
        let warm = pool.run(&opts);
        for (c, w) in cold.iter().zip(&warm) {
            assert!(w.ckpt_restore_skips > 0, "the corrupt checkpoints are reported");
            assert_eq!(trajectory(w), trajectory(c), "a failed restore must leave a cold run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simpoint_representative_ignores_periodic_checkpoints_of_its_stem() {
        // A plain `--ffwd F --ckpt-every` run and a representative whose
        // detailed run starts at F share a checkpoint stem. The
        // representative must start from the boundary, never from the
        // plain run's mid-run checkpoints.
        let (pool, _) = restore_pool();
        let dir = fresh_temp_dir("simpoint-collision");
        let mut opts = HarnessOpts::new(Scale::Test);
        opts.jobs = 1;
        opts.simpoint = Some((1000, 2));
        let cold = pool.run(&opts);
        let plans = pool.simpoint_plans(&opts);
        let plan = plans[0].as_ref().expect("the workload has a plan");
        let rep = plan.reps.iter().max_by_key(|r| r.start_inst).expect("a representative");
        let warm = plan.interval / SIMPOINT_WARMUP_DIV;
        assert!(rep.start_inst > warm, "fixture: a representative past the program start");
        let mut plain = HarnessOpts::new(Scale::Test);
        plain.jobs = 1;
        plain.ffwd = rep.start_inst - warm;
        plain.ckpt_dir = Some(dir.clone());
        plain.ckpt_every = 100;
        pool.run(&plain);
        let periodic = std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .filter(|e| {
                !e.as_ref().expect("dir entry").file_name().to_string_lossy().ends_with(".0.ckpt")
            })
            .count();
        assert!(periodic > 0, "the plain run wrote periodic checkpoints");
        opts.ckpt_dir = Some(dir.clone());
        let sampled = pool.run(&opts);
        for (c, s) in cold.iter().zip(&sampled) {
            assert_eq!(s.ckpt_restore_skips, 0, "no checkpoint was rejected");
            assert_eq!(trajectory(s), trajectory(c), "the result must equal a cold SimPoint run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_memory_snapshot_restore_runs_cold_from_a_fresh_simulator() {
        let (pool, cfg) = restore_pool();
        let ffwd = 1000;
        for i in 0..pool.len() {
            let seed = cell_seed(7, i as u64);
            let mem = CkptMem::new();
            let rp = |ckpt_mem| CellRun {
                trace: false,
                sample: 0,
                ffwd,
                ckpt_dir: None,
                ckpt_every: 0,
                profile: false,
                ckpt_mem: Some(ckpt_mem),
            };
            let cold = pool.run_cell_with(i, seed, &rp(&mem), None, None);
            let stem = pool.ckpt_stem(&pool.cells[i], seed, ffwd);
            let bytes = mem.get(&stem).expect("the cold run shares its boundary snapshot");
            let bad = CkptMem::new();
            bad.put(&stem, with_page_outside_window(&bytes, cfg.mem_bytes));
            let warm = pool.run_cell_with(i, seed, &rp(&bad), None, None);
            assert_eq!(warm.ckpt_restore_skips, 1, "the corrupt snapshot is reported");
            assert_eq!(
                trajectory(&warm),
                trajectory(&cold),
                "a failed restore must leave a cold run"
            );
        }
    }

    #[test]
    fn gauges_keep_their_end_value_and_stay_out_of_simpoint_totals() {
        type Gauge = fn(&SimStats) -> u64;
        let engines: [(EngineSpec, &str, Gauge); 2] = [
            (EngineSpec::Ri { sets: 64, ways: 2 }, "ri_occupancy", |s| s.engine.ri_occupancy),
            (EngineSpec::Mssr { streams: 4, log_entries: 64 }, "valid_streams", |s| {
                s.engine.valid_streams
            }),
        ];
        let mut pool = CellPool::new(Scale::Test);
        let w = pool.intern(microbench::nested_mispred(500));
        let cfg = SimConfig::default().with_max_cycles(1_000_000);
        for (spec, _, _) in &engines {
            pool.cell(w, (*spec).into(), cfg.clone());
        }
        let (warm, insts) = (14_000, 500);
        for (i, (_, key, gauge)) in engines.iter().enumerate() {
            let mut probe = pool.fresh_sim(&pool.cells[i], false);
            probe.run_until_insts(warm);
            assert!(gauge(&probe.stats()) > 0, "fixture: {key} is nonzero at the warmup end");
            let mut sim = pool.fresh_sim(&pool.cells[i], false);
            let (delta, _) = measure_region(&mut sim, warm, insts);
            let end = gauge(&sim.stats());
            assert!(end > 0, "fixture: {key} is nonzero at the region end");
            assert_eq!(gauge(&delta), end, "{key}: a region reports its end value");
        }
        let mut opts = HarnessOpts::new(Scale::Test);
        opts.jobs = 1;
        opts.simpoint = Some((2000, 3));
        for (r, (_, key, gauge)) in pool.run(&opts).iter().zip(&engines) {
            assert!(r.simpoint.is_some(), "fixture: a SimPoint cell");
            assert_eq!(gauge(&r.stats), 0, "{key}: a SimPoint total reads 0");
        }
    }

    #[test]
    fn record_ckpt_skips_counts_the_skipped_files_and_clean_cells_count_zero() {
        assert_eq!(record_ckpt_skips(&[], 0, "w", "BASE"), 0);
        let skipped = ["a.1.ckpt: bad".to_string(), "a.0.ckpt: bad".to_string()];
        assert_eq!(record_ckpt_skips(&skipped, 0, "w", "BASE"), 2);
    }

    #[test]
    fn ckpt_mem_first_snapshot_wins_and_counts() {
        let mem = CkptMem::new();
        assert!(mem.get("s").is_none());
        assert_eq!(mem.entries(), 0);
        mem.put("s", vec![1, 2, 3]);
        mem.put("s", vec![9, 9, 9]);
        assert_eq!(*mem.get("s").expect("cached"), vec![1, 2, 3]);
        assert_eq!(mem.entries(), 1);
    }

    #[test]
    fn pool_dedups_workloads_and_cells() {
        let mut pool = CellPool::new(Scale::Test);
        let a = pool.intern(microbench::nested_mispred(50));
        let b = pool.intern(microbench::nested_mispred(50));
        let c = pool.intern(microbench::nested_mispred(60));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let cfg = SimConfig::default().with_max_cycles(1_000_000);
        let c1 = pool.cell(a, EngineSpec::Baseline.into(), cfg.clone());
        let c2 = pool.cell(a, EngineSpec::Baseline.into(), cfg.clone());
        let c3 = pool.cell(a, EngineSpec::Mssr { streams: 4, log_entries: 64 }.into(), cfg.clone());
        let c4 = pool.cell(
            a,
            EngineCfg::from(EngineSpec::Mssr { streams: 4, log_entries: 64 }).with_timeout(64),
            cfg,
        );
        assert_eq!(c1, c2, "identical cells dedup");
        assert_ne!(c1, c3);
        assert_ne!(c3, c4, "ablation overrides are distinct cells");
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn engine_cfg_labels_and_builds() {
        let e = EngineCfg::from(EngineSpec::Mssr { streams: 4, log_entries: 64 })
            .with_mem_policy(MemCheckPolicy::BloomFilter)
            .with_timeout(64)
            .with_vpn_restrict(true);
        assert_eq!(e.label(), "RCVG_4_64+bloom+t64+vpn");
        assert_eq!(e.build().unwrap().name(), "mssr");
        assert!(EngineCfg::from(EngineSpec::Baseline).build().is_none());
        let ri = EngineCfg::from(EngineSpec::Ri { sets: 64, ways: 2 });
        assert_eq!(ri.label(), "RI_64x2");
        assert_eq!(ri.build().unwrap().name(), "ri");
    }
}
