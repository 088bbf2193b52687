//! The batch workloads: `reuse-micro`, `suite-mix` and `sampled-ckpt`.
//!
//! Every round runs the workload's cells one at a time (one grid worker):
//!
//! * a block of fresh set-ups (`Bench::build`, then dropped) is timed
//!   for `setup_s`; the rounds all use the first one;
//! * reuse-micro and suite-mix first fast-forward each kernel
//!   functionally to its end and check its architectural results (the
//!   oracle), then save, per cell, the fast-forward boundary half-way
//!   through its kernel as the warm pass's checkpoint. Neither step is
//!   part of a measured pass;
//! * the cold pass runs every cell in detail from a cold modelled
//!   machine, checks its results, and ends by parsing its own trajectory
//!   with `harness::report`. On sampled-ckpt it starts with the BBV pass
//!   (which is also the oracle) and clustering, then fast-forwards to each
//!   representative, saves a checkpoint there, and simulates it;
//! * the warm pass restores every checkpoint from disk and finishes the
//!   cell in detail. On sampled-ckpt its counters must equal the cold
//!   pass's; elsewhere they must repeat from round to round.
//!
//! After the last round the same cells run once through the program's
//! own batch grid (`CellPool::run`), whose statistics must match.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mssr_bench::harness::report::Trajectory;
use mssr_bench::harness::simpoint::{self, RepInterval, SimpointPlan};
use mssr_bench::harness::{
    cell_seed, splitmix64, CellPool, EngineCfg, HarnessOpts, DEFAULT_ROOT_SEED,
};
use mssr_bench::{experiment_sim_config, EngineSpec};
use mssr_sim::{
    fnv1a64, json_escape, BbvCollector, ProfReport, SimConfig, SimStats, Simulator,
    PROF_DEFAULT_STRIDE,
};
use mssr_workloads::{microbench, spec2006, spec2017, suite_workloads, Scale, Suite, Workload};

use crate::span::ratio;
use crate::{
    median, mips, num, peak_rss_mb, per_layer, round_scales, setup_block, speedup_pct, Fact,
    HostProbe, LayerInputs, Report, Run, MIN_ROUNDS,
};

/// Table 1's microbenchmark iterations at test scale: the cells of
/// `table1 --scale test`.
pub const MICRO_ITERS: u64 = 500;

/// sampled-ckpt's scale, SimPoint interval and cluster bound. At medium
/// scale the GAP kernels run 0.1–0.9M instructions, so fast-forward to
/// the representatives is a large share of each cell. Each checkpoint
/// costs tens of milliseconds to encode and decode whatever the scale,
/// so the cluster bound and the engine list keep a round to seconds.
const SAMPLED_SCALE: Scale = Scale::Medium;
const SIMPOINT: (u64, usize) = (10_000, 2);

/// The grid's SimPoint clustering salt and warmup divisor (`grid.rs`).
/// The plans, and so the cells, must be the batch reference's.
const SIMPOINT_SEED_SALT: u64 = 0x5350_4f49_4e54;
const SIMPOINT_WARMUP_DIV: u64 = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Micro,
    Mix,
    Sampled,
}

struct Cell {
    kernel: usize,
    spec: EngineSpec,
    /// "ENGINE kernel", the label of the cell's spans.
    label: String,
}

/// One detailed region of a cell: the whole run, or one SimPoint
/// representative after its warmup.
struct Region {
    start_inst: u64,
    weight: u64,
    warmup: u64,
    cycles: u64,
    insts: u64,
    grants: u64,
    /// The statistics at the region's end.
    stats: SimStats,
}

impl Region {
    fn whole(stats: SimStats) -> Region {
        Region {
            start_inst: 0,
            weight: stats.committed_instructions,
            warmup: 0,
            cycles: stats.cycles,
            insts: stats.committed_instructions,
            grants: stats.engine.reuse_grants,
            stats,
        }
    }

    fn same(&self, o: &Region) -> bool {
        (self.start_inst, self.warmup, self.cycles, self.insts, self.grants)
            == (o.start_inst, o.warmup, o.cycles, o.insts, o.grants)
            && self.stats.to_json() == o.stats.to_json()
    }
}

#[derive(Default)]
struct Round {
    traced: bool,
    /// Factor from this round's host seconds to the reference host's.
    scale: f64,
    cold_s: f64,
    warm_s: f64,
    /// Host seconds of each cell in the cold pass.
    cell_s: Vec<f64>,
    /// Per cell: host seconds and instructions inside detailed calls.
    det: Vec<(f64, u64)>,
    /// Per fast-forward call: host seconds and instructions.
    ffwd: Vec<(f64, u64)>,
    /// Per cell: its regions in the cold pass.
    regions: Vec<Vec<Region>>,
    /// The whole-run cells' warm regions (`None`: the restore failed).
    warm: Vec<Option<Region>>,
    prof: ProfReport,
}

struct Bench {
    kind: Kind,
    kernels: Vec<Workload>,
    cells: Vec<Cell>,
    cfg: SimConfig,
    /// The same cells in the program's batch grid: the reference.
    pool: CellPool,
}

fn ckpt_path(dir: &Path, cell: usize, region: usize) -> PathBuf {
    dir.join(format!("{cell}.{region}.ckpt"))
}

/// Snapshots `sim` and writes the checkpoint to `path`.
fn save(run: &mut Run, sim: &Simulator, path: &Path) {
    let o = run.tr.open("ckpt.encode", "");
    let bytes = sim.snapshot();
    run.tr.close(o, bytes.len() as u64, 0);
    let o = run.tr.open("ckpt.write", "");
    let r = std::fs::write(path, &bytes);
    run.tr.close(o, bytes.len() as u64, 0);
    run.checks.check(r.map_err(|e| format!("{}: {e}", path.display())));
}

/// Reads the checkpoint at `path` and restores it into `sim`.
fn load(run: &mut Run, sim: &mut Simulator, path: &Path) -> bool {
    let o = run.tr.open("ckpt.read", "");
    let bytes = std::fs::read(path);
    run.tr.close(o, bytes.as_ref().map_or(0, Vec::len) as u64, 0);
    let bytes = match bytes {
        Ok(b) => b,
        Err(e) => return run.checks.check(Err(format!("{}: {e}", path.display()))),
    };
    let o = run.tr.open("ckpt.decode", "");
    let r = sim.restore(&bytes);
    run.tr.close(o, bytes.len() as u64, 0);
    run.checks.check(r.map_err(|e| format!("{}: {e}", path.display())))
}

impl Bench {
    fn build(run: &mut Run, kind: Kind) -> Bench {
        let o = run.tr.open("workloads.build", &run.args.workload);
        let kernels =
            match kind {
                Kind::Micro => vec![
                    microbench::nested_mispred(MICRO_ITERS),
                    microbench::linear_mispred(MICRO_ITERS),
                ],
                Kind::Mix => {
                    // Pointer chasers (mcf's 2^17 nodes exceed the modelled
                    // 2 MiB L2), branchy kernels, and graph kernels.
                    let mut v = vec![
                        spec2006::mcf(1 << 17, 2_000),
                        spec2006::omnetpp(24, 240),
                        spec2006::xalancbmk(255, 360),
                        spec2006::astar(10),
                        spec2006::sjeng(120),
                        spec2017::leela(240),
                    ];
                    v.extend(suite_workloads(Suite::Gap, Scale::Test).into_iter().filter(|w| {
                        matches!(w.name().split('/').next(), Some("bfs" | "pr" | "cc"))
                    }));
                    v
                }
                Kind::Sampled => suite_workloads(Suite::Gap, SAMPLED_SCALE),
            };
        let engines: &[EngineSpec] = match kind {
            Kind::Micro => &[
                EngineSpec::Baseline,
                EngineSpec::Mssr { streams: 1, log_entries: 64 },
                EngineSpec::Mssr { streams: 2, log_entries: 64 },
                EngineSpec::Mssr { streams: 4, log_entries: 64 },
                EngineSpec::Ri { sets: 64, ways: 1 },
                EngineSpec::Ri { sets: 64, ways: 2 },
                EngineSpec::Ri { sets: 64, ways: 4 },
            ],
            Kind::Mix => &[EngineSpec::Baseline, EngineSpec::Mssr { streams: 4, log_entries: 64 }],
            // rollup's baseline and its 4-stream configuration.
            Kind::Sampled => {
                &[EngineSpec::Baseline, EngineSpec::Mssr { streams: 4, log_entries: 256 }]
            }
        };
        let cells: Vec<Cell> = (0..kernels.len())
            .flat_map(|k| engines.iter().map(move |&spec| (k, spec)))
            .map(|(kernel, spec)| Cell {
                kernel,
                spec,
                label: format!("{} {}", spec.label(), kernels[kernel].name()),
            })
            .collect();
        run.tr.close(o, kernels.len() as u64, 0);
        let cfg = experiment_sim_config();
        let o = run.tr.open("grid.pool", &run.args.workload);
        let mut pool = CellPool::new(scale(kind));
        let ids: Vec<usize> = kernels.iter().map(|w| pool.intern(w.clone())).collect();
        for c in &cells {
            pool.cell(ids[c.kernel], EngineCfg::from(c.spec), cfg.clone());
        }
        run.tr.close(o, 0, 0);
        Bench { kind, kernels, cells, cfg, pool }
    }

    fn instantiate(&self, run: &mut Run, c: &Cell) -> Simulator {
        let w = &self.kernels[c.kernel];
        let o = run.tr.open("sim.instantiate", &c.label);
        let mut sim = match EngineCfg::from(c.spec).build() {
            Some(e) => w.instantiate_with(self.cfg.clone(), e),
            None => w.instantiate(self.cfg.clone()),
        };
        if run.tr.on {
            sim.set_profiling(PROF_DEFAULT_STRIDE);
        }
        run.tr.close(o, 0, 0);
        sim
    }

    fn round(&self, run: &mut Run) -> Round {
        let mut out = Round { traced: run.tr.on, ..Round::default() };
        let dir = run.work.join("ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let made = std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()));
        run.checks.check(made);
        if self.kind != Kind::Sampled {
            let o = run.tr.open("pass.oracle", "");
            let mut lengths = Vec::with_capacity(self.kernels.len());
            for w in &self.kernels {
                let (secs, n) = run.oracle(w, &self.cfg);
                out.ffwd.push((secs, n));
                lengths.push(n);
            }
            for (i, c) in self.cells.iter().enumerate() {
                self.checkpoint_whole(run, i, lengths[c.kernel], &dir, &mut out.ffwd);
            }
            run.tr.close(o, 0, 0);
        }
        let pass = run.tr.open("pass.cold", "");
        let plans = if self.kind == Kind::Sampled { self.plans(run) } else { Vec::new() };
        for (i, c) in self.cells.iter().enumerate() {
            let o = run.tr.open("grid.cell", &c.label);
            let mut det = (0.0, 0);
            let regions = match plans.get(c.kernel) {
                None => vec![self.cold_whole(run, i, &mut det, &mut out.prof)],
                Some(Some(plan)) => {
                    self.cold_sampled(run, i, plan, &dir, &mut det, &mut out.ffwd, &mut out.prof)
                }
                // The plan failed, and that was counted.
                Some(None) => Vec::new(),
            };
            out.cell_s.push(run.tr.close(o, 0, 0).as_secs_f64());
            out.det.push(det);
            out.regions.push(regions);
        }
        self.parse_trajectory(run, &out.regions);
        out.cold_s = run.tr.close(pass, 0, 0).as_secs_f64();
        let pass = run.tr.open("pass.warm", "");
        for (i, c) in self.cells.iter().enumerate() {
            let Some(plan) = plans.get(c.kernel) else {
                out.warm.push(self.warm(run, i, 0, &dir, None));
                continue;
            };
            for (r, cold) in out.regions[i].iter().enumerate() {
                if let Some(got) = self.warm(run, i, r, &dir, plan.as_ref()) {
                    run.checks.check(if got.same(cold) {
                        Ok(())
                    } else {
                        Err(format!("{} rep {r}: restored run differs from cold", c.label))
                    });
                }
            }
        }
        out.warm_s = run.tr.close(pass, 0, 0).as_secs_f64();
        out
    }

    /// The checkpoint a whole-run cell's warm pass restores: the
    /// fast-forward boundary half-way through its kernel.
    fn checkpoint_whole(
        &self,
        run: &mut Run,
        i: usize,
        length: u64,
        dir: &Path,
        ffwd: &mut Vec<(f64, u64)>,
    ) {
        let c = &self.cells[i];
        let mut sim = self.instantiate(run, c);
        let o = run.tr.open("sim.ffwd", &c.label);
        let n = sim.fast_forward(length / 2);
        ffwd.push((run.tr.close(o, n, 0).as_secs_f64(), n));
        save(run, &sim, &ckpt_path(dir, i, 0));
    }

    /// A whole-run cell from a cold modelled machine.
    fn cold_whole(
        &self,
        run: &mut Run,
        i: usize,
        det: &mut (f64, u64),
        prof: &mut ProfReport,
    ) -> Region {
        let c = &self.cells[i];
        let mut sim = self.instantiate(run, c);
        let (d, n, _) = run.detailed(&c.label, &mut sim, |s| {
            s.run();
        });
        *det = (det.0 + d.as_secs_f64(), det.1 + n);
        run.verify(&self.kernels[c.kernel], &mut sim);
        prof.merge(&sim.profile_report());
        Region::whole(sim.stats())
    }

    /// The BBV pass and clustering of every kernel (the grid's SimPoint
    /// analysis pass). The functional pass runs each program to its end,
    /// so it also checks the architectural results.
    fn plans(&self, run: &mut Run) -> Vec<Option<SimpointPlan>> {
        let (interval, max_k) = SIMPOINT;
        let root = DEFAULT_ROOT_SEED ^ splitmix64(SIMPOINT_SEED_SALT);
        let mut plans = Vec::with_capacity(self.kernels.len());
        for (k, w) in self.kernels.iter().enumerate() {
            let o = run.tr.open("sim.instantiate", w.name());
            let mut sim = w.instantiate(self.cfg.clone());
            run.tr.close(o, 0, 0);
            let mut bbv = BbvCollector::new(interval);
            let o = run.tr.open("sim.ffwd_collect", w.name());
            let executed = sim.fast_forward_collect(self.cfg.max_insts, &mut bbv);
            run.tr.close(o, executed, 0);
            run.verify(w, &mut sim);
            let trace = match bbv.try_finish(executed) {
                Ok(t) => t,
                Err(v) => {
                    run.checks.check(Err(format!("{}: {v}", w.name())));
                    plans.push(None);
                    continue;
                }
            };
            let o = run.tr.open("simpoint.plan", w.name());
            plans.push(Some(simpoint::plan(&trace, max_k, cell_seed(root, k as u64))));
            run.tr.close(o, trace.intervals.len() as u64, 0);
        }
        plans
    }

    /// A SimPoint cell: per representative, fast-forward to its warmup
    /// start, checkpoint there, then warm up and measure in detail.
    #[allow(clippy::too_many_arguments)]
    fn cold_sampled(
        &self,
        run: &mut Run,
        i: usize,
        plan: &SimpointPlan,
        dir: &Path,
        det: &mut (f64, u64),
        ffwd: &mut Vec<(f64, u64)>,
        prof: &mut ProfReport,
    ) -> Vec<Region> {
        let c = &self.cells[i];
        let mut out = Vec::with_capacity(plan.reps.len());
        for (r, rep) in plan.reps.iter().enumerate() {
            let mut sim = self.instantiate(run, c);
            let skip = rep.start_inst - warmup(plan, rep);
            if skip > 0 {
                let o = run.tr.open("sim.ffwd", &c.label);
                let n = sim.fast_forward(skip);
                ffwd.push((run.tr.close(o, n, 0).as_secs_f64(), n));
            }
            save(run, &sim, &ckpt_path(dir, i, r));
            out.push(self.measure(run, c, &mut sim, plan, rep, det));
            prof.merge(&sim.profile_report());
        }
        out
    }

    /// Detailed warmup, then the representative's measured instructions,
    /// exactly as the grid's SimPoint cell runs them.
    fn measure(
        &self,
        run: &mut Run,
        c: &Cell,
        sim: &mut Simulator,
        plan: &SimpointPlan,
        rep: &RepInterval,
        det: &mut (f64, u64),
    ) -> Region {
        let warm = warmup(plan, rep);
        let (d1, n1, _) = run.detailed(&c.label, sim, |s| {
            if warm > 0 {
                s.run_until_insts(warm);
            }
        });
        let ws = sim.stats();
        let target = ws.committed_instructions + rep.insts;
        let (d2, n2, _) = run.detailed(&c.label, sim, |s| s.run_until_insts(target));
        *det = (det.0 + (d1 + d2).as_secs_f64(), det.1 + n1 + n2);
        let st = sim.stats();
        Region {
            start_inst: rep.start_inst,
            weight: rep.weight_insts,
            warmup: ws.committed_instructions,
            cycles: st.cycles - ws.cycles,
            insts: st.committed_instructions - ws.committed_instructions,
            grants: st.engine.reuse_grants - ws.engine.reuse_grants,
            stats: st,
        }
    }

    /// Restores region `r` of cell `i` from its checkpoint on disk and
    /// finishes it in detail.
    fn warm(
        &self,
        run: &mut Run,
        i: usize,
        r: usize,
        dir: &Path,
        plan: Option<&SimpointPlan>,
    ) -> Option<Region> {
        let c = &self.cells[i];
        let mut sim = self.instantiate(run, c);
        if !load(run, &mut sim, &ckpt_path(dir, i, r)) {
            return None;
        }
        Some(match plan {
            Some(p) => self.measure(run, c, &mut sim, p, &p.reps[r], &mut (0.0, 0)),
            None => {
                run.detailed(&c.label, &mut sim, |s| {
                    s.run();
                });
                run.verify(&self.kernels[c.kernel], &mut sim);
                Region::whole(sim.stats())
            }
        })
    }

    /// The cold pass's trajectory (one `"cell"` record per region),
    /// parsed back with the report's parser.
    fn parse_trajectory(&self, run: &mut Run, regions: &[Vec<Region>]) {
        let want: usize = regions.iter().map(Vec::len).sum();
        let mut text = format!(
            "{{\"type\":\"meta\",\"root_seed\":\"{:#x}\",\"scale\":\"{:?}\",\"cells\":{want}}}\n",
            run.args.seed,
            scale(self.kind)
        );
        let mut id = 0;
        for (i, rs) in regions.iter().enumerate() {
            let c = &self.cells[i];
            let w = &self.kernels[c.kernel];
            for r in rs {
                let _ = writeln!(
                    text,
                    "{{\"type\":\"cell\",\"id\":{id},\"workload\":\"{}\",\"suite\":\"{}\",\"engine\":\"{}\",\"seed\":\"{:#x}\",\"stats\":{}}}",
                    json_escape(w.name()),
                    w.suite(),
                    json_escape(&c.spec.label()),
                    cell_seed(run.args.seed, i as u64),
                    r.stats.to_json()
                );
                id += 1;
            }
        }
        let o = run.tr.open("report.parse", "");
        let parsed = Trajectory::parse(&text);
        run.tr.close(o, text.len() as u64, 0);
        run.checks.check(match parsed {
            Ok(t) if t.cells.len() == want => Ok(()),
            Ok(t) => Err(format!("trajectory: wrote {want} cells, parsed {}", t.cells.len())),
            Err(e) => Err(format!("trajectory: {e}")),
        });
    }

    /// Runs the pool once through the program's batch grid and checks
    /// every cell's statistics against the cold pass.
    fn reference(&self, run: &mut Run, cold: &[Vec<Region>]) {
        let mut opts = HarnessOpts::new(scale(self.kind));
        opts.jobs = 1;
        opts.root_seed = run.args.seed;
        if self.kind == Kind::Sampled {
            // The clustering seed derives from the root seed; the plans
            // use the default one.
            opts.root_seed = DEFAULT_ROOT_SEED;
            opts.simpoint = Some(SIMPOINT);
        }
        let results = self.pool.run(&opts);
        for ((c, res), regions) in self.cells.iter().zip(&results).zip(cold) {
            let same = match &res.simpoint {
                None => regions.len() == 1 && regions[0].stats.to_json() == res.stats.to_json(),
                Some(sp) => {
                    sp.reps.len() == regions.len()
                        && sp.reps.iter().zip(regions).all(|(a, b)| {
                            (a.start_inst, a.warmup_insts, a.cycles, a.insts)
                                == (b.start_inst, b.warmup, b.cycles, b.insts)
                        })
                }
            };
            run.checks.check(if same {
                Ok(())
            } else {
                Err(format!("{}: differs from the batch grid's result", c.label))
            });
        }
    }

    /// Digest of the simulated counters (cycles, committed instructions,
    /// reuse grants) of every cold and warm region of a round.
    fn digest(&self, round: &Round) -> u64 {
        let mut s = String::new();
        for (c, rs) in self.cells.iter().zip(&round.regions) {
            for r in rs {
                let _ = write!(s, "{}|{}|{}|{};", c.label, r.cycles, r.insts, r.grants);
            }
        }
        for r in &round.warm {
            match r {
                Some(r) => {
                    let _ = write!(s, "warm|{}|{}|{};", r.cycles, r.insts, r.grants);
                }
                None => s.push_str("warm|failed;"),
            }
        }
        fnv1a64(s.as_bytes())
    }

    /// Geometric-mean cycle gain of the 4-stream MSSR cells over BASE:
    /// RCVG_4_64, or rollup's RCVG_4_256 on sampled-ckpt, where a cell's
    /// cycles are reconstructed from its weighted representatives.
    fn speedup(&self, regions: &[Vec<Region>]) -> f64 {
        let target = if self.kind == Kind::Sampled { "RCVG_4_256" } else { "RCVG_4_64" };
        let cycles = |label: &str, k: usize| -> Option<f64> {
            let i = self.cells.iter().position(|c| c.kernel == k && c.spec.label() == label)?;
            let rs = &regions[i];
            let est: f64 =
                rs.iter().map(|r| ratio(r.cycles as f64, r.insts as f64) * r.weight as f64).sum();
            (est > 0.0).then_some(est)
        };
        let pairs: Vec<(f64, f64)> = (0..self.kernels.len())
            .filter_map(|k| Some((cycles("BASE", k)?, cycles(target, k)?)))
            .collect();
        speedup_pct(&pairs)
    }
}

fn warmup(plan: &SimpointPlan, rep: &RepInterval) -> u64 {
    (plan.interval / SIMPOINT_WARMUP_DIV).min(rep.start_inst)
}

fn scale(kind: Kind) -> Scale {
    if kind == Kind::Sampled {
        SAMPLED_SCALE
    } else {
        Scale::Test
    }
}

pub fn run(run: &mut Run) -> Report {
    let kind = match run.args.workload.as_str() {
        "reuse-micro" => Kind::Micro,
        "suite-mix" => Kind::Mix,
        _ => Kind::Sampled,
    };
    let probe = HostProbe::default();
    run.tr.on = run.args.trace;
    let b = Bench::build(run, kind);
    let budget = Duration::from_secs_f64(run.args.seconds);
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    let mut setups = Vec::new();
    let mut probes = vec![probe.factor()];
    while rounds.len() < MIN_ROUNDS || t0.elapsed() < budget {
        run.tr.on = run.args.trace && rounds.len() % 2 == 1;
        setups.push(setup_block(u32::MAX, || {
            let t = Instant::now();
            let fresh = Bench::build(run, kind);
            let took = t.elapsed();
            drop(fresh);
            took
        }));
        rounds.push(b.round(run));
        probes.push(probe.factor());
    }
    run.tr.on = false;
    for (r, s) in rounds.iter_mut().zip(round_scales(&probes)) {
        r.scale = s;
    }
    let setup_s = median(&setups.iter().zip(&rounds).map(|(s, r)| s * r.scale).collect::<Vec<_>>());
    let digests: Vec<u64> = rounds.iter().map(|r| b.digest(r)).collect();
    for (i, d) in digests.iter().enumerate().skip(1) {
        run.checks.check(if *d == digests[0] {
            Ok(())
        } else {
            Err(format!("round {i}: simulated counters differ from round 0"))
        });
    }
    b.reference(run, &rounds[0].regions);
    if run.args.trace {
        run.tr.on = true;
        let kernels: Vec<&Workload> = b.kernels.iter().collect();
        run.bpred_probe(&kernels, &b.cfg);
        run.tr.on = false;
    }

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let cold = |rs: &[&Round]| median(&rs.iter().map(|r| r.cold_s * r.scale).collect::<Vec<_>>());
    // Each cell's median latency over the rounds. Cell costs cluster by
    // kernel and engine, so a percentile of the pooled samples can fall in
    // a gap between clusters and jump from run to run; the median and the
    // slowest of the per-cell medians follow fixed cells.
    let cell_ms: Vec<f64> = (0..b.cells.len())
        .map(|i| median(&untraced.iter().map(|r| r.cell_s[i] * r.scale * 1e3).collect::<Vec<_>>()))
        .collect();
    let tail_ms = cell_ms.iter().copied().fold(0.0, f64::max);
    let cells_done = untraced.iter().map(|r| r.cell_s.len()).sum::<usize>() as f64;
    let cold_total: f64 = untraced.iter().map(|r| r.cold_s * r.scale).sum();
    let e2e = vec![
        ("setup_s", setup_s),
        ("wall_s", cold(&untraced)),
        ("warm_wall_s", median(&untraced.iter().map(|r| r.warm_s * r.scale).collect::<Vec<_>>())),
        ("sim_mips", mips(&untraced.iter().map(|r| (&r.det[..], r.scale)).collect::<Vec<_>>())),
        ("ffwd_mips", mips(&untraced.iter().map(|r| (&r.ffwd[..], r.scale)).collect::<Vec<_>>())),
        ("req_per_s", ratio(cells_done, cold_total)),
        ("miss_p50_ms", median(&cell_ms)),
        ("miss_tail_ms", tail_ms),
        ("peak_rss_mb", peak_rss_mb()),
        ("reuse_speedup_pct", b.speedup(&rounds[0].regions)),
    ];
    let facts: Vec<Fact> = b
        .cells
        .iter()
        .zip(&rounds[0].regions)
        .flat_map(|(c, rs)| {
            let kernel = b.kernels[c.kernel].name();
            rs.iter().map(move |r| Fact::new(&c.spec.label(), kernel, &r.stats))
        })
        .collect();
    let mut prof = ProfReport::default();
    for r in &traced {
        prof.merge(&r.prof);
    }
    let layers = per_layer(
        &run.tr,
        &LayerInputs {
            facts: &facts,
            prof: &prof,
            overhead_ratio: ratio(cold(&traced), cold(&untraced)),
            serve: [0.0; 4],
        },
    );
    let info = vec![
        ("root_seed", format!("\"{:#x}\"", run.args.seed)),
        ("digest", format!("\"{:#018x}\"", digests[0])),
        ("host_scale", num(median(&probes))),
        ("unscaled_wall_s", num(median(&untraced.iter().map(|r| r.cold_s).collect::<Vec<_>>()))),
        ("rounds", rounds.len().to_string()),
        ("cells", b.cells.len().to_string()),
        (
            "miss_tail",
            format!(
                "{{\"percentile\":100,\"samples\":{},\"beyond\":0,\"of\":\"per-cell medians\"}}",
                cell_ms.len()
            ),
        ),
        (
            "modelled_caches",
            if kind == Kind::Sampled { "\"warmed by fast-forward\"" } else { "\"cold\"" }
                .to_string(),
        ),
    ];
    Report { e2e, layers, info }
}
