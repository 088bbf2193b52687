//! `perfbench`: the repository benchmark.
//!
//! One process runs one workload for a host-time budget and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, taken from spans the benchmark records around its own
//! calls into each layer (`span.rs`). The line before it is an `info`
//! object: the seeds, the digest of the simulated counters, the error
//! rate and the tail percentile. `perfbench/README.md` says what each
//! workload and metric is for.

mod batch;
mod serve;
mod span;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mssr_bench::harness::report::Json;
use mssr_isa::Pc;
use mssr_sim::{
    BpredKind, BranchPredictor, Interpreter, ProfBucket, ProfReport, SimConfig, SimStats, Simulator,
};
use mssr_workloads::Workload;

use span::{ratio, Agg, Tracer};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
[--inject-slowdown] [--inject-verify-failure]
  NAME is one of reuse-micro, suite-mix, sampled-ckpt, serve-mixed";

const WORKLOADS: [&str; 4] = ["reuse-micro", "suite-mix", "sampled-ckpt", "serve-mixed"];

/// Rounds every run makes, whatever its time budget. A traced run
/// alternates untraced and traced rounds, so it gets two of each.
pub const MIN_ROUNDS: usize = 4;

/// Host seconds of set-up a block of set-ups repeats for, at least: a
/// single set-up can take under a millisecond, too little to time
/// steadily. One block runs before every round, so `setup_s`, the median
/// over blocks of one set-up's time, samples the host over the whole run.
const SETUP_BLOCK_S: f64 = 0.05;

/// The share of its speed `--inject-slowdown` takes from every
/// detailed-simulation call.
const INJECTED_SLOWDOWN: f64 = 0.25;

/// Conditional branches replayed per kernel through each predictor.
const BPRED_REPLAY_CAP: usize = 200_000;

/// The end-to-end metrics and their units. Every workload reports each.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("sim_mips", "MIPS"),
    ("ffwd_mips", "MIPS"),
    ("req_per_s", "1/s"),
    ("miss_p50_ms", "ms"),
    ("miss_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("reuse_speedup_pct", "%"),
];

/// The per-layer metrics and their units. A layer a workload does not
/// call reads 0 on it.
const PER_LAYER: [(&str, &str); 36] = [
    ("workloads.build_ms", "ms"),
    ("grid.cell_ms_p50", "ms"),
    ("grid.cell_ms_max", "ms"),
    ("grid.overhead_ms", "ms"),
    ("sim.ns_per_inst.BASE", "ns"),
    ("sim.ns_per_inst.RCVG_4_64", "ns"),
    ("sim.ns_per_inst.RI_64x4", "ns"),
    ("sim.ns_per_cycle.BASE", "ns"),
    ("sim.stage_share.fetch", "ratio"),
    ("sim.stage_share.rename", "ratio"),
    ("sim.stage_share.issue", "ratio"),
    ("sim.stage_share.execute", "ratio"),
    ("sim.stage_share.commit", "ratio"),
    ("sim.stage_share.squash", "ratio"),
    ("core.mssr.extra_ns_per_inst", "ns"),
    ("core.ri.extra_ns_per_inst", "ns"),
    ("core.reuse_tests", "count"),
    ("core.reuse_grants", "count"),
    ("core.grant_rate", "ratio"),
    ("bpred.mpki", "1/kinst"),
    ("bpred.ns_per_branch.tage", "ns"),
    ("bpred.ns_per_branch.tagescl", "ns"),
    ("mem.l1_miss_rate", "ratio"),
    ("mem.l2_miss_rate", "ratio"),
    ("ffwd.ns_per_inst", "ns"),
    ("bbv.ns_per_inst", "ns"),
    ("simpoint.plan_ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.encode_mb_s", "MB/s"),
    ("ckpt.decode_mb_s", "MB/s"),
    ("serve.hit_p50_us", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.joins", "count"),
    ("serve.miss_overhead_ms", "ms"),
    ("report.parse_mb_s", "MB/s"),
    ("trace.overhead_ratio", "ratio"),
];

pub struct Args {
    pub workload: String,
    /// Root seed of the cell seeds, and of the serve request mix.
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Negative control: slow every detailed-simulation call down by
    /// `INJECTED_SLOWDOWN` of its speed (stretching it to 4/3 of its
    /// duration).
    pub inject_slowdown: bool,
    /// Negative control: corrupt one verified result.
    pub inject_verify_failure: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject_slowdown: false,
        inject_verify_failure: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                }
            }
            "--inject-slowdown" => a.inject_slowdown = true,
            "--inject-verify-failure" => a.inject_verify_failure = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

/// Operations checked and failed in one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation; returns whether it passed.
    pub fn check(&mut self, r: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(e) = &r {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {e}");
            }
        }
        r.is_ok()
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    /// Extra members of the `info` line, as raw JSON values.
    pub info: Vec<(&'static str, String)>,
}

/// One benchmark run: its arguments, scratch directory, spans and checks.
pub struct Run {
    pub args: Args,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
    pub tr: Tracer,
    pub checks: Checks,
    failure_pending: bool,
}

impl Run {
    /// One detailed-simulation call inside a `sim.detailed` span, slowed
    /// down by `--inject-slowdown`. Returns its duration and the
    /// instructions committed and cycles simulated during it.
    pub fn detailed(
        &mut self,
        label: &str,
        sim: &mut Simulator,
        f: impl FnOnce(&mut Simulator),
    ) -> (Duration, u64, u64) {
        let (i0, c0) = (sim.stats().committed_instructions, sim.cycle());
        let o = self.tr.open("sim.detailed", label);
        let t = Instant::now();
        f(sim);
        if self.args.inject_slowdown {
            let until = t.elapsed().mul_f64(1.0 / (1.0 - INJECTED_SLOWDOWN) - 1.0);
            // A plain busy loop: a spin-wait hint (PAUSE) in a tight loop
            // makes a KVM host take the core away, which slowed the
            // simulation that followed too.
            let t = Instant::now();
            while t.elapsed() < until {}
        }
        let (di, dc) = (sim.stats().committed_instructions - i0, sim.cycle() - c0);
        (self.tr.close(o, di, dc), di, dc)
    }

    /// Checks a finished simulator's architectural results against the
    /// workload's reference. Under `--inject-verify-failure` the first
    /// call corrupts one result word first.
    pub fn verify(&mut self, w: &Workload, sim: &mut Simulator) {
        if std::mem::take(&mut self.failure_pending) {
            if let Some(c) = w.checks().first() {
                sim.write_mem_u64(c.addr, !c.expect);
            }
        }
        let o = self.tr.open("verify", w.name());
        let r = if sim.is_halted() { w.verify(sim) } else { Err("did not halt".to_string()) };
        self.tr.close(o, 0, 0);
        self.checks.check(r.map_err(|e| format!("{}: {e}", w.name())));
    }

    /// The functional oracle: fast-forwards a fresh simulator of `w` to
    /// the program's end and checks its architectural results. Returns
    /// the host seconds of the fast-forward and the instructions it ran.
    pub fn oracle(&mut self, w: &Workload, cfg: &SimConfig) -> (f64, u64) {
        let o = self.tr.open("sim.instantiate", w.name());
        let mut sim = w.instantiate(cfg.clone());
        self.tr.close(o, 0, 0);
        let o = self.tr.open("sim.ffwd", w.name());
        let n = sim.fast_forward(u64::MAX);
        let d = self.tr.close(o, n, 0);
        self.verify(w, &mut sim);
        (d.as_secs_f64(), n)
    }

    /// Replays each kernel's conditional-branch stream, taken from the
    /// interpreter, through the TAGE and TAGE-SC-L predictors
    /// (`bpred.replay` spans; traced runs only).
    pub fn bpred_probe(&mut self, kernels: &[&Workload], cfg: &SimConfig) {
        for w in kernels {
            let mut it = Interpreter::new(w.program().clone(), cfg.mem_bytes);
            for &(a, v) in w.mem() {
                it.write_mem_u64(a, v);
            }
            let mut stream: Vec<(Pc, bool)> = Vec::new();
            while stream.len() < BPRED_REPLAY_CAP {
                let pc = it.pc();
                let cond = w.program().fetch(pc).is_some_and(|i| i.is_cond_branch());
                if it.step().is_some() {
                    break;
                }
                if cond {
                    stream.push((pc, it.pc() != pc.next()));
                }
            }
            for kind in [BpredKind::Tage, BpredKind::TageScl] {
                let mut bp = BranchPredictor::new(&cfg.clone().with_bpred(kind));
                let o = self.tr.open("bpred.replay", kind.name());
                for &(pc, taken) in &stream {
                    let (pred, meta) = bp.predict_cond(pc);
                    if pred != taken {
                        bp.recover_cond(meta, taken);
                    }
                    bp.train_cond(pc, taken, meta);
                }
                self.tr.close(o, stream.len() as u64, 0);
                std::hint::black_box(&bp);
            }
        }
    }
}

/// Steps of each of the host-speed probe's two timed walks.
const PROBE_STEPS: u32 = 1 << 21;

/// Entries of the probe's two permutations: 4 MiB, which lives in the
/// last-level cache, and 128 KiB, which lives in L2.
const PROBE_ENTRIES: [usize; 2] = [1 << 20, 1 << 15];

/// Bytes of fresh memory the probe maps and reads, one byte per page.
/// This is above the largest allocation glibc's malloc serves from its
/// heap (32 MiB), so the pages come fresh from the kernel whatever the
/// program allocated and freed before.
const PROBE_FAULT_BYTES: usize = 64 << 20;

/// The probe's seconds on the reference host (a 2.1 GHz vCPU). Host times
/// are reported in reference-host seconds: the time the reference host
/// would have taken at the probe's speed.
const PROBE_REF_S: f64 = 0.016;

/// A host-speed probe that shares neither code nor heap state with the
/// program under test. It times pointer chasing through two single-cycle
/// permutations built once at start, interleaved with branchy integer
/// work, and faulting in `PROBE_FAULT_BYTES` of fresh pages. Each timed
/// walk follows one untimed walk round its whole cycle, so it finds its
/// table in the same cache state whatever ran before: how the program uses
/// memory or cache cannot move the probe.
///
/// On a shared host the speed of the machine drifts by a quarter within
/// minutes, in CPU time as much as in wall time. The probe runs before and
/// after every round, and each round's host seconds are multiplied by
/// `PROBE_REF_S / probe seconds`, which removes most of that drift but not
/// a change in the program's own speed. The probe's seconds are the
/// geometric mean of the walks' time (itself the geometric mean of the two
/// walks) and the fault time. No part alone tracks the program: the
/// last-level-cache walk overreacts to other tenants' cache traffic, the
/// L2 walk underreacts, and checkpoint-heavy rounds follow the fault time
/// more closely than either walk.
pub struct HostProbe {
    tables: [Vec<u32>; 2],
}

impl Default for HostProbe {
    fn default() -> HostProbe {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let tables = PROBE_ENTRIES.map(|n| {
            // Sattolo's shuffle: one cycle through every entry.
            let mut table: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                table.swap(i, (x % i as u64) as usize);
            }
            table
        });
        HostProbe { tables }
    }
}

impl HostProbe {
    /// Runs the probe; returns the factor that scales this moment's host
    /// seconds to the reference host's.
    pub fn factor(&self) -> f64 {
        let secs = self.tables.each_ref().map(|table| {
            walk(table, table.len() as u32);
            let t = Instant::now();
            walk(table, PROBE_STEPS);
            t.elapsed().as_secs_f64()
        });
        let t = Instant::now();
        let pages = std::hint::black_box(vec![0u8; PROBE_FAULT_BYTES]);
        let read: u64 = pages.iter().step_by(4096).map(|&b| u64::from(b)).sum();
        std::hint::black_box(read);
        drop(pages);
        let fault = t.elapsed().as_secs_f64();
        PROBE_REF_S / ((secs[0] * secs[1]).sqrt() * fault).sqrt()
    }
}

/// `steps` steps of the probe's pointer chase through `table`.
fn walk(table: &[u32], steps: u32) {
    let (mut i, mut x, mut acc) = (0u32, 0x2545_f491_4f6c_dd1du64, 0u64);
    for _ in 0..steps {
        i = table[i as usize];
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 3 == 0 {
            acc = acc.wrapping_add(u64::from(i));
        } else {
            acc ^= x;
        }
    }
    std::hint::black_box(acc);
}

/// One block of set-ups: repeats `setup`, which returns the host time of
/// its own timed part, until `SETUP_BLOCK_S` host seconds have passed
/// inside it or it has run `max` times. Returns the mean host seconds of
/// one set-up.
pub fn setup_block(max: u32, mut setup: impl FnMut() -> Duration) -> f64 {
    let (mut secs, mut n) = (0.0, 0u32);
    while n == 0 || (secs < SETUP_BLOCK_S && n < max) {
        secs += setup().as_secs_f64();
        n += 1;
    }
    secs / f64::from(n)
}

/// Median (0 for no samples).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it:
/// (percentile, value, samples beyond). With fewer than eleven samples
/// it is the maximum, and fewer lie beyond.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return (0.0, 0.0, 0);
    }
    let n = s.len();
    let i = if n > 10 { n - 11 } else { n - 1 };
    (100.0 * (i + 1) as f64 / n as f64, s[i], n - 1 - i)
}

/// Millions of instructions per host second: each round's instructions
/// over the scaled host seconds of its calls, median across rounds.
pub fn mips(rounds: &[(&[(f64, u64)], f64)]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|(calls, scale)| {
            let (secs, insts) = calls.iter().fold((0.0, 0u64), |(s, n), &(a, b)| (s + a, n + b));
            ratio(insts as f64 / 1e6, secs * scale)
        })
        .collect();
    median(&rates)
}

/// Each round's host-time scale: the geometric mean of the probes taken
/// just before and just after it (`probes` has one more entry than there
/// are rounds).
pub fn round_scales(probes: &[f64]) -> Vec<f64> {
    probes.windows(2).map(|w| (w[0] * w[1]).sqrt()).collect()
}

/// Geometric-mean cycle gain, in percent, over (BASE cycles, engine
/// cycles) pairs.
pub fn speedup_pct(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let mean_log = pairs.iter().map(|(b, e)| (b / e).ln()).sum::<f64>() / pairs.len() as f64;
    100.0 * (mean_log.exp() - 1.0)
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = |key: &str| {
        status.lines().find_map(|l| {
            l.strip_prefix(key)?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
    };
    kb("VmHWM:").or_else(|| kb("VmRSS:")).map_or(0.0, |k| k / 1024.0)
}

/// One cell's simulated counters, as the per-layer metrics use them.
pub struct Fact {
    pub engine: String,
    pub kernel: String,
    pub cycles: u64,
    pub insts: u64,
    pub tests: u64,
    pub grants: u64,
    pub mispredictions: u64,
    pub l1: (u64, u64),
    pub l2: (u64, u64),
}

impl Fact {
    pub fn new(engine: &str, kernel: &str, s: &SimStats) -> Fact {
        Fact {
            engine: engine.to_string(),
            kernel: kernel.to_string(),
            cycles: s.cycles,
            insts: s.committed_instructions,
            tests: s.engine.reuse_tests,
            grants: s.engine.reuse_grants,
            mispredictions: s.mispredictions,
            l1: (s.l1_hits, s.l1_misses),
            l2: (s.l2_hits, s.l2_misses),
        }
    }

    /// From a trajectory `"cell"` record.
    pub fn from_line(v: &Json) -> Option<Fact> {
        let s = v.get("stats")?;
        let e = s.get("engine")?;
        Some(Fact {
            engine: v.get("engine")?.str_val()?.to_string(),
            kernel: v.get("workload")?.str_val()?.to_string(),
            cycles: s.field_u64("cycles"),
            insts: s.field_u64("committed_instructions"),
            tests: e.field_u64("reuse_tests"),
            grants: e.field_u64("reuse_grants"),
            mispredictions: s.field_u64("mispredictions"),
            l1: (s.field_u64("l1_hits"), s.field_u64("l1_misses")),
            l2: (s.field_u64("l2_hits"), s.field_u64("l2_misses")),
        })
    }
}

/// `reuse_speedup_pct` over whole-run cells: each kernel's BASE cycles
/// against `engine`'s.
pub fn speedup_from_facts(facts: &[Fact], engine: &str) -> f64 {
    let cycles = |k: &str, e: &str| {
        facts.iter().find(|f| f.kernel == k && f.engine == e).map(|f| f.cycles as f64)
    };
    let pairs: Vec<(f64, f64)> = facts
        .iter()
        .filter(|f| f.engine == "BASE")
        .filter_map(|f| Some((f.cycles as f64, cycles(&f.kernel, engine)?)))
        .collect();
    speedup_pct(&pairs)
}

/// What the per-layer metrics need besides the spans.
pub struct LayerInputs<'a> {
    pub facts: &'a [Fact],
    /// The simulator's stage profile over the traced detailed runs.
    pub prof: &'a ProfReport,
    /// Median traced over median untraced measured-pass time.
    pub overhead_ratio: f64,
    /// serve.hit_p50_us, serve.hit_rate, serve.joins, serve.miss_overhead_ms.
    pub serve: [f64; 4],
}

/// Engine-label part of a `sim.detailed` span label ("ENGINE kernel").
fn engine_of(label: &str) -> &str {
    label.split(' ').next().unwrap_or("")
}

/// Host ns per committed instruction of the engines whose label starts
/// with `prefix`, minus BASE's on the same kernel, weighted by the
/// engine cells' instructions.
fn extra_ns_per_inst(tr: &Tracer, prefix: &str) -> f64 {
    let mut by_kernel: BTreeMap<&str, [Agg; 2]> = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.name == "sim.detailed") {
        let (engine, kernel) = s.label.split_once(' ').unwrap_or((&s.label, ""));
        let slot = match engine {
            "BASE" => 0,
            e if e.starts_with(prefix) => 1,
            _ => continue,
        };
        by_kernel.entry(kernel).or_default()[slot].add(s);
    }
    let (mut num, mut den) = (0.0, 0.0);
    for [base, eng] in by_kernel.values() {
        if base.n > 0 && eng.n > 0 {
            num += (eng.ns_per_n() - base.ns_per_n()) * eng.n as f64;
            den += eng.n as f64;
        }
    }
    ratio(num, den)
}

/// Every per-layer metric, from the spans of the traced rounds.
pub fn per_layer(tr: &Tracer, l: &LayerInputs) -> Vec<(&'static str, f64)> {
    let all = |name: &str| tr.sum(name, |_| true);
    let detailed = |engine: &str| tr.sum("sim.detailed", |label| engine_of(label) == engine);
    let cells = tr.durations_ms("grid.cell");
    let stages = [
        ProfBucket::Fetch,
        ProfBucket::Rename,
        ProfBucket::Issue,
        ProfBucket::Execute,
        ProfBucket::Commit,
        ProfBucket::Squash,
    ];
    let stage_ns: u64 = stages.iter().map(|b| l.prof.get(*b)).sum();
    let share = |b: ProfBucket| ratio(l.prof.get(b) as f64, stage_ns as f64);
    let total = |f: fn(&Fact) -> u64| l.facts.iter().map(f).sum::<u64>() as f64;
    let (l1h, l1m) = (total(|f| f.l1.0), total(|f| f.l1.1));
    let (l2h, l2m) = (total(|f| f.l2.0), total(|f| f.l2.1));
    let ffwd = all("sim.ffwd").ns_per_n();
    let collect = all("sim.ffwd_collect");
    let bbv = if collect.n > 0 { collect.ns_per_n() - ffwd } else { 0.0 };
    let encode = all("ckpt.encode");
    vec![
        ("workloads.build_ms", all("workloads.build").ms_per_call()),
        ("grid.cell_ms_p50", median(&cells)),
        ("grid.cell_ms_max", cells.iter().copied().fold(0.0, f64::max)),
        ("grid.overhead_ms", median(&tr.self_ms("pass.cold"))),
        ("sim.ns_per_inst.BASE", detailed("BASE").ns_per_n()),
        ("sim.ns_per_inst.RCVG_4_64", detailed("RCVG_4_64").ns_per_n()),
        ("sim.ns_per_inst.RI_64x4", detailed("RI_64x4").ns_per_n()),
        ("sim.ns_per_cycle.BASE", detailed("BASE").ns_per_m()),
        ("sim.stage_share.fetch", share(ProfBucket::Fetch)),
        ("sim.stage_share.rename", share(ProfBucket::Rename)),
        ("sim.stage_share.issue", share(ProfBucket::Issue)),
        ("sim.stage_share.execute", share(ProfBucket::Execute)),
        ("sim.stage_share.commit", share(ProfBucket::Commit)),
        ("sim.stage_share.squash", share(ProfBucket::Squash)),
        ("core.mssr.extra_ns_per_inst", extra_ns_per_inst(tr, "RCVG_")),
        ("core.ri.extra_ns_per_inst", extra_ns_per_inst(tr, "RI_")),
        ("core.reuse_tests", total(|f| f.tests)),
        ("core.reuse_grants", total(|f| f.grants)),
        ("core.grant_rate", ratio(total(|f| f.grants), total(|f| f.tests))),
        ("bpred.mpki", ratio(total(|f| f.mispredictions) * 1e3, total(|f| f.insts))),
        ("bpred.ns_per_branch.tage", tr.sum("bpred.replay", |k| k == "tage").ns_per_n()),
        ("bpred.ns_per_branch.tagescl", tr.sum("bpred.replay", |k| k == "tagescl").ns_per_n()),
        ("mem.l1_miss_rate", ratio(l1m, l1h + l1m)),
        ("mem.l2_miss_rate", ratio(l2m, l2h + l2m)),
        ("ffwd.ns_per_inst", ffwd),
        ("bbv.ns_per_inst", bbv),
        ("simpoint.plan_ms", all("simpoint.plan").ms_per_call()),
        ("ckpt.bytes", ratio(encode.n as f64, encode.calls as f64)),
        ("ckpt.encode_mb_s", encode.n_per_us()),
        ("ckpt.decode_mb_s", all("ckpt.decode").n_per_us()),
        ("serve.hit_p50_us", l.serve[0]),
        ("serve.hit_rate", l.serve[1]),
        ("serve.joins", l.serve[2]),
        ("serve.miss_overhead_ms", l.serve[3]),
        ("report.parse_mb_s", all("report.parse").n_per_us()),
        ("trace.overhead_ratio", l.overhead_ratio),
    ]
}

/// A metric value as JSON: every digit as measured; a value that could
/// not be measured (no samples) reads 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        std::process::exit(1);
    }
    let failure_pending = args.inject_verify_failure;
    let mut run = Run { args, work, tr: Tracer::new(), checks: Checks::default(), failure_pending };
    let report = if run.args.workload == "serve-mixed" {
        serve::run(&mut run)
    } else {
        batch::run(&mut run)
    };
    let _ = std::fs::remove_dir_all(&run.work);
    if run.args.trace {
        let path = PathBuf::from(".bench_work")
            .join(format!("spans-{}-{}.jsonl", run.args.workload, run.args.seed));
        match run.tr.write(&path) {
            Ok(()) => eprintln!("perfbench: {} spans in {}", run.tr.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: {}: {e}", path.display()),
        }
        eprint!("{}", run.tr.summary());
    }
    let (names, values) = if run.args.trace {
        (&PER_LAYER[..], &report.layers)
    } else {
        (&END_TO_END[..], &report.e2e)
    };
    let c = &run.checks;
    let mut info = format!(
        "{{\"info\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"error_rate\":{}",
        run.args.workload,
        run.args.seed,
        run.args.trace,
        num(ratio(c.failed as f64, c.attempted as f64))
    );
    for (k, v) in &report.info {
        let _ = write!(info, ",\"{k}\":{v}");
    }
    info.push_str("}}");
    println!("{info}");
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0 && c.attempted > 0,
        c.attempted.max(1),
        c.failed
    );
    for (k, (name, unit)) in names.iter().enumerate() {
        let v = values.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v);
        if k > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v));
    }
    out.push_str("}}");
    println!("{out}");
}
