//! The `serve-mixed` workload: an in-process `mssr-serve` server with one
//! worker over the table1 and rollup cells, driven by two client
//! connections in a closed loop (a client sends its next request only
//! after the previous reply).
//!
//! Each pass sends a seeded mix: one request both clients send at once
//! (one computes it, the other joins), hot-set duplicates with the
//! default seed (cache hits), unique-seed misses, and fast-forward pairs
//! (one cell and seed requested unsampled and sampled, so the first
//! stores a fast-forward boundary snapshot and the second restores it).
//! A warm pass then replays the same requests against the filled cache.
//! Every served cell line must equal, byte for byte, the line the batch
//! harness writes for that cell; each pass's replies are checked when the
//! pass ends and only their timings are kept.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use mssr_bench::experiment_sim_config;
use mssr_bench::harness::report::Json;
use mssr_bench::harness::serve::{Client, Reply, ServeOpts, Server};
use mssr_bench::harness::{experiment, run_experiments, splitmix64, CellPool, HarnessOpts};
use mssr_sim::{fnv1a64, ProfReport, PROF_DEFAULT_STRIDE};
use mssr_workloads::{microbench, Scale, Workload};

use crate::batch::MICRO_ITERS;
use crate::span::ratio;
use crate::{
    median, mips, num, peak_rss_mb, per_layer, round_scales, setup_block, speedup_from_facts, tail,
    Fact, HostProbe, LayerInputs, Report, Run, MIN_ROUNDS,
};

/// The server's cell universe. table1 comes first, so its 14 cells have
/// ids 0..14 and the fast-forward references can run table1 alone.
const EXPERIMENTS: [&str; 2] = ["table1", "rollup"];
const TABLE1_CELLS: u64 = 14;
/// The hot/miss split follows `load_gen`, the generator behind
/// `BENCH_serve.json`: 60% of requests go to a hot set of the first
/// `HOT` cells with default seeds (cache hits after first touch), the
/// rest are misses. After the request both clients share, each client
/// sends `HOT_REQS` hot requests, `UNIQUE_REQS` unique-seed misses and one
/// fast-forward pair: 9 of 15 requests are duplicates. No recorded
/// traffic has `ffwd` requests, so the one pair, taken out of the miss
/// side, is chosen, not measured: enough to store and restore a boundary
/// snapshot in every pass.
const HOT: u64 = 4;
const HOT_REQS: usize = 9;
const UNIQUE_REQS: u64 = 4;
/// Fast-forward depth and sampling period of the fast-forward pairs. The
/// depth stops inside every table1 kernel at test scale, so each `ffwd`
/// request still simulates in detail after the boundary.
const FFWD: u64 = 20_000;
const SAMPLE: u64 = 5_000;
const CLIENTS: usize = 2;
/// Replays of a pass's requests in its warm pass: every one is a cache
/// hit, so one replay takes only milliseconds.
const WARM_REPLAYS: usize = 10;
/// Salt of the request-mix seed, derived from the root seed.
const MIX_SALT: u64 = 0x6d69_785f_7365_6564;
/// Server starts per set-up block. Every shutdown opens a connection that
/// then waits out TCP's TIME_WAIT for a minute: unbounded blocks left
/// about 10 000 such sockets per run, and back-to-back runs came near the
/// end of the ephemeral port range, which slowed the next run's binds.
const STARTS_PER_BLOCK: u32 = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Shared,
    Hot,
    Unique,
    Ffwd,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Shared => "shared",
            Kind::Hot => "hot",
            Kind::Unique => "unique",
            Kind::Ffwd => "ffwd",
        }
    }
}

#[derive(Clone)]
struct Req {
    kind: Kind,
    cell: u64,
    seed: Option<u64>,
    ffwd: u64,
    sample: u64,
}

impl Req {
    fn line(&self) -> String {
        let mut body = format!("\"cell\":{}", self.cell);
        if let Some(s) = self.seed {
            body.push_str(&format!(",\"seed\":\"{s:#x}\""));
        }
        if self.ffwd > 0 {
            body.push_str(&format!(",\"ffwd\":{}", self.ffwd));
        }
        if self.sample > 0 {
            body.push_str(&format!(",\"sample\":{}", self.sample));
        }
        // A payload-derived id: a retried request is idempotent.
        format!("{{\"type\":\"run\",\"id\":\"p{:016x}\",{body}}}", fnv1a64(body.as_bytes()))
    }
}

/// One reply as the client received it.
struct Served {
    req: Req,
    start: Instant,
    took: Duration,
    cached: bool,
    line: Result<String, String>,
}

/// What a pass keeps of a reply once it has been checked.
struct Resp {
    kind: Kind,
    cell: u64,
    start: Instant,
    took: Duration,
    cached: bool,
    /// Served, and equal to the batch line.
    ok: bool,
    /// Committed instructions of a computed (not cached) cell.
    insts: u64,
}

struct Pass {
    traced: bool,
    /// Factor from this pass's host seconds to the reference host's.
    scale: f64,
    cold_s: f64,
    warm_s: f64,
    cold: Vec<Resp>,
    warm: Vec<Resp>,
    /// The oracle's fast-forwards: host seconds and instructions.
    ffwd: Vec<(f64, u64)>,
}

impl Pass {
    /// The cold pass's correct replies computed rather than cached.
    fn misses(&self) -> impl Iterator<Item = &Resp> {
        self.cold.iter().filter(|r| !r.cached && r.ok)
    }
}

/// Each client's requests for pass `pass`. The cells computed walk the
/// universe (shared and unique requests) and table1 (ffwd pairs) in id
/// order from pass to pass, so every pass costs about the same and a run
/// computes the same cells whatever the seed. The seed picks the request
/// seeds, the hot cells, which half of an ffwd pair is sampled, and the
/// order in which each client sends its requests.
fn plan_pass(mix_seed: u64, pass: u64, cells: u64) -> Vec<Vec<Req>> {
    let mut rng = splitmix64(mix_seed ^ splitmix64(pass));
    let mut next = || {
        rng = splitmix64(rng);
        rng
    };
    let per_pass = 1 + CLIENTS as u64 * UNIQUE_REQS;
    let mut deck = (pass * per_pass..).map(|i| i % cells);
    let mut miss = |kind| Req {
        kind,
        cell: deck.next().expect("endless"),
        seed: Some(next() | 1),
        ffwd: 0,
        sample: 0,
    };
    let shared = miss(Kind::Shared);
    let per_client: Vec<Vec<Vec<Req>>> = (0..CLIENTS)
        .map(|_| (0..UNIQUE_REQS).map(|_| vec![miss(Kind::Unique)]).collect())
        .collect();
    let mut plan = Vec::with_capacity(CLIENTS);
    for (c, mut units) in per_client.into_iter().enumerate() {
        for _ in 0..HOT_REQS {
            units.push(vec![Req {
                kind: Kind::Hot,
                cell: next() % HOT,
                seed: None,
                ffwd: 0,
                sample: 0,
            }]);
        }
        let (cell, seed) = ((pass * CLIENTS as u64 + c as u64) % TABLE1_CELLS, Some(next() | 1));
        let first = if next() & 1 == 1 { SAMPLE } else { 0 };
        units.push(
            [first, SAMPLE - first]
                .map(|sample| Req { kind: Kind::Ffwd, cell, seed, ffwd: FFWD, sample })
                .to_vec(),
        );
        // Fisher-Yates over whole units: an ffwd pair keeps its order.
        for i in (1..units.len()).rev() {
            units.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        plan.push(std::iter::once(shared.clone()).chain(units.into_iter().flatten()).collect());
    }
    plan
}

fn request(c: &mut Client, req: &Req) -> Served {
    let line = req.line();
    let start = Instant::now();
    let mut busy = 0;
    let (cached, out) = loop {
        match c.request(&line) {
            Reply::Done { cell_line, cached, .. } => break (cached, Ok(cell_line)),
            Reply::Busy { retry_after_ms } if busy < 100 => {
                busy += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 100)));
            }
            Reply::Busy { .. } => break (false, Err("gave up after 100 busy replies".into())),
            Reply::Error { error } => break (false, Err(error)),
            Reply::Lost => break (false, Err("connection lost".into())),
        }
    };
    Served { req: req.clone(), start, took: start.elapsed(), cached, line: out }
}

/// Sends every client's requests in a closed loop, clients in parallel.
fn drive(clients: &mut [Client], plan: &[Vec<Req>]) -> Vec<Served> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .map(|(c, reqs)| {
                s.spawn(move || reqs.iter().map(|r| request(c, r)).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// The `"cell"` lines of a batch trajectory, by cell id.
fn cell_lines(trajectory: &str) -> HashMap<u64, String> {
    trajectory
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"cell\""))
        .filter_map(|l| Some((Json::parse(l).ok()?.get("id")?.num()?, l.to_string())))
        .collect()
}

/// Batch references: the universe unsampled, and table1 fast-forwarded,
/// unsampled and sampled.
fn references(seed: u64) -> [HashMap<u64, String>; 3] {
    let mut opts = HarnessOpts::new(Scale::Test);
    opts.jobs = 1;
    opts.root_seed = seed;
    opts.json = true;
    let exps = |names: &[&str]| {
        names.iter().map(|n| experiment(n).expect("registered experiment")).collect::<Vec<_>>()
    };
    let all = cell_lines(&run_experiments(&exps(&EXPERIMENTS), &opts));
    opts.ffwd = FFWD;
    let ffwd = cell_lines(&run_experiments(&exps(&["table1"]), &opts));
    opts.sample = SAMPLE;
    let sampled = cell_lines(&run_experiments(&exps(&["table1"]), &opts));
    [all, ffwd, sampled]
}

/// The batch line a request must be served: its reference with the
/// request's seed in place of the default one.
fn expected(refs: &[HashMap<u64, String>; 3], req: &Req) -> Option<String> {
    let table = match (req.ffwd, req.sample) {
        (0, _) => &refs[0],
        (_, 0) => &refs[1],
        _ => &refs[2],
    };
    let line = table.get(&req.cell)?;
    let Some(seed) = req.seed else { return Some(line.clone()) };
    let key = "\"seed\":\"";
    let i = line.find(key)? + key.len();
    let j = i + line[i..].find('"')?;
    Some(format!("{}{seed:#x}{}", &line[..i], &line[j..]))
}

fn committed(line: &str) -> u64 {
    Json::parse(line)
        .ok()
        .and_then(|v| v.get("stats")?.get("committed_instructions")?.num())
        .unwrap_or(0)
}

/// Checks every reply against its batch line and keeps only its timing,
/// so what a run holds does not grow with the number of passes.
fn settle(run: &mut Run, refs: &[HashMap<u64, String>; 3], served: Vec<Served>) -> Vec<Resp> {
    served
        .into_iter()
        .map(|s| {
            let checked = match (&s.line, expected(refs, &s.req)) {
                (Err(e), _) => Err(format!("{}: {e}", s.req.line())),
                (Ok(got), Some(want)) if *got == want => Ok(()),
                (Ok(_), Some(_)) => {
                    Err(format!("{}: served line differs from batch", s.req.line()))
                }
                (Ok(_), None) => Err(format!("{}: no batch reference", s.req.line())),
            };
            let insts = match &s.line {
                Ok(l) if !s.cached => committed(l),
                _ => 0,
            };
            Resp {
                kind: s.req.kind,
                cell: s.req.cell,
                start: s.start,
                took: s.took,
                cached: s.cached,
                ok: run.checks.check(checked),
                insts,
            }
        })
        .collect()
}

fn serve_opts(seed: u64) -> ServeOpts {
    let mut o = ServeOpts::new(Scale::Test);
    o.jobs = 1;
    o.root_seed = seed;
    o.experiments = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    o
}

/// Host milliseconds of each cell run once in this process, as the batch
/// grid runs it (traced runs only: the miss-overhead baseline).
fn batch_ms(run: &mut Run, cells: &BTreeSet<u64>, prof: &mut ProfReport) -> HashMap<u64, f64> {
    let mut pool = CellPool::new(Scale::Test);
    for name in EXPERIMENTS {
        experiment(name).expect("registered experiment").cells(&mut pool);
    }
    let mut out = HashMap::new();
    for &i in cells {
        let spec = pool.cell_spec(i as usize);
        let w = pool.cell_workload(i as usize);
        let label = format!("{} {}", spec.engine.label(), w.name());
        let o = run.tr.open("grid.cell", &label);
        let oi = run.tr.open("sim.instantiate", &label);
        let mut sim = match spec.engine.build() {
            Some(e) => w.instantiate_with(spec.cfg.clone(), e),
            None => w.instantiate(spec.cfg.clone()),
        };
        sim.set_profiling(PROF_DEFAULT_STRIDE);
        run.tr.close(oi, 0, 0);
        run.detailed(&label, &mut sim, |s| {
            s.run();
        });
        run.verify(w, &mut sim);
        prof.merge(&sim.profile_report());
        out.insert(i, run.tr.close(o, 0, 0).as_secs_f64() * 1e3);
    }
    out
}

/// One set-up: the kernels the oracle runs, and a started server. Returns
/// its host time too.
fn set_up(run: &mut Run) -> (Duration, Vec<Workload>, Result<Server, String>) {
    let t = Instant::now();
    let o = run.tr.open("workloads.build", "table1");
    let kernels =
        vec![microbench::nested_mispred(MICRO_ITERS), microbench::linear_mispred(MICRO_ITERS)];
    run.tr.close(o, kernels.len() as u64, 0);
    let o = run.tr.open("serve.start", "");
    let server = Server::start(serve_opts(run.args.seed));
    run.tr.close(o, 0, 0);
    (t.elapsed(), kernels, server)
}

pub fn run(run: &mut Run) -> Report {
    let probe = HostProbe::default();
    let cfg = experiment_sim_config();
    run.tr.on = run.args.trace;
    let (_, kernels, started) = set_up(run);
    run.tr.on = false;
    let server = match started {
        Ok(s) => s,
        Err(e) => {
            run.checks.check(Err(format!("server start: {e}")));
            return Report::default();
        }
    };
    let addr = server.addr().to_string();
    let cells = server.cells() as u64;
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        match Client::connect(&addr, 120_000) {
            Ok(c) => clients.push(c),
            Err(e) => {
                run.checks.check(Err(e));
                drop(clients);
                server.shutdown();
                return Report::default();
            }
        }
    }

    let mut refs = references(run.args.seed);
    if run.args.inject_verify_failure {
        for line in refs[0].values_mut() {
            line.push(' ');
        }
    }
    let mix_seed = splitmix64(run.args.seed ^ MIX_SALT);
    let budget = Duration::from_secs_f64(run.args.seconds);
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups = Vec::new();
    let mut peak_rss = 0.0;
    let mut probes = vec![probe.factor()];
    while passes.len() < MIN_ROUNDS || t0.elapsed() < budget {
        run.tr.on = run.args.trace && passes.len() % 2 == 1;
        // A block of set-ups of servers beside the one under load, each
        // shut down outside its timed part.
        setups.push(setup_block(STARTS_PER_BLOCK, || {
            let (took, _, started) = set_up(run);
            match started {
                Ok(s) => s.shutdown(),
                Err(e) => {
                    run.checks.check(Err(format!("server start: {e}")));
                }
            }
            took
        }));
        let plan = plan_pass(mix_seed, passes.len() as u64, cells);
        let o = run.tr.open("serve.pass", "cold");
        let cold = drive(&mut clients, &plan);
        let cold_s = run.tr.close(o, cold.len() as u64, 0).as_secs_f64();
        let o = run.tr.open("serve.pass", "warm");
        let mut warm = Vec::new();
        for _ in 0..WARM_REPLAYS {
            warm.extend(drive(&mut clients, &plan));
        }
        let warm_s = run.tr.close(o, warm.len() as u64, 0).as_secs_f64();
        let (cold, warm) = (settle(run, &refs, cold), settle(run, &refs, warm));
        let ffwd = kernels.iter().map(|w| run.oracle(w, &cfg)).collect();
        for r in cold.iter().chain(&warm) {
            let label = format!("{}/{}", r.kind.name(), if r.cached { "hit" } else { "miss" });
            run.tr.record("serve.request", &label, r.start, r.took);
        }
        passes.push(Pass { traced: run.tr.on, scale: 1.0, cold_s, warm_s, cold, warm, ffwd });
        probes.push(probe.factor());
        if passes.len() == MIN_ROUNDS {
            // The server's caches grow with every pass, and a faster
            // program runs more passes: the peak is read after a fixed
            // number of them.
            peak_rss = peak_rss_mb();
        }
    }
    run.tr.on = false;
    for (p, s) in passes.iter_mut().zip(round_scales(&probes)) {
        p.scale = s;
    }
    let setup_s = median(&setups.iter().zip(&passes).map(|(s, p)| s * p.scale).collect::<Vec<_>>());
    let joins = if clients[0].send("{\"type\":\"stats\"}") {
        clients[0].recv().and_then(|l| Json::parse(&l).ok()).map_or(0, |v| v.field_u64("joins"))
    } else {
        0
    };
    drop(clients);
    server.shutdown();

    let mut ref_lines: Vec<(&u64, &String)> = refs[0].iter().collect();
    ref_lines.sort();
    let facts: Vec<Fact> =
        ref_lines.iter().filter_map(|(_, l)| Fact::from_line(&Json::parse(l).ok()?)).collect();
    let digest = fnv1a64(
        facts
            .iter()
            .map(|f| format!("{} {}|{}|{}|{};", f.engine, f.kernel, f.cycles, f.insts, f.grants))
            .collect::<String>()
            .as_bytes(),
    );

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let cold = |ps: &[&Pass]| median(&ps.iter().map(|p| p.cold_s * p.scale).collect::<Vec<_>>());
    let miss_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.misses().map(move |r| r.took.as_secs_f64() * p.scale * 1e3))
        .collect();
    let (tail_pct, tail_ms, beyond) = tail(&miss_ms);
    let miss_work: Vec<Vec<(f64, u64)>> = untraced
        .iter()
        .map(|p| p.misses().map(|r| (r.took.as_secs_f64(), r.insts)).collect())
        .collect();
    let requests = untraced.iter().map(|p| p.cold.len()).sum::<usize>() as f64;
    let e2e = vec![
        ("setup_s", setup_s),
        ("wall_s", cold(&untraced)),
        ("warm_wall_s", median(&untraced.iter().map(|p| p.warm_s * p.scale).collect::<Vec<_>>())),
        (
            "sim_mips",
            mips(
                &miss_work
                    .iter()
                    .zip(&untraced)
                    .map(|(w, p)| (&w[..], p.scale))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("ffwd_mips", mips(&untraced.iter().map(|p| (&p.ffwd[..], p.scale)).collect::<Vec<_>>())),
        ("req_per_s", ratio(requests, untraced.iter().map(|p| p.cold_s * p.scale).sum())),
        ("miss_p50_ms", median(&miss_ms)),
        ("miss_tail_ms", tail_ms),
        ("peak_rss_mb", peak_rss),
        ("reuse_speedup_pct", speedup_from_facts(&facts, "RCVG_4_64")),
    ];

    let mut layers = Vec::new();
    if run.args.trace {
        run.tr.on = true;
        let unique: Vec<&Resp> = traced
            .iter()
            .flat_map(|p| &p.cold)
            .filter(|r| r.kind == Kind::Unique && !r.cached && r.ok)
            .collect();
        let mut prof = ProfReport::default();
        let batch = batch_ms(run, &unique.iter().map(|r| r.cell).collect(), &mut prof);
        let k: Vec<&Workload> = kernels.iter().collect();
        run.bpred_probe(&k, &cfg);
        run.tr.on = false;
        let overhead: Vec<f64> = unique
            .iter()
            .filter_map(|r| Some(r.took.as_secs_f64() * 1e3 - batch.get(&r.cell)?))
            .collect();
        let all: Vec<&Resp> = passes.iter().flat_map(|p| p.cold.iter().chain(&p.warm)).collect();
        let hits_us: Vec<f64> =
            all.iter().filter(|r| r.cached).map(|r| r.took.as_secs_f64() * 1e6).collect();
        let cold_all: Vec<&Resp> = passes.iter().flat_map(|p| &p.cold).collect();
        let cold_hits = cold_all.iter().filter(|r| r.cached).count() as f64;
        layers = per_layer(
            &run.tr,
            &LayerInputs {
                facts: &facts,
                prof: &prof,
                overhead_ratio: ratio(cold(&traced), cold(&untraced)),
                serve: [
                    median(&hits_us),
                    ratio(cold_hits, cold_all.len() as f64),
                    joins as f64,
                    median(&overhead),
                ],
            },
        );
    }
    let info = vec![
        ("root_seed", format!("\"{:#x}\"", run.args.seed)),
        ("mix_seed", format!("\"{mix_seed:#x}\"")),
        ("digest", format!("\"{digest:#018x}\"")),
        ("host_scale", num(median(&probes))),
        ("unscaled_wall_s", num(median(&untraced.iter().map(|p| p.cold_s).collect::<Vec<_>>()))),
        ("rounds", passes.len().to_string()),
        ("cells", cells.to_string()),
        ("clients", CLIENTS.to_string()),
        (
            "miss_tail",
            format!(
                "{{\"percentile\":{tail_pct:.2},\"samples\":{},\"beyond\":{beyond}}}",
                miss_ms.len()
            ),
        ),
        ("modelled_caches", "\"cold, or warmed by fast-forward on ffwd requests\"".to_string()),
    ];
    Report { e2e, layers, info }
}
