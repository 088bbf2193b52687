//! The whole stack is deterministic: identical runs produce identical
//! cycle counts, statistics, and memory. This is what makes engine
//! comparisons meaningful.

use mssr::core::{MssrConfig, MultiStreamReuse};
use mssr::sim::SimConfig;
use mssr::workloads::{gap, graph::Graph, microbench, spec2006};

fn cfg() -> SimConfig {
    SimConfig::default().with_max_cycles(50_000_000)
}

#[test]
fn baseline_runs_are_identical() {
    let w = microbench::nested_mispred(400);
    let a = w.run(cfg(), None);
    let b = w.run(cfg(), None);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.committed_instructions, b.committed_instructions);
    assert_eq!(a.mispredictions, b.mispredictions);
    assert_eq!(a.l1_misses, b.l1_misses);
}

#[test]
fn engine_runs_are_identical() {
    let g = Graph::uniform(96, 6, 5);
    let w = gap::sssp(&g);
    let a = w.run(cfg(), Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
    let b = w.run(cfg(), Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.engine.reuse_grants, b.engine.reuse_grants);
    assert_eq!(a.engine.reconvergences, b.engine.reconvergences);
    assert_eq!(a.engine.stream_distance, b.engine.stream_distance);
}

#[test]
fn harness_grid_json_is_identical_across_runs_with_same_root_seed() {
    use mssr::workloads::Scale;
    use mssr_bench::harness::{run_named, HarnessOpts};
    let mut opts = HarnessOpts::new(Scale::Test);
    opts.json = true;
    opts.jobs = 1;
    opts.root_seed = 0x5eed;
    let exps = ["table1", "fig3", "rollup"];
    let a = run_named(&exps, &opts);
    let b = run_named(&exps, &opts);
    assert_eq!(a, b, "two grid runs with the same root seed must be bit-identical");
    assert!(a.contains("\"type\":\"meta\""));
    assert!(a.contains("\"type\":\"cell\""));
    assert!(a.contains("\"type\":\"experiment\""));
}

#[test]
fn harness_grid_json_is_independent_of_worker_count() {
    use mssr::workloads::Scale;
    use mssr_bench::harness::{run_named, HarnessOpts};
    let mut serial = HarnessOpts::new(Scale::Test);
    serial.json = true;
    serial.jobs = 1;
    let mut parallel = serial.clone();
    parallel.jobs = 4;
    let exps = ["table1", "fig3"];
    assert_eq!(
        run_named(&exps, &serial),
        run_named(&exps, &parallel),
        "--jobs must never change grid output"
    );
}

/// The acceptance test for `--trace`: the full JSON-lines trajectory,
/// events included, is byte-identical whatever the worker count. Events
/// are buffered per cell and emitted in cell order, so work stealing
/// cannot reorder them.
#[test]
fn trace_events_are_independent_of_worker_count() {
    use mssr::workloads::{microbench, Scale};
    use mssr_bench::harness::{
        run_experiments, CellId, CellPool, CellResult, Experiment, HarnessOpts,
    };
    use mssr_bench::{experiment_sim_config, EngineSpec};

    // A deliberately tiny grid: traces are verbose (several events per
    // instruction), so the cell must be small enough for the test suite.
    struct TinyTrace;
    impl Experiment for TinyTrace {
        fn name(&self) -> &'static str {
            "tiny-trace"
        }
        fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
            let wid = pool.intern(microbench::nested_mispred(60));
            vec![
                pool.cell(wid, EngineSpec::Baseline.into(), experiment_sim_config()),
                pool.cell(
                    wid,
                    EngineSpec::Mssr { streams: 2, log_entries: 64 }.into(),
                    experiment_sim_config(),
                ),
                pool.cell(
                    wid,
                    EngineSpec::Ri { sets: 64, ways: 2 }.into(),
                    experiment_sim_config(),
                ),
            ]
        }
        fn render(&self, _pool: &CellPool, _ids: &[CellId], _results: &[CellResult]) -> String {
            String::new()
        }
    }

    let mut serial = HarnessOpts::new(Scale::Test);
    serial.json = true;
    serial.trace = true;
    serial.jobs = 1;
    let mut parallel = serial.clone();
    parallel.jobs = 4;
    let exps: Vec<Box<dyn Experiment>> = vec![Box::new(TinyTrace)];
    let a = run_experiments(&exps, &serial);
    let b = run_experiments(&exps, &parallel);
    assert_eq!(a, b, "--trace output must be byte-identical across --jobs");
    // Every cell contributed events, wrapped with its id, and the
    // per-kind counters surfaced in the cell stats.
    for c in 0..3 {
        assert!(a.contains(&format!("{{\"type\":\"event\",\"cell\":{c},\"ev\":")));
    }
    assert!(a.contains("\"ev\":\"commit\""));
    assert!(a.contains("\"ev\":\"squash\""));
    assert!(a.contains("\"trace_commit\":"));
}

/// The acceptance test for `--sample`: sample records ride the same
/// per-cell buffering as `--trace`, so the trajectory — and the report
/// rendered from it — is byte-identical whatever the worker count.
/// Without `--trace`, samples are the only events in the stream.
#[test]
fn sample_records_and_report_are_independent_of_worker_count() {
    use mssr::workloads::{microbench, Scale};
    use mssr_bench::harness::report::{regressions, render_report, Trajectory};
    use mssr_bench::harness::{
        run_experiments, CellId, CellPool, CellResult, Experiment, HarnessOpts,
    };
    use mssr_bench::{experiment_sim_config, EngineSpec};

    struct TinySample;
    impl Experiment for TinySample {
        fn name(&self) -> &'static str {
            "tiny-sample"
        }
        fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
            let wid = pool.intern(microbench::nested_mispred(60));
            vec![
                pool.cell(wid, EngineSpec::Baseline.into(), experiment_sim_config()),
                pool.cell(
                    wid,
                    EngineSpec::Mssr { streams: 2, log_entries: 64 }.into(),
                    experiment_sim_config(),
                ),
                pool.cell(
                    wid,
                    EngineSpec::Ri { sets: 64, ways: 2 }.into(),
                    experiment_sim_config(),
                ),
            ]
        }
        fn render(&self, _pool: &CellPool, _ids: &[CellId], _results: &[CellResult]) -> String {
            String::new()
        }
    }

    let mut serial = HarnessOpts::new(Scale::Test);
    serial.json = true;
    serial.sample = 200;
    serial.jobs = 1;
    let mut parallel = serial.clone();
    parallel.jobs = 4;
    let exps: Vec<Box<dyn Experiment>> = vec![Box::new(TinySample)];
    let a = run_experiments(&exps, &serial);
    let b = run_experiments(&exps, &parallel);
    assert_eq!(a, b, "--sample output must be byte-identical across --jobs");
    assert!(a.contains("\"ev\":\"sample\""), "sample events present");
    assert!(
        !a.contains("\"ev\":\"commit\""),
        "without --trace the kind mask admits sample events only"
    );

    // The rendered report inherits the byte-identity, and the parsed
    // trajectory feeds the regression comparator: identical runs pass,
    // an artificially degraded run trips it.
    let ta = Trajectory::parse(&a).expect("trajectory parses");
    let tb = Trajectory::parse(&b).expect("trajectory parses");
    let report = render_report(&ta);
    assert_eq!(report, render_report(&tb), "report must be byte-identical across --jobs");
    assert!(report.contains("squash_branch"), "CPI stack rendered:\n{report}");
    assert!(report.contains("== Speedup vs BASE =="));
    assert!(regressions(&ta, &tb, 5).is_empty(), "identical runs never regress");
    let mut degraded = ta.clone();
    for c in &mut degraded.cells {
        c.cycles *= 2;
    }
    assert!(!regressions(&degraded, &ta, 5).is_empty(), "halved IPC must regress");
}

/// The restore-equivalence acceptance test: for every engine, a run
/// resumed from a mid-run checkpoint produces bit-identical final stats,
/// CPI-stack slots, and trace byte-stream to the straight-through run.
/// The snapshot itself must also round-trip: re-snapshotting immediately
/// after a restore reproduces the original bytes. Both hold whether the
/// restore target is a fresh simulator or one that already ran past the
/// snapshot point (restore is wholesale: memory pages the snapshot lacks
/// must read as zero afterwards), and the snapshot bytes are pinned so a
/// change to the memory encoding cannot move them unnoticed.
#[test]
fn checkpoint_restore_resumes_bit_identically_for_every_engine() {
    use mssr::core::{RegisterIntegration, RiConfig};
    use mssr::sim::{fnv1a64, BufferSink, ReuseEngine, Simulator};
    let w = microbench::nested_mispred(200);
    type MkEngine = fn() -> Option<Box<dyn ReuseEngine>>;
    // (name, engine, pinned fnv1a64 of the K-instruction snapshot).
    let engines: [(&str, MkEngine, Option<u64>); 4] = [
        ("base", || None, Some(PIN_BASE)),
        ("mssr", || Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))), Some(PIN_MSSR)),
        // streams = 1 degenerates MSSR to classic DCI.
        (
            "dci",
            || Some(Box::new(MultiStreamReuse::new(MssrConfig::default().with_streams(1)))),
            None,
        ),
        ("ri", || Some(Box::new(RegisterIntegration::new(RiConfig::default()))), Some(PIN_RI)),
    ];
    const K: u64 = 500; // snapshot boundary, in committed instructions
                        // A word far from the workload's footprint, dirtied in the used
                        // restore target only.
    const STRAY: u64 = 0x1f0_0008;
    for (name, mk, pin) in engines {
        let instantiate = |e: Option<Box<dyn ReuseEngine>>| -> Simulator {
            match e {
                Some(e) => w.instantiate_with(cfg(), e),
                None => w.instantiate(cfg()),
            }
        };

        // Straight-through reference: silent prefix to K commits, then a
        // trace sink for the remainder of the run.
        let mut a = instantiate(mk());
        a.run_until_insts(K);
        assert!(!a.is_halted(), "{name}: the snapshot point must land mid-run");
        let sink = BufferSink::new();
        let trace_a = sink.handle();
        a.set_trace_sink(Box::new(sink));
        let stats_a = w.finish(&mut a);
        let account_a = format!("{:?}", a.account());

        let mut b = instantiate(mk());
        b.run_until_insts(K);
        let bytes = b.snapshot();
        if let Some(pin) = pin {
            assert_eq!(fnv1a64(&bytes), pin, "{name}: snapshot bytes moved");
        }

        // Restore into a *fresh* simulator, and into one that ran on to
        // 2K (dirtying memory the snapshot never saw), then finish each
        // under a sink of its own.
        let mut used = instantiate(mk());
        used.run_until_insts(2 * K);
        assert!(!used.is_halted(), "{name}: the used target must still be mid-run");
        used.write_mem_u64(STRAY, 0x5eed);
        for (target, mut c) in [("fresh", instantiate(mk())), ("used", used)] {
            c.restore(&bytes).unwrap_or_else(|e| panic!("{name}/{target}: restore failed: {e}"));
            assert_eq!(c.read_mem_u64(STRAY), 0, "{name}/{target}: stale memory survived restore");
            assert_eq!(
                c.snapshot(),
                bytes,
                "{name}/{target}: snapshot must round-trip byte-identically"
            );
            let sink = BufferSink::new();
            let trace_c = sink.handle();
            c.set_trace_sink(Box::new(sink));
            let stats_c = w.finish(&mut c);
            let account_c = format!("{:?}", c.account());

            assert_eq!(
                stats_a.to_json(),
                stats_c.to_json(),
                "{name}/{target}: final stats diverged"
            );
            assert_eq!(account_a, account_c, "{name}/{target}: CPI-stack slots diverged");
            assert_eq!(
                *trace_a.lock().unwrap(),
                *trace_c.lock().unwrap(),
                "{name}/{target}: trace byte-stream diverged"
            );
        }
    }
}

// fnv1a64 of `nested_mispred(200)` snapshots at K = 500. Moving these
// bytes is a checkpoint format change, which bumps `CKPT_VERSION`.
const PIN_BASE: u64 = 0x6127_c1ac_f602_313a;
const PIN_MSSR: u64 = 0x8660_d49a_5db2_c00b;
const PIN_RI: u64 = 0xb096_a668_1f3b_28fa;

/// Table 1's six Register Integration cells at test scale, pinned to
/// their recorded counters. The report gate tolerates small IPC moves
/// and the other determinism tests only compare runs with each other, so
/// without this a change to RI's table logic could shift its results
/// unnoticed.
#[test]
fn table1_ri_cells_keep_their_counters() {
    use mssr::core::{RegisterIntegration, RiConfig};
    use mssr_bench::experiment_sim_config;
    // (workload, ways, cycles, reuse_grants, table_replacements,
    //  ri_transitive_invalidations, ri_occupancy)
    const PINS: [(&str, usize, u64, u64, u64, u64, u64); 6] = [
        ("nested", 1, 20533, 3306, 1157, 6247, 3),
        ("nested", 2, 19560, 6007, 390, 3004, 4),
        ("nested", 4, 19447, 7686, 11, 1381, 4),
        ("linear", 1, 19017, 3442, 735, 4283, 1),
        ("linear", 2, 18385, 5628, 148, 1853, 1),
        ("linear", 4, 18385, 6697, 0, 726, 3),
    ];
    for (kind, ways, cycles, grants, replacements, transitive, occupancy) in PINS {
        let w = match kind {
            "nested" => microbench::nested_mispred(500),
            _ => microbench::linear_mispred(500),
        };
        let engine = RegisterIntegration::new(RiConfig::default().with_sets(64).with_ways(ways));
        let mut sim = w.instantiate_with(experiment_sim_config(), Box::new(engine));
        let s = w.finish(&mut sim);
        let extra = |k: &str| s.engine.extra.iter().find(|(key, _)| key == k).map(|e| e.1);
        let got = (
            s.cycles,
            s.engine.reuse_grants,
            s.engine.table_replacements,
            extra("ri_transitive_invalidations"),
            extra("ri_occupancy"),
        );
        let want = (cycles, grants, replacements, Some(transitive), Some(occupancy));
        assert_eq!(got, want, "{kind}-mispred/500 RI_64x{ways}: counters moved");
    }
}

/// Snapshot bytes of a medium-scale GAP kernel are pinned the same way,
/// with a larger memory footprint than the microbenchmark's and a
/// fast-forward prefix, and restore over a simulator that ran further.
#[test]
fn medium_gap_snapshot_bytes_are_pinned() {
    use mssr::sim::fnv1a64;
    // fnv1a64 of the snapshot (see `PIN_BASE`).
    const PIN_BFS: u64 = 0x4bcc_0112_9c33_4851;
    let w = gap::bfs(&Graph::uniform(1024, 8, 12));
    let mut a = w.instantiate(cfg());
    a.fast_forward(20_000);
    a.run_until_insts(1_000);
    assert!(!a.is_halted(), "the snapshot point must land mid-run");
    let bytes = a.snapshot();
    assert_eq!(fnv1a64(&bytes), PIN_BFS, "bfs snapshot bytes moved");
    let mut used = w.instantiate(cfg());
    used.fast_forward(40_000);
    used.run_until_insts(1_000);
    assert!(!used.is_halted(), "the used target must still be mid-run");
    used.restore(&bytes).expect("restore over a used simulator");
    assert_eq!(used.snapshot(), bytes, "restore over a used simulator must round-trip");
}

/// Grid-level checkpointing: `--ffwd` warming is byte-identical across
/// worker counts and surfaces the skipped work in the cell stats, and a
/// grid re-run restoring the checkpoints written by `--ckpt-every`
/// reproduces the cold run's trajectory exactly.
#[test]
fn grid_checkpoints_and_fast_forward_are_deterministic_across_jobs() {
    use mssr::workloads::Scale;
    use mssr_bench::harness::{run_named, HarnessOpts};

    let mut serial = HarnessOpts::new(Scale::Test);
    serial.json = true;
    serial.jobs = 1;
    serial.ffwd = 200;
    let mut parallel = serial.clone();
    parallel.jobs = 4;
    let a = run_named(&["table1"], &serial);
    let b = run_named(&["table1"], &parallel);
    assert_eq!(a, b, "--ffwd grid output must be byte-identical across --jobs");
    assert!(a.contains("\"ffwd_insts\":200"), "warmed cells report the functional prefix");
    assert!(a.contains("\"skipped_cycles\":200"), "warmed cells report the skipped cycles");

    let dir = std::env::temp_dir().join(format!("mssr-ckpt-grid-{}", std::process::id()));
    let mut opts = HarnessOpts::new(Scale::Test);
    opts.json = true;
    opts.jobs = 2;
    opts.ckpt_dir = Some(dir.clone());
    opts.ckpt_every = 1000;
    let cold = run_named(&["table1"], &opts);
    let written = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert!(written > 0, "the cold run must write checkpoints");
    let warm = run_named(&["table1"], &opts);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(cold, warm, "a checkpoint-restored grid run must be byte-identical");
}

#[test]
fn workload_construction_is_deterministic() {
    let a = spec2006::astar(10);
    let b = spec2006::astar(10);
    assert_eq!(a.static_insts(), b.static_insts());
    assert_eq!(a.checks().len(), b.checks().len());
    for (ca, cb) in a.checks().iter().zip(b.checks()) {
        assert_eq!(ca.expect, cb.expect);
        assert_eq!(ca.addr, cb.addr);
    }
}
