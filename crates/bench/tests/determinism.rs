//! The observers' out-of-band contract, pinned end to end: a harness
//! run's *stdout* (the trajectory) must be byte-identical with
//! `--profile` on or off, and across worker counts. The profiler reads
//! the host clock and writes to stderr only — if a stage stamp ever
//! leaked into a counter, a seed, or a record, these comparisons are
//! the first thing to break. Sampling and checkpoint restores add or
//! skip work around a cell, never a byte of its `"cell"` line.

use mssr_bench::harness::{run_named, HarnessOpts};
use mssr_workloads::Scale;

fn opts(jobs: usize, profile: bool) -> HarnessOpts {
    let mut o = HarnessOpts::new(Scale::Test);
    o.jobs = jobs;
    o.json = true;
    o.profile = profile;
    o
}

#[test]
fn profiling_leaves_the_trajectory_byte_identical_across_jobs() {
    // The reference: single worker, no profiling.
    let plain = run_named(&["table1"], &opts(1, false));
    assert!(plain.contains("\"type\":\"cell\""), "fixture sanity: {plain}");
    for (jobs, profile) in [(1usize, true), (4, false), (4, true)] {
        let t = run_named(&["table1"], &opts(jobs, profile));
        assert_eq!(
            t, plain,
            "trajectory diverged at jobs={jobs} profile={profile} — \
             profiling must be strictly out-of-band"
        );
    }
}

/// The `"type":"cell"` lines of a trajectory, in order.
fn cell_lines(trajectory: &str) -> Vec<&str> {
    trajectory.lines().filter(|l| l.starts_with("{\"type\":\"cell\"")).collect()
}

/// Observers leave no mark on a cell: sampling, profiling and a warm
/// checkpoint restore change no byte of a cell line, whole-program or
/// SimPoint. (Tracing is pinned on a smaller grid in the workspace's
/// `tests/determinism.rs`, since a traced Table 1 writes hundreds of
/// megabytes.)
#[test]
fn observers_leave_the_cell_lines_byte_identical() {
    let plain = run_named(&["table1"], &opts(2, false));
    assert_eq!(cell_lines(&plain).len(), 14, "fixture sanity: {plain}");
    let dir = std::env::temp_dir().join(format!("mssr-observer-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt = |profile: bool| {
        let mut o = opts(2, profile);
        o.ckpt_dir = Some(dir.clone());
        o.ckpt_every = 5_000;
        o
    };
    let mut sampled = opts(2, false);
    sampled.sample = 5_000;
    for (mode, o) in [("--sample 5000", sampled), ("--profile, cold --ckpt-dir", ckpt(true))] {
        let t = run_named(&["table1"], &o);
        assert_eq!(cell_lines(&t), cell_lines(&plain), "{mode}: cell lines moved");
    }
    assert!(std::fs::read_dir(&dir).expect("ckpt dir").count() > 0, "fixture: checkpoints");
    let warm = run_named(&["table1"], &ckpt(false));
    assert_eq!(cell_lines(&warm), cell_lines(&plain), "warm --ckpt-dir: cell lines moved");
    let _ = std::fs::remove_dir_all(&dir);

    let simpoint = |sample: u64| {
        let mut o = opts(2, false);
        o.simpoint = Some((2000, 3));
        o.sample = sample;
        run_named(&["table1"], &o)
    };
    let sp = simpoint(0);
    assert_eq!(cell_lines(&sp).len(), 14, "fixture sanity: {sp}");
    // Each region attaches a sample sink, whether or not it runs long
    // enough to emit a sample.
    let sp_sampled = simpoint(2000);
    assert_eq!(cell_lines(&sp_sampled), cell_lines(&sp), "--simpoint --sample: cell lines moved");
}

#[test]
fn profiled_sampled_runs_keep_event_streams_identical_too() {
    // Sampling emits per-interval event records into stdout — the most
    // sensitive surface for an accidental profiler leak, since events
    // interleave with the sampler the profiler stamps around.
    let mk = |profile: bool| {
        let mut o = opts(2, profile);
        o.sample = 5_000;
        run_named(&["table1"], &o)
    };
    let off = mk(false);
    assert!(off.contains("\"ev\":\"sample\""), "fixture sanity: {off}");
    assert_eq!(mk(true), off, "sampled trajectory must not see the profiler");
}

/// The `--bpred` axis, pinned the same way: for every predictor kind the
/// trajectory must be byte-identical across worker counts, and a
/// warm-checkpoint rerun (restoring the mid-run snapshots the cold run
/// wrote, oracle feed included) must reproduce the cold trajectory
/// exactly. The non-default kinds must also actually change the
/// trajectory — an override that silently falls back to TAGE would pass
/// every equality check above.
#[test]
fn bpred_sweeps_are_deterministic_across_jobs_and_checkpoints() {
    use mssr_sim::BpredKind;

    let with_bpred = |jobs: usize, kind: BpredKind| {
        let mut o = opts(jobs, false);
        o.bpred = Some(kind);
        o
    };
    let default = run_named(&["table1"], &opts(1, false));
    for kind in BpredKind::ALL {
        let one = run_named(&["table1"], &with_bpred(1, kind));
        let four = run_named(&["table1"], &with_bpred(4, kind));
        assert_eq!(one, four, "--bpred {kind}: trajectory diverged between jobs 1 and 4");
        if kind == BpredKind::default() {
            assert_eq!(one, default, "explicit default --bpred must be a no-op");
        } else {
            assert_ne!(one, default, "--bpred {kind}: override did not change the trajectory");
        }
    }

    // Cold vs warm checkpoints, on the feed-carrying kind (the codec
    // with the most state to get wrong).
    let dir = std::env::temp_dir().join(format!("mssr-bpred-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt_run = || {
        let mut o = with_bpred(2, BpredKind::Oracle);
        o.ckpt_dir = Some(dir.clone());
        o.ckpt_every = 5_000;
        run_named(&["table1"], &o)
    };
    let cold = ckpt_run();
    let n_ckpts = std::fs::read_dir(&dir).expect("ckpt dir").count();
    assert!(n_ckpts > 0, "cold run must write checkpoints");
    let warm = ckpt_run();
    assert_eq!(cold, warm, "warm-checkpoint oracle run diverged from the cold run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bpred experiment itself (the predictor × engine sweep) is part of
/// `run_all` and must hold the same jobs-equality bar.
#[test]
fn bpred_experiment_is_byte_identical_across_jobs() {
    let one = run_named(&["bpred"], &opts(1, false));
    assert!(one.contains("\"bpred\":\"oracle\""), "sweep must tag non-default cells: {one}");
    assert_eq!(one, run_named(&["bpred"], &opts(4, false)), "bpred experiment diverged");
}
