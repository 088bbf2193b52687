//! End-to-end acceptance for `--simpoint` sampling: the whole-program
//! CPI reconstructed from weighted representative intervals must track
//! the full detailed run within the documented error bound, while
//! simulating only a small fraction of the instructions in detail — and
//! the entire sampled trajectory must be byte-identical across repeated
//! runs and across worker counts, because clustering feeds CI gates.
//!
//! The `(2000, 3)` configuration below is the one documented in
//! `EXPERIMENTS.md` ("Sampled runs with SimPoint"): 2000-instruction
//! intervals and BIC-selected k ≤ 3. On the table1 grid it reconstructs
//! every cell's IPC within 3% while keeping the detailed share (warmup
//! included) under 20% per workload.

use mssr::workloads::Scale;
use mssr_bench::harness::report::{simpoint_errors, Trajectory};
use mssr_bench::harness::{run_named, HarnessOpts};

/// table1 at test scale: 2 workloads × 7 engine cells.
const TABLE1_CELLS: usize = 14;

fn full_opts() -> HarnessOpts {
    let mut o = HarnessOpts::new(Scale::Test);
    o.json = true;
    o.jobs = 1;
    o
}

fn sampled_opts() -> HarnessOpts {
    let mut o = full_opts();
    o.simpoint = Some((2000, 3));
    o
}

#[test]
fn reconstruction_tracks_the_full_run_within_three_percent() {
    let full =
        Trajectory::parse(&run_named(&["table1"], &full_opts())).expect("full trajectory parses");
    let sampled = Trajectory::parse(&run_named(&["table1"], &sampled_opts()))
        .expect("sampled trajectory parses");
    assert_eq!(sampled.cells.len(), TABLE1_CELLS);

    let errs = simpoint_errors(&sampled, &full);
    assert_eq!(
        errs.len(),
        TABLE1_CELLS,
        "every table1 cell must have a sampled/golden pair to validate"
    );
    for e in &errs {
        assert!(e.err_milli <= 30, "reconstruction error above 3%: {e}");
    }
}

#[test]
fn sampling_simulates_at_most_a_fifth_of_the_instructions_in_detail() {
    let sampled = Trajectory::parse(&run_named(&["table1"], &sampled_opts()))
        .expect("sampled trajectory parses");
    assert_eq!(sampled.cells.len(), TABLE1_CELLS);
    for c in &sampled.cells {
        let sp = c.simpoint.as_ref().unwrap_or_else(|| {
            panic!("{}/{}: --simpoint must sample every cell", c.workload, c.engine)
        });
        // Detailed budget counts the warmup prefixes too: everything that
        // ran through the cycle-accurate pipeline, not just the measured
        // representative intervals.
        assert!(
            5 * sp.detailed_insts() <= sp.total_insts,
            "{}/{}: detailed {} of {} insts exceeds the 20% budget",
            c.workload,
            c.engine,
            sp.detailed_insts(),
            sp.total_insts
        );
        assert!(sp.k >= 1 && sp.reps.len() == sp.k as usize);
    }
}

/// Register Integration's per-set replacement counts measure the same
/// detailed regions as its `table_replacements` counter: the whole run
/// in a plain cell; in a sampled cell each representative's measured
/// interval, warmup subtracted, summed over representatives.
#[test]
fn ri_set_replacements_sum_to_table_replacements() {
    use mssr_bench::harness::report::Json;
    for (mode, opts) in [("plain", full_opts()), ("simpoint", sampled_opts())] {
        let out = run_named(&["table1"], &opts);
        let mut ri_cells = 0;
        for line in out.lines().filter(|l| l.starts_with("{\"type\":\"cell\"")) {
            let cell = Json::parse(line).expect("cell line parses");
            let Some(Json::Arr(sets)) = cell.get("ri_set_replacements") else { continue };
            let per_set: u64 = sets.iter().map(|v| v.num().expect("integer count")).sum();
            let engine = cell.get("stats").and_then(|s| s.get("engine")).expect("engine stats");
            let name = |k: &str| cell.get(k).and_then(Json::str_val).unwrap_or("?").to_string();
            assert_eq!(
                per_set,
                engine.field_u64("table_replacements"),
                "{mode} {}/{}: per-set counts must sum to table_replacements",
                name("workload"),
                name("engine")
            );
            ri_cells += 1;
        }
        assert_eq!(ri_cells, 6, "{mode}: table1 has six RI cells");
    }
}

#[test]
fn sampled_trajectories_are_byte_identical_across_runs_and_jobs() {
    let a = run_named(&["table1"], &sampled_opts());
    let b = run_named(&["table1"], &sampled_opts());
    assert_eq!(a, b, "two sampled runs with the same root seed must be bit-identical");

    let mut par = sampled_opts();
    par.jobs = 4;
    let c = run_named(&["table1"], &par);
    assert_eq!(a, c, "--jobs must never change sampled output");

    assert!(a.contains("\"type\":\"simpoint\""), "simpoint records must be emitted");
}
