//! Command-line behavior of the harness binaries that unit tests cannot
//! see: argument validation exit codes, stderr warnings and profile
//! records, and checkpoint reuse end to end through the real binaries.

use std::process::{Command, Output};

fn table1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table1")).args(args).output().expect("table1 binary runs")
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mssr-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `table1 --ffwd 2000 --ckpt-dir DIR` with an event stream twice:
/// the first run must store fast-forward boundary snapshots, and the
/// second must restore them (its profile records show no fast-forward
/// time) and print a byte-identical trajectory.
fn streamed_run_reuses_boundary_snapshots(tag: &str, stream: &[&str]) {
    let dir = scratch(tag);
    let mut args = vec!["--scale", "test", "--json", "--jobs", "1", "--ffwd", "2000", "--profile"];
    args.extend_from_slice(stream);
    args.extend_from_slice(&["--ckpt-dir", dir.to_str().unwrap()]);
    let cold = table1(&args);
    assert!(cold.status.success(), "cold run failed: {}", String::from_utf8_lossy(&cold.stderr));
    let boundaries = std::fs::read_dir(&dir)
        .expect("ckpt dir")
        .filter(|e| {
            e.as_ref().expect("dir entry").file_name().to_string_lossy().ends_with(".0.ckpt")
        })
        .count();
    assert!(boundaries > 0, "the cold run must write *.0.ckpt boundary snapshots");
    let warm = table1(&args);
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(warm.status.success(), "warm run failed: {stderr}");
    assert!(cold.stdout == warm.stdout, "the warm run's trajectory must be byte-identical");
    let profs: Vec<&str> = stderr.lines().filter(|l| l.contains("\"type\":\"profile\"")).collect();
    assert!(!profs.is_empty(), "fixture sanity: {stderr}");
    for p in profs {
        assert!(
            p.contains("\"ffwd\":0"),
            "every warm cell restored instead of fast-forwarding: {p}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ckpt_dir_under_trace_restores_boundary_snapshots() {
    streamed_run_reuses_boundary_snapshots("trace", &["--trace"]);
}

#[test]
fn ckpt_dir_under_sample_restores_boundary_snapshots() {
    streamed_run_reuses_boundary_snapshots("sample", &["--sample", "2000"]);
}

#[test]
fn corrupt_checkpoints_warn_on_stderr_and_mark_the_trajectory() {
    let dir = scratch("corrupt");
    // Seed the directory with real checkpoints...
    let out = table1(&[
        "--scale",
        "test",
        "--json",
        "--jobs",
        "1",
        "--ckpt-dir",
        dir.to_str().unwrap(),
        "--ckpt-every",
        "5000",
    ]);
    assert!(out.status.success(), "seeding run failed");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("ckpt dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            std::fs::write(&path, b"not a checkpoint").expect("corrupt ckpt");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "seeding run must have written checkpoints");
    // ...then rerun: every restore must be skipped with a warning naming
    // the file and the error, and the trajectory must record the
    // degraded (cold) run in the cell's extra counters.
    let out =
        table1(&["--scale", "test", "--json", "--jobs", "1", "--ckpt-dir", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "rerun failed: {stderr}");
    assert!(
        stderr.contains("skipped") && stderr.contains("invalid checkpoint"),
        "missing skip warning, stderr: {stderr}"
    );
    assert!(stderr.contains(".ckpt"), "warning must name the skipped file: {stderr}");
    assert!(
        stdout.contains("\"ckpt_restore_skips\""),
        "trajectory must record degraded restores: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simpoint_argument_validation_rejects_bad_combinations() {
    // All of these fail during argument parsing, before any simulation.
    let cases: [(&[&str], &str); 4] = [
        (&["--simpoint", "2000,3"], "--simpoint requires --json"),
        (&["--json", "--simpoint", "2000"], "expected `INTERVAL,MAXK`"),
        (&["--json", "--simpoint", "0,3"], "must be positive"),
        (&["--json", "--simpoint", "2000,3", "--ffwd", "100"], "drop --ffwd"),
    ];
    for (args, needle) in cases {
        let out = table1(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: expected `{needle}` in: {stderr}");
    }
}

#[test]
fn profile_records_are_stderr_only_and_render_as_a_table() {
    let out = table1(&["--scale", "test", "--json", "--jobs", "2", "--profile"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "run failed: {stderr}");
    // Strictly out-of-band: the trajectory never carries profile records.
    assert!(!stdout.contains("\"type\":\"profile\""), "profile leaked into stdout: {stdout}");
    let cells = stdout.matches("{\"type\":\"cell\"").count();
    let profs = stderr.matches("{\"type\":\"profile\"").count();
    assert!(cells > 0, "fixture sanity: {stdout}");
    assert_eq!(profs, cells, "one profile record per cell, stderr: {stderr}");
    // Each record attributes wall-clock to every bucket of the schema.
    for key in ["\"ns\":{\"fetch\":", "\"commit\":", "\"squash\":", "\"total_us\":", "\"stride\":"]
    {
        assert!(stderr.contains(key), "missing {key} in profile records: {stderr}");
    }
    // The saved stream renders as the self-profile table with stage
    // shares and throughput columns.
    let dir = scratch("profile");
    let prof = dir.join("profile.jsonl");
    std::fs::write(&prof, stderr.as_bytes()).expect("save profile stream");
    let report = Command::new(env!("CARGO_BIN_EXE_mssr-report"))
        .args(["--profile", prof.to_str().unwrap()])
        .output()
        .expect("mssr-report runs");
    let rout = String::from_utf8_lossy(&report.stdout);
    assert!(report.status.success(), "report failed: {}", String::from_utf8_lossy(&report.stderr));
    for col in ["Self-profile", "workload", "execute", "sim_MIPS", "Mcyc/s", "%"] {
        assert!(rout.contains(col), "missing {col} in profile table:\n{rout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rollup_appends_a_throughput_aggregate_only_when_timed() {
    let run = |args: &[&str]| {
        let out =
            Command::new(env!("CARGO_BIN_EXE_rollup")).args(args).output().expect("rollup runs");
        assert!(out.status.success(), "rollup failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Unprofiled runs keep the plain CSV — byte-compatible with the
    // determinism gates that cmp rollup output across --jobs.
    let plain = run(&["--scale", "test", "--jobs", "2"]);
    assert!(!plain.contains("SIM_MIPS_MILLI"), "untimed rollup must not aggregate: {plain}");
    // --profile appends one aggregate row per configuration with ordered
    // min <= median <= max throughput.
    let timed = run(&["--scale", "test", "--jobs", "2", "--profile"]);
    let (csv, agg) = timed
        .split_once("\nCFG,SIM_MIPS_MILLI_MIN,SIM_MIPS_MILLI_MED,SIM_MIPS_MILLI_MAX\n")
        .expect("aggregate section");
    assert_eq!(csv, plain, "timed run must keep the base CSV");
    let rows: Vec<&str> = agg.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(rows.len(), 4, "BASE + 3 rollup configurations: {agg}");
    for row in rows {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), 4, "CFG,min,med,max: {row}");
        let v: Vec<u64> =
            cols[1..].iter().map(|c| c.parse().expect("integer milli-MIPS")).collect();
        assert!(v[0] > 0 && v[0] <= v[1] && v[1] <= v[2], "ordered nonzero aggregate: {row}");
    }
}
