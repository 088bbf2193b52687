//! # The experiment harness
//!
//! A std-only parallel experiment-grid runner: every table and figure
//! of the paper declares its (workload × engine × config) cells into a
//! shared [`CellPool`] through its [`Experiment`], the pool deduplicates
//! identical cells and caches each assembled
//! [`mssr_workloads::Workload`] so it is built once and shared
//! immutably across engines, and [`CellPool::run`] shards the cells
//! across `std::thread::scope` workers with a work-stealing index
//! queue.
//!
//! Everything reported from the grid derives from *simulated* statistics
//! — deterministic integer counters — so output is byte-identical for
//! any `--jobs` value and any machine. Per-cell seeds derive from the
//! root seed by splitmix64 and are recorded in the JSON-lines output, so
//! future stochastic components (e.g. randomized snoop injection) stay
//! reproducible cell-by-cell.
//!
//! JSON-lines trajectory format (`BENCH_*.json`): one JSON object per
//! line. The first line is a `"meta"` record (root seed, scale, cell
//! count); each subsequent `"cell"` record carries the workload, engine
//! label, seed, and the full [`mssr_sim::SimStats`] counter set; final
//! `"experiment"` records map each experiment to its cell ids. Under
//! `--trace`, each cell record is followed by its `"event"` records —
//! the cell's structured pipeline trace (see `mssr_sim::TraceEvent`),
//! one event per line, wrapped as
//! `{"type":"event","cell":<id>,"ev":{...}}`. Under `--sample N`, each
//! cell contributes interval-sample events (`{"ev":"sample",...}`) in
//! the same wrapping — without `--trace`, those are the *only* events
//! emitted. The `mssr-report` binary consumes these trajectories.

mod experiments;
mod grid;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod simpoint;
pub mod simspeed;

pub use experiments::{all_experiments, experiment, Experiment, EXPERIMENT_NAMES};
pub use grid::{
    run_cells, CellId, CellPool, CellProfile, CellResult, CellSpec, EngineCfg, SimpointCellResult,
    SimpointRep,
};

use mssr_sim::{json_escape, BpredKind, ProfBucket};
use mssr_workloads::Scale;

/// Default root seed for the experiment grid ("MSSR" in ASCII).
pub const DEFAULT_ROOT_SEED: u64 = 0x4d53_5352;

/// Stateless splitmix64 finalizer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic seed of grid cell `cell` under `root_seed`.
pub fn cell_seed(root_seed: u64, cell: u64) -> u64 {
    splitmix64(root_seed ^ splitmix64(cell))
}

/// Harness invocation options, shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Worker threads for the grid (default: available parallelism).
    pub jobs: usize,
    /// Root seed; per-cell seeds derive from it by splitmix64.
    pub root_seed: u64,
    /// Workload input scale.
    pub scale: Scale,
    /// Emit the JSON-lines trajectory instead of human-readable reports.
    pub json: bool,
    /// Record a structured event trace per cell and emit the events into
    /// the JSON-lines trajectory (requires `--json`).
    pub trace: bool,
    /// Interval-sampling period in cycles (`0` = off): snapshot
    /// per-interval statistics deltas every N cycles and emit them as
    /// sample events in the trajectory (requires `--json`).
    pub sample: u64,
    /// Checkpoint directory (`--ckpt-dir`): cells restore a valid
    /// checkpoint found there and save fast-forward boundary snapshots
    /// plus, per `ckpt_every`, mid-run ones (see DESIGN.md, "Checkpoint
    /// reuse rule", for which run may restore which).
    pub ckpt_dir: Option<std::path::PathBuf>,
    /// Functional fast-forward (`--ffwd N`): execute the first N
    /// instructions of every cell architecturally (warming branch
    /// predictor and caches) before detailed simulation.
    pub ffwd: u64,
    /// Checkpoint period (`--ckpt-every N`): while running a cell, save a
    /// checkpoint into `ckpt_dir` every N committed instructions.
    pub ckpt_every: u64,
    /// SimPoint sampling (`--simpoint INTERVAL,MAXK`): a functional pass
    /// collects basic-block vectors per `INTERVAL` instructions, k-means
    /// (k ≤ `MAXK`) picks representative intervals, and the grid runs
    /// only the representatives; `mssr-report` reconstructs whole-program
    /// CPI from the weighted per-representative records.
    pub simpoint: Option<(u64, usize)>,
    /// Self-profile the simulator (`--profile`): attribute host
    /// wall-clock to each pipeline stage and the ckpt/ffwd/bbv paths,
    /// emitting one `{"type":"profile",...}` record per cell on
    /// *stderr*. Strictly out-of-band: stdout (reports or trajectory)
    /// is byte-identical with it on or off.
    pub profile: bool,
    /// Branch-predictor override (`--bpred NAME`): force every cell of
    /// the grid onto one predictor pair. `None` (the default) leaves
    /// each experiment's own configuration — and the trajectory bytes —
    /// untouched.
    pub bpred: Option<BpredKind>,
}

impl HarnessOpts {
    /// Defaults at a given scale.
    pub fn new(scale: Scale) -> HarnessOpts {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        HarnessOpts {
            jobs,
            root_seed: DEFAULT_ROOT_SEED,
            scale,
            json: false,
            trace: false,
            sample: 0,
            ckpt_dir: None,
            ffwd: 0,
            ckpt_every: 0,
            simpoint: None,
            profile: false,
            bpred: None,
        }
    }

    /// Parses CLI arguments (`--jobs N`, `--seed S`, `--scale
    /// test|medium|large`, `--json`, `--trace`, `--sample N`, `--help`).
    /// The scale defaults to `default_scale`.
    ///
    /// # Panics
    ///
    /// Exits the process with usage on an unknown or malformed argument.
    pub fn parse_args(default_scale: Scale) -> HarnessOpts {
        match Self::from_iter(std::env::args().skip(1), default_scale) {
            Ok(opts) => opts,
            Err(msg) => {
                if msg != "help" {
                    eprintln!("{msg}");
                }
                eprintln!("{USAGE}");
                std::process::exit(if msg == "help" { 0 } else { 2 });
            }
        }
    }

    /// Pure argument parsing (testable); `msg == "help"` requests usage.
    pub fn from_iter(
        args: impl IntoIterator<Item = String>,
        default_scale: Scale,
    ) -> Result<HarnessOpts, String> {
        let mut opts = HarnessOpts::new(default_scale);
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match arg.as_str() {
                "--jobs" | "-j" => {
                    opts.jobs = value("--jobs")?
                        .parse::<usize>()
                        .map_err(|e| format!("--jobs: {e}"))?
                        .max(1);
                }
                "--seed" => {
                    let v = value("--seed")?;
                    let t = v.trim();
                    opts.root_seed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                        Some(h) => u64::from_str_radix(h, 16),
                        None => t.parse(),
                    }
                    .map_err(|e| format!("--seed: {e}"))?;
                }
                "--scale" => {
                    opts.scale = match value("--scale")?.as_str() {
                        "test" => Scale::Test,
                        "medium" => Scale::Medium,
                        "large" => Scale::Large,
                        s => return Err(format!("--scale: unknown scale `{s}`")),
                    };
                }
                "--json" => opts.json = true,
                "--trace" => opts.trace = true,
                "--sample" => {
                    opts.sample =
                        value("--sample")?.parse::<u64>().map_err(|e| format!("--sample: {e}"))?;
                }
                "--ckpt-dir" => {
                    opts.ckpt_dir = Some(std::path::PathBuf::from(value("--ckpt-dir")?));
                }
                "--ffwd" => {
                    opts.ffwd =
                        value("--ffwd")?.parse::<u64>().map_err(|e| format!("--ffwd: {e}"))?;
                }
                "--ckpt-every" => {
                    opts.ckpt_every = value("--ckpt-every")?
                        .parse::<u64>()
                        .map_err(|e| format!("--ckpt-every: {e}"))?;
                }
                "--simpoint" => {
                    let v = value("--simpoint")?;
                    let (a, b) = v.split_once(',').ok_or_else(|| {
                        format!("--simpoint: expected `INTERVAL,MAXK`, got `{v}`")
                    })?;
                    let interval =
                        a.trim().parse::<u64>().map_err(|e| format!("--simpoint interval: {e}"))?;
                    let maxk =
                        b.trim().parse::<usize>().map_err(|e| format!("--simpoint maxk: {e}"))?;
                    if interval == 0 || maxk == 0 {
                        return Err("--simpoint: interval and maxk must be positive".into());
                    }
                    opts.simpoint = Some((interval, maxk));
                }
                "--profile" => opts.profile = true,
                "--bpred" => {
                    let v = value("--bpred")?;
                    opts.bpred = Some(BpredKind::parse(&v).ok_or_else(|| {
                        let names: Vec<&str> = BpredKind::ALL.iter().map(|k| k.name()).collect();
                        format!("--bpred: unknown predictor `{v}` (one of {})", names.join(", "))
                    })?);
                }
                "--help" | "-h" => return Err("help".to_string()),
                s => return Err(format!("unknown argument `{s}`")),
            }
        }
        if opts.trace && !opts.json {
            return Err("--trace requires --json (events extend the JSON-lines output)".into());
        }
        if opts.sample > 0 && !opts.json {
            return Err("--sample requires --json (samples extend the JSON-lines output)".into());
        }
        if opts.ckpt_every > 0 && opts.ckpt_dir.is_none() {
            return Err("--ckpt-every requires --ckpt-dir (somewhere to save them)".into());
        }
        if opts.simpoint.is_some() {
            if !opts.json {
                return Err(
                    "--simpoint requires --json (mssr-report reconstructs from the trajectory)"
                        .into(),
                );
            }
            if opts.ffwd > 0 {
                return Err(
                    "--simpoint places its own fast-forwards per representative; drop --ffwd"
                        .into(),
                );
            }
            if opts.ckpt_every > 0 {
                return Err(
                    "--simpoint saves checkpoints at representative starts; drop --ckpt-every"
                        .into(),
                );
            }
        }
        Ok(opts)
    }
}

const USAGE: &str =
    "usage: <experiment> [--jobs N] [--seed S] [--scale test|medium|large] [--json] [--trace] [--sample N]
                    [--ckpt-dir DIR] [--ffwd N] [--ckpt-every N] [--simpoint I,K]
  --jobs N        worker threads for the experiment grid (default: all cores)
  --seed S        root seed for per-cell seeds (decimal or 0x-hex)
  --scale         workload input scale (default: medium)
  --json          emit the JSON-lines trajectory instead of reports
  --trace         with --json: emit per-cell pipeline event records
  --sample N      with --json: emit per-cell statistics deltas every N cycles
  --ckpt-dir DIR  reuse/save per-cell checkpoints in DIR
  --ffwd N        functionally fast-forward the first N instructions of each cell
  --ckpt-every N  with --ckpt-dir: save a checkpoint every N committed instructions
  --simpoint I,K  with --json: SimPoint sampling — cluster I-instruction BBV intervals (k <= K)
                  and run only the representative intervals of each workload
  --bpred NAME    force every cell onto one branch predictor
                  (tage | tagescl | ittage | alwayswrong | oracle; default: each cell's own config)
  --profile       self-profile the simulator: emit per-cell {\"type\":\"profile\",...} records on
                  stderr (stdout stays byte-identical; render with mssr-report --profile FILE)";

pub(crate) fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Medium => "medium",
        Scale::Large => "large",
    }
}

/// One `"cell"` record of the JSON-lines trajectory (no trailing
/// newline). Shared verbatim by the batch harness and `mssr-serve`, so
/// a served result is byte-for-byte the line the batch trajectory
/// carries for the same cell.
pub(crate) fn cell_json_line(pool: &CellPool, i: CellId, r: &CellResult) -> String {
    let spec = pool.cell_spec(i);
    let w = pool.workload(spec.workload);
    let mut out = format!(
        "{{\"type\":\"cell\",\"id\":{i},\"workload\":\"{}\",\"suite\":\"{}\",\"engine\":\"{}\",\"seed\":\"{:#x}\"",
        json_escape(w.name()),
        w.suite(),
        json_escape(&spec.engine.label()),
        r.seed
    );
    // The predictor is recorded only when it differs from the default,
    // so default-grid trajectories stay byte-identical to pre-lab runs.
    if spec.cfg.bpred != BpredKind::default() {
        out.push_str(&format!(",\"bpred\":\"{}\"", spec.cfg.bpred.name()));
    }
    // Register Integration's per-set replacement counts (fig3's data);
    // other engines report none.
    let repl = &r.stats.engine.set_replacements;
    if !repl.is_empty() {
        out.push_str(",\"ri_set_replacements\":[");
        for (k, v) in repl.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
    }
    out.push_str(",\"stats\":");
    out.push_str(&r.stats.to_json());
    out.push('}');
    out
}

/// Appends a cell's wrapped `"event"` records to `out`, one per raw
/// trace line — the exact wrapping the batch trajectory uses.
pub(crate) fn push_event_lines(out: &mut String, cell: CellId, raw: &str) {
    for line in raw.lines() {
        out.push_str(&format!("{{\"type\":\"event\",\"cell\":{cell},\"ev\":{line}}}\n"));
    }
}

/// One `"profile"` record (no trailing newline): a cell's host
/// wall-clock self-profile. These lines go to *stderr*, never into the
/// trajectory — `Trajectory::parse` rejects unknown record types by
/// design, and profile data is machine-dependent, so keeping it out of
/// stdout is what keeps `--profile` byte-transparent. `mssr-report
/// --profile FILE` consumes a saved stderr stream.
pub(crate) fn profile_json_line(pool: &CellPool, i: CellId, r: &CellResult) -> Option<String> {
    let p = r.profile.as_ref()?;
    let spec = pool.cell_spec(i);
    let w = pool.workload(spec.workload);
    let mut out = format!(
        "{{\"type\":\"profile\",\"cell\":{i},\"workload\":\"{}\",\"engine\":\"{}\",\"cycles\":{},\"insts\":{},\"total_us\":{},\"stride\":{},\"sampled_cycles\":{},\"ns\":{{",
        json_escape(w.name()),
        json_escape(&spec.engine.label()),
        r.stats.cycles,
        r.stats.committed_instructions,
        p.total_us,
        p.report.stride,
        p.report.sampled_cycles,
    );
    for (k, b) in ProfBucket::ALL.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", b.name(), p.report.get(*b)));
    }
    out.push_str("}}");
    Some(out)
}

/// Runs a set of experiments over one shared, deduplicated cell pool —
/// the whole `run_all` sweep is a single parallel grid invocation — and
/// returns the rendered output (reports, or the JSON-lines trajectory
/// under `--json`).
pub fn run_experiments(exps: &[Box<dyn Experiment>], opts: &HarnessOpts) -> String {
    let mut pool = CellPool::new(opts.scale);
    pool.set_bpred_override(opts.bpred);
    let ids: Vec<Vec<CellId>> = exps.iter().map(|e| e.cells(&mut pool)).collect();
    let results = pool.run(opts);
    if opts.profile {
        // Profile records are emitted in cell order on stderr; the
        // returned output (stdout) is byte-identical with or without
        // `--profile`, which the determinism suite pins.
        for (i, r) in results.iter().enumerate() {
            if let Some(line) = profile_json_line(&pool, i, r) {
                eprintln!("{line}");
            }
        }
    }
    let mut out = String::new();
    if opts.json {
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"root_seed\":\"{:#x}\",\"scale\":\"{}\",\"cells\":{}}}\n",
            opts.root_seed,
            scale_name(opts.scale),
            results.len()
        ));
        for (i, r) in results.iter().enumerate() {
            out.push_str(&cell_json_line(&pool, i, r));
            out.push('\n');
            // Each cell's events follow its record, wrapped so consumers
            // can associate them; per-cell buffers emitted in cell order
            // keep the trajectory byte-identical across `--jobs` values.
            if let Some(trace) = &r.trace {
                push_event_lines(&mut out, i, trace);
            }
            // Under --simpoint, each cell's record is followed by its
            // sampling plan and per-representative measurements (all
            // unsigned integers, like every other trajectory field).
            if let Some(sp) = &r.simpoint {
                out.push_str(&format!(
                    "{{\"type\":\"simpoint\",\"cell\":{i},\"interval\":{},\"total_insts\":{},\"intervals\":{},\"k\":{},\"reps\":[",
                    sp.interval, sp.total_insts, sp.n_intervals, sp.k
                ));
                for (j, rep) in sp.reps.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"index\":{},\"start_inst\":{},\"planned_insts\":{},\"weight_insts\":{},\"spread_milli\":{},\"warmup_insts\":{},\"cycles\":{},\"insts\":{},\"account\":{}}}",
                        rep.index,
                        rep.start_inst,
                        rep.planned_insts,
                        rep.weight_insts,
                        rep.spread_milli,
                        rep.warmup_insts,
                        rep.cycles,
                        rep.insts,
                        rep.account.to_json()
                    ));
                }
                out.push_str("]}\n");
            }
        }
        for (e, ids) in exps.iter().zip(&ids) {
            out.push_str(&format!(
                "{{\"type\":\"experiment\",\"name\":\"{}\",\"cells\":[",
                e.name()
            ));
            for (k, id) in ids.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&id.to_string());
            }
            out.push_str("]}\n");
        }
    } else {
        for (e, ids) in exps.iter().zip(&ids) {
            if exps.len() > 1 {
                out.push_str(&format!("\n######## {} ########\n\n", e.name()));
            }
            out.push_str(&e.render(&pool, ids, &results));
        }
    }
    out
}

/// Looks up experiments by name and runs them (the experiment binaries'
/// entry point).
///
/// # Panics
///
/// Panics on an unknown experiment name.
pub fn run_named(names: &[&str], opts: &HarnessOpts) -> String {
    let exps: Vec<Box<dyn Experiment>> = names
        .iter()
        .map(|n| experiment(n).unwrap_or_else(|| panic!("unknown experiment `{n}`")))
        .collect();
    run_experiments(&exps, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn cli_parsing() {
        let o = HarnessOpts::from_iter(
            args(&["--jobs", "3", "--seed", "0x2a", "--scale", "test", "--json"]),
            Scale::Medium,
        )
        .unwrap();
        assert_eq!(o.jobs, 3);
        assert_eq!(o.root_seed, 42);
        assert_eq!(o.scale, Scale::Test);
        assert!(o.json);
        assert!(HarnessOpts::from_iter(args(&["--bogus"]), Scale::Test).is_err());
        assert!(HarnessOpts::from_iter(args(&["--jobs"]), Scale::Test).is_err());
        assert_eq!(HarnessOpts::from_iter(args(&["-h"]), Scale::Test).unwrap_err(), "help");
    }

    #[test]
    fn sample_flag_parses_and_requires_json() {
        let o = HarnessOpts::from_iter(args(&["--json", "--sample", "500"]), Scale::Test).unwrap();
        assert_eq!(o.sample, 500);
        assert_eq!(HarnessOpts::from_iter(args(&["--json"]), Scale::Test).unwrap().sample, 0);
        let err = HarnessOpts::from_iter(args(&["--sample", "500"]), Scale::Test).unwrap_err();
        assert!(err.contains("--sample requires --json"));
        assert!(HarnessOpts::from_iter(args(&["--sample", "x"]), Scale::Test).is_err());
    }

    #[test]
    fn bpred_flag_parses_every_kind_and_rejects_unknown() {
        assert_eq!(HarnessOpts::from_iter(args(&[]), Scale::Test).unwrap().bpred, None);
        for kind in BpredKind::ALL {
            let o = HarnessOpts::from_iter(args(&["--bpred", kind.name()]), Scale::Test).unwrap();
            assert_eq!(o.bpred, Some(kind));
        }
        let err =
            HarnessOpts::from_iter(args(&["--bpred", "perceptron"]), Scale::Test).unwrap_err();
        assert!(err.contains("unknown predictor"), "{err}");
    }

    #[test]
    fn simpoint_flag_parses_and_validates() {
        let o =
            HarnessOpts::from_iter(args(&["--json", "--simpoint", "2000,6"]), Scale::Test).unwrap();
        assert_eq!(o.simpoint, Some((2000, 6)));
        assert_eq!(HarnessOpts::from_iter(args(&["--json"]), Scale::Test).unwrap().simpoint, None);
        for bad in [
            vec!["--simpoint", "2000,6"],                           // needs --json
            vec!["--json", "--simpoint", "2000"],                   // missing comma
            vec!["--json", "--simpoint", "0,6"],                    // zero interval
            vec!["--json", "--simpoint", "2000,0"],                 // zero maxk
            vec!["--json", "--simpoint", "x,6"],                    // malformed
            vec!["--json", "--simpoint", "2000,6", "--ffwd", "10"], // conflicting ffwd
        ] {
            assert!(HarnessOpts::from_iter(args(&bad), Scale::Test).is_err(), "{bad:?}");
        }
        let err = HarnessOpts::from_iter(
            args(&["--json", "--simpoint", "2000,6", "--ckpt-dir", "d", "--ckpt-every", "5"]),
            Scale::Test,
        )
        .unwrap_err();
        assert!(err.contains("--ckpt-every"), "{err}");
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(cell_seed(1, 2), cell_seed(1, 2));
        assert_ne!(cell_seed(1, 2), cell_seed(1, 3));
        assert_ne!(cell_seed(1, 2), cell_seed(2, 2));
    }
}
