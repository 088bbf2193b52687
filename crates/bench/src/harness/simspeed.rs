//! Sim-speed trajectory: the committed record of how fast the
//! simulator runs the Table 1 grid, and the CI gate that compares a
//! PR's measured throughput against it.
//!
//! `ci/regen-bench-simspeed.sh` runs the grid under `--profile` and
//! calls [`measure`] + [`render`] to write
//! `BENCH_simspeed.json`: per-engine min/median/max host throughput
//! (thousandths of simulated MIPS) plus the stage-share breakdown from
//! the self-profiler, so a perf regression shows up as *which stage got
//! slower*, not just a smaller number.
//!
//! Wall-clock is machine-dependent, so the gate is a noise-tolerant
//! *ratio*: [`check`] fails only when a PR's median throughput drops
//! below `min_ratio_pct` percent of the committed baseline for any
//! engine. Stage shares are context for the human reading the diff, not
//! gated.

use super::report::{parse_profile, Json, Trajectory};
use mssr_sim::{json_escape, ProfBucket, ProfReport};

/// One engine's aggregated sim-speed record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineSpeed {
    /// Engine label (`BASE`, `RCVG_N_P`, ...).
    pub engine: String,
    /// Cells aggregated (one per workload on the grid).
    pub cells: u64,
    /// Slowest cell, thousandths of simulated MIPS.
    pub mips_min_milli: u64,
    /// Median cell (lower-median of the sorted cells).
    pub mips_median_milli: u64,
    /// Fastest cell.
    pub mips_max_milli: u64,
    /// Stage/bucket shares of attributed wall-clock in thousandths,
    /// aggregated over the engine's profile records (empty when the run
    /// had no `--profile` stream).
    pub stage_share_milli: Vec<(String, u64)>,
}

/// A sim-speed trajectory: the parsed form of `BENCH_simspeed.json`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Simspeed {
    /// Experiment the grid came from (`table1`).
    pub experiment: String,
    /// Workload scale of the run.
    pub scale: String,
    /// Per-engine aggregates, in first-appearance (trajectory) order.
    pub engines: Vec<EngineSpeed>,
}

/// Aggregates a harness trajectory and its `--profile` stderr stream
/// into a [`Simspeed`] record. Each cell's throughput is its profile
/// record's [`ProfileRecord::sim_mips_milli`](super::report::ProfileRecord::sim_mips_milli).
///
/// # Errors
///
/// Returns a message when the trajectory is malformed or empty, or when
/// a cell has no profile record (a run without `--profile` has no
/// throughput, and a baseline without one would wave every regression
/// through).
pub fn measure(
    trajectory_text: &str,
    profile_text: &str,
    experiment: &str,
) -> Result<Simspeed, String> {
    let t = Trajectory::parse(trajectory_text)?;
    if t.cells.is_empty() {
        return Err("trajectory has no cells".to_string());
    }
    let profile = parse_profile(profile_text);
    let mut cell_mips: Vec<(&str, u64)> = Vec::with_capacity(t.cells.len());
    let mut engines: Vec<EngineSpeed> = Vec::new();
    for cell in &t.cells {
        let Some(rec) = profile.iter().find(|r| r.cell == cell.id) else {
            return Err(format!(
                "cell {} ({} × {}) has no profile record — run the whole grid with --profile",
                cell.id, cell.workload, cell.engine
            ));
        };
        cell_mips.push((&cell.engine, rec.sim_mips_milli()));
        if !engines.iter().any(|e| e.engine == cell.engine) {
            engines.push(EngineSpeed { engine: cell.engine.clone(), ..EngineSpeed::default() });
        }
    }
    for e in &mut engines {
        let mut mips: Vec<u64> =
            cell_mips.iter().filter(|c| c.0 == e.engine).map(|c| c.1).collect();
        mips.sort_unstable();
        e.cells = mips.len() as u64;
        e.mips_min_milli = mips[0];
        e.mips_median_milli = mips[(mips.len() - 1) / 2];
        e.mips_max_milli = mips[mips.len() - 1];
        // Stage shares: sum each bucket's estimated whole-run time over
        // the engine's profile records, then normalize to thousandths.
        let recs: Vec<&ProfReport> =
            profile.iter().filter(|r| r.engine == e.engine).map(|r| &r.profile.report).collect();
        let sums: Vec<(ProfBucket, u64)> = ProfBucket::ALL
            .iter()
            .map(|&b| (b, recs.iter().fold(0u64, |acc, r| acc.saturating_add(r.est_ns(b)))))
            .collect();
        let total: u128 = sums.iter().map(|&(_, v)| u128::from(v)).sum();
        e.stage_share_milli = sums
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .map(|(b, v)| (b.name().to_string(), (u128::from(v) * 1000 / total.max(1)) as u64))
            .collect();
    }
    Ok(Simspeed { experiment: experiment.to_string(), scale: t.scale, engines })
}

/// Renders a [`Simspeed`] record as the pretty-printed JSON body of
/// `BENCH_simspeed.json` (the same integer-only subset [`Json::parse`]
/// reads back).
pub fn render(s: &Simspeed) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"experiment\": \"{}\",\n", json_escape(&s.experiment)));
    out.push_str(&format!("  \"scale\": \"{}\",\n", json_escape(&s.scale)));
    out.push_str("  \"engines\": [\n");
    for (i, e) in s.engines.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"engine\": \"{}\",\n", json_escape(&e.engine)));
        out.push_str(&format!("      \"cells\": {},\n", e.cells));
        out.push_str(&format!("      \"mips_min_milli\": {},\n", e.mips_min_milli));
        out.push_str(&format!("      \"mips_median_milli\": {},\n", e.mips_median_milli));
        out.push_str(&format!("      \"mips_max_milli\": {},\n", e.mips_max_milli));
        let shares: Vec<String> = e
            .stage_share_milli
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
            .collect();
        out.push_str(&format!("      \"stage_share_milli\": {{{}}}\n", shares.join(", ")));
        out.push_str(if i + 1 == s.engines.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_simspeed.json` body back into a [`Simspeed`].
///
/// # Errors
///
/// Returns a message on malformed JSON or a missing `engines` array.
pub fn parse(text: &str) -> Result<Simspeed, String> {
    let v = Json::parse(text)?;
    let Some(Json::Arr(engines)) = v.get("engines") else {
        return Err("missing engines array".to_string());
    };
    let mut s = Simspeed {
        experiment: v.get("experiment").and_then(Json::str_val).unwrap_or("?").to_string(),
        scale: v.get("scale").and_then(Json::str_val).unwrap_or("?").to_string(),
        engines: Vec::new(),
    };
    for e in engines {
        let mut rec = EngineSpeed {
            engine: e.get("engine").and_then(Json::str_val).unwrap_or("?").to_string(),
            cells: e.field_u64("cells"),
            mips_min_milli: e.field_u64("mips_min_milli"),
            mips_median_milli: e.field_u64("mips_median_milli"),
            mips_max_milli: e.field_u64("mips_max_milli"),
            stage_share_milli: Vec::new(),
        };
        if let Some(Json::Obj(kv)) = e.get("stage_share_milli") {
            for (k, val) in kv {
                rec.stage_share_milli.push((k.clone(), val.num().unwrap_or(0)));
            }
        }
        s.engines.push(rec);
    }
    Ok(s)
}

/// One engine's comparison against the committed baseline.
#[derive(Clone, Debug)]
pub struct SpeedCheck {
    /// Greppable summary line (`SIMSPEED engine=... ratio_pct=...`).
    pub line: String,
    /// Whether this engine passed the gate.
    pub ok: bool,
}

/// Compares a freshly measured [`Simspeed`] against the committed
/// baseline: one [`SpeedCheck`] per baseline engine, failing when the
/// current median throughput falls below `min_ratio_pct` percent of the
/// baseline median (or the engine disappeared from the grid). Engines
/// new in `current` pass silently — the next regen commits them.
pub fn check(current: &Simspeed, baseline: &Simspeed, min_ratio_pct: u64) -> Vec<SpeedCheck> {
    let mut out = Vec::new();
    for base in &baseline.engines {
        let Some(cur) = current.engines.iter().find(|e| e.engine == base.engine) else {
            out.push(SpeedCheck {
                line: format!("SIMSPEED engine={} status=MISSING", base.engine),
                ok: false,
            });
            continue;
        };
        let ratio_pct = (u128::from(cur.mips_median_milli) * 100
            / u128::from(base.mips_median_milli.max(1))) as u64;
        let ok = ratio_pct >= min_ratio_pct;
        out.push(SpeedCheck {
            line: format!(
                "SIMSPEED engine={} base_mips_milli={} cur_mips_milli={} ratio_pct={} \
                 min_ratio_pct={min_ratio_pct} status={}",
                base.engine,
                base.mips_median_milli,
                cur.mips_median_milli,
                ratio_pct,
                if ok { "ok" } else { "FAIL" },
            ),
            ok,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CELLS: [(u64, &str, &str, u64); 4] = [
        (0, "a", "BASE", 3000),
        (1, "a", "RCVG_2_64", 2000),
        (2, "b", "BASE", 1000),
        (3, "b", "RCVG_2_64", 6000),
    ];

    fn fixture() -> String {
        let mut s = String::from(
            "{\"type\":\"meta\",\"root_seed\":\"0x1\",\"scale\":\"test\",\"cells\":4}\n",
        );
        for (id, workload, engine, _) in CELLS {
            s.push_str(&format!(
                concat!(
                    "{{\"type\":\"cell\",\"id\":{},\"workload\":\"{}\",\"suite\":\"micro\",",
                    "\"engine\":\"{}\",\"seed\":\"0x1\",\"stats\":{{\"cycles\":1000,",
                    "\"committed_instructions\":500,\"engine\":{{}},\"account\":{{}}}}}}\n",
                ),
                id, workload, engine
            ));
        }
        s
    }

    /// One profile record per cell whose throughput is the cell's
    /// fixture MIPS: `mips * 100` instructions in 100 ms. Only cell 0
    /// attributes stage time (fetch 100 ns, execute 300 ns).
    fn profile_fixture() -> String {
        let mut s = String::new();
        for (id, workload, engine, mips) in CELLS {
            let (fetch, execute) = if id == 0 { (100, 300) } else { (0, 0) };
            s.push_str(&format!(
                concat!(
                    "{{\"type\":\"profile\",\"cell\":{},\"workload\":\"{}\",\"engine\":\"{}\",",
                    "\"cycles\":1000,\"insts\":{},\"total_us\":100000,\"stride\":64,",
                    "\"sampled_cycles\":16,\"ns\":{{\"fetch\":{},\"rename\":0,\"issue\":0,",
                    "\"execute\":{},\"commit\":0,\"squash\":0,\"ckpt\":0,\"ffwd\":0,\"bbv\":0}}}}\n",
                ),
                id,
                workload,
                engine,
                mips * 100,
                fetch,
                execute
            ));
        }
        s
    }

    #[test]
    fn measure_aggregates_min_median_max_per_engine() {
        let s = measure(&fixture(), &profile_fixture(), "table1").unwrap();
        assert_eq!(s.experiment, "table1");
        assert_eq!(s.scale, "test");
        assert_eq!(s.engines.len(), 2);
        let base = &s.engines[0];
        assert_eq!(base.engine, "BASE");
        assert_eq!(base.cells, 2);
        assert_eq!(
            (base.mips_min_milli, base.mips_median_milli, base.mips_max_milli),
            (1000, 1000, 3000)
        );
        // fetch 100ns and execute 300ns, both ×64 stride: shares 25%/75%.
        assert_eq!(
            base.stage_share_milli,
            vec![("fetch".to_string(), 250), ("execute".to_string(), 750)]
        );
        // RCVG's records attribute no stage time → no share breakdown.
        assert_eq!(s.engines[1].mips_median_milli, 2000);
        assert!(s.engines[1].stage_share_milli.is_empty());
    }

    #[test]
    fn cells_without_a_profile_record_are_rejected() {
        let err = measure(&fixture(), "", "table1").unwrap_err();
        assert!(err.contains("--profile"), "{err}");
        let partial: String = profile_fixture()
            .lines()
            .filter(|l| !l.contains("\"cell\":3"))
            .map(|l| l.to_string() + "\n")
            .collect();
        let err = measure(&fixture(), &partial, "table1").unwrap_err();
        assert!(err.starts_with("cell 3 "), "the unprofiled cell is named: {err}");
    }

    #[test]
    fn render_parse_round_trips() {
        let s = measure(&fixture(), &profile_fixture(), "table1").unwrap();
        let body = render(&s);
        let back = parse(&body).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn check_gates_on_median_ratio() {
        let base = measure(&fixture(), &profile_fixture(), "table1").unwrap();
        // Identical run: every engine at 100%.
        let same = check(&base, &base, 75);
        assert!(same.iter().all(|c| c.ok));
        assert!(same[0].line.contains("ratio_pct=100"), "{}", same[0].line);
        // BASE median halves (1000 → 500): 50% < 75% fails, RCVG passes.
        let mut slow = base.clone();
        slow.engines[0].mips_median_milli = 500;
        let checks = check(&slow, &base, 75);
        assert!(!checks[0].ok && checks[0].line.contains("status=FAIL"), "{}", checks[0].line);
        assert!(checks[1].ok);
        // An engine missing from the current run is a failure.
        let mut gone = base.clone();
        gone.engines.remove(0);
        let checks = check(&gone, &base, 75);
        assert!(!checks[0].ok && checks[0].line.contains("status=MISSING"), "{}", checks[0].line);
    }
}
