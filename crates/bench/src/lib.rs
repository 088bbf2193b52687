//! # mssr-bench
//!
//! The experiment harness: one regenerator per table and figure of the
//! paper. Each experiment declares its cells into the shared grid in
//! [`harness`]; the binaries print the same rows/series the paper
//! reports.
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — microbenchmark runtime improvements, MSSR streams vs RI ways |
//! | `fig3` | Figure 3 — RI reuse-table replacement frequency by set |
//! | `fig4` | Figure 4 — reconvergence-type breakdown per benchmark |
//! | `table2` | Table 2 — storage model |
//! | `table3` | Table 3 — baseline configuration |
//! | `fig10` | Figure 10 — IPC improvement per stream×WPB configuration |
//! | `fig11` | Figure 11 — reconvergence stream-distance breakdown |
//! | `fig12` | Figure 12 — RI vs RGID on GAP across matched-capacity configurations |
//! | `table4` | Table 4 — synthesis-complexity model |
//! | `rollup` | the artifact's CSV rollup (CFG, BM, CYCLES, diff) |
//! | `ablation` | design-choice ablations called out in DESIGN.md |
//! | `run_all` | everything above as one parallel grid invocation |
//!
//! Every binary accepts the shared harness flags (`--jobs`, `--seed`,
//! `--scale`, `--json`); scale can also come from `MSSR_SCALE` (`test` /
//! `medium` / `large`, default `medium`).

pub mod harness;

use mssr_sim::{SimConfig, SimStats};
use mssr_workloads::Scale;

/// The simulator configuration used by all experiments: the paper's
/// Table 3 baseline, with one documented calibration — 10-bit RGIDs
/// instead of 6.
///
/// The hand-written kernels in `mssr-workloads` concentrate renames on
/// far fewer architectural registers than compiled SPEC code does, so
/// 6-bit generation counters wrap several times faster than they would
/// in the paper's setup, and the global-reset protocol erases reuse
/// state at an unrepresentative rate. Widening the counters restores the
/// paper's effective reset frequency; the `ablation` experiment
/// quantifies the difference, and Table 2's storage model still uses the
/// paper's 6-bit figure.
pub fn experiment_sim_config() -> SimConfig {
    SimConfig { rgid_bits: 10, ..SimConfig::default() }
        .with_max_cycles(400_000_000)
        .with_max_insts(30_000_000)
}

/// Reads the experiment scale from `MSSR_SCALE`.
pub fn scale_from_env(default: Scale) -> Scale {
    match std::env::var("MSSR_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        Ok("medium") => Scale::Medium,
        Ok("large") => Scale::Large,
        _ => default,
    }
}

/// An engine configuration under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSpec {
    /// No squash reuse.
    Baseline,
    /// Multi-Stream Squash Reuse with `streams` × `log_entries`
    /// Squash Logs (WPB entries = log/4, the paper's §4.1.2 ratio).
    Mssr {
        /// Tracked streams (N).
        streams: usize,
        /// Squash Log entries per stream (P); WPB entries = P/4.
        log_entries: usize,
    },
    /// Register Integration with a `sets` × `ways` reuse table.
    Ri {
        /// Table sets.
        sets: usize,
        /// Table ways.
        ways: usize,
    },
}

impl EngineSpec {
    /// A short label (used in report rows; the artifact's `RCVG_N_M`
    /// naming for MSSR configurations).
    pub fn label(&self) -> String {
        match self {
            EngineSpec::Baseline => "BASE".to_string(),
            EngineSpec::Mssr { streams, log_entries } => {
                format!("RCVG_{streams}_{log_entries}")
            }
            EngineSpec::Ri { sets, ways } => format!("RI_{sets}x{ways}"),
        }
    }
}

/// Percentage improvement of `opt` over `base` in cycle count
/// (positive = faster).
pub fn speedup_pct(base: &SimStats, opt: &SimStats) -> f64 {
    100.0 * (base.cycles as f64 / opt.cycles as f64 - 1.0)
}

/// Renders rows as an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:<w$}", c, w = widths[i]));
        }
        s.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&line(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders rows as CSV.
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(EngineSpec::Baseline.label(), "BASE");
        assert_eq!(EngineSpec::Mssr { streams: 4, log_entries: 64 }.label(), "RCVG_4_64");
        assert_eq!(EngineSpec::Ri { sets: 64, ways: 2 }.label(), "RI_64x2");
    }

    #[test]
    fn speedup_math() {
        let mut a = SimStats::default();
        let mut b = SimStats::default();
        a.cycles = 110;
        b.cycles = 100;
        assert!((speedup_pct(&a, &b) - 10.0).abs() < 1e-9);
        assert!(speedup_pct(&b, &a) < 0.0);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["BM", "CYCLES"],
            &[vec!["bfs".into(), "123".into()], vec!["cc".into(), "45678".into()]],
        );
        assert!(t.contains("BM"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn csv_rendering() {
        let c = render_csv(&["A", "B"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "A,B\n1,2\n");
    }

    #[test]
    fn scale_env_parsing() {
        // No env manipulation (tests run in parallel); just default path.
        assert_eq!(scale_from_env(Scale::Test), Scale::Test);
    }
}
