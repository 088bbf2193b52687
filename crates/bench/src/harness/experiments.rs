//! Every table and figure of the paper as an [`Experiment`]: a cell
//! declaration (into the shared, deduplicated [`CellPool`]) plus a
//! renderer over the grid's results. The experiment binaries
//! (`fig3`…`table4`, `ablation`, `rollup`, `run_all`) are thin wrappers
//! around this registry.

use mssr_core::storage::{storage, StorageParams};
use mssr_core::{complexity, MemCheckPolicy};
use mssr_sim::{BpredKind, SimConfig};
use mssr_workloads::{microbench, suite_workloads, Scale, Suite};

use super::grid::{CellId, CellPool, CellResult, EngineCfg};
use super::profile_record;
use crate::{experiment_sim_config, render_csv, render_table, speedup_pct, EngineSpec};

/// One regenerated table or figure.
pub trait Experiment: Sync {
    /// The experiment's name (the binary name: `"fig10"`, `"table1"`, …).
    fn name(&self) -> &'static str;

    /// Declares the experiment's cells into the pool, returning their
    /// ids in the order [`Experiment::render`] consumes them.
    fn cells(&self, pool: &mut CellPool) -> Vec<CellId>;

    /// Renders the report from the grid results (`results[id]` is cell
    /// `id`'s result).
    fn render(&self, pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String;
}

/// Experiment names in `run_all` order (analytic tables first, then the
/// simulated tables and figures).
pub const EXPERIMENT_NAMES: [&str; 12] = [
    "table2", "table3", "table4", "table1", "fig3", "fig4", "fig10", "fig11", "fig12", "rollup",
    "ablation", "bpred",
];

/// Every experiment, in `run_all` order.
pub fn all_experiments() -> Vec<Box<dyn Experiment>> {
    EXPERIMENT_NAMES.iter().map(|n| experiment(n).expect("registered")).collect()
}

/// Looks up one experiment by name.
pub fn experiment(name: &str) -> Option<Box<dyn Experiment>> {
    Some(match name {
        "table1" => Box::new(Table1) as Box<dyn Experiment>,
        "table2" => Box::new(Table2),
        "table3" => Box::new(Table3),
        "table4" => Box::new(Table4),
        "fig3" => Box::new(Fig3),
        "fig4" => Box::new(Fig4),
        "fig10" => Box::new(Fig10),
        "fig11" => Box::new(Fig11),
        "fig12" => Box::new(Fig12),
        "rollup" => Box::new(Rollup),
        "ablation" => Box::new(Ablation),
        "bpred" => Box::new(BpredLab),
        _ => return None,
    })
}

/// The microbenchmark iteration count per scale (the historical values
/// of the `table1`/`fig3`/`ablation` binaries).
fn micro_iters(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 500,
        Scale::Medium => 3000,
        Scale::Large => 8000,
    }
}

struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        let iters = micro_iters(pool.scale());
        let mut ids = Vec::new();
        for w in [microbench::nested_mispred(iters), microbench::linear_mispred(iters)] {
            let wid = pool.intern(w);
            ids.push(pool.cell(wid, EngineSpec::Baseline.into(), experiment_sim_config()));
            for n in [1usize, 2, 4] {
                ids.push(pool.cell(
                    wid,
                    EngineSpec::Mssr { streams: n, log_entries: 64 }.into(),
                    experiment_sim_config(),
                ));
            }
            for ways in [1usize, 2, 4] {
                ids.push(pool.cell(
                    wid,
                    EngineSpec::Ri { sets: 64, ways }.into(),
                    experiment_sim_config(),
                ));
            }
        }
        ids
    }

    fn render(&self, _pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut out =
            String::from("== Table 1: microbenchmark improvements over no-reuse baseline ==\n");
        out.push_str("paper: nested 2.4/14.3/23.4%  linear 6.5/16.7/19.7% (MSSR 1/2/4 streams)\n");
        out.push_str("       nested -0.1/1.9/17.9%  linear 1.7/6.2/16.4% (RI 1/2/4 ways)\n\n");
        // Per variant: [baseline, mssr1, mssr2, mssr4, ri1, ri2, ri4].
        let variants: Vec<&[CellId]> = ids.chunks(7).collect();
        let mut rows = Vec::new();
        for (i, label) in
            ["Single Stream / Way", "Two Streams / Ways", "Four Streams / Ways"].iter().enumerate()
        {
            let cell = |variant: &[CellId], off: usize| {
                let base = &results[variant[0]].stats;
                format!("{:+.1}%", speedup_pct(base, &results[variant[off + i]].stats))
            };
            rows.push(vec![
                label.to_string(),
                cell(variants[0], 1),
                cell(variants[0], 4),
                cell(variants[1], 1),
                cell(variants[1], 4),
            ]);
        }
        out.push_str(&render_table(
            &["", "Nested MSSR", "Nested RI", "Linear MSSR", "Linear RI"],
            &rows,
        ));
        out.push('\n');
        out
    }
}

struct Table2;

impl Experiment for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn cells(&self, _pool: &mut CellPool) -> Vec<CellId> {
        Vec::new()
    }

    fn render(&self, _pool: &CellPool, _ids: &[CellId], _results: &[CellResult]) -> String {
        let mut out =
            String::from("== Table 2: additional storage for the squash-reuse scheme ==\n");
        out.push_str(
            "paper: constant 2.30 KB, variable 1.23 KB, total 3.53 KB at N=4, M=16, P=64\n\n",
        );
        for (n, m, p) in [(4usize, 16usize, 64usize), (1, 16, 64), (2, 32, 64), (4, 64, 128)] {
            let b = storage(&StorageParams {
                streams: n,
                wpb_entries: m,
                log_entries: p,
                ..StorageParams::default()
            });
            out.push_str(&format!(
                "N={n:<2} M={m:<3} P={p:<4}: constant {:>6} bits ({:.2} KiB)  variable {:>6} bits ({:.2} KiB)  total {:.2} KiB\n",
                b.constant_bits,
                b.constant_kib(),
                b.variable_bits,
                b.variable_kib(),
                b.total_kib()
            ));
        }
        out
    }
}

struct Table3;

impl Experiment for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }

    fn cells(&self, _pool: &mut CellPool) -> Vec<CellId> {
        Vec::new()
    }

    fn render(&self, _pool: &CellPool, _ids: &[CellId], _results: &[CellResult]) -> String {
        let c = experiment_sim_config();
        let mut out = String::from("== Table 3: baseline configuration ==\n");
        out.push_str("Frontend\n");
        out.push_str(&format!(
            "  Fetch block size        {} B ({} instructions)\n",
            c.fetch_block_insts * 4,
            c.fetch_block_insts
        ));
        out.push_str(&format!(
            "  Nextline predictor      Bimodal ({} entries)\n",
            c.bimodal_entries
        ));
        out.push_str(&format!(
            "  Main branch predictor   TAGE ({} tables x {} entries)\n",
            c.tage_tables, c.tage_entries
        ));
        out.push_str(&format!("  Pipeline stages         {}\n", c.frontend_stages));
        out.push_str("Backend\n");
        out.push_str(&format!("  Decode/Rename width     {}\n", c.rename_width));
        out.push_str(&format!("  Reorder buffer          {} entries\n", c.rob_size));
        out.push_str(&format!(
            "  Reservation stations    {}-entry {}xALU + {}xBRU | {}-entry {}xLSU\n",
            c.iq_int_size, c.alu_units, c.bru_units, c.iq_mem_size, c.lsu_units
        ));
        out.push_str(&format!("  Load/store queue        {} / {} entries\n", c.lq_size, c.sq_size));
        out.push_str(&format!("  Physical registers      {}\n", c.phys_regs));
        out.push_str(&format!(
            "  RGID width              {} bits (paper: 6; see DESIGN.md calibration note)\n",
            c.rgid_bits
        ));
        out.push_str("Memory\n");
        out.push_str(&format!(
            "  DCache                  {} KB, {}-way, {}-cycle\n",
            c.l1d.size_bytes / 1024,
            c.l1d.ways,
            c.l1d.latency
        ));
        out.push_str(&format!(
            "  L2                      {} MB, {}-way, {}-cycle\n",
            c.l2.size_bytes / 1024 / 1024,
            c.l2.ways,
            c.l2.latency
        ));
        out.push_str(&format!("  DRAM                    {}-cycle\n", c.dram_latency));
        out
    }
}

struct Table4;

impl Experiment for Table4 {
    fn name(&self) -> &'static str {
        "table4"
    }

    fn cells(&self, _pool: &mut CellPool) -> Vec<CellId> {
        Vec::new()
    }

    fn render(&self, _pool: &CellPool, _ids: &[CellId], _results: &[CellResult]) -> String {
        let mut out =
            String::from("== Table 4: complexity of critical logic (analytic model) ==\n\n");
        out.push_str("Reconvergence detection\n");
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>14}\n",
            "WPB size", "logic levels", "area / um^2", "power/mW @0.7V"
        ));
        for m in [16usize, 32, 64] {
            let c = complexity::reconvergence_detection(4, m);
            out.push_str(&format!(
                "{:<10} {:>12} {:>12.0} {:>14.3}\n",
                format!("4x{m}"),
                c.logic_levels,
                c.area_um2,
                c.power_mw
            ));
        }
        out.push_str("\nReuse test (64-entry Squash Log)\n");
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>14}\n",
            "width", "logic levels", "area / um^2", "power/mW @0.7V"
        ));
        for w in [4usize, 6, 8] {
            let c = complexity::reuse_test(w);
            out.push_str(&format!(
                "{:<10} {:>12} {:>12.0} {:>14.3}\n",
                w, c.logic_levels, c.area_um2, c.power_mw
            ));
        }
        out.push_str("\n(Calibrated to the paper's synthesis anchors; values between and\n");
        out.push_str(" beyond the anchors follow the model's monotone interpolation.)\n");
        out
    }
}

struct Fig3;

impl Experiment for Fig3 {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        let wid = pool.intern(microbench::nested_mispred(micro_iters(pool.scale())));
        [1usize, 2, 4]
            .into_iter()
            .map(|ways| {
                pool.cell(wid, EngineSpec::Ri { sets: 64, ways }.into(), experiment_sim_config())
            })
            .collect()
    }

    fn render(&self, _pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut out =
            String::from("== Figure 3: RI reuse-table replacement frequency (64 sets) ==\n");
        out.push_str("paper: dark (high-replacement) sets at 1 way, mostly light at 4 ways\n\n");
        for (&id, ways) in ids.iter().zip([1usize, 2, 4]) {
            let r = &results[id];
            let counts = &r.stats.engine.set_replacements;
            let max = counts.iter().copied().max().unwrap_or(1).max(1);
            let total: u64 = counts.iter().sum();
            out.push_str(&format!(
                "{ways}-way: {total} replacements total ({:.1} per squash)\n",
                total as f64 / r.stats.mispredictions.max(1) as f64
            ));
            // ASCII heatmap: one character per set, shade by replacement count.
            let shades = [' ', '.', ':', '+', '#', '@'];
            let mut line = String::from("  [");
            for &c in counts.iter() {
                let idx = (c * (shades.len() as u64 - 1)).div_ceil(max) as usize;
                line.push(shades[idx.min(shades.len() - 1)]);
            }
            line.push_str("]\n");
            out.push_str(&line);
        }
        out
    }
}

struct Fig4;

impl Experiment for Fig4 {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        all_interned(pool)
            .into_iter()
            .map(|wid| {
                pool.cell(
                    wid,
                    EngineSpec::Mssr { streams: 4, log_entries: 64 }.into(),
                    experiment_sim_config(),
                )
            })
            .collect()
    }

    fn render(&self, pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut out =
            String::from("== Figure 4: breakdown of reconvergence types (4 streams) ==\n");
        out.push_str("paper: GAP mostly simple; branchy SPECint show 15-43% multi-stream\n\n");
        let mut rows = Vec::new();
        for &id in ids {
            let w = pool.cell_workload(id);
            let e = &results[id].stats.engine;
            let total = e.reconvergences.max(1) as f64;
            rows.push(vec![
                w.name().to_string(),
                format!("{}", w.suite()),
                format!("{}", e.reconvergences),
                format!("{:.1}%", 100.0 * e.recon_simple as f64 / total),
                format!("{:.1}%", 100.0 * e.recon_software as f64 / total),
                format!("{:.1}%", 100.0 * e.recon_hardware as f64 / total),
                format!("{:.1}%", 100.0 * (e.recon_software + e.recon_hardware) as f64 / total),
            ]);
        }
        out.push_str(&render_table(
            &["benchmark", "suite", "reconv", "simple", "sw-induced", "hw-induced", "multi-stream"],
            &rows,
        ));
        out.push('\n');
        out
    }
}

/// The (streams, WPB entries) sweep of Figure 10, per the paper's legend.
const FIG10_CONFIGS: [(usize, usize); 5] = [(1, 16), (1, 64), (2, 64), (4, 64), (4, 1024)];

struct Fig10;

impl Experiment for Fig10 {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        let mut ids = Vec::new();
        for suite in [Suite::Spec2006, Suite::Spec2017, Suite::Gap] {
            for w in suite_workloads(suite, pool.scale()) {
                let wid = pool.intern(w);
                ids.push(pool.cell(wid, EngineSpec::Baseline.into(), experiment_sim_config()));
                for (streams, wpb) in FIG10_CONFIGS {
                    ids.push(pool.cell(
                        wid,
                        EngineSpec::Mssr { streams, log_entries: wpb * 4 }.into(),
                        experiment_sim_config(),
                    ));
                }
            }
        }
        ids
    }

    fn render(&self, pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut out =
            String::from("== Figure 10: IPC improvement per stream x WPB configuration ==\n");
        out.push_str("paper: avg +2.2% (SPECint2006) +0.8% (SPECint2017) +2.4% (GAP) at 4x64;\n");
        out.push_str("       max astar +8.9%, bc +6.1%, cc +4.0%\n\n");
        let mut rows = Vec::new();
        let mut cur: Option<Suite> = None;
        let mut sums = vec![0.0f64; FIG10_CONFIGS.len()];
        let mut count = 0usize;
        let flush = |rows: &mut Vec<Vec<String>>, suite: Suite, sums: &[f64], count: usize| {
            let mut avg = vec!["average".to_string(), format!("{suite}"), String::new()];
            for s in sums {
                avg.push(format!("{:+.2}%", s / count.max(1) as f64));
            }
            rows.push(avg);
            rows.push(vec![String::new()]);
        };
        for chunk in ids.chunks(1 + FIG10_CONFIGS.len()) {
            let w = pool.cell_workload(chunk[0]);
            if cur.is_some_and(|s| s != w.suite()) {
                flush(&mut rows, cur.unwrap(), &sums, count);
                sums = vec![0.0; FIG10_CONFIGS.len()];
                count = 0;
            }
            cur = Some(w.suite());
            let base = &results[chunk[0]].stats;
            let mut row =
                vec![w.name().to_string(), format!("{}", w.suite()), format!("{:.3}", base.ipc())];
            for (i, &id) in chunk[1..].iter().enumerate() {
                let pct = speedup_pct(base, &results[id].stats);
                sums[i] += pct;
                row.push(format!("{pct:+.2}%"));
            }
            count += 1;
            rows.push(row);
        }
        if let Some(suite) = cur {
            flush(&mut rows, suite, &sums, count);
        }
        let headers: Vec<String> = ["benchmark", "suite", "base IPC"]
            .iter()
            .map(|s| s.to_string())
            .chain(FIG10_CONFIGS.iter().map(|(n, m)| format!("{n}x{m}")))
            .collect();
        let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        out.push_str(&render_table(&hdr_refs, &rows));
        out.push('\n');
        out
    }
}

struct Fig11;

impl Experiment for Fig11 {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        // Track more streams than the default so longer distances are
        // observable (the histogram saturates at the stream count).
        all_interned(pool)
            .into_iter()
            .map(|wid| {
                pool.cell(
                    wid,
                    EngineSpec::Mssr { streams: 8, log_entries: 64 }.into(),
                    experiment_sim_config(),
                )
            })
            .collect()
    }

    fn render(&self, pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut out =
            String::from("== Figure 11: reconvergence stream distance (8 streams tracked) ==\n");
        out.push_str("paper: >50% at distance 1; 90-95% within distance 3\n\n");
        let mut rows = Vec::new();
        let mut totals = [0u64; 8];
        for &id in ids {
            let w = pool.cell_workload(id);
            let h = results[id].stats.engine.stream_distance;
            let total: u64 = h.iter().sum();
            for (t, v) in totals.iter_mut().zip(h.iter()) {
                *t += v;
            }
            if total == 0 {
                continue;
            }
            let cum = |k: usize| 100.0 * h[..k].iter().sum::<u64>() as f64 / total as f64;
            rows.push(vec![
                w.name().to_string(),
                format!("{total}"),
                format!("{:.1}%", cum(1)),
                format!("{:.1}%", cum(2)),
                format!("{:.1}%", cum(3)),
                format!("{:.1}%", cum(4)),
            ]);
        }
        let grand: u64 = totals.iter().sum::<u64>().max(1);
        let cum_all = |k: usize| 100.0 * totals[..k].iter().sum::<u64>() as f64 / grand as f64;
        rows.push(vec![
            "ALL".to_string(),
            format!("{grand}"),
            format!("{:.1}%", cum_all(1)),
            format!("{:.1}%", cum_all(2)),
            format!("{:.1}%", cum_all(3)),
            format!("{:.1}%", cum_all(4)),
        ]);
        out.push_str(&render_table(&["benchmark", "reconv", "<=1", "<=2", "<=3", "<=4"], &rows));
        out.push('\n');
        out
    }
}

/// Figure 12's matched-capacity sweep: RGID streams × log entries vs RI
/// sets × ways.
fn fig12_specs() -> Vec<EngineSpec> {
    vec![
        EngineSpec::Mssr { streams: 1, log_entries: 64 },
        EngineSpec::Mssr { streams: 2, log_entries: 64 },
        EngineSpec::Mssr { streams: 4, log_entries: 64 },
        EngineSpec::Mssr { streams: 1, log_entries: 128 },
        EngineSpec::Mssr { streams: 2, log_entries: 128 },
        EngineSpec::Mssr { streams: 4, log_entries: 128 },
        EngineSpec::Ri { sets: 64, ways: 1 },
        EngineSpec::Ri { sets: 64, ways: 2 },
        EngineSpec::Ri { sets: 64, ways: 4 },
        EngineSpec::Ri { sets: 128, ways: 1 },
        EngineSpec::Ri { sets: 128, ways: 2 },
        EngineSpec::Ri { sets: 128, ways: 4 },
    ]
}

struct Fig12;

impl Experiment for Fig12 {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        let mut ids = Vec::new();
        for w in suite_workloads(Suite::Gap, pool.scale()) {
            let wid = pool.intern(w);
            ids.push(pool.cell(wid, EngineSpec::Baseline.into(), experiment_sim_config()));
            for spec in fig12_specs() {
                ids.push(pool.cell(wid, spec.into(), experiment_sim_config()));
            }
        }
        ids
    }

    fn render(&self, pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut out = String::from("== Figure 12: RI vs RGID on GAP (matched capacities) ==\n");
        out.push_str("paper: RGID wins on bc/bfs/cc, comparable on pr/sssp/tc; two streams\n");
        out.push_str("       give the best overall results\n\n");
        let specs = fig12_specs();
        let mut rows = Vec::new();
        for chunk in ids.chunks(1 + specs.len()) {
            let w = pool.cell_workload(chunk[0]);
            let base = &results[chunk[0]].stats;
            for (&id, spec) in chunk[1..].iter().zip(&specs) {
                let s = &results[id].stats;
                rows.push(vec![
                    w.name().to_string(),
                    spec.label(),
                    format!("{}", s.cycles),
                    format!("{:+.2}%", speedup_pct(base, s)),
                ]);
            }
        }
        out.push_str(&render_table(&["BM", "CFG", "CYCLES", "diff"], &rows));
        out.push('\n');
        out
    }
}

/// The artifact rollup's configurations (§A.6).
const ROLLUP_SPECS: [EngineSpec; 3] = [
    EngineSpec::Mssr { streams: 1, log_entries: 64 },
    EngineSpec::Mssr { streams: 2, log_entries: 256 },
    EngineSpec::Mssr { streams: 4, log_entries: 256 },
];

struct Rollup;

impl Experiment for Rollup {
    fn name(&self) -> &'static str {
        "rollup"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        let mut ids = Vec::new();
        for w in suite_workloads(Suite::Gap, pool.scale()) {
            let wid = pool.intern(w);
            ids.push(pool.cell(wid, EngineSpec::Baseline.into(), experiment_sim_config()));
            for spec in ROLLUP_SPECS {
                ids.push(pool.cell(wid, spec.into(), experiment_sim_config()));
            }
        }
        ids
    }

    fn render(&self, pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut rows = Vec::new();
        for chunk in ids.chunks(1 + ROLLUP_SPECS.len()) {
            let w = pool.cell_workload(chunk[0]);
            let base = &results[chunk[0]].stats;
            let bm = w.name().split('/').next().unwrap_or(w.name()).to_string();
            for (&id, spec) in chunk[1..].iter().zip(&ROLLUP_SPECS) {
                let s = &results[id].stats;
                let diff = base.cycles as f64 / s.cycles as f64 - 1.0;
                rows.push(vec![
                    spec.label(),
                    bm.clone(),
                    format!("{:.1}", s.cycles as f64),
                    format!("{diff:.6}"),
                ]);
            }
        }
        let mut out = render_csv(&["CFG", "BM", "CYCLES", "diff"], &rows);
        // `--profile` runs append a host-throughput aggregate: per
        // configuration, min/median/max simulated MIPS (thousandths)
        // over the suite. Unprofiled runs leave the CSV bytes unchanged —
        // the determinism gates compare plain rollup output.
        if results.iter().any(|r| r.profile.is_some()) {
            let mut labels: Vec<String> = Vec::new();
            for &id in ids {
                let l = pool.cell_spec(id).engine.label();
                if !labels.contains(&l) {
                    labels.push(l);
                }
            }
            let agg: Vec<Vec<String>> = labels
                .iter()
                .map(|l| {
                    let mut mips: Vec<u64> = ids
                        .iter()
                        .filter(|&&id| pool.cell_spec(id).engine.label() == *l)
                        .filter_map(|&id| profile_record(pool, id, &results[id]))
                        .map(|p| p.sim_mips_milli())
                        .collect();
                    mips.sort_unstable();
                    vec![
                        l.clone(),
                        mips[0].to_string(),
                        mips[(mips.len() - 1) / 2].to_string(),
                        mips[mips.len() - 1].to_string(),
                    ]
                })
                .collect();
            out.push('\n');
            out.push_str(&render_csv(
                &["CFG", "SIM_MIPS_MILLI_MIN", "SIM_MIPS_MILLI_MED", "SIM_MIPS_MILLI_MAX"],
                &agg,
            ));
        }
        out
    }
}

/// RGID widths swept by the ablation.
const ABLATION_RGID_BITS: [u32; 4] = [6, 8, 10, 14];
/// Reconvergence timeouts swept by the ablation.
const ABLATION_TIMEOUTS: [u64; 4] = [64, 256, 1024, 4096];

struct Ablation;

impl Experiment for Ablation {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        let wid = pool.intern(microbench::nested_mispred(micro_iters(pool.scale())));
        let mssr: EngineCfg = EngineSpec::Mssr { streams: 4, log_entries: 64 }.into();
        let mut ids = Vec::new();
        // RGID width sweep: baseline + engine per width.
        for bits in ABLATION_RGID_BITS {
            let cfg = SimConfig { rgid_bits: bits, ..experiment_sim_config() };
            ids.push(pool.cell(wid, EngineSpec::Baseline.into(), cfg.clone()));
            ids.push(pool.cell(wid, mssr.clone(), cfg));
        }
        // Memory-check policy: shared baseline + engine per policy.
        ids.push(pool.cell(wid, EngineSpec::Baseline.into(), experiment_sim_config()));
        for policy in [MemCheckPolicy::LoadVerification, MemCheckPolicy::BloomFilter] {
            ids.push(pool.cell(wid, mssr.clone().with_mem_policy(policy), experiment_sim_config()));
        }
        // Reconvergence-timeout sweep.
        for timeout in ABLATION_TIMEOUTS {
            ids.push(pool.cell(wid, mssr.clone().with_timeout(timeout), experiment_sim_config()));
        }
        // In-flight writeback draining at squash, on/off.
        for drain in [true, false] {
            let cfg = SimConfig { drain_inflight_on_squash: drain, ..experiment_sim_config() };
            ids.push(pool.cell(wid, EngineSpec::Baseline.into(), cfg.clone()));
            ids.push(pool.cell(wid, mssr.clone(), cfg));
        }
        // Single-page (VPN-restricted) WPB, off/on.
        for vpn in [false, true] {
            ids.push(pool.cell(wid, mssr.clone().with_vpn_restrict(vpn), experiment_sim_config()));
        }
        ids
    }

    fn render(&self, _pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut next = ids.iter().copied();
        let mut take = || &results[next.next().expect("cells and render agree")];
        let mut out = String::new();

        out.push_str("== Ablation: RGID width (6-bit paper / 10-bit calibrated / 14-bit) ==\n");
        let mut rows = Vec::new();
        for bits in ABLATION_RGID_BITS {
            let base = take();
            let s = take();
            rows.push(vec![
                format!("{bits}-bit"),
                format!("{:+.2}%", speedup_pct(&base.stats, &s.stats)),
                format!("{}", s.stats.engine.reuse_grants),
                format!("{}", s.stats.engine.rgid_overflows),
                format!("{}", s.stats.engine.rgid_resets),
            ]);
        }
        out.push_str(&render_table(&["RGID", "speedup", "grants", "overflows", "resets"], &rows));

        out.push_str("== Ablation: reused-load memory check policy ==\n");
        let mut rows = Vec::new();
        let base = take().clone();
        for name in ["load re-execution", "bloom filter"] {
            let s = take();
            rows.push(vec![
                name.to_string(),
                format!("{:+.2}%", speedup_pct(&base.stats, &s.stats)),
                format!("{}", s.stats.engine.reused_loads),
                format!("{}", s.stats.flushes_reuse_verify),
                format!("{}", s.stats.engine.reuse_fail_mem),
            ]);
        }
        out.push_str(&render_table(
            &["policy", "speedup", "reused loads", "verify flushes", "bloom rejects"],
            &rows,
        ));

        out.push_str("== Ablation: reconvergence timeout ==\n");
        let mut rows = Vec::new();
        for timeout in ABLATION_TIMEOUTS {
            let s = take();
            rows.push(vec![
                format!("{timeout}"),
                format!("{:+.2}%", speedup_pct(&base.stats, &s.stats)),
                format!("{}", s.stats.engine.timeouts),
                format!("{}", s.stats.engine.reuse_grants),
            ]);
        }
        out.push_str(&render_table(
            &["timeout (insts)", "speedup", "stream timeouts", "grants"],
            &rows,
        ));

        out.push_str("== Ablation: in-flight writeback draining at squash ==\n");
        let mut rows = Vec::new();
        for name in ["drain (hardware)", "no drain"] {
            let b2 = take();
            let s = take();
            rows.push(vec![
                name.to_string(),
                format!("{:+.2}%", speedup_pct(&b2.stats, &s.stats)),
                format!("{}", s.stats.engine.reuse_grants),
                format!("{}", s.stats.engine.reuse_fail_not_executed),
            ]);
        }
        out.push_str(&render_table(
            &["squash drain", "speedup", "grants", "not-executed fails"],
            &rows,
        ));

        out.push_str("== Ablation: single-page (VPN-restricted) WPB ==\n");
        let mut rows = Vec::new();
        for name in ["full PC", "single page"] {
            let s = take();
            rows.push(vec![
                name.to_string(),
                format!("{:+.2}%", speedup_pct(&base.stats, &s.stats)),
                format!("{}", s.stats.engine.reconvergences),
            ]);
        }
        out.push_str(&render_table(&["WPB addressing", "speedup", "reconvergences"], &rows));
        out
    }
}

/// The predictor lab: every [`BpredKind`] against baseline and MSSR-4
/// engines on both misprediction microbenchmarks, relating conditional
/// MPKI to squash-reuse benefit. The oracle predictor anchors the zero
/// end (≈0 MPKI, nothing to reuse) and the adversarial predictor the
/// saturated end (every conditional branch mispredicts).
struct BpredLab;

impl Experiment for BpredLab {
    fn name(&self) -> &'static str {
        "bpred"
    }

    fn cells(&self, pool: &mut CellPool) -> Vec<CellId> {
        let iters = micro_iters(pool.scale());
        let mssr: EngineCfg = EngineSpec::Mssr { streams: 4, log_entries: 64 }.into();
        let mut ids = Vec::new();
        for kind in BpredKind::ALL {
            for w in [microbench::nested_mispred(iters), microbench::linear_mispred(iters)] {
                let wid = pool.intern(w);
                let cfg = experiment_sim_config().with_bpred(kind);
                ids.push(pool.cell(wid, EngineSpec::Baseline.into(), cfg.clone()));
                ids.push(pool.cell(wid, mssr.clone(), cfg));
            }
        }
        ids
    }

    fn render(&self, _pool: &CellPool, ids: &[CellId], results: &[CellResult]) -> String {
        let mut out = String::from("== Predictor lab: reuse benefit vs conditional MPKI ==\n");
        out.push_str(
            "per predictor: baseline conditional MPKI and MSSR-4 speedup on each workload\n\n",
        );
        // Per kind: [nested base, nested mssr, linear base, linear mssr].
        let mut rows = Vec::new();
        for (kind, chunk) in BpredKind::ALL.iter().zip(ids.chunks(4)) {
            let s = |i: usize| &results[chunk[i]].stats;
            rows.push(vec![
                kind.name().to_string(),
                format!("{:.2}", s(0).mpki()),
                format!("{:+.1}%", speedup_pct(s(0), s(1))),
                format!("{:.2}", s(2).mpki()),
                format!("{:+.1}%", speedup_pct(s(2), s(3))),
            ]);
        }
        out.push_str(&render_table(
            &["predictor", "nested MPKI", "nested speedup", "linear MPKI", "linear speedup"],
            &rows,
        ));
        out
    }
}

/// Interns every workload of the evaluation (suite order: micro,
/// SPEC2006, SPEC2017, GAP) and returns their ids.
fn all_interned(pool: &mut CellPool) -> Vec<usize> {
    mssr_workloads::all_workloads(pool.scale()).into_iter().map(|w| pool.intern(w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_named_consistently() {
        for name in EXPERIMENT_NAMES {
            let e = experiment(name).expect("registered");
            assert_eq!(e.name(), name);
        }
        assert!(experiment("fig99").is_none());
        assert_eq!(all_experiments().len(), EXPERIMENT_NAMES.len());
    }

    #[test]
    fn cell_declarations_are_deterministic() {
        for name in EXPERIMENT_NAMES {
            let e = experiment(name).unwrap();
            let mut p1 = CellPool::new(Scale::Test);
            let mut p2 = CellPool::new(Scale::Test);
            assert_eq!(e.cells(&mut p1), e.cells(&mut p2), "{name}");
        }
    }

    #[test]
    fn analytic_tables_render_without_cells() {
        let pool = CellPool::new(Scale::Test);
        for name in ["table2", "table3", "table4"] {
            let e = experiment(name).unwrap();
            let out = e.render(&pool, &[], &[]);
            assert!(out.contains("=="), "{name} renders a header");
        }
    }

    #[test]
    fn shared_pool_dedups_across_experiments() {
        // fig12 and rollup both declare GAP baselines: the shared pool
        // must simulate them once.
        let mut pool = CellPool::new(Scale::Test);
        let a = experiment("fig12").unwrap().cells(&mut pool);
        let n_after_fig12 = pool.len();
        let b = experiment("rollup").unwrap().cells(&mut pool);
        assert_eq!(a.len(), 6 * 13);
        assert_eq!(b.len(), 6 * 4);
        assert!(pool.len() < n_after_fig12 + b.len(), "rollup's baselines dedup against fig12's");
    }
}
