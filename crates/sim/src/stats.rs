//! Simulation statistics.

use crate::account::CycleAccount;
use crate::ckpt::{CkptError, CkptReader, CkptWriter};

/// Counters maintained by a reuse engine.
///
/// The same struct serves all engines; counters an engine does not use
/// stay zero, engine-specific named counters go into
/// [`EngineStats::extra`], and Register Integration's per-set
/// replacement counts into [`EngineStats::set_replacements`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Reuse tests performed at rename.
    pub reuse_tests: u64,
    /// Successful grants (instructions whose execution was skipped).
    pub reuse_grants: u64,
    /// Of the grants, how many were loads.
    pub reused_loads: u64,
    /// Tests failed on an RGID (or physical-name) mismatch.
    pub reuse_fail_stale: u64,
    /// Tests failed because the squashed instruction never executed.
    pub reuse_fail_not_executed: u64,
    /// Load reuses rejected by the memory-hazard filter.
    pub reuse_fail_mem: u64,
    /// Reconvergence points detected.
    pub reconvergences: u64,
    /// …onto the stream of the branch that redirected the current fetch.
    pub recon_simple: u64,
    /// …onto the stream of an **elder** branch (software-induced
    /// multi-stream reconvergence).
    pub recon_software: u64,
    /// …onto the stream of a **younger** branch (hardware-induced, from
    /// out-of-order branch resolution).
    pub recon_hardware: u64,
    /// Histogram of reconvergence stream distance; index `i` counts
    /// distance `i + 1`, with the last bucket absorbing the tail.
    pub stream_distance: [u64; 8],
    /// Reuse sequences terminated because the fetch stream diverged from
    /// the squashed stream.
    pub divergences: u64,
    /// Streams invalidated by the reconvergence timeout.
    pub timeouts: u64,
    /// RGID allocation overflows observed.
    pub rgid_overflows: u64,
    /// Global RGID resets performed.
    pub rgid_resets: u64,
    /// Squashed streams captured into Wrong-Path Buffers.
    pub streams_captured: u64,
    /// Squash Log entries written.
    pub entries_logged: u64,
    /// Streams dropped to relieve physical-register pressure.
    pub pressure_reclaims: u64,
    /// Reuse-table replacements (Register Integration).
    pub table_replacements: u64,
    /// Engine-specific named counters.
    pub extra: Vec<(String, u64)>,
    /// Reuse-table replacements per set (Register Integration; empty for
    /// other engines). Figure 3's data. Neither [`EngineStats::to_json`]
    /// nor the checkpoint record carries it: the harness emits it in the
    /// cell line, and the engine checkpoints its own copy.
    pub set_replacements: Vec<u64>,
}

impl EngineStats {
    /// Serializes the counters into a checkpoint stream (fixed counters
    /// in declaration order, then the named `extra` pairs).
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        for v in [
            self.reuse_tests,
            self.reuse_grants,
            self.reused_loads,
            self.reuse_fail_stale,
            self.reuse_fail_not_executed,
            self.reuse_fail_mem,
            self.reconvergences,
            self.recon_simple,
            self.recon_software,
            self.recon_hardware,
            self.divergences,
            self.timeouts,
            self.rgid_overflows,
            self.rgid_resets,
            self.streams_captured,
            self.entries_logged,
            self.pressure_reclaims,
            self.table_replacements,
        ] {
            w.u64(v);
        }
        for d in self.stream_distance {
            w.u64(d);
        }
        w.u64(self.extra.len() as u64);
        for (k, v) in &self.extra {
            w.str(k);
            w.u64(*v);
        }
    }

    /// Deserializes counters written by [`EngineStats::ckpt_save`].
    pub fn ckpt_load(r: &mut CkptReader) -> Result<EngineStats, CkptError> {
        let mut s = EngineStats {
            reuse_tests: r.u64()?,
            reuse_grants: r.u64()?,
            reused_loads: r.u64()?,
            reuse_fail_stale: r.u64()?,
            reuse_fail_not_executed: r.u64()?,
            reuse_fail_mem: r.u64()?,
            reconvergences: r.u64()?,
            recon_simple: r.u64()?,
            recon_software: r.u64()?,
            recon_hardware: r.u64()?,
            ..EngineStats::default()
        };
        s.divergences = r.u64()?;
        s.timeouts = r.u64()?;
        s.rgid_overflows = r.u64()?;
        s.rgid_resets = r.u64()?;
        s.streams_captured = r.u64()?;
        s.entries_logged = r.u64()?;
        s.pressure_reclaims = r.u64()?;
        s.table_replacements = r.u64()?;
        for d in &mut s.stream_distance {
            *d = r.u64()?;
        }
        let n = r.seq_len(9)?;
        for _ in 0..n {
            let k = r.str()?;
            let v = r.u64()?;
            s.extra.push((k, v));
        }
        Ok(s)
    }

    /// The named counter `key` in [`EngineStats::extra`], appended at
    /// zero on first use (so keys keep first-use order).
    pub fn extra_mut(&mut self, key: &str) -> &mut u64 {
        let i = match self.extra.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                self.extra.push((key.to_string(), 0));
                self.extra.len() - 1
            }
        };
        &mut self.extra[i].1
    }

    /// Records a reconvergence stream distance into the histogram.
    pub fn record_distance(&mut self, distance: u64) {
        let idx = (distance.max(1) - 1).min(self.stream_distance.len() as u64 - 1) as usize;
        self.stream_distance[idx] += 1;
    }

    /// The engine counters as a JSON object (stable key order, integers
    /// only — bit-identical across runs and platforms).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut field = |k: &str, v: u64| {
            if out.len() > 1 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        };
        field("reuse_tests", self.reuse_tests);
        field("reuse_grants", self.reuse_grants);
        field("reused_loads", self.reused_loads);
        field("reuse_fail_stale", self.reuse_fail_stale);
        field("reuse_fail_not_executed", self.reuse_fail_not_executed);
        field("reuse_fail_mem", self.reuse_fail_mem);
        field("reconvergences", self.reconvergences);
        field("recon_simple", self.recon_simple);
        field("recon_software", self.recon_software);
        field("recon_hardware", self.recon_hardware);
        field("divergences", self.divergences);
        field("timeouts", self.timeouts);
        field("rgid_overflows", self.rgid_overflows);
        field("rgid_resets", self.rgid_resets);
        field("streams_captured", self.streams_captured);
        field("entries_logged", self.entries_logged);
        field("pressure_reclaims", self.pressure_reclaims);
        field("table_replacements", self.table_replacements);
        out.push_str(",\"stream_distance\":[");
        for (i, v) in self.stream_distance.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push_str("],\"extra\":{");
        // `extra` is an append-only list; a key pushed twice (e.g. a
        // counter re-exported after a stats refresh) must still yield
        // valid JSON with unique keys. Last write wins, preserving the
        // position of the first occurrence so key order stays stable.
        let mut emitted: Vec<&str> = Vec::with_capacity(self.extra.len());
        for (k, _) in &self.extra {
            if !emitted.iter().any(|e| e == k) {
                emitted.push(k);
            }
        }
        for (i, k) in emitted.iter().enumerate() {
            let v = self
                .extra
                .iter()
                .rev()
                .find(|(key, _)| key == k)
                .map(|&(_, v)| v)
                .expect("key came from extra");
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(k)));
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// End-of-run statistics for one simulation.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub committed_instructions: u64,
    /// Control instructions retired.
    pub committed_branches: u64,
    /// Conditional branches retired.
    pub committed_cond_branches: u64,
    /// Branch mispredictions (wrong direction or target) — the
    /// *architectural* mispredict count, and the numerator of
    /// [`SimStats::mispredict_rate`] and [`SimStats::mpki`]. Distinct in
    /// meaning from [`SimStats::flushes_branch`], which counts the
    /// *pipeline flushes* recovery performed: today each misprediction
    /// costs exactly one flush, but a recovery scheme that coalesces or
    /// defers flushes would lower `flushes_branch` without changing this
    /// counter, so derived prediction-accuracy metrics must use this one.
    pub mispredictions: u64,
    /// Instructions entered into the ROB (including squashed ones).
    pub renamed_instructions: u64,
    /// Instructions squashed from the ROB.
    pub squashed_instructions: u64,
    /// Flushes caused by branch mispredictions.
    pub flushes_branch: u64,
    /// Flushes caused by store-to-load ordering violations.
    pub flushes_mem_order: u64,
    /// Flushes caused by reused-load verification mismatches.
    pub flushes_reuse_verify: u64,
    /// Loads retired.
    pub committed_loads: u64,
    /// Stores retired.
    pub committed_stores: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub store_forwards: u64,
    /// Load issues deferred because the youngest older same-block store
    /// knew its address but not yet its data ([`Forward::Pending`]; the
    /// load retries instead of reading stale memory).
    ///
    /// [`Forward::Pending`]: crate::lsq::Forward
    pub store_forward_stalls: u64,
    /// L1 data cache hits / misses (demand accesses).
    pub l1_hits: u64,
    /// L1 data cache misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
    /// Snoop requests injected.
    pub snoops: u64,
    /// Instructions executed by the functional fast-forward before the
    /// detailed pipeline took over (`--ffwd N`). These are **not**
    /// included in [`SimStats::committed_instructions`], so IPC remains
    /// the detailed region's IPC.
    pub ffwd_insts: u64,
    /// Detailed cycles the fast-forward skipped, at a nominal 1 IPC
    /// (i.e. equal to [`SimStats::ffwd_insts`]). Nonzero only for
    /// fast-forwarded runs; restored runs carry the original counters.
    pub skipped_cycles: u64,
    /// Engine-side counters.
    pub engine: EngineStats,
    /// The CPI-stack cycle account (see [`crate::account`]).
    pub account: CycleAccount,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of retired conditional branches that were mispredicted
    /// (from [`SimStats::mispredictions`], the architectural count — not
    /// the flush count).
    pub fn mispredict_rate(&self) -> f64 {
        if self.committed_cond_branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.committed_cond_branches as f64
        }
    }

    /// Mispredictions per kilo-instruction (from
    /// [`SimStats::mispredictions`], the architectural count — not the
    /// flush count).
    pub fn mpki(&self) -> f64 {
        if self.committed_instructions == 0 {
            0.0
        } else {
            1000.0 * self.mispredictions as f64 / self.committed_instructions as f64
        }
    }

    /// L1 data-cache hit rate over demand accesses.
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// L2 hit rate over L1 misses.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }

    /// The run's statistics as one JSON object (stable key order,
    /// integers only, engine counters nested under `"engine"`).
    ///
    /// This is the record format of the experiment harness's JSON-lines
    /// output (`BENCH_*.json` trajectories): because every field is an
    /// integer counter from a deterministic simulation, serialized
    /// output is byte-identical across runs, thread counts, and
    /// platforms.
    ///
    /// # Example
    ///
    /// ```
    /// use mssr_sim::SimStats;
    /// let s = SimStats { cycles: 100, committed_instructions: 250, ..SimStats::default() };
    /// let j = s.to_json();
    /// assert!(j.starts_with("{\"cycles\":100,"));
    /// assert!(j.contains("\"engine\":{"));
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut field = |k: &str, v: u64| {
            if out.len() > 1 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        };
        field("cycles", self.cycles);
        field("committed_instructions", self.committed_instructions);
        field("committed_branches", self.committed_branches);
        field("committed_cond_branches", self.committed_cond_branches);
        field("mispredictions", self.mispredictions);
        field("renamed_instructions", self.renamed_instructions);
        field("squashed_instructions", self.squashed_instructions);
        field("flushes_branch", self.flushes_branch);
        field("flushes_mem_order", self.flushes_mem_order);
        field("flushes_reuse_verify", self.flushes_reuse_verify);
        field("committed_loads", self.committed_loads);
        field("committed_stores", self.committed_stores);
        field("store_forwards", self.store_forwards);
        field("store_forward_stalls", self.store_forward_stalls);
        field("l1_hits", self.l1_hits);
        field("l1_misses", self.l1_misses);
        field("l2_hits", self.l2_hits);
        field("l2_misses", self.l2_misses);
        field("snoops", self.snoops);
        field("ffwd_insts", self.ffwd_insts);
        field("skipped_cycles", self.skipped_cycles);
        out.push_str(",\"engine\":");
        out.push_str(&self.engine.to_json());
        out.push_str(",\"account\":");
        out.push_str(&self.account.to_json());
        out.push('}');
        out
    }

    /// A multi-line human-readable summary of the run.
    ///
    /// # Example
    ///
    /// ```
    /// use mssr_sim::SimStats;
    /// let s = SimStats { cycles: 100, committed_instructions: 250, ..SimStats::default() };
    /// let r = s.report();
    /// assert!(r.contains("IPC"));
    /// assert!(r.contains("2.50"));
    /// ```
    pub fn report(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<28}{v}\n"));
        };
        line("cycles", format!("{}", self.cycles));
        line("instructions committed", format!("{}", self.committed_instructions));
        line("IPC", format!("{:.2}", self.ipc()));
        line(
            "branches",
            format!(
                "{} committed, {} mispredicted ({:.1} MPKI)",
                self.committed_branches,
                self.mispredictions,
                self.mpki()
            ),
        );
        line(
            "flushes",
            format!(
                "{} branch, {} memory-order, {} reuse-verify",
                self.flushes_branch, self.flushes_mem_order, self.flushes_reuse_verify
            ),
        );
        line(
            "memory",
            format!(
                "{} loads, {} stores, {} forwarded ({} stalled pending data)",
                self.committed_loads,
                self.committed_stores,
                self.store_forwards,
                self.store_forward_stalls
            ),
        );
        line(
            "caches",
            format!(
                "L1 hit {:.1}%, L2 hit {:.1}%",
                100.0 * self.l1_hit_rate(),
                100.0 * self.l2_hit_rate()
            ),
        );
        line("squashed instructions", format!("{}", self.squashed_instructions));
        if self.ffwd_insts > 0 {
            line(
                "fast-forward",
                format!(
                    "{} insts functional, {} cycles skipped",
                    self.ffwd_insts, self.skipped_cycles
                ),
            );
        }
        if self.engine.reuse_tests > 0 || self.engine.streams_captured > 0 {
            line(
                "squash reuse",
                format!(
                    "{} granted / {} tested, {} loads",
                    self.engine.reuse_grants, self.engine.reuse_tests, self.engine.reused_loads
                ),
            );
            line(
                "reconvergence",
                format!(
                    "{} detected ({} simple / {} sw / {} hw), {} streams captured",
                    self.engine.reconvergences,
                    self.engine.recon_simple,
                    self.engine.recon_software,
                    self.engine.recon_hardware,
                    self.engine.streams_captured
                ),
            );
            // Bucket i counts stream distance i + 1; the last bucket
            // absorbs the tail (see EngineStats::record_distance).
            let buckets: Vec<String> = self
                .engine
                .stream_distance
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let tail = i == self.engine.stream_distance.len() - 1;
                    format!("{}{}:{v}", i as u64 + 1, if tail { "+" } else { "" })
                })
                .collect();
            line("stream distance", buckets.join(" "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let s = SimStats {
            cycles: 100,
            committed_instructions: 250,
            committed_cond_branches: 50,
            mispredictions: 5,
            flushes_branch: 5,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((s.mpki() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn derived_mispredict_metrics_use_mispredictions_not_flushes() {
        // Pin the two counters apart: `mispredictions` is the
        // architectural count the derived metrics divide; `flushes_branch`
        // is the pipeline-flush count and must not leak into them.
        let s = SimStats {
            committed_instructions: 1000,
            committed_cond_branches: 100,
            mispredictions: 10,
            flushes_branch: 999,
            ..SimStats::default()
        };
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((s.mpki() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.mpki(), 0.0);
    }

    #[test]
    fn report_includes_reuse_only_when_active() {
        let plain = SimStats { cycles: 10, committed_instructions: 10, ..SimStats::default() };
        assert!(!plain.report().contains("squash reuse"));
        let mut with_reuse = plain;
        with_reuse.engine.reuse_tests = 5;
        with_reuse.engine.reuse_grants = 2;
        let r = with_reuse.report();
        assert!(r.contains("squash reuse"));
        assert!(r.contains("2 granted / 5 tested"));
    }

    #[test]
    fn report_covers_forward_stalls_caches_and_distance_histogram() {
        let mut s = SimStats {
            cycles: 100,
            committed_instructions: 250,
            store_forwards: 7,
            store_forward_stalls: 3,
            l1_hits: 90,
            l1_misses: 10,
            l2_hits: 8,
            l2_misses: 2,
            ..SimStats::default()
        };
        s.engine.reuse_tests = 4;
        s.engine.record_distance(1);
        s.engine.record_distance(100);
        let r = s.report();
        assert!(r.contains("(3 stalled pending data)"), "store_forward_stalls: {r}");
        assert!(r.contains("L1 hit 90.0%"), "L1 hit rate: {r}");
        assert!(r.contains("L2 hit 80.0%"), "L2 hit rate: {r}");
        assert!(r.contains("stream distance"), "histogram line: {r}");
        assert!(r.contains("1:1 2:0 3:0 4:0 5:0 6:0 7:0 8+:1"), "bucket list: {r}");
    }

    #[test]
    fn engine_extra_json_dedups_keys_last_write_wins() {
        let mut e = EngineStats::default();
        e.extra.push(("wpb_hits".into(), 1));
        e.extra.push(("aligner_probes".into(), 5));
        e.extra.push(("wpb_hits".into(), 9));
        let j = e.to_json();
        assert!(j.contains("\"extra\":{\"wpb_hits\":9,\"aligner_probes\":5}"), "{j}");
        assert_eq!(j.matches("wpb_hits").count(), 1, "duplicate key must be emitted once");
    }

    #[test]
    fn sim_stats_json_nests_the_account() {
        let mut s = SimStats { cycles: 2, ..SimStats::default() };
        s.account.accrue(3, crate::account::Category::MemStall, 8);
        s.account.accrue(0, crate::account::Category::SquashBranch, 8);
        let j = s.to_json();
        assert!(j.contains("\"account\":{\"base\":3,"), "{j}");
        assert!(j.ends_with("\"credit_reuse_cycles\":0,\"credit_recon_fetches\":0}}"), "{j}");
    }

    #[test]
    fn ffwd_fields_serialize_and_report() {
        let s = SimStats {
            cycles: 10,
            committed_instructions: 10,
            ffwd_insts: 5000,
            skipped_cycles: 5000,
            ..SimStats::default()
        };
        let j = s.to_json();
        assert!(j.contains("\"snoops\":0,\"ffwd_insts\":5000,\"skipped_cycles\":5000,"), "{j}");
        let r = s.report();
        assert!(r.contains("5000 insts functional, 5000 cycles skipped"), "{r}");
        let plain = SimStats { cycles: 10, ..SimStats::default() };
        assert!(!plain.report().contains("fast-forward"), "line only when ffwd ran");
    }

    #[test]
    fn l1_hit_rate_math() {
        let s = SimStats { l1_hits: 90, l1_misses: 10, ..SimStats::default() };
        assert!((s.l1_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(SimStats::default().l1_hit_rate(), 0.0);
    }

    #[test]
    fn distance_histogram_buckets() {
        let mut e = EngineStats::default();
        e.record_distance(1);
        e.record_distance(1);
        e.record_distance(3);
        e.record_distance(100);
        assert_eq!(e.stream_distance[0], 2);
        assert_eq!(e.stream_distance[2], 1);
        assert_eq!(e.stream_distance[7], 1, "tail bucket absorbs large distances");
        e.record_distance(0); // defensive: clamps to bucket 0
        assert_eq!(e.stream_distance[0], 3);
    }

    #[test]
    fn distance_histogram_tail_boundary() {
        // Bucket i counts distance i + 1; the last in-range distance is 7
        // (bucket 6), and 8 is the first distance the tail bucket absorbs.
        let mut e = EngineStats::default();
        e.record_distance(1);
        e.record_distance(8);
        e.record_distance(9);
        e.record_distance(100);
        assert_eq!(e.stream_distance[0], 1, "distance 1 lands in bucket 0");
        assert_eq!(e.stream_distance[6], 0, "distance 8 must not land in bucket 6");
        assert_eq!(e.stream_distance[7], 3, "distances 8, 9, 100 all land in the tail");
        assert_eq!(e.stream_distance.iter().sum::<u64>(), 4, "every event lands somewhere");
    }
}
