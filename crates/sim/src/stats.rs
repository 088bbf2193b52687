//! Simulation statistics.
//!
//! Each record declares its `u64` counters once, through
//! `stats_record!`; its JSON writer, checkpoint codec and merge walk
//! that declaration in order. Adding a counter is one line in a record's
//! `counters` block.

use std::fmt::Write as _;

use crate::account::CycleAccount;
use crate::ckpt::{CkptError, CkptReader, CkptWriter};

/// Declares a statistics record whose `u64` counters are listed once.
///
/// Emits the struct — the leading fields, one `pub u64` field per
/// entry of the `counters` block, then the trailing fields — and two
/// walks over the counters in declaration order: `counters()` yields
/// `(name, value)` and `counters_mut()` yields `(name, &mut value)`.
/// That order is the record's JSON key order, checkpoint byte order and
/// merge order.
macro_rules! stats_record {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $( $(#[$lead_doc:meta])* pub $lead:ident: $lead_ty:ty, )*
            counters {
                $( $(#[$doc:meta])* $counter:ident, )*
            }
            $( $(#[$trail_doc:meta])* pub $trail:ident: $trail_ty:ty, )*
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $( $(#[$lead_doc])* pub $lead: $lead_ty, )*
            $( $(#[$doc])* pub $counter: u64, )*
            $( $(#[$trail_doc])* pub $trail: $trail_ty, )*
        }

        impl $name {
            /// Number of counters in the record's `counters` block.
            pub const COUNTERS: usize = [$(stringify!($counter)),*].len();

            /// The counters as `(name, value)`, in declaration order.
            pub fn counters(&self) -> [(&'static str, u64); Self::COUNTERS] {
                [$((stringify!($counter), self.$counter)),*]
            }

            /// The counters as `(name, &mut value)`, in declaration order.
            pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); Self::COUNTERS] {
                [$((stringify!($counter), &mut self.$counter)),*]
            }
        }
    };
}
pub(crate) use stats_record;

/// `a = f(a, b)` pairwise over two walks of the same record.
pub(crate) fn fold<'a>(
    a: impl IntoIterator<Item = (&'static str, &'a mut u64)>,
    b: impl IntoIterator<Item = (&'static str, u64)>,
    f: fn(u64, u64) -> u64,
) {
    for ((_, a), (_, b)) in a.into_iter().zip(b) {
        *a = f(*a, b);
    }
}

/// Appends `"name":value` members to a JSON object under construction,
/// comma-separated from whatever the object already holds.
pub(crate) fn json_members(
    out: &mut String,
    members: impl IntoIterator<Item = (&'static str, u64)>,
) {
    for (k, v) in members {
        if !out.ends_with('{') {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
}

stats_record! {
    /// Counters maintained by a reuse engine.
    ///
    /// The same struct serves all engines; counters an engine does not use
    /// stay zero, engine-specific named counters and gauges go into
    /// [`EngineStats::extra`], and Register Integration's per-set
    /// replacement counts into [`EngineStats::set_replacements`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct EngineStats {
        counters {
            /// Reuse tests performed at rename.
            reuse_tests,
            /// Successful grants (instructions whose execution was skipped).
            reuse_grants,
            /// Of the grants, how many were loads.
            reused_loads,
            /// Tests failed on an RGID (or physical-name) mismatch.
            reuse_fail_stale,
            /// Tests failed because the squashed instruction never executed.
            reuse_fail_not_executed,
            /// Load reuses rejected by the memory-hazard filter.
            reuse_fail_mem,
            /// Reconvergence points detected.
            reconvergences,
            /// …onto the stream of the branch that redirected the current fetch.
            recon_simple,
            /// …onto the stream of an **elder** branch (software-induced
            /// multi-stream reconvergence).
            recon_software,
            /// …onto the stream of a **younger** branch (hardware-induced, from
            /// out-of-order branch resolution).
            recon_hardware,
            /// Reuse sequences terminated because the fetch stream diverged from
            /// the squashed stream.
            divergences,
            /// Streams invalidated by the reconvergence timeout.
            timeouts,
            /// RGID allocation overflows observed.
            rgid_overflows,
            /// Global RGID resets performed.
            rgid_resets,
            /// Squashed streams captured into Wrong-Path Buffers.
            streams_captured,
            /// Squash Log entries written.
            entries_logged,
            /// Streams dropped to relieve physical-register pressure.
            pressure_reclaims,
            /// Reuse-table replacements (Register Integration).
            table_replacements,
        }
        /// Histogram of reconvergence stream distance; index `i` counts
        /// distance `i + 1`, with the last bucket absorbing the tail.
        pub stream_distance: [u64; 8],
        /// Engine-specific named values: counters created through
        /// [`EngineStats::extra_mut`] and gauges set through
        /// [`EngineStats::set_gauge`].
        pub extra: Vec<(String, u64)>,
        /// Reuse-table replacements per set (Register Integration; empty for
        /// other engines). Figure 3's data. Neither [`EngineStats::to_json`]
        /// nor the checkpoint record carries it: the harness emits it in the
        /// cell line, and the engine checkpoints its own copy.
        pub set_replacements: Vec<u64>,
        /// The [`EngineStats::extra`] keys that are gauges. Engines set
        /// gauges in `stats()` and never checkpoint them, so neither the
        /// JSON nor the checkpoint record carries this list.
        pub gauges: Vec<&'static str>,
    }
}

impl EngineStats {
    /// Serializes the counters into a checkpoint stream (fixed counters
    /// in declaration order, the distance histogram, then the named
    /// `extra` pairs).
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        for (_, v) in self.counters() {
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
        let mut s = EngineStats::default();
        for (_, v) in s.counters_mut() {
            *v = r.u64()?;
        }
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

    /// Sets the gauge `key` in [`EngineStats::extra`]: a level sampled
    /// when the record is taken (table occupancy, live streams), which
    /// [`EngineStats::merge`] never folds.
    pub fn set_gauge(&mut self, key: &'static str, value: u64) {
        *self.extra_mut(key) = value;
        if !self.is_gauge(key) {
            self.gauges.push(key);
        }
    }

    fn is_gauge(&self, key: &str) -> bool {
        self.gauges.contains(&key)
    }

    /// Records a reconvergence stream distance into the histogram.
    pub fn record_distance(&mut self, distance: u64) {
        let idx = (distance.max(1) - 1).min(self.stream_distance.len() as u64 - 1) as usize;
        self.stream_distance[idx] += 1;
    }

    /// Counter-wise `self = f(self, other)`: the counters, the distance
    /// histogram, the per-set replacements and every `extra` counter.
    /// A gauge keeps `self`'s value (and is not created when `self` has
    /// none): levels do not add up or subtract.
    pub fn merge(&mut self, other: &EngineStats, f: fn(u64, u64) -> u64) {
        fold(self.counters_mut(), other.counters(), f);
        for (a, &b) in self.stream_distance.iter_mut().zip(&other.stream_distance) {
            *a = f(*a, b);
        }
        if self.set_replacements.len() < other.set_replacements.len() {
            self.set_replacements.resize(other.set_replacements.len(), 0);
        }
        for (a, &b) in self.set_replacements.iter_mut().zip(&other.set_replacements) {
            *a = f(*a, b);
        }
        for (k, v) in &other.extra {
            if !self.is_gauge(k) && !other.is_gauge(k) {
                let a = self.extra_mut(k);
                *a = f(*a, *v);
            }
        }
    }

    /// The engine counters as a JSON object (stable key order, integers
    /// only — bit-identical across runs and platforms).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json_members(&mut out, self.counters());
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

stats_record! {
    /// End-of-run statistics for one simulation.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct SimStats {
        counters {
            /// Total simulated cycles.
            cycles,
            /// Instructions retired.
            committed_instructions,
            /// Control instructions retired.
            committed_branches,
            /// Conditional branches retired.
            committed_cond_branches,
            /// Branch mispredictions (wrong direction or target) — the
            /// *architectural* mispredict count, and the numerator of
            /// [`SimStats::mispredict_rate`] and [`SimStats::mpki`]. Distinct in
            /// meaning from [`SimStats::flushes_branch`], which counts the
            /// *pipeline flushes* recovery performed: today each misprediction
            /// costs exactly one flush, but a recovery scheme that coalesces or
            /// defers flushes would lower `flushes_branch` without changing this
            /// counter, so derived prediction-accuracy metrics must use this one.
            mispredictions,
            /// Instructions entered into the ROB (including squashed ones).
            renamed_instructions,
            /// Instructions squashed from the ROB.
            squashed_instructions,
            /// Flushes caused by branch mispredictions.
            flushes_branch,
            /// Flushes caused by store-to-load ordering violations.
            flushes_mem_order,
            /// Flushes caused by reused-load verification mismatches.
            flushes_reuse_verify,
            /// Loads retired.
            committed_loads,
            /// Stores retired.
            committed_stores,
            /// Loads satisfied by store-to-load forwarding.
            store_forwards,
            /// Load issues deferred because the youngest older same-block store
            /// knew its address but not yet its data ([`Forward::Pending`]; the
            /// load retries instead of reading stale memory).
            ///
            /// [`Forward::Pending`]: crate::lsq::Forward
            store_forward_stalls,
            /// L1 data cache hits / misses (demand accesses).
            l1_hits,
            /// L1 data cache misses.
            l1_misses,
            /// L2 hits.
            l2_hits,
            /// L2 misses (DRAM accesses).
            l2_misses,
            /// Snoop requests injected.
            snoops,
            /// Instructions executed by the functional fast-forward before the
            /// detailed pipeline took over (`--ffwd N`). These are **not**
            /// included in [`SimStats::committed_instructions`], so IPC remains
            /// the detailed region's IPC.
            ffwd_insts,
            /// Detailed cycles the fast-forward skipped, at a nominal 1 IPC
            /// (i.e. equal to [`SimStats::ffwd_insts`]). Nonzero only for
            /// fast-forwarded runs; restored runs carry the original counters.
            skipped_cycles,
        }
        /// Engine-side counters.
        pub engine: EngineStats,
        /// The CPI-stack cycle account (see [`crate::account`]).
        pub account: CycleAccount,
    }
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
        json_members(&mut out, self.counters());
        out.push_str(",\"engine\":");
        out.push_str(&self.engine.to_json());
        out.push_str(",\"account\":");
        out.push_str(&self.account.to_json());
        out.push('}');
        out
    }

    /// Counter-wise `self = f(self, other)` over every counter of the
    /// record, its engine counters ([`EngineStats::merge`]) and its
    /// account ([`CycleAccount::merge`]). With `wrapping_add` it sums
    /// regions into a total; with `saturating_sub` it subtracts a
    /// snapshot taken at a region's start.
    pub fn merge(&mut self, other: &SimStats, f: fn(u64, u64) -> u64) {
        fold(self.counters_mut(), other.counters(), f);
        self.engine.merge(&other.engine, f);
        self.account.merge(&other.account, f);
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

/// A record in which every counter, histogram bucket and account slot
/// holds a distinct value: each record's values rise in declaration
/// order (`SimStats` 101.., `EngineStats` 201.., the histogram 301..,
/// the account 401..), so any encoding that swaps a pair shows it.
#[cfg(test)]
pub(crate) fn distinct_record() -> SimStats {
    SimStats {
        cycles: 101,
        committed_instructions: 102,
        committed_branches: 103,
        committed_cond_branches: 104,
        mispredictions: 105,
        renamed_instructions: 106,
        squashed_instructions: 107,
        flushes_branch: 108,
        flushes_mem_order: 109,
        flushes_reuse_verify: 110,
        committed_loads: 111,
        committed_stores: 112,
        store_forwards: 113,
        store_forward_stalls: 114,
        l1_hits: 115,
        l1_misses: 116,
        l2_hits: 117,
        l2_misses: 118,
        snoops: 119,
        ffwd_insts: 120,
        skipped_cycles: 121,
        engine: EngineStats {
            reuse_tests: 201,
            reuse_grants: 202,
            reused_loads: 203,
            reuse_fail_stale: 204,
            reuse_fail_not_executed: 205,
            reuse_fail_mem: 206,
            reconvergences: 207,
            recon_simple: 208,
            recon_software: 209,
            recon_hardware: 210,
            divergences: 211,
            timeouts: 212,
            rgid_overflows: 213,
            rgid_resets: 214,
            streams_captured: 215,
            entries_logged: 216,
            pressure_reclaims: 217,
            table_replacements: 218,
            stream_distance: [301, 302, 303, 304, 305, 306, 307, 308],
            extra: vec![("wpb_hits".into(), 501), ("aligner_probes".into(), 502)],
            set_replacements: vec![601, 602],
            gauges: Vec::new(),
        },
        account: CycleAccount {
            slots: [401, 402, 403, 404, 405, 406, 407],
            credit_reuse_cycles: 408,
            credit_recon_fetches: 409,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_record_json_is_pinned() {
        assert_eq!(
            distinct_record().to_json(),
            "{\"cycles\":101,\"committed_instructions\":102,\"committed_branches\":103,\
             \"committed_cond_branches\":104,\"mispredictions\":105,\"renamed_instructions\":106,\
             \"squashed_instructions\":107,\"flushes_branch\":108,\"flushes_mem_order\":109,\
             \"flushes_reuse_verify\":110,\"committed_loads\":111,\"committed_stores\":112,\
             \"store_forwards\":113,\"store_forward_stalls\":114,\"l1_hits\":115,\
             \"l1_misses\":116,\"l2_hits\":117,\"l2_misses\":118,\"snoops\":119,\
             \"ffwd_insts\":120,\"skipped_cycles\":121,\"engine\":{\"reuse_tests\":201,\
             \"reuse_grants\":202,\"reused_loads\":203,\"reuse_fail_stale\":204,\
             \"reuse_fail_not_executed\":205,\"reuse_fail_mem\":206,\"reconvergences\":207,\
             \"recon_simple\":208,\"recon_software\":209,\"recon_hardware\":210,\
             \"divergences\":211,\"timeouts\":212,\"rgid_overflows\":213,\"rgid_resets\":214,\
             \"streams_captured\":215,\"entries_logged\":216,\"pressure_reclaims\":217,\
             \"table_replacements\":218,\
             \"stream_distance\":[301,302,303,304,305,306,307,308],\
             \"extra\":{\"wpb_hits\":501,\"aligner_probes\":502}},\
             \"account\":{\"base\":401,\"frontend_empty\":402,\"squash_branch\":403,\
             \"mem_stall\":404,\"store_forward_pending\":405,\"backend_pressure\":406,\
             \"reuse_verify\":407,\"credit_reuse_cycles\":408,\"credit_recon_fetches\":409}}"
        );
    }

    #[test]
    fn distinct_engine_ckpt_bytes_are_pinned() {
        let e = distinct_record().engine;
        let mut w = CkptWriter::new();
        e.ckpt_save(&mut w);
        let bytes = w.finish();
        let mut want = CkptWriter::new();
        for v in (201..=218).chain(301..=308) {
            want.u64(v);
        }
        want.u64(2);
        want.str("wpb_hits");
        want.u64(501);
        want.str("aligner_probes");
        want.u64(502);
        assert_eq!(bytes, want.finish());
        let back = EngineStats::ckpt_load(&mut CkptReader::new(&bytes)).unwrap();
        assert_eq!(back, EngineStats { set_replacements: Vec::new(), ..e });
    }

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
