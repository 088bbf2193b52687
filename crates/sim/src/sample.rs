//! Interval sampling: periodic `SimStats` deltas as a time series.
//!
//! Every N cycles the pipeline snapshots a handful of cheap cumulative
//! counters and records the *delta* since the previous snapshot as one
//! [`Sample`] — the per-interval view the `mssr-report` sparklines and
//! phase analyses consume. Samples travel two ways at once: into a
//! bounded in-memory [`SampleRing`] (inspectable after the run via
//! `Simulator::samples`) and through the ordinary trace machinery as
//! [`TraceEvent::Sample`](crate::TraceEvent) records, which is how the
//! harness's `--sample N` flag emits them into the JSON-lines
//! trajectory. Both paths carry only deterministic integer counters, so
//! sample streams are byte-identical across runs and `--jobs` values.

use std::collections::VecDeque;

use crate::ckpt::{CkptError, CkptReader, CkptWriter};
use crate::stats::{fold, json_members, stats_record};

stats_record! {
    /// One sampling interval's worth of statistics deltas.
    ///
    /// All fields are deltas over the interval except `cycle`, which is the
    /// cycle count at the moment the sample was taken (so consumers can
    /// reconstruct interval boundaries even when sampling started mid-run).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct Sample {
        /// Cycle the sample was taken at (end of the interval).
        pub cycle: u64,
        counters {
            /// Instructions committed during the interval.
            insts,
            /// Branch mispredictions during the interval.
            mispredicts,
            /// Instructions squashed during the interval.
            squashed,
            /// Reuse grants during the interval.
            grants,
            /// L1 data-cache misses during the interval.
            l1_misses,
            /// Commit slots lost to branch-squash refill during the interval
            /// (the [`Category::SquashBranch`](crate::Category) account slots).
            squash_slots,
        }
    }
}

impl Sample {
    /// The sample as one JSON object in the trace-event schema (stable
    /// key order, integers only).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"ev\":\"sample\",\"cycle\":{}", self.cycle);
        json_members(&mut out, self.counters());
        out.push('}');
        out
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.cycle);
        for (_, v) in self.counters() {
            w.u64(v);
        }
    }

    pub(crate) fn ckpt_load(r: &mut CkptReader) -> Result<Sample, CkptError> {
        let mut s = Sample { cycle: r.u64()?, ..Sample::default() };
        for (_, v) in s.counters_mut() {
            *v = r.u64()?;
        }
        Ok(s)
    }

    /// Counter-wise difference `self - prev` (cumulative snapshots in,
    /// interval delta out); `cycle` keeps `self`'s value.
    fn delta_from(&self, prev: &Sample) -> Sample {
        let mut d = *self;
        fold(d.counters_mut(), prev.counters(), |a, b| a - b);
        d
    }
}

/// A bounded ring of the most recent samples (drop-oldest).
#[derive(Clone, Debug)]
pub struct SampleRing {
    ring: VecDeque<Sample>,
    capacity: usize,
    dropped: u64,
}

impl SampleRing {
    /// A ring holding at most `capacity` samples (at least 1).
    pub fn new(capacity: usize) -> SampleRing {
        SampleRing { ring: VecDeque::new(), capacity: capacity.max(1), dropped: 0 }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, s: Sample) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(s);
    }

    /// The retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.ring.iter()
    }

    /// Number of samples evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// The pipeline's interval sampler: an interval, a delta baseline, and
/// the ring of recent samples.
#[derive(Clone, Debug)]
pub struct Sampler {
    interval: u64,
    last: Sample,
    ring: SampleRing,
}

/// Default ring capacity: enough for a 400M-cycle run sampled every
/// 100k cycles before eviction starts.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

impl Sampler {
    /// A sampler firing every `interval` cycles (`0` disables it).
    pub fn new(interval: u64, capacity: usize) -> Sampler {
        Sampler { interval, last: Sample::default(), ring: SampleRing::new(capacity) }
    }

    /// The sampling interval (`0` = disabled).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether a sample is due at `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        self.interval > 0 && cycle.is_multiple_of(self.interval)
    }

    /// Converts a *cumulative* snapshot into an interval delta, records
    /// it, and returns it (for emission as a trace event).
    pub fn record(&mut self, cumulative: Sample) -> Sample {
        let delta = cumulative.delta_from(&self.last);
        self.last = cumulative;
        self.ring.push(delta);
        delta
    }

    /// The retained samples.
    pub fn ring(&self) -> &SampleRing {
        &self.ring
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.interval);
        self.last.ckpt_save(w);
        w.u64(self.ring.capacity as u64);
        w.u64(self.ring.dropped);
        w.u64(self.ring.ring.len() as u64);
        for s in &self.ring.ring {
            s.ckpt_save(w);
        }
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.interval = r.u64()?;
        self.last = Sample::ckpt_load(r)?;
        let capacity = r.u64()? as usize;
        self.ring = SampleRing::new(capacity);
        self.ring.dropped = r.u64()?;
        let n = r.seq_len(56)?;
        if n > capacity {
            return Err(CkptError::Corrupt(format!(
                "{n} samples in checkpoint exceed ring capacity {capacity}"
            )));
        }
        for _ in 0..n {
            self.ring.ring.push_back(Sample::ckpt_load(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_schema_is_stable() {
        let s = Sample {
            cycle: 2000,
            insts: 900,
            mispredicts: 3,
            squashed: 40,
            grants: 12,
            l1_misses: 5,
            squash_slots: 64,
        };
        assert_eq!(
            s.to_json(),
            "{\"ev\":\"sample\",\"cycle\":2000,\"insts\":900,\"mispredicts\":3,\"squashed\":40,\
             \"grants\":12,\"l1_misses\":5,\"squash_slots\":64}"
        );
    }

    #[test]
    fn distinct_sample_ckpt_bytes_are_pinned() {
        // The cumulative sample `take_sample` builds from
        // `stats::distinct_record` (`grants` is the engine's grant count,
        // `squash_slots` the squash-branch account slot).
        let s = Sample {
            cycle: 101,
            insts: 102,
            mispredicts: 105,
            squashed: 107,
            grants: 202,
            l1_misses: 116,
            squash_slots: 403,
        };
        let mut w = CkptWriter::new();
        s.ckpt_save(&mut w);
        let bytes = w.finish();
        let mut want = CkptWriter::new();
        for v in [101, 102, 105, 107, 202, 116, 403] {
            want.u64(v);
        }
        assert_eq!(bytes, want.finish());
        assert_eq!(Sample::ckpt_load(&mut CkptReader::new(&bytes)).unwrap(), s);
    }

    #[test]
    fn sampler_records_deltas_not_cumulatives() {
        let mut s = Sampler::new(100, 8);
        assert!(s.due(100));
        assert!(!s.due(150));
        assert!(!Sampler::new(0, 8).due(100), "interval 0 never fires");
        let d1 = s.record(Sample { cycle: 100, insts: 50, ..Sample::default() });
        assert_eq!((d1.cycle, d1.insts), (100, 50));
        let d2 = s.record(Sample { cycle: 200, insts: 80, grants: 7, ..Sample::default() });
        assert_eq!((d2.cycle, d2.insts, d2.grants), (200, 30, 7));
        assert_eq!(s.ring().len(), 2);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut r = SampleRing::new(2);
        for c in [1u64, 2, 3] {
            r.push(Sample { cycle: c, ..Sample::default() });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let cycles: Vec<u64> = r.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, [2, 3]);
        assert!(!r.is_empty());
    }
}
