//! Interval sampling: periodic `SimStats` deltas as a time series.
//!
//! Every N cycles the pipeline snapshots a handful of cheap cumulative
//! counters and records the *delta* since the previous snapshot as one
//! [`Sample`] — the per-interval view the `mssr-report` sparklines and
//! phase analyses consume. Samples leave the simulator only through the
//! ordinary trace machinery, as [`TraceEvent::Sample`](crate::TraceEvent)
//! records, which is how the harness's `--sample N` flag emits them into
//! the JSON-lines trajectory. They carry only deterministic integer
//! counters, so sample streams are byte-identical across runs and
//! `--jobs` values.

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

    /// Counter-wise difference `self - prev` (cumulative snapshots in,
    /// interval delta out); `cycle` keeps `self`'s value.
    fn delta_from(&self, prev: &Sample) -> Sample {
        let mut d = *self;
        fold(d.counters_mut(), prev.counters(), |a, b| a - b);
        d
    }
}

/// The pipeline's interval sampler: an interval and the cumulative
/// snapshot the next delta is taken from.
#[derive(Clone, Debug)]
pub(crate) struct Sampler {
    interval: u64,
    last: Sample,
}

impl Sampler {
    /// A sampler firing every `interval` cycles (`0` disables it).
    pub fn new(interval: u64) -> Sampler {
        Sampler { interval, last: Sample::default() }
    }

    /// Whether a sample is due at `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        self.interval > 0 && cycle.is_multiple_of(self.interval)
    }

    /// Converts a *cumulative* snapshot into an interval delta and
    /// returns it (for emission as a trace event).
    pub fn record(&mut self, cumulative: Sample) -> Sample {
        let delta = cumulative.delta_from(&self.last);
        self.last = cumulative;
        delta
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
    fn sampler_records_deltas_not_cumulatives() {
        let mut s = Sampler::new(100);
        assert!(s.due(100));
        assert!(!s.due(150));
        assert!(!Sampler::new(0).due(100), "interval 0 never fires");
        let d1 = s.record(Sample { cycle: 100, insts: 50, ..Sample::default() });
        assert_eq!((d1.cycle, d1.insts), (100, 50));
        let d2 = s.record(Sample { cycle: 200, insts: 80, grants: 7, ..Sample::default() });
        assert_eq!((d2.cycle, d2.insts, d2.grants), (200, 30, 7));
    }
}
