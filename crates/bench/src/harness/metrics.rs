//! A std-only metrics registry: atomic counters and log2-bucketed
//! latency histograms, rendered with live gauge readings as Prometheus
//! text exposition (version 0.0.4).
//!
//! `mssr-serve` instantiates one registry per server and answers the
//! `metrics` protocol request with [`Renderer`] output, so any scraper
//! that speaks the JSON-lines protocol can poll a long-running server.
//! The types here are deliberately tiny: lock-free `AtomicU64` cells
//! with relaxed ordering (metrics tolerate torn cross-metric reads; a
//! scrape is a statistical snapshot, not a transaction), no label
//! interning, no dynamic registration — the registry is a plain struct
//! whose fields *are* the schema.
//!
//! The module also owns the process-wide [`warn`] helper: operational
//! warnings (skipped checkpoints, degraded flag combinations) go to
//! stderr exactly as before *and* increment [`warnings_total`], making
//! them countable by a scraper instead of only greppable in logs.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const, so counters can be statics).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets: upper bounds `2^0 .. 2^25`
/// microseconds (1 µs to ~33 s), doubling per bucket. Observations
/// beyond the last finite bound land in `+Inf` only.
pub const HIST_BUCKETS: usize = 26;

/// A log2-bucketed latency histogram over microseconds.
///
/// Bucket `i` counts observations with `value <= 2^i µs` (non-cumulative
/// in storage; [`Renderer::histogram`] accumulates for the Prometheus
/// `le` convention). Doubling bounds give ~1 significant bit of latency
/// resolution over six decades for 27 words of storage — the classic
/// HdrHistogram trade squeezed to its cheapest form.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    inf: AtomicU64,
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            inf: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        match self.buckets.get(bucket_index(us)) {
            Some(b) => b.fetch_add(1, Ordering::Relaxed),
            None => self.inf.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values (µs).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// The index of the tightest bucket bound `2^i >= us` (out of range for
/// the `+Inf` bucket). `ceil(log2)` via leading zeros — unlike
/// `next_power_of_two`, it cannot overflow near `u64::MAX`.
fn bucket_index(us: u64) -> usize {
    (64 - (us.max(1) - 1).leading_zeros()) as usize
}

/// Renders metrics into one Prometheus text exposition body.
///
/// The caller drives it field-by-field — the registry struct's fields
/// are the schema, so rendering is a straight-line function over them
/// and the output order is deterministic.
#[derive(Debug, Default)]
pub struct Renderer {
    out: String,
}

impl Renderer {
    /// An empty exposition.
    pub fn new() -> Renderer {
        Renderer::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    /// Emits one counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Emits one gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// Emits one histogram family: every `(labels, histogram)` series
    /// under a single HELP/TYPE header, buckets accumulated into the
    /// Prometheus cumulative-`le` convention with the mandatory `+Inf`,
    /// `_sum`, and `_count` series.
    pub fn histogram(&mut self, name: &str, help: &str, series: &[(&str, &Histogram)]) {
        self.header(name, help, "histogram");
        for (labels, h) in series {
            let sep = if labels.is_empty() { "" } else { "," };
            let mut cum = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                cum += b.load(Ordering::Relaxed);
                self.out.push_str(&format!(
                    "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}\n",
                    1u64 << i
                ));
            }
            cum += h.inf.load(Ordering::Relaxed);
            self.out.push_str(&format!("{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}\n"));
            let braces = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
            self.out.push_str(&format!("{name}_sum{braces} {}\n", h.sum_us()));
            self.out.push_str(&format!("{name}_count{braces} {}\n", h.count()));
        }
    }

    /// The finished exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Process-wide count of operational warnings emitted through [`warn`].
static WARNINGS: Counter = Counter::new();

/// Emits an operational warning: `warning: {msg}` on stderr (exactly the
/// format the scattered `eprintln!` call sites used) plus a tick of the
/// process-wide warning counter, so a metrics scrape can see how often a
/// server degrades (skipped checkpoints, ignored flags) without grepping
/// its logs.
pub fn warn(msg: impl std::fmt::Display) {
    WARNINGS.inc();
    eprintln!("warning: {msg}");
}

/// Warnings emitted so far (the `mssr_warnings_total` metric).
pub fn warnings_total() -> u64 {
    WARNINGS.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_do_what_they_say() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert!(bucket_index(u64::MAX) >= HIST_BUCKETS, "huge values fall through to +Inf");
        let h = Histogram::new();
        h.observe_us(3);
        h.observe_us(100);
        h.observe_us(u64::MAX / 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 3 + 100 + u64::MAX / 2);
    }

    #[test]
    fn renderer_emits_valid_exposition_lines() {
        let h = Histogram::new();
        h.observe_us(1);
        h.observe_us(5);
        let mut r = Renderer::new();
        r.counter("mssr_requests_total", "Requests received.", 9);
        r.gauge("mssr_queue_depth", "Jobs queued.", 2);
        r.histogram("mssr_latency_us", "Request latency.", &[("result=\"hit\"", &h)]);
        let text = r.finish();
        assert!(text.contains("# TYPE mssr_requests_total counter\n"));
        assert!(text.contains("mssr_requests_total 9\n"));
        assert!(text.contains("# TYPE mssr_queue_depth gauge\n"));
        assert!(text.contains("mssr_queue_depth 2\n"));
        assert!(text.contains("# TYPE mssr_latency_us histogram\n"));
        // le="1" sees the 1µs observation; le="8" and +Inf see both.
        assert!(text.contains("mssr_latency_us_bucket{result=\"hit\",le=\"1\"} 1\n"));
        assert!(text.contains("mssr_latency_us_bucket{result=\"hit\",le=\"8\"} 2\n"));
        assert!(text.contains("mssr_latency_us_bucket{result=\"hit\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("mssr_latency_us_sum{result=\"hit\"} 6\n"));
        assert!(text.contains("mssr_latency_us_count{result=\"hit\"} 2\n"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, v) = line.rsplit_once(' ').expect("value separated by space");
            v.parse::<u64>().expect("integer sample value");
        }
    }

    #[test]
    fn histogram_without_labels_renders_bare_series() {
        let h = Histogram::new();
        h.observe_us(2);
        let mut r = Renderer::new();
        r.histogram("mssr_x_us", "X.", &[("", &h)]);
        let text = r.finish();
        assert!(text.contains("mssr_x_us_bucket{le=\"2\"} 1\n"), "{text}");
        assert!(text.contains("mssr_x_us_sum 2\n"), "{text}");
        assert!(text.contains("mssr_x_us_count 1\n"), "{text}");
    }

    #[test]
    fn warn_increments_the_process_counter() {
        let before = warnings_total();
        warn("metrics-test warning");
        warn(format_args!("formatted {}", 42));
        assert_eq!(warnings_total(), before + 2);
    }
}
