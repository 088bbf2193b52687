//! Spans around the benchmark's calls into each layer of the program.
//!
//! A span has a name (the layer boundary, such as `sim.detailed`), a
//! label (engine and kernel, request kind, predictor), a start, an end,
//! its parent, and two counts whose meaning depends on the name
//! (instructions and cycles, bytes, branches). Durations are always
//! measured, because the end-to-end metrics need them; spans are kept
//! only while tracing is on. They stay in memory and are written out when
//! the run ends. A span's self time is its duration minus the time its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// First count: instructions, bytes, branches or intervals.
    pub n: u64,
    /// Second count: cycles.
    pub m: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span still open: its start, and its slot when it is being kept.
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

/// Totals over a set of spans.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub ns: u64,
    pub n: u64,
    pub m: u64,
    pub calls: u64,
}

impl Agg {
    pub fn add(&mut self, s: &Span) {
        self.ns += s.ns();
        self.n += s.n;
        self.m += s.m;
        self.calls += 1;
    }

    /// Nanoseconds per unit of the first count.
    pub fn ns_per_n(&self) -> f64 {
        ratio(self.ns as f64, self.n as f64)
    }

    /// Nanoseconds per unit of the second count.
    pub fn ns_per_m(&self) -> f64 {
        ratio(self.ns as f64, self.m as f64)
    }

    /// First count per microsecond: MB/s when the count is bytes.
    pub fn n_per_us(&self) -> f64 {
        ratio(self.n as f64 * 1e3, self.ns as f64)
    }

    /// Mean milliseconds per call.
    pub fn ms_per_call(&self) -> f64 {
        ratio(self.ns as f64 / 1e6, self.calls as f64)
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub struct Tracer {
    /// Whether spans are being kept.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { on: false, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Spans close in the
    /// reverse order they open.
    pub fn open(&mut self, name: &'static str, label: &str) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let i = self.spans.len();
            self.spans.push(Span {
                name,
                label: label.to_string(),
                start_ns: self.at(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                n: 0,
                m: 0,
            });
            self.stack.push(i);
            i
        });
        Open { start, slot }
    }

    /// Closes a span with its counts and returns its duration.
    pub fn close(&mut self, o: Open, n: u64, m: u64) -> Duration {
        let end = Instant::now();
        if let Some(i) = o.slot {
            let top = self.stack.pop();
            assert_eq!(top, Some(i), "spans must close in reverse open order");
            let end_ns = self.at(end);
            let s = &mut self.spans[i];
            s.end_ns = end_ns;
            s.n = n;
            s.m = m;
        }
        end - o.start
    }

    /// Keeps a span timed on another thread (a client's request). It has
    /// no parent: requests of concurrent clients overlap each other.
    pub fn record(&mut self, name: &'static str, label: &str, start: Instant, d: Duration) {
        if self.on {
            let start_ns = self.at(start);
            let end_ns = start_ns + d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                label: label.to_string(),
                start_ns,
                end_ns,
                parent: None,
                n: 0,
                m: 0,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals over the spans called `name` whose label passes `keep`.
    pub fn sum(&self, name: &str, keep: impl Fn(&str) -> bool) -> Agg {
        let mut a = Agg::default();
        for s in self.spans.iter().filter(|s| s.name == name && keep(&s.label)) {
            a.add(s);
        }
        a
    }

    /// Durations in milliseconds of the spans called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Self times in milliseconds of the spans called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"n\":{},\"m\":{}}}",
                s.name,
                mssr_sim::json_escape(&s.label),
                s.start_ns,
                s.end_ns,
                s.n,
                s.m
            );
        }
        std::fs::write(path, out)
    }

    /// Calls, total and self milliseconds per span name, largest self
    /// time first.
    pub fn summary(&self) -> String {
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += own;
        }
        let mut rows: Vec<_> = by_name.into_iter().collect();
        rows.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
        let mut out =
            format!("{:<20} {:>8} {:>12} {:>12}\n", "span", "calls", "total_ms", "self_ms");
        for (name, (calls, total, own)) in rows {
            let _ = writeln!(
                out,
                "{name:<20} {calls:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }
}
