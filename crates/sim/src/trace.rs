//! Structured pipeline-event tracing.
//!
//! The simulator can emit a compact, typed event for every architectural
//! milestone an instruction passes — fetch, rename, issue, writeback,
//! commit — plus the two events squash reuse revolves around: pipeline
//! squashes and reuse grants. Events flow into a [`TraceSink`]; the
//! provided one, [`BufferSink`], writes JSON lines into a shared string
//! buffer the caller reads back after the run.
//!
//! Tracing is **zero-cost when off**: the pipeline consults
//! [`Tracer::on`] (an `Option` discriminant test) before constructing an
//! event, so an untraced simulation does no formatting, no allocation,
//! and no virtual dispatch. Because every event is built from
//! deterministic simulation state, a trace is byte-identical across
//! runs, `--jobs` values, and platforms — the same property the
//! statistics JSON has, extended to per-instruction granularity.
//!
//! The JSON-lines schema (one object per line, stable key order) is
//! documented in `EXPERIMENTS.md`; `DESIGN.md` describes how the trace
//! subsystem and the `check` invariant checker fit into the pipeline.

use std::sync::{Arc, Mutex};

use mssr_isa::Pc;

use crate::sample::Sample;
use crate::types::{FlushKind, FuClass, SeqNum};

/// What a [`TraceEvent::Ckpt`] record marks: a restore from a
/// checkpoint, or a functional fast-forward handing off to the detailed
/// pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CkptAction {
    /// Simulation state was restored from a checkpoint.
    Restore,
    /// Functional fast-forward completed and detailed simulation begins.
    Ffwd,
}

impl CkptAction {
    /// The action's stable name, used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            CkptAction::Restore => "restore",
            CkptAction::Ffwd => "ffwd",
        }
    }
}

/// One structured pipeline event.
///
/// Every variant carries the cycle it occurred in; instruction-scoped
/// events carry the global sequence number, which links the fetch →
/// rename → issue → writeback → commit lifecycle of one dynamic
/// instruction across lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The frontend emitted a prediction block.
    Fetch {
        /// Cycle of the fetch.
        cycle: u64,
        /// PC of the first instruction in the block.
        start: Pc,
        /// PC of the last instruction in the block (inclusive).
        end: Pc,
        /// Number of instructions predicted into the block.
        insts: u32,
    },
    /// An instruction was renamed and dispatched into the ROB.
    Rename {
        /// Cycle of the rename.
        cycle: u64,
        /// The instruction's sequence number.
        seq: SeqNum,
        /// Its PC.
        pc: Pc,
    },
    /// An instruction was selected for execution.
    Issue {
        /// Cycle of the issue.
        cycle: u64,
        /// The instruction's sequence number.
        seq: SeqNum,
        /// The functional-unit class it issued to.
        fu: FuClass,
    },
    /// An instruction's result wrote back (it became complete).
    Writeback {
        /// Cycle of the writeback.
        cycle: u64,
        /// The instruction's sequence number.
        seq: SeqNum,
        /// The produced value (0 for instructions without a destination).
        value: u64,
    },
    /// An instruction retired.
    Commit {
        /// Cycle of the commit.
        cycle: u64,
        /// The instruction's sequence number.
        seq: SeqNum,
        /// Its PC.
        pc: Pc,
    },
    /// A pipeline flush squashed the ROB tail.
    Squash {
        /// Cycle of the squash.
        cycle: u64,
        /// Why the pipeline flushed.
        kind: FlushKind,
        /// Oldest squashed sequence number.
        first: SeqNum,
        /// Number of ROB entries squashed.
        count: u64,
        /// Where fetch resumes.
        redirect: Pc,
    },
    /// A reuse engine granted an instruction at rename (its execution is
    /// skipped; the squashed result is recycled).
    ReuseGrant {
        /// Cycle of the grant.
        cycle: u64,
        /// The granted instruction's sequence number.
        seq: SeqNum,
        /// Its PC.
        pc: Pc,
        /// Whether a verification re-execution gates its commit
        /// (reused loads under the load-verification policy, §3.8.3).
        verify: bool,
    },
    /// The interval sampler took a snapshot: one interval's worth of
    /// statistics deltas (see [`crate::sample`]).
    Sample(Sample),
    /// A checkpoint boundary: a snapshot, a restore, or the handoff
    /// from functional fast-forward to detailed simulation.
    Ckpt {
        /// Cycle of the checkpoint action.
        cycle: u64,
        /// What happened at the boundary.
        action: CkptAction,
        /// Committed instructions at the boundary (for `Ffwd`, the
        /// number of functionally fast-forwarded instructions).
        insts: u64,
    },
}

/// The event kinds, for counting and naming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A [`TraceEvent::Fetch`].
    Fetch,
    /// A [`TraceEvent::Rename`].
    Rename,
    /// A [`TraceEvent::Issue`].
    Issue,
    /// A [`TraceEvent::Writeback`].
    Writeback,
    /// A [`TraceEvent::Commit`].
    Commit,
    /// A [`TraceEvent::Squash`].
    Squash,
    /// A [`TraceEvent::ReuseGrant`].
    ReuseGrant,
    /// A [`TraceEvent::Sample`].
    Sample,
    /// A [`TraceEvent::Ckpt`].
    Ckpt,
}

impl TraceKind {
    /// Number of event kinds.
    pub const COUNT: usize = 9;

    /// All kinds, in index order.
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::Fetch,
        TraceKind::Rename,
        TraceKind::Issue,
        TraceKind::Writeback,
        TraceKind::Commit,
        TraceKind::Squash,
        TraceKind::ReuseGrant,
        TraceKind::Sample,
        TraceKind::Ckpt,
    ];

    /// The kind's stable name, used as the `"ev"` field of the JSON
    /// schema.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Fetch => "fetch",
            TraceKind::Rename => "rename",
            TraceKind::Issue => "issue",
            TraceKind::Writeback => "writeback",
            TraceKind::Commit => "commit",
            TraceKind::Squash => "squash",
            TraceKind::ReuseGrant => "reuse_grant",
            TraceKind::Sample => "sample",
            TraceKind::Ckpt => "ckpt",
        }
    }

    /// The kind's index, `0..COUNT`: its bit position in an event mask
    /// and its slot in a per-kind array.
    pub fn index(self) -> usize {
        match self {
            TraceKind::Fetch => 0,
            TraceKind::Rename => 1,
            TraceKind::Issue => 2,
            TraceKind::Writeback => 3,
            TraceKind::Commit => 4,
            TraceKind::Squash => 5,
            TraceKind::ReuseGrant => 6,
            TraceKind::Sample => 7,
            TraceKind::Ckpt => 8,
        }
    }

    /// The kind's bit in a [`Tracer`] event mask.
    pub fn bit(self) -> u64 {
        1 << self.index()
    }
}

fn fu_name(fu: FuClass) -> &'static str {
    match fu {
        FuClass::Alu => "alu",
        FuClass::Bru => "bru",
        FuClass::Lsu => "lsu",
    }
}

fn flush_name(kind: FlushKind) -> &'static str {
    match kind {
        FlushKind::BranchMispredict => "branch",
        FlushKind::MemoryOrder => "mem_order",
        FlushKind::ReuseVerification => "reuse_verify",
    }
}

impl TraceEvent {
    /// The event's kind.
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceEvent::Fetch { .. } => TraceKind::Fetch,
            TraceEvent::Rename { .. } => TraceKind::Rename,
            TraceEvent::Issue { .. } => TraceKind::Issue,
            TraceEvent::Writeback { .. } => TraceKind::Writeback,
            TraceEvent::Commit { .. } => TraceKind::Commit,
            TraceEvent::Squash { .. } => TraceKind::Squash,
            TraceEvent::ReuseGrant { .. } => TraceKind::ReuseGrant,
            TraceEvent::Sample(_) => TraceKind::Sample,
            TraceEvent::Ckpt { .. } => TraceKind::Ckpt,
        }
    }

    /// The cycle the event occurred in.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Fetch { cycle, .. }
            | TraceEvent::Rename { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::Writeback { cycle, .. }
            | TraceEvent::Commit { cycle, .. }
            | TraceEvent::Squash { cycle, .. }
            | TraceEvent::ReuseGrant { cycle, .. }
            | TraceEvent::Ckpt { cycle, .. } => cycle,
            TraceEvent::Sample(s) => s.cycle,
        }
    }

    /// The event as one JSON object (no trailing newline, stable key
    /// order, integers only — byte-identical across runs and platforms).
    pub fn to_json(&self) -> String {
        match *self {
            TraceEvent::Fetch { cycle, start, end, insts } => format!(
                "{{\"ev\":\"fetch\",\"cycle\":{cycle},\"start\":{},\"end\":{},\"insts\":{insts}}}",
                start.addr(),
                end.addr()
            ),
            TraceEvent::Rename { cycle, seq, pc } => format!(
                "{{\"ev\":\"rename\",\"cycle\":{cycle},\"seq\":{},\"pc\":{}}}",
                seq.value(),
                pc.addr()
            ),
            TraceEvent::Issue { cycle, seq, fu } => format!(
                "{{\"ev\":\"issue\",\"cycle\":{cycle},\"seq\":{},\"fu\":\"{}\"}}",
                seq.value(),
                fu_name(fu)
            ),
            TraceEvent::Writeback { cycle, seq, value } => format!(
                "{{\"ev\":\"writeback\",\"cycle\":{cycle},\"seq\":{},\"value\":{value}}}",
                seq.value()
            ),
            TraceEvent::Commit { cycle, seq, pc } => format!(
                "{{\"ev\":\"commit\",\"cycle\":{cycle},\"seq\":{},\"pc\":{}}}",
                seq.value(),
                pc.addr()
            ),
            TraceEvent::Squash { cycle, kind, first, count, redirect } => format!(
                "{{\"ev\":\"squash\",\"cycle\":{cycle},\"kind\":\"{}\",\"first\":{},\"count\":{count},\"redirect\":{}}}",
                flush_name(kind),
                first.value(),
                redirect.addr()
            ),
            TraceEvent::ReuseGrant { cycle, seq, pc, verify } => format!(
                "{{\"ev\":\"reuse_grant\",\"cycle\":{cycle},\"seq\":{},\"pc\":{},\"verify\":{verify}}}",
                seq.value(),
                pc.addr()
            ),
            TraceEvent::Sample(s) => s.to_json(),
            TraceEvent::Ckpt { cycle, action, insts } => format!(
                "{{\"ev\":\"ckpt\",\"cycle\":{cycle},\"action\":\"{}\",\"insts\":{insts}}}",
                action.name()
            ),
        }
    }
}

/// A consumer of trace events.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent);
}

/// A JSON-lines sink backed by a shared string buffer.
///
/// The simulator owns the sink (`Box<dyn TraceSink>`), so a caller that
/// wants the trace back after the run keeps the [`BufferSink::handle`]
/// and reads it once the simulation finishes. This is how the experiment
/// harness collects per-cell traces from worker threads.
#[derive(Debug, Default)]
pub struct BufferSink {
    buf: Arc<Mutex<String>>,
}

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// A handle to the shared buffer (one JSON object per line).
    pub fn handle(&self) -> Arc<Mutex<String>> {
        Arc::clone(&self.buf)
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut b = self.buf.lock().expect("trace buffer poisoned");
        b.push_str(&ev.to_json());
        b.push('\n');
    }
}

/// The pipeline's tracing front end: an optional sink behind a per-kind
/// bitmask that filters which events reach it. The `--sample N` harness
/// flag, for instance, attaches a sink masked to [`TraceKind::Sample`]
/// only, so sampling does not drag the full per-instruction event stream
/// along with it. The tracer keeps no counts: every event it passes is
/// one line of the sink's stream, and the statistics never see it.
pub(crate) struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
    mask: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { sink: None, mask: !0 }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("on", &self.sink.is_some()).finish()
    }
}

impl Tracer {
    /// Whether a sink is attached. Call sites guard event construction
    /// on this so untraced runs pay only the discriminant test.
    #[inline]
    pub fn on(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one event (no-op without a sink or when the event's kind
    /// is masked off).
    pub fn emit(&mut self, ev: TraceEvent) {
        if let Some(s) = &mut self.sink {
            if self.mask & ev.kind().bit() != 0 {
                s.record(&ev);
            }
        }
    }

    /// Attaches a sink, replacing any previous one.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Restricts the sink to the given kinds (a bitwise OR of
    /// [`TraceKind::bit`] values). The default mask passes everything.
    pub fn set_mask(&mut self, mask: u64) {
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fetch { cycle: 1, start: Pc::new(0x1000), end: Pc::new(0x101c), insts: 8 },
            TraceEvent::Rename { cycle: 5, seq: SeqNum::new(1), pc: Pc::new(0x1000) },
            TraceEvent::Issue { cycle: 6, seq: SeqNum::new(1), fu: FuClass::Alu },
            TraceEvent::Writeback { cycle: 7, seq: SeqNum::new(1), value: 42 },
            TraceEvent::Commit { cycle: 8, seq: SeqNum::new(1), pc: Pc::new(0x1000) },
            TraceEvent::Squash {
                cycle: 9,
                kind: FlushKind::BranchMispredict,
                first: SeqNum::new(2),
                count: 3,
                redirect: Pc::new(0x1010),
            },
            TraceEvent::ReuseGrant {
                cycle: 10,
                seq: SeqNum::new(5),
                pc: Pc::new(0x1010),
                verify: true,
            },
            TraceEvent::Sample(Sample {
                cycle: 100,
                insts: 80,
                mispredicts: 1,
                squashed: 3,
                grants: 2,
                l1_misses: 4,
                squash_slots: 16,
            }),
            TraceEvent::Ckpt { cycle: 120, action: CkptAction::Restore, insts: 75 },
        ]
    }

    #[test]
    fn json_schema_is_stable() {
        let evs = sample();
        assert_eq!(
            evs[0].to_json(),
            "{\"ev\":\"fetch\",\"cycle\":1,\"start\":4096,\"end\":4124,\"insts\":8}"
        );
        assert_eq!(evs[1].to_json(), "{\"ev\":\"rename\",\"cycle\":5,\"seq\":1,\"pc\":4096}");
        assert_eq!(evs[2].to_json(), "{\"ev\":\"issue\",\"cycle\":6,\"seq\":1,\"fu\":\"alu\"}");
        assert_eq!(evs[3].to_json(), "{\"ev\":\"writeback\",\"cycle\":7,\"seq\":1,\"value\":42}");
        assert_eq!(evs[4].to_json(), "{\"ev\":\"commit\",\"cycle\":8,\"seq\":1,\"pc\":4096}");
        assert_eq!(
            evs[5].to_json(),
            "{\"ev\":\"squash\",\"cycle\":9,\"kind\":\"branch\",\"first\":2,\"count\":3,\"redirect\":4112}"
        );
        assert_eq!(
            evs[6].to_json(),
            "{\"ev\":\"reuse_grant\",\"cycle\":10,\"seq\":5,\"pc\":4112,\"verify\":true}"
        );
        assert_eq!(
            evs[7].to_json(),
            "{\"ev\":\"sample\",\"cycle\":100,\"insts\":80,\"mispredicts\":1,\"squashed\":3,\
             \"grants\":2,\"l1_misses\":4,\"squash_slots\":16}"
        );
        assert_eq!(
            evs[8].to_json(),
            "{\"ev\":\"ckpt\",\"cycle\":120,\"action\":\"restore\",\"insts\":75}"
        );
    }

    #[test]
    fn kinds_round_trip_names_and_indices() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let evs = sample();
        let names: Vec<&str> = evs.iter().map(|e| e.kind().name()).collect();
        assert_eq!(
            names,
            [
                "fetch",
                "rename",
                "issue",
                "writeback",
                "commit",
                "squash",
                "reuse_grant",
                "sample",
                "ckpt"
            ]
        );
        assert_eq!(evs[3].cycle(), 7);
        assert_eq!(evs[7].cycle(), 100);
        assert_eq!(evs[8].cycle(), 120);
    }

    #[test]
    fn buffer_sink_shares_contents_through_handle() {
        let sink = BufferSink::new();
        let handle = sink.handle();
        let mut boxed: Box<dyn TraceSink> = Box::new(sink);
        boxed.record(&sample()[1]);
        boxed.record(&sample()[2]);
        let got = handle.lock().unwrap().clone();
        assert_eq!(got.lines().count(), 2);
        assert!(got.starts_with("{\"ev\":\"rename\""));
    }

    #[test]
    fn mask_filters_kinds_before_the_sink() {
        let mut t = Tracer::default();
        t.emit(sample()[0]); // dropped: no sink
        assert!(!t.on());
        let sink = BufferSink::new();
        let handle = sink.handle();
        t.set_sink(Box::new(sink));
        assert!(t.on());
        t.set_mask(TraceKind::Sample.bit() | TraceKind::Squash.bit());
        for ev in sample() {
            t.emit(ev);
        }
        let kinds = |h: &Arc<Mutex<String>>| -> Vec<String> {
            let buf = h.lock().unwrap();
            buf.lines().map(|l| l.split('"').nth(3).unwrap_or("").to_string()).collect()
        };
        assert_eq!(kinds(&handle), ["squash", "sample"], "masked kinds never reach the sink");
        t.set_mask(!0);
        t.emit(sample()[0]);
        assert_eq!(kinds(&handle), ["squash", "sample", "fetch"]);
    }
}
