//! # mssr-core
//!
//! The paper's contribution: **Multi-Stream Squash Reuse** for
//! control-independent processors, plus the squash-reuse baselines it is
//! compared against.
//!
//! After a branch misprediction, conventional processors discard all
//! younger work — including *control-independent, data-independent*
//! (CIDI) results that the corrected path will recompute identically.
//! Squash reuse recycles those results. This crate tracks **multiple**
//! previously squashed streams (not just the last one, as prior art
//! does) and detects reconvergence between the corrected fetch stream
//! and any of them:
//!
//! * [`MultiStreamReuse`] — the paper's engine: Wrong-Path Buffers with
//!   left/right-aligner range search ([`align`]), Squash Logs walked in
//!   lockstep at rename, and the **RGID** (Rename Mapping Generation ID)
//!   data-integrity test that makes any-two-state comparison possible.
//! * [`RegisterIntegration`] — the table-based baseline (Roth & Sohi),
//!   with the table-conflict and transitive-invalidation behaviours the
//!   paper analyzes.
//! * DCI (Chou et al.) — the queue-based single-stream baseline,
//!   obtained as [`MultiStreamReuse::dci`] (the paper evaluates it the
//!   same way, §4.1.2).
//! * [`storage`] and [`complexity`] — the Table 2 storage model and the
//!   Table 4 synthesis-complexity model.
//!
//! # Example
//!
//! ```
//! use mssr_core::{MssrConfig, MultiStreamReuse};
//! use mssr_isa::{regs::*, Assembler};
//! use mssr_sim::{SimConfig, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A loop with a data-dependent branch: the baseline wastes the
//! // squashed work; the MSSR engine reuses part of it.
//! let mut a = Assembler::new();
//! a.li(S0, 0);
//! a.li(S1, 500);
//! a.li(S3, 12345);
//! a.label("loop");
//! a.li(T0, 0x9e3779b97f4a7c15u64 as i64);
//! a.mul(S3, S3, T0);
//! a.andi(T1, S3, 1);
//! a.beq(T1, ZERO, "skip");
//! a.addi(S2, S2, 3);
//! a.label("skip");
//! a.mul(T2, S0, S0); // CIDI work: depends only on the loop counter
//! a.add(S4, S4, T2);
//! a.addi(S0, S0, 1);
//! a.blt(S0, S1, "loop");
//! a.halt();
//! let program = a.assemble()?;
//!
//! let engine = MultiStreamReuse::new(MssrConfig::default());
//! let mut sim = Simulator::with_engine(SimConfig::default(), program, Box::new(engine));
//! let stats = sim.run();
//! assert!(stats.engine.reuse_grants > 0, "CIDI results should be reused");
//! # Ok(())
//! # }
//! ```

pub mod align;
pub mod complexity;
mod config;
mod engine;
pub mod memcheck;
/// The workspace's std-only property-test harness, shared with the
/// integration tests.
#[cfg(test)]
#[path = "../../../tests/common/prop.rs"]
mod prop;
mod ri;
pub mod storage;
mod stream;

pub use config::{MemCheckPolicy, MssrConfig};

pub use engine::MultiStreamReuse;
pub use ri::{RegisterIntegration, RiConfig};
pub use stream::{LogEntry, Stream};
