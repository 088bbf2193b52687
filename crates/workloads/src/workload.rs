//! The [`Workload`] type: an assembled program plus its initial memory
//! image and architectural result checks.

use mssr_isa::Program;
use mssr_sim::{ReuseEngine, SimConfig, SimStats, Simulator};

/// Which benchmark suite a workload belongs to (mirrors the paper's
/// evaluation: SPECint2006, SPECint2017 and GAP, plus the §2.2
/// microbenchmarks).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// The Listing-1 microbenchmark variants (§2.2.4).
    Micro,
    /// SPECint2006-like synthetic kernels.
    Spec2006,
    /// SPECint2017-like synthetic kernels.
    Spec2017,
    /// GAP graph kernels.
    Gap,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Suite::Micro => "micro",
            Suite::Spec2006 => "SPECint2006",
            Suite::Spec2017 => "SPECint2017",
            Suite::Gap => "GAP",
        })
    }
}

/// One architectural result check: after the program halts, the 64-bit
/// word at `addr` must equal `expect`.
#[derive(Clone, Copy, Debug)]
pub struct Check {
    /// Memory address of the result word.
    pub addr: u64,
    /// Expected value (computed by a Rust reference implementation of
    /// the same algorithm).
    pub expect: u64,
    /// What the value represents (for diagnostics).
    pub what: &'static str,
}

/// A runnable benchmark: program, initial memory, and result checks.
///
/// Workloads are deterministic: the same name and scale always produce
/// the same program, memory image, and expected results, so runs under
/// different reuse engines are directly comparable.
///
/// # Example
///
/// ```
/// use mssr_workloads::{microbench, Workload};
/// use mssr_sim::SimConfig;
///
/// let w = microbench::nested_mispred(100);
/// let mut sim = w.instantiate(SimConfig::default());
/// sim.run();
/// w.verify(&sim).expect("architectural results must match the reference");
/// ```
#[derive(Clone, Debug)]
pub struct Workload {
    name: String,
    suite: Suite,
    program: Program,
    mem: Vec<(u64, u64)>,
    checks: Vec<Check>,
}

impl Workload {
    /// Builds a workload from its parts.
    pub fn new(
        name: impl Into<String>,
        suite: Suite,
        program: Program,
        mem: Vec<(u64, u64)>,
        checks: Vec<Check>,
    ) -> Workload {
        Workload { name: name.into(), suite, program, mem, checks }
    }

    /// The workload's name (e.g. `"bfs"`, `"nested-mispred"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The suite it belongs to.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// The assembled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of static instructions.
    pub fn static_insts(&self) -> usize {
        self.program.len()
    }

    /// Creates a baseline (no-reuse) simulator with memory initialized.
    pub fn instantiate(&self, cfg: SimConfig) -> Simulator {
        let mut sim = Simulator::new(cfg, self.program.clone());
        for &(a, v) in &self.mem {
            sim.write_mem_u64(a, v);
        }
        sim
    }

    /// Creates a simulator with a reuse engine and memory initialized.
    pub fn instantiate_with(&self, cfg: SimConfig, engine: Box<dyn ReuseEngine>) -> Simulator {
        let mut sim = Simulator::with_engine(cfg, self.program.clone(), engine);
        for &(a, v) in &self.mem {
            sim.write_mem_u64(a, v);
        }
        sim
    }

    /// Runs the workload to completion under `cfg` with an optional
    /// engine, verifying the architectural results.
    ///
    /// # Panics
    ///
    /// Panics if the program does not halt within the configured bounds
    /// or a result check fails — a failed check means a reuse engine
    /// corrupted architectural state, which is always a bug.
    pub fn run(&self, cfg: SimConfig, engine: Option<Box<dyn ReuseEngine>>) -> SimStats {
        let mut sim = match engine {
            Some(e) => self.instantiate_with(cfg, e),
            None => self.instantiate(cfg),
        };
        self.finish(&mut sim)
    }

    /// Runs an already-instantiated simulator to completion and verifies
    /// the architectural results — the tail of [`Workload::run`], exposed
    /// for callers that first drive the simulator themselves (checkpoint
    /// restore, functional fast-forward, mid-run snapshots).
    ///
    /// # Panics
    ///
    /// As [`Workload::run`]. The simulator must have been created by
    /// [`Workload::instantiate`]/[`Workload::instantiate_with`] (or
    /// restored from a checkpoint of one) so the result checks apply.
    pub fn finish(&self, sim: &mut Simulator) -> SimStats {
        let stats = sim.run();
        assert!(sim.is_halted(), "workload `{}` did not halt", self.name);
        self.verify(sim).unwrap_or_else(|e| panic!("workload `{}`: {e}", self.name));
        stats
    }

    /// Verifies the architectural result checks against a finished run.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching check.
    pub fn verify(&self, sim: &Simulator) -> Result<(), String> {
        for c in &self.checks {
            let got = sim.read_mem_u64(c.addr);
            if got != c.expect {
                return Err(format!(
                    "check `{}` at {:#x}: expected {}, got {}",
                    c.what, c.addr, c.expect, got
                ));
            }
        }
        Ok(())
    }

    /// The result checks (for inspection).
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// The initial memory image.
    pub fn mem(&self) -> &[(u64, u64)] {
        &self.mem
    }

    /// Rebrands this workload under a different name and suite (used for
    /// the SPEC2017 `_r` variants that share a 2006 kernel).
    pub fn renamed(mut self, name: impl Into<String>, suite: Suite) -> Workload {
        self.name = name.into();
        self.suite = suite;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_isa::{regs::*, Assembler};

    fn trivial() -> Workload {
        let mut a = Assembler::new();
        a.li(T0, 0x9000);
        a.ld(T1, T0, 0);
        a.addi(T1, T1, 5);
        a.st(T0, T1, 8);
        a.halt();
        Workload::new(
            "trivial",
            Suite::Micro,
            a.assemble().unwrap(),
            vec![(0x9000, 37)],
            vec![Check { addr: 0x9008, expect: 42, what: "sum" }],
        )
    }

    #[test]
    fn memory_is_initialized_and_checks_pass() {
        let w = trivial();
        let stats = w.run(SimConfig::default().with_max_cycles(10_000), None);
        assert_eq!(stats.committed_instructions, 5);
    }

    #[test]
    fn verify_reports_mismatches() {
        let w = trivial();
        let mut sim = w.instantiate(SimConfig::default().with_max_cycles(10_000));
        // Don't run: the check must fail against the zeroed result.
        let err = w.verify(&sim).unwrap_err();
        assert!(err.contains("sum"));
        assert!(err.contains("expected 42"));
        sim.run();
        assert!(w.verify(&sim).is_ok());
    }

    #[test]
    fn accessors() {
        let w = trivial();
        assert_eq!(w.name(), "trivial");
        assert_eq!(w.suite(), Suite::Micro);
        assert_eq!(w.static_insts(), 5);
        assert_eq!(w.checks().len(), 1);
        assert_eq!(Suite::Gap.to_string(), "GAP");
    }
}
