//! Human-readable pipeline state dumps for debugging.

use std::fmt::Write as _;

use mssr_isa::ArchReg;

use crate::pipeline::Simulator;

impl Simulator {
    /// Renders a snapshot of the pipeline's architectural and
    /// microarchitectural state: cycle, fetch PC, ROB occupancy and head,
    /// free-register count, and the current RAT (non-identity mappings
    /// only). Intended for debugging stalls and engine behaviour; the
    /// format is human-oriented and not stable.
    ///
    /// # Example
    ///
    /// ```
    /// use mssr_isa::{regs::*, Assembler};
    /// use mssr_sim::{SimConfig, Simulator};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut a = Assembler::new();
    /// a.li(T0, 1);
    /// a.halt();
    /// let mut sim = Simulator::new(SimConfig::default(), a.assemble()?);
    /// sim.run_cycles(3);
    /// let dump = sim.dump_state();
    /// assert!(dump.contains("cycle"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn dump_state(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycle {}  engine {}  halted {}",
            self.cycle(),
            self.engine_name(),
            self.is_halted()
        );
        let (fetch_pc, frontend_len) = self.frontend_state();
        let _ = writeln!(
            out,
            "frontend: pc {}  in-flight {}",
            fetch_pc.map_or_else(|| "stalled".to_string(), |p| p.to_string()),
            frontend_len
        );
        let (rob_len, rob_cap, head) = self.rob_state();
        let _ = writeln!(
            out,
            "rob: {rob_len}/{rob_cap}  head {}",
            head.unwrap_or_else(|| "-".to_string())
        );
        let _ = writeln!(out, "free registers: {}", self.free_phys_regs());
        let _ = writeln!(out, "rat (non-identity mappings):");
        for a in ArchReg::all() {
            let (p, g) = self.rat_entry(a);
            if p.index() != a.index() {
                let _ = writeln!(out, "  {a} -> {p} {g}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{SimConfig, Simulator};
    use mssr_isa::{regs::*, Assembler};

    #[test]
    fn dump_reflects_progress() {
        let mut a = Assembler::new();
        a.li(T0, 5);
        a.addi(T0, T0, 1);
        a.halt();
        let mut sim =
            Simulator::new(SimConfig::default().with_max_cycles(100), a.assemble().unwrap());
        let before = sim.dump_state();
        assert!(before.contains("cycle 0"));
        assert!(before.contains("pc 0x1000"));
        sim.run();
        let after = sim.dump_state();
        assert!(after.contains("halted true"));
        assert!(after.contains("x5 -> "), "t0 was renamed away from its identity mapping");
    }
}
