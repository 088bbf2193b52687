//! Shared helpers for hand-written kernels.

use mssr_isa::{regs::*, ArchReg, Assembler};

/// A rotating pool of scratch registers.
///
/// Hand-written assembly tends to reuse one temporary for every
/// intermediate value, which renames that register at an unrealistic
/// rate — wrapping its 6-bit RGID generation counter every few loop
/// iterations and triggering constant global RGID resets. Compilers
/// spread temporaries across the register file; this pool does the same
/// for generated kernels.
///
/// # Example
///
/// ```
/// use mssr_workloads::util::ScratchPool;
///
/// let mut pool = ScratchPool::new();
/// let a = pool.next();
/// let b = pool.next();
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Debug)]
pub struct ScratchPool {
    regs: Vec<ArchReg>,
    next: usize,
}

impl ScratchPool {
    /// A pool over the caller-saved scratch registers `t6, a2..a7`.
    pub fn new() -> ScratchPool {
        ScratchPool { regs: vec![T6, A2, A3, A4, A5, A6, A7], next: 0 }
    }

    /// A pool over an explicit register set.
    ///
    /// # Panics
    ///
    /// Panics if `regs` is empty.
    pub fn with_regs(regs: Vec<ArchReg>) -> ScratchPool {
        assert!(!regs.is_empty(), "scratch pool needs at least one register");
        ScratchPool { regs, next: 0 }
    }

    /// The next scratch register, round-robin.
    #[allow(clippy::should_implement_trait)] // not an iterator: infinite round-robin supply
    pub fn next(&mut self) -> ArchReg {
        let r = self.regs[self.next % self.regs.len()];
        self.next += 1;
        r
    }
}

impl Default for ScratchPool {
    fn default() -> ScratchPool {
        ScratchPool::new()
    }
}

/// Emits `dst = src * constant` using a rotating scratch register for
/// the constant.
pub fn emit_mul_const(
    a: &mut Assembler,
    pool: &mut ScratchPool,
    dst: ArchReg,
    src: ArchReg,
    k: u64,
) {
    let t = pool.next();
    a.li(t, k as i64);
    a.mul(dst, src, t);
}

/// Emits one xorshift-multiply mixing round in place:
/// `reg = (reg * k) ^ ((reg * k) >> shift)`.
pub fn emit_mix_round(a: &mut Assembler, pool: &mut ScratchPool, reg: ArchReg, k: u64, shift: i64) {
    emit_mul_const(a, pool, reg, reg, k);
    let t = pool.next();
    a.srli(t, reg, shift);
    a.xor(reg, reg, t);
}

/// The reference semantics of [`emit_mix_round`].
pub fn mix_round_ref(x: u64, k: u64, shift: u32) -> u64 {
    let t = x.wrapping_mul(k);
    t ^ (t >> shift)
}

/// The SPEC kernels' hash multiplier (the 64-bit golden ratio).
pub const MIX: u64 = 0x9e3779b97f4a7c15;

/// Emits `dst = mix(src)`: one multiply-xorshift round with the constant
/// held in `kreg`.
pub fn emit_mix(a: &mut Assembler, dst: ArchReg, src: ArchReg, kreg: ArchReg, t: ArchReg) {
    a.mul(dst, src, kreg);
    a.srli(t, dst, 29);
    a.xor(dst, dst, t);
}

/// The reference semantics of [`emit_mix`] with `kreg` holding [`MIX`].
pub fn mix_ref(x: u64) -> u64 {
    mix_round_ref(x, MIX, 29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_sim::{SimConfig, Simulator};

    #[test]
    fn pool_rotates_through_all_registers() {
        let mut p = ScratchPool::new();
        let first: Vec<ArchReg> = (0..7).map(|_| p.next()).collect();
        let second: Vec<ArchReg> = (0..7).map(|_| p.next()).collect();
        assert_eq!(first, second, "round-robin wraps");
        assert_eq!(first.len(), 7);
        let unique: std::collections::HashSet<_> = first.iter().collect();
        assert_eq!(unique.len(), 7, "all registers distinct");
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn empty_pool_panics() {
        let _ = ScratchPool::with_regs(vec![]);
    }

    #[test]
    fn mix_round_matches_reference() {
        let mut a = Assembler::new();
        let mut pool = ScratchPool::new();
        a.li(S0, 0x1234_5678_9abc_def0u64 as i64);
        emit_mix_round(&mut a, &mut pool, S0, 0x9e3779b97f4a7c15, 29);
        a.st(ZERO, S0, 0x100);
        a.halt();
        let mut sim =
            Simulator::new(SimConfig::default().with_max_cycles(10_000), a.assemble().unwrap());
        sim.run();
        assert_eq!(
            sim.read_mem_u64(0x100),
            mix_round_ref(0x1234_5678_9abc_def0, 0x9e3779b97f4a7c15, 29)
        );
    }
}
