//! Rename-stage state: physical register file, free list with hold
//! counts, register alias table with RGIDs, and the global RGID counters.

use std::collections::VecDeque;

use mssr_isa::{ArchReg, NUM_ARCH_REGS};

use crate::ckpt::{CkptError, CkptReader, CkptWriter};
use crate::types::{PhysReg, Rgid};

/// The physical register file: values plus ready bits.
#[derive(Clone, Debug)]
pub struct Prf {
    vals: Vec<u64>,
    ready: Vec<bool>,
}

impl Prf {
    /// Creates a PRF with `n` registers, all zero and ready.
    pub fn new(n: usize) -> Prf {
        Prf { vals: vec![0; n], ready: vec![true; n] }
    }

    /// Reads a register's value (defined only when ready, but wrong-path
    /// reads of not-yet-written registers are tolerated and return the
    /// stale value).
    pub fn read(&self, p: PhysReg) -> u64 {
        self.vals[p.index()]
    }

    /// Writes a value and marks the register ready.
    pub fn write(&mut self, p: PhysReg, v: u64) {
        self.vals[p.index()] = v;
        self.ready[p.index()] = true;
    }

    /// Whether the register's value has been produced.
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.ready[p.index()]
    }

    /// Marks a freshly-allocated register as not yet produced.
    pub fn clear_ready(&mut self, p: PhysReg) {
        self.ready[p.index()] = false;
    }

    /// Marks a register ready without changing its value (used when a
    /// reuse engine resurrects a preserved wrong-path result).
    pub fn set_ready(&mut self, p: PhysReg) {
        self.ready[p.index()] = true;
    }

    /// Number of physical registers.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the PRF is empty (never true for a constructed PRF).
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.vals.len() as u64);
        for &v in &self.vals {
            w.u64(v);
        }
        for &r in &self.ready {
            w.bool(r);
        }
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.seq_len(9)?;
        if n != self.vals.len() {
            return Err(CkptError::Corrupt(format!(
                "PRF size {n} in checkpoint, {} configured",
                self.vals.len()
            )));
        }
        for v in &mut self.vals {
            *v = r.u64()?;
        }
        for b in &mut self.ready {
            *b = r.bool()?;
        }
        Ok(())
    }
}

/// The physical-register free list, with per-register *hold counts*.
///
/// A register is on the free list exactly when its hold count is zero.
/// Normal renaming gives the destination register one hold (the "live"
/// hold, released when the mapping dies at commit-overwrite or squash).
/// Reuse engines add further holds via [`FreeList::retain`] to keep
/// squashed-but-executed values alive in the PRF (the paper's §3.3.2
/// register-reservation policy); each hold is dropped with
/// [`FreeList::release`], and the register returns to the free list when
/// the count reaches zero.
#[derive(Clone, Debug)]
pub struct FreeList {
    free: VecDeque<PhysReg>,
    holds: Vec<u32>,
    /// Running sum of `holds`, maintained on every alloc/retain/release
    /// so the per-cycle conservation sweep reads it in O(1).
    total: u64,
}

impl FreeList {
    /// Creates a free list for `phys_regs` registers where the first
    /// `reserved` registers (the initial architectural mappings) start
    /// with one hold and the rest are free.
    pub fn new(phys_regs: usize, reserved: usize) -> FreeList {
        let mut holds = vec![0; phys_regs];
        for h in holds.iter_mut().take(reserved) {
            *h = 1;
        }
        FreeList {
            free: (reserved..phys_regs).map(PhysReg::new).collect(),
            holds,
            total: reserved as u64,
        }
    }

    /// Allocates a register with one hold, or `None` if the list is empty.
    pub fn alloc(&mut self) -> Option<PhysReg> {
        let p = self.free.pop_front()?;
        debug_assert_eq!(self.holds[p.index()], 0, "allocated register had live holds");
        self.holds[p.index()] = 1;
        self.total += 1;
        Some(p)
    }

    /// Adds a hold to a register that must currently have at least one.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the register is on the free list.
    pub fn retain(&mut self, p: PhysReg) {
        debug_assert!(self.holds[p.index()] > 0, "retain of a free register {p}");
        self.holds[p.index()] += 1;
        self.total += 1;
    }

    /// Drops one hold; the register becomes allocatable at zero holds.
    ///
    /// # Panics
    ///
    /// Panics if the register has no holds.
    pub fn release(&mut self, p: PhysReg) {
        let h = &mut self.holds[p.index()];
        assert!(*h > 0, "release of {p} with zero holds");
        *h -= 1;
        self.total -= 1;
        if *h == 0 {
            self.free.push_back(p);
        }
    }

    /// Current hold count of a register.
    pub fn holds(&self, p: PhysReg) -> u32 {
        self.holds[p.index()]
    }

    /// Number of allocatable registers.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Number of physical registers this list manages.
    pub fn num_regs(&self) -> usize {
        self.holds.len()
    }

    /// Sum of all hold counts — the conservation side of the
    /// [`Rule::FreeListConservation`](crate::check::Rule) invariant.
    /// O(1): maintained incrementally; [`FreeList::validate`] cross-checks
    /// it against a recomputed sum.
    pub fn total_holds(&self) -> u64 {
        self.total
    }

    /// Internal-consistency check: a register is queued exactly when its
    /// hold count is zero, with no duplicates
    /// ([`Rule::FreeListIntegrity`](crate::check::Rule)).
    pub fn validate(&self) -> Result<(), String> {
        let mut queued = Vec::new();
        self.validate_with(&mut queued)
    }

    /// [`FreeList::validate`] over a caller-provided membership bitmap
    /// (cleared and refilled), so the debug checker's post-squash sweep
    /// allocates nothing in steady state.
    pub fn validate_with(&self, queued: &mut Vec<bool>) -> Result<(), String> {
        queued.clear();
        queued.resize(self.holds.len(), false);
        for &p in &self.free {
            if self.holds[p.index()] != 0 {
                return Err(format!("{p} queued with {} hold(s)", self.holds[p.index()]));
            }
            if queued[p.index()] {
                return Err(format!("{p} queued twice"));
            }
            queued[p.index()] = true;
        }
        let mut zero_holds = 0;
        let mut sum: u64 = 0;
        for &h in &self.holds {
            zero_holds += usize::from(h == 0);
            sum += u64::from(h);
        }
        if zero_holds != self.free.len() {
            return Err(format!(
                "{zero_holds} register(s) with zero holds but {} queued",
                self.free.len()
            ));
        }
        if sum != self.total {
            return Err(format!(
                "cached hold total {} diverged from recomputed sum {sum}",
                self.total
            ));
        }
        Ok(())
    }

    /// Serializes hold counts plus the free queue *in order* — allocation
    /// order is architecturally invisible but determinism-critical, so
    /// the queue is restored element-for-element rather than recomputed.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.holds.len() as u64);
        for &h in &self.holds {
            w.u32(h);
        }
        w.u64(self.total);
        w.u64(self.free.len() as u64);
        for &p in &self.free {
            w.preg(p);
        }
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.seq_len(4)?;
        if n != self.holds.len() {
            return Err(CkptError::Corrupt(format!(
                "free list of {n} registers in checkpoint, {} configured",
                self.holds.len()
            )));
        }
        for h in &mut self.holds {
            *h = r.u32()?;
        }
        self.total = r.u64()?;
        let q = r.seq_len(2)?;
        self.free.clear();
        for _ in 0..q {
            let p = r.preg()?;
            if p.index() >= self.holds.len() {
                return Err(CkptError::Corrupt(format!("queued {p} out of range")));
            }
            self.free.push_back(p);
        }
        self.validate().map_err(CkptError::Corrupt)
    }
}

/// The register alias table: the architectural-to-physical mapping plus
/// the RGID tagged onto each mapping (paper §3.1).
#[derive(Clone, Debug)]
pub struct Rat {
    map: Vec<PhysReg>,
    rgid: Vec<Rgid>,
}

impl Rat {
    /// Creates the initial identity mapping (arch register `i` → physical
    /// register `i`) with RGID 0 on every mapping, matching the paper's
    /// walkthrough (Figure 5 starts all registers at RGID 0).
    pub fn new() -> Rat {
        Rat {
            map: (0..NUM_ARCH_REGS).map(PhysReg::new).collect(),
            rgid: vec![Rgid::new(0); NUM_ARCH_REGS],
        }
    }

    /// Current physical mapping of an architectural register.
    pub fn lookup(&self, a: ArchReg) -> PhysReg {
        self.map[a.index()]
    }

    /// Current RGID of an architectural register's mapping.
    pub fn rgid(&self, a: ArchReg) -> Rgid {
        self.rgid[a.index()]
    }

    /// Installs a new mapping with its RGID; returns the previous pair
    /// (recorded in the ROB for rollback).
    pub fn install(&mut self, a: ArchReg, p: PhysReg, g: Rgid) -> (PhysReg, Rgid) {
        let prev = (self.map[a.index()], self.rgid[a.index()]);
        self.map[a.index()] = p;
        self.rgid[a.index()] = g;
        prev
    }

    /// Restores a previous mapping during rollback.
    pub fn restore(&mut self, a: ArchReg, p: PhysReg, g: Rgid) {
        self.map[a.index()] = p;
        self.rgid[a.index()] = g;
    }

    /// Re-tags the current mapping with a new RGID without changing the
    /// physical register.
    ///
    /// Used to lazily revive mappings whose RGID was nulled by a global
    /// reset: the mapping (and its value) is unchanged, so tagging it
    /// with a fresh, never-used generation is sound — it merely lets
    /// future reuse tests compare it again. Applied when the register is
    /// next read at rename.
    pub fn retag(&mut self, a: ArchReg, g: Rgid) {
        self.rgid[a.index()] = g;
    }

    /// Nulls every mapping's RGID (global RGID reset, paper §3.3.2: after
    /// a reset, pre-reset mappings must never pass a reuse test).
    pub fn null_all_rgids(&mut self) {
        for g in &mut self.rgid {
            *g = Rgid::NULL;
        }
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        for i in 0..NUM_ARCH_REGS {
            w.preg(self.map[i]);
            w.rgid(self.rgid[i]);
        }
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        for i in 0..NUM_ARCH_REGS {
            self.map[i] = r.preg()?;
            self.rgid[i] = r.rgid()?;
        }
        Ok(())
    }
}

impl Default for Rat {
    fn default() -> Rat {
        Rat::new()
    }
}

/// The global per-architectural-register RGID counters.
///
/// Counters are **not** checkpointed or rolled back (paper §3.1): they do
/// not represent execution state, only uniqueness of mappings across both
/// correct and wrong paths. On overflow the mapping receives the null
/// RGID and an overflow event is counted; a global reset re-zeros the
/// counters (the pipeline simultaneously nulls all live RGID state).
#[derive(Clone, Debug)]
pub struct RgidAlloc {
    counters: Vec<u16>,
    /// Number of distinct non-null values (`2^bits - 1`).
    limit: u16,
    overflows: u64,
}

impl RgidAlloc {
    /// Creates counters for all architectural registers with `limit`
    /// usable values per register.
    pub fn new(limit: u16) -> RgidAlloc {
        RgidAlloc { counters: vec![0; NUM_ARCH_REGS], limit, overflows: 0 }
    }

    /// Allocates the next RGID for `a`. Returns [`Rgid::NULL`] (and counts
    /// an overflow) once the counter exhausts its value space; null is
    /// sticky until [`RgidAlloc::reset`].
    pub fn next(&mut self, a: ArchReg) -> Rgid {
        let c = &mut self.counters[a.index()];
        if *c + 1 >= self.limit {
            self.overflows += 1;
            return Rgid::NULL;
        }
        *c += 1;
        Rgid::new(*c)
    }

    /// Total overflow events since the last reset.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// The counter's current value for `a` — the highest non-null RGID
    /// ever allocated since the last reset (an upper bound the invariant
    /// checker holds every live RGID to).
    pub fn current(&self, a: ArchReg) -> u16 {
        self.counters[a.index()]
    }

    /// Counter values for all architectural registers, indexed by
    /// architectural register index.
    pub fn counters(&self) -> &[u16] {
        &self.counters
    }

    /// Global reset: zero all counters and the overflow count.
    pub fn reset(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.overflows = 0;
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        for &c in &self.counters {
            w.u16(c);
        }
        w.u16(self.limit);
        w.u64(self.overflows);
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        for c in &mut self.counters {
            *c = r.u16()?;
        }
        let limit = r.u16()?;
        if limit != self.limit {
            return Err(CkptError::Corrupt(format!(
                "RGID limit {limit} in checkpoint, {} configured",
                self.limit
            )));
        }
        self.overflows = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_write_and_ready() {
        let mut prf = Prf::new(8);
        let p = PhysReg::new(3);
        assert!(prf.is_ready(p));
        prf.clear_ready(p);
        assert!(!prf.is_ready(p));
        prf.write(p, 99);
        assert!(prf.is_ready(p));
        assert_eq!(prf.read(p), 99);
        prf.clear_ready(p);
        prf.set_ready(p);
        assert_eq!(prf.read(p), 99, "set_ready preserves the value");
        assert!(!prf.is_empty());
        assert_eq!(prf.len(), 8);
    }

    #[test]
    fn freelist_alloc_release_cycle() {
        let mut fl = FreeList::new(8, 4);
        assert_eq!(fl.available(), 4);
        let p = fl.alloc().unwrap();
        assert_eq!(p, PhysReg::new(4));
        assert_eq!(fl.holds(p), 1);
        fl.release(p);
        assert_eq!(fl.holds(p), 0);
        assert_eq!(fl.available(), 4, "returned to the free list");
    }

    #[test]
    fn freelist_holds_keep_register_reserved() {
        let mut fl = FreeList::new(6, 2);
        let p = fl.alloc().unwrap();
        fl.retain(p); // e.g. a squash log keeps the value alive
        fl.release(p); // live hold dies at squash
        assert_eq!(fl.holds(p), 1);
        // Not allocatable while the engine hold exists.
        let mut seen = Vec::new();
        while let Some(q) = fl.alloc() {
            seen.push(q);
        }
        assert!(!seen.contains(&p));
        fl.release(p);
        assert_eq!(fl.holds(p), 0);
    }

    #[test]
    fn freelist_accounting_accessors() {
        let mut fl = FreeList::new(8, 4);
        assert_eq!(fl.num_regs(), 8);
        assert_eq!(fl.total_holds(), 4, "initial mappings hold once each");
        let p = fl.alloc().unwrap();
        fl.retain(p);
        assert_eq!(fl.total_holds(), 6);
        fl.validate().unwrap();
        fl.release(p);
        fl.release(p);
        assert_eq!(fl.total_holds(), 4);
        fl.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "zero holds")]
    fn freelist_double_release_panics() {
        let mut fl = FreeList::new(4, 2);
        let p = fl.alloc().unwrap();
        fl.release(p);
        fl.release(p);
    }

    #[test]
    fn freelist_exhaustion() {
        let mut fl = FreeList::new(4, 2);
        assert!(fl.alloc().is_some());
        assert!(fl.alloc().is_some());
        assert!(fl.alloc().is_none());
    }

    #[test]
    fn rat_install_restore_roundtrip() {
        let mut rat = Rat::new();
        let a = ArchReg::A0;
        assert_eq!(rat.lookup(a), PhysReg::new(a.index()));
        assert_eq!(rat.rgid(a), Rgid::new(0));
        let (pp, pg) = rat.install(a, PhysReg::new(100), Rgid::new(5));
        assert_eq!(pp, PhysReg::new(a.index()));
        assert_eq!(pg, Rgid::new(0));
        assert_eq!(rat.lookup(a), PhysReg::new(100));
        assert_eq!(rat.rgid(a), Rgid::new(5));
        rat.restore(a, pp, pg);
        assert_eq!(rat.lookup(a), PhysReg::new(a.index()));
        assert_eq!(rat.rgid(a), Rgid::new(0));
    }

    #[test]
    fn rat_null_all() {
        let mut rat = Rat::new();
        rat.install(ArchReg::A1, PhysReg::new(70), Rgid::new(9));
        rat.null_all_rgids();
        assert!(rat.rgid(ArchReg::A1).is_null());
        assert!(rat.rgid(ArchReg::ZERO).is_null());
        assert_eq!(rat.lookup(ArchReg::A1), PhysReg::new(70), "mapping untouched");
    }

    #[test]
    fn rgid_counters_increment_per_register() {
        let mut al = RgidAlloc::new(63);
        assert_eq!(al.next(ArchReg::A0), Rgid::new(1));
        assert_eq!(al.next(ArchReg::A0), Rgid::new(2));
        assert_eq!(al.next(ArchReg::A1), Rgid::new(1), "independent counters");
    }

    #[test]
    fn rgid_overflow_is_sticky_null_until_reset() {
        let mut al = RgidAlloc::new(4); // values 1..=3 usable
        assert_eq!(al.next(ArchReg::T0), Rgid::new(1));
        assert_eq!(al.next(ArchReg::T0), Rgid::new(2));
        assert_eq!(al.next(ArchReg::T0), Rgid::new(3));
        assert!(al.next(ArchReg::T0).is_null());
        assert!(al.next(ArchReg::T0).is_null(), "sticky");
        assert_eq!(al.overflows(), 2);
        al.reset();
        assert_eq!(al.overflows(), 0);
        assert_eq!(al.next(ArchReg::T0), Rgid::new(1));
    }
}
