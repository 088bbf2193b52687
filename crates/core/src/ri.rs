//! Register Integration (Roth & Sohi, MICRO 2000) — the table-based
//! squash-reuse baseline the paper compares against (§2.2.3, §4.1.2).
//!
//! Squashed, executed instructions are stored in a PC-indexed,
//! set-associative *reuse table* keyed by their source **physical
//! register names**. At rename, an instruction whose PC, opcode and
//! current source physical registers match a table entry *integrates* the
//! entry's destination physical register instead of executing.
//!
//! The paper highlights three structural weaknesses, all reproduced here:
//!
//! * **Table conflicts**: code blocks cluster in memory, so entries evict
//!   each other; per-set replacement counters feed Figure 3.
//! * **Transitive invalidation**: when an entry dies (evicted or its
//!   destination register recycled), every entry referencing that
//!   register as a source must also die, recursively.
//! * **Temporal references**: one PC-indexed entry per set conflict means
//!   multiple dynamic instances fight for the same slot.

use mssr_isa::{ArchReg, Opcode, Pc};
use mssr_sim::{
    fnv1a64, CkptError, CkptReader, CkptWriter, EngineCtx, EngineStats, FlushKind, PhysReg,
    RenamedInst, ReuseEngine, ReuseGrant, ReuseQuery, SquashEvent,
};

use crate::config::MemCheckPolicy;
use crate::memcheck::HazardEvidence;
use crate::stream::{arch_reg_from, opcode_from};

/// Configuration of the Register Integration reuse table.
#[derive(Clone, Copy, Debug)]
pub struct RiConfig {
    /// Number of sets (the paper evaluates 64 and 128).
    pub sets: usize,
    /// Associativity (the paper evaluates 1, 2 and 4 ways).
    pub ways: usize,
    /// Reused-load protection mechanism (shared with the MSSR engine so
    /// comparisons are apples-to-apples).
    pub mem_policy: MemCheckPolicy,
    /// Bloom filter size for [`MemCheckPolicy::BloomFilter`].
    pub bloom_bits: usize,
}

impl Default for RiConfig {
    fn default() -> RiConfig {
        RiConfig {
            sets: 64,
            ways: 4,
            mem_policy: MemCheckPolicy::LoadVerification,
            bloom_bits: 1024,
        }
    }
}

impl RiConfig {
    /// Sets the number of sets.
    pub fn with_sets(mut self, n: usize) -> RiConfig {
        self.sets = n;
        self
    }

    /// Sets the associativity.
    pub fn with_ways(mut self, n: usize) -> RiConfig {
        self.ways = n;
        self
    }

    /// Sets the reused-load protection mechanism.
    pub fn with_mem_policy(mut self, p: MemCheckPolicy) -> RiConfig {
        self.mem_policy = p;
        self
    }
}

#[derive(Clone, Debug)]
struct RiEntry {
    pc: Pc,
    op: Opcode,
    dst_arch: ArchReg,
    dst_preg: PhysReg,
    src_pregs: [Option<PhysReg>; 2],
    is_load: bool,
    load_addr: Option<u64>,
    lru: u64,
}

/// The Register Integration reuse engine.
///
/// # Example
///
/// ```
/// use mssr_core::{RegisterIntegration, RiConfig};
/// use mssr_sim::ReuseEngine;
///
/// let ri = RegisterIntegration::new(RiConfig::default().with_ways(2));
/// assert_eq!(ri.name(), "ri");
/// ```
#[derive(Debug)]
pub struct RegisterIntegration {
    cfg: RiConfig,
    /// The reuse table, indexed by slot `set * ways + way`.
    table: Vec<Option<RiEntry>>,
    /// Valid entries in `table`, kept current so occupancy is O(1).
    valid: usize,
    /// Reverse index: row `p` (`words` u64s starting at `p * words`) is a
    /// bitset of the slots whose entry names physical register `p` among
    /// its sources. A bit is set exactly when that slot's entry has
    /// `Some(p)` in `src_pregs`. Rows are grown lazily; a register past
    /// the last row is named by no entry. Derived from `table`, so never
    /// checkpointed.
    refs: Vec<u64>,
    /// Words per `refs` row: `ceil(sets * ways / 64)`.
    words: usize,
    tick: u64,
    /// Replacements per set (Figure 3's data), reported by
    /// [`ReuseEngine::stats`] as `EngineStats::set_replacements`.
    replacements: Vec<u64>,
    hazards: HazardEvidence,
    /// Reusable victim-set buffers for [`Self::invalidate_referencing`]:
    /// the evict recursion needs one copied `refs` row per depth, so each
    /// call pops a buffer and returns it when done. Transient — never
    /// checkpointed.
    scan_pool: Vec<Vec<u64>>,
    stats: EngineStats,
}

impl RegisterIntegration {
    /// Creates an empty reuse table.
    pub fn new(cfg: RiConfig) -> RegisterIntegration {
        let slots = cfg.sets * cfg.ways;
        RegisterIntegration {
            table: vec![None; slots],
            valid: 0,
            refs: Vec::new(),
            words: slots.div_ceil(64),
            tick: 0,
            replacements: vec![0; cfg.sets],
            hazards: HazardEvidence::new(cfg.mem_policy, cfg.bloom_bits),
            scan_pool: Vec::new(),
            stats: EngineStats::default(),
            cfg,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RiConfig {
        &self.cfg
    }

    /// Number of valid entries (tests and introspection).
    pub fn occupancy(&self) -> usize {
        self.valid
    }

    fn set_index(&self, pc: Pc) -> usize {
        (pc.addr() >> 2) as usize % self.cfg.sets
    }

    /// The slots of `set`, way 0 first.
    fn set_slots(&self, set: usize) -> std::ops::Range<usize> {
        set * self.cfg.ways..(set + 1) * self.cfg.ways
    }

    /// Fills an empty slot and records its sources in the reverse index.
    fn insert(&mut self, slot: usize, e: RiEntry) {
        debug_assert!(self.table[slot].is_none());
        for p in e.src_pregs.into_iter().flatten() {
            let row = p.index() * self.words;
            if self.refs.len() < row + self.words {
                self.refs.resize(row + self.words, 0);
            }
            self.refs[row + slot / 64] |= 1 << (slot % 64);
        }
        self.table[slot] = Some(e);
        self.valid += 1;
    }

    /// Empties a slot, dropping its sources from the reverse index.
    fn remove(&mut self, slot: usize) -> Option<RiEntry> {
        let e = self.table[slot].take()?;
        for p in e.src_pregs.into_iter().flatten() {
            // Present: `insert` grew the row when it set this bit.
            self.refs[p.index() * self.words + slot / 64] &= !(1 << (slot % 64));
        }
        self.valid -= 1;
        Some(e)
    }

    /// Removes an entry, releasing its destination register and
    /// transitively invalidating entries that referenced it as a source
    /// (§3.7.2's expensive operation, implemented as the paper describes).
    fn evict(&mut self, slot: usize, ctx: &mut EngineCtx<'_>) {
        let Some(e) = self.remove(slot) else { return };
        let dead = e.dst_preg;
        ctx.free_list.release(dead);
        self.invalidate_referencing(dead, ctx);
    }

    /// Evicts every entry naming `p` as a source, in ascending slot
    /// order: O(entries that name `p`), not O(sets × ways).
    fn invalidate_referencing(&mut self, p: PhysReg, ctx: &mut EngineCtx<'_>) {
        let row = p.index() * self.words;
        let Some(bits) = self.refs.get(row..row + self.words) else { return };
        // Snapshot the victim set first: deeper evictions clear bits, and
        // a victim they already removed still counts once here. The
        // buffer comes from the pool (one per recursion depth) so
        // steady-state invalidation never allocates.
        let mut victims = self.scan_pool.pop().unwrap_or_default();
        victims.clear();
        victims.extend_from_slice(bits);
        for (i, &word) in victims.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let slot = i * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.stats.ri_transitive_invalidations += 1;
                self.evict(slot, ctx);
            }
        }
        self.scan_pool.push(victims);
    }

    fn clear_table(&mut self, ctx: &mut EngineCtx<'_>) {
        for slot in 0..self.table.len() {
            if let Some(e) = self.remove(slot) {
                ctx.free_list.release(e.dst_preg);
            }
        }
        self.hazards.clear();
    }
}

impl ReuseEngine for RegisterIntegration {
    fn name(&self) -> &'static str {
        "ri"
    }

    fn on_mispredict_squash(&mut self, ev: &SquashEvent, ctx: &mut EngineCtx<'_>) {
        for inst in &ev.insts {
            if !inst.executed || inst.is_store {
                continue;
            }
            if inst.is_load && self.hazards.load_barrier().is_some_and(|b| inst.seq <= b) {
                continue; // read predates the surviving hazard evidence
            }
            let Some(d) = inst.dst else { continue };
            let (dst_arch, dst_preg) = (d.arch, d.preg);
            if inst.op.is_control() {
                continue;
            }
            self.tick += 1;
            let set = self.set_index(inst.pc);
            // Pick an invalid way, else the LRU victim.
            let slot = match self.set_slots(set).find(|&s| self.table[s].is_none()) {
                Some(s) => s,
                None => {
                    let s = self
                        .set_slots(set)
                        .min_by_key(|&s| self.table[s].as_ref().map_or(0, |e| e.lru))
                        .expect("at least one way");
                    self.replacements[set] += 1;
                    self.stats.table_replacements += 1;
                    self.evict(s, ctx);
                    s
                }
            };
            // The squashed instruction's *source* physical names are not
            // in the event (it carries RGIDs); RI instead needs the
            // physical mappings at the squashed rename. The simulator
            // preserves them in the squashed-instruction record via the
            // ROB — reconstructed here from the event's extension below.
            let src_pregs = inst_src_pregs(inst);
            ctx.free_list.retain(dst_preg);
            let lru = self.tick;
            self.insert(
                slot,
                RiEntry {
                    pc: inst.pc,
                    op: inst.op,
                    dst_arch,
                    dst_preg,
                    src_pregs,
                    is_load: inst.is_load,
                    load_addr: inst.load_addr,
                    lru,
                },
            );
            self.stats.entries_logged += 1;
        }
        self.stats.streams_captured += 1;
    }

    fn try_reuse(&mut self, q: &ReuseQuery<'_>, ctx: &mut EngineCtx<'_>) -> Option<ReuseGrant> {
        self.stats.reuse_tests += 1;
        let set = self.set_index(q.pc);
        self.tick += 1;
        let tick = self.tick;
        let slot = self.set_slots(set).find(|&s| {
            self.table[s].as_ref().is_some_and(|e| {
                e.pc == q.pc
                    && e.op == q.inst.op()
                    && Some(e.dst_arch) == q.inst.dst()
                    && e.src_pregs == q.src_pregs
            })
        });
        let Some(slot) = slot else {
            self.stats.reuse_fail_stale += 1;
            return None;
        };
        let e = self.table[slot].as_mut().expect("matched way is valid");
        e.lru = tick;
        let needs_load_verify = if e.is_load {
            let Some(verify) = self.hazards.admit_load(e.load_addr) else {
                self.stats.reuse_fail_mem += 1;
                return None;
            };
            verify
        } else {
            false
        };
        // Integration: the entry is consumed and its hold transfers to
        // the live mapping.
        let e = self.remove(slot).expect("matched way is valid");
        let _ = ctx;
        self.stats.reuse_grants += 1;
        if q.src_pregs == [None, None] {
            self.stats.ri_no_src_grants += 1;
        }
        if e.is_load {
            self.stats.reused_loads += 1;
        }
        Some(ReuseGrant {
            preg: e.dst_preg,
            rgid: None, // RI has no RGID concept; a fresh one is allocated
            load_addr: e.load_addr,
            needs_load_verify,
        })
    }

    fn on_renamed(&mut self, r: &RenamedInst, _ctx: &mut EngineCtx<'_>) {
        self.hazards.renamed(r.seq);
    }

    fn on_flush(&mut self, kind: FlushKind, ctx: &mut EngineCtx<'_>) {
        if kind == FlushKind::ReuseVerification {
            self.clear_table(ctx);
        }
    }

    fn on_preg_freed(&mut self, p: PhysReg, ctx: &mut EngineCtx<'_>) {
        // A recycled physical register may be rewritten with a new value;
        // entries naming it as a source are no longer trustworthy.
        self.invalidate_referencing(p, ctx);
    }

    fn on_register_pressure(&mut self, ctx: &mut EngineCtx<'_>) {
        self.stats.pressure_reclaims += 1;
        self.clear_table(ctx);
    }

    fn on_rgid_reset(&mut self, ctx: &mut EngineCtx<'_>) {
        // RI does not use RGIDs, but physical-name validity is unrelated
        // to the reset; nothing to drop. (Kept explicit for clarity.)
        let _ = ctx;
    }

    fn on_store_executed(&mut self, addr: u64, _ctx: &mut EngineCtx<'_>) {
        self.hazards.record_write(addr);
    }

    fn on_snoop(&mut self, addr: u64, _ctx: &mut EngineCtx<'_>) {
        self.hazards.record_write(addr);
    }

    fn reuse_credit_latency(&self, op: Opcode, pipeline_estimate: u64) -> u64 {
        // As for MSSR: a verified reused load re-executes, recovering no
        // execution latency.
        if op == Opcode::Ld && self.cfg.mem_policy == MemCheckPolicy::LoadVerification {
            0
        } else {
            pipeline_estimate
        }
    }

    fn stats(&self) -> EngineStats {
        let mut s = self.stats.clone();
        s.ri_occupancy = self.occupancy() as u64;
        s.set_replacements = self.replacements.clone();
        s
    }

    fn reserved_hold_count(&self) -> u64 {
        // Every integration-table entry retains its destination register
        // once; eviction and invalidation release it, and a grant removes
        // the entry as the hold transfers to the new live mapping — so
        // occupancy equals the engine's outstanding reservations.
        self.occupancy() as u64
    }

    fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(fnv1a64(format!("{:?}", self.cfg).as_bytes()));
        // The table dimensions and replacement-counter length are fixed
        // by the (guarded) configuration, so no length prefixes needed.
        // Slots go out in ascending order, i.e. set-major.
        for e in &self.table {
            match e {
                None => w.bool(false),
                Some(e) => {
                    w.bool(true);
                    w.pc(e.pc);
                    w.u8(e.op.code());
                    w.u8(e.dst_arch.index() as u8);
                    w.preg(e.dst_preg);
                    w.opt_preg(e.src_pregs[0]);
                    w.opt_preg(e.src_pregs[1]);
                    w.bool(e.is_load);
                    w.opt_u64(e.load_addr);
                    w.u64(e.lru);
                }
            }
        }
        w.u64(self.tick);
        for &c in &self.replacements {
            w.u64(c);
        }
        self.hazards.ckpt_save(w);
        self.stats.ckpt_save(w);
    }

    fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        if r.u64()? != fnv1a64(format!("{:?}", self.cfg).as_bytes()) {
            return Err(CkptError::ConfigMismatch);
        }
        // Rebuild the reverse index and the occupancy count from the
        // loaded table alone; nothing from the previous run survives.
        self.table.fill(None);
        self.valid = 0;
        self.refs.fill(0);
        for slot in 0..self.table.len() {
            if r.bool()? {
                let pc = r.pc()?;
                let op = opcode_from(r)?;
                let dst_arch = arch_reg_from(r)?;
                let e = RiEntry {
                    pc,
                    op,
                    dst_arch,
                    dst_preg: r.preg()?,
                    src_pregs: [r.opt_preg()?, r.opt_preg()?],
                    is_load: r.bool()?,
                    load_addr: r.opt_u64()?,
                    lru: r.u64()?,
                };
                self.insert(slot, e);
            }
        }
        self.tick = r.u64()?;
        for c in &mut self.replacements {
            *c = r.u64()?;
        }
        self.hazards.ckpt_load(r)?;
        self.stats = EngineStats::ckpt_load(r)?;
        Ok(())
    }
}

/// Source physical registers of a squashed instruction.
fn inst_src_pregs(inst: &mssr_sim::SquashedInst) -> [Option<PhysReg>; 2] {
    inst.src_pregs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_sim::{FreeList, SeqNum, SquashEvent};

    fn ctx<'a>(fl: &'a mut FreeList, reset: &'a mut bool) -> EngineCtx<'a> {
        EngineCtx {
            free_list: fl,
            stage: mssr_sim::StageCtx { cycle: 0, rob_size: 256 },
            rgid_reset_requested: reset,
        }
    }

    fn freelist() -> FreeList {
        FreeList::new(256, 100)
    }

    fn sq_inst(pc: u64, dst_preg: usize, srcs: [Option<usize>; 2]) -> mssr_sim::SquashedInst {
        mssr_sim::SquashedInst {
            seq: SeqNum::new(pc / 4),
            pc: Pc::new(pc),
            op: Opcode::Add,
            dst: Some(mssr_sim::DstBinding {
                arch: ArchReg::A0,
                preg: PhysReg::new(dst_preg),
                rgid: mssr_sim::Rgid::new(1),
            }),
            src_rgids: [None, None],
            src_pregs: srcs.map(|s| s.map(PhysReg::new)),
            executed: true,
            is_load: false,
            is_store: false,
            load_addr: None,
        }
    }

    fn event(insts: Vec<mssr_sim::SquashedInst>) -> SquashEvent {
        SquashEvent {
            squash_id: 1,
            cause_seq: SeqNum::new(1),
            cause_pc: Pc::new(0xf00),
            redirect: Pc::new(0x2000),
            insts,
            frontend_blocks: vec![],
        }
    }

    fn query<'a>(pc: u64, inst: &'a mssr_isa::Inst, srcs: [Option<usize>; 2]) -> ReuseQuery<'a> {
        ReuseQuery {
            seq: SeqNum::new(1000),
            pc: Pc::new(pc),
            inst,
            src_rgids: [None, None],
            src_pregs: srcs.map(|s| s.map(PhysReg::new)),
        }
    }

    #[test]
    fn insertion_and_integration() {
        let mut fl = freelist();
        let mut reset = false;
        let mut ri = RegisterIntegration::new(RiConfig::default());
        ri.on_mispredict_squash(
            &event(vec![sq_inst(0x1000, 80, [Some(10), Some(11)])]),
            &mut ctx(&mut fl, &mut reset),
        );
        assert_eq!(ri.occupancy(), 1);
        assert_eq!(fl.holds(PhysReg::new(80)), 2, "table holds the result register");
        // A matching rename integrates the entry.
        let inst = mssr_isa::Inst::alu_rr(Opcode::Add, ArchReg::A0, ArchReg::A1, ArchReg::A2);
        let g = ri
            .try_reuse(&query(0x1000, &inst, [Some(10), Some(11)]), &mut ctx(&mut fl, &mut reset))
            .expect("matching sources integrate");
        assert_eq!(g.preg, PhysReg::new(80));
        assert!(g.rgid.is_none(), "RI has no RGID concept");
        assert_eq!(ri.occupancy(), 0, "entry consumed");
    }

    #[test]
    fn mismatched_sources_do_not_integrate() {
        let mut fl = freelist();
        let mut reset = false;
        let mut ri = RegisterIntegration::new(RiConfig::default());
        ri.on_mispredict_squash(
            &event(vec![sq_inst(0x1000, 80, [Some(10), Some(11)])]),
            &mut ctx(&mut fl, &mut reset),
        );
        let inst = mssr_isa::Inst::alu_rr(Opcode::Add, ArchReg::A0, ArchReg::A1, ArchReg::A2);
        assert!(ri
            .try_reuse(&query(0x1000, &inst, [Some(10), Some(12)]), &mut ctx(&mut fl, &mut reset))
            .is_none());
        assert!(
            ri.try_reuse(
                &query(0x1004, &inst, [Some(10), Some(11)]),
                &mut ctx(&mut fl, &mut reset)
            )
            .is_none(),
            "different PC"
        );
        assert_eq!(ri.occupancy(), 1, "entry survives failed lookups");
    }

    #[test]
    fn freed_source_register_transitively_invalidates() {
        let mut fl = freelist();
        let mut reset = false;
        let mut ri = RegisterIntegration::new(RiConfig::default());
        // B consumes A's destination as a source: a dependence chain.
        ri.on_mispredict_squash(
            &event(vec![
                sq_inst(0x1000, 80, [Some(10), None]),
                sq_inst(0x1004, 81, [Some(80), None]),
            ]),
            &mut ctx(&mut fl, &mut reset),
        );
        assert_eq!(ri.occupancy(), 2);
        // The pipeline recycles p10 (source of A): A dies, and B must die
        // with it because B's source p80... no — B sources p80 which the
        // table still holds. Free p10 instead: A dies; then B (sourcing
        // A's destination p80, now released) dies transitively.
        ri.on_preg_freed(PhysReg::new(10), &mut ctx(&mut fl, &mut reset));
        assert_eq!(ri.occupancy(), 0, "chain fully invalidated");
        assert_eq!(fl.holds(PhysReg::new(80)), 1);
        assert_eq!(fl.holds(PhysReg::new(81)), 1);
    }

    #[test]
    fn set_conflicts_count_replacements() {
        let mut fl = freelist();
        let mut reset = false;
        let mut ri = RegisterIntegration::new(RiConfig::default().with_sets(4).with_ways(1));
        // Two PCs mapping to the same set (stride = sets * 4 bytes).
        ri.on_mispredict_squash(
            &event(vec![sq_inst(0x1000, 80, [None, None]), sq_inst(0x1010, 81, [None, None])]),
            &mut ctx(&mut fl, &mut reset),
        );
        assert_eq!(ri.occupancy(), 1, "second insertion evicted the first");
        assert_eq!(ri.stats().set_replacements.iter().sum::<u64>(), 1);
        assert_eq!(fl.holds(PhysReg::new(80)), 1, "victim's register released");
    }

    #[test]
    fn config_builders() {
        let c = RiConfig::default().with_sets(128).with_ways(2);
        assert_eq!(c.sets, 128);
        assert_eq!(c.ways, 2);
    }

    #[test]
    fn empty_table_has_zero_occupancy() {
        let ri = RegisterIntegration::new(RiConfig::default());
        assert_eq!(ri.occupancy(), 0);
        assert_eq!(ri.stats().set_replacements.len(), 64);
    }

    /// Reference model for the differential test: the table as
    /// `table[set][way]` with the full-scan transitive invalidation the
    /// reverse index replaces. Load-verification policy only.
    struct Model {
        table: Vec<Vec<Option<RiEntry>>>,
        tick: u64,
        stats: EngineStats,
    }

    impl Model {
        fn new(sets: usize, ways: usize) -> Model {
            let stats = EngineStats { set_replacements: vec![0; sets], ..EngineStats::default() };
            Model { table: vec![vec![None; ways]; sets], tick: 0, stats }
        }

        fn set_index(&self, pc: Pc) -> usize {
            (pc.addr() >> 2) as usize % self.table.len()
        }

        fn occupancy(&self) -> usize {
            self.table.iter().flatten().filter(|e| e.is_some()).count()
        }

        fn stats(&self) -> EngineStats {
            let mut s = self.stats.clone();
            s.ri_occupancy = self.occupancy() as u64;
            s
        }

        fn evict(&mut self, set: usize, way: usize, fl: &mut FreeList) {
            let Some(e) = self.table[set][way].take() else { return };
            fl.release(e.dst_preg);
            self.invalidate_referencing(e.dst_preg, fl);
        }

        fn invalidate_referencing(&mut self, p: PhysReg, fl: &mut FreeList) {
            let mut victims = Vec::new();
            for (s, set) in self.table.iter().enumerate() {
                for (w, e) in set.iter().enumerate() {
                    if e.as_ref().is_some_and(|e| e.src_pregs.contains(&Some(p))) {
                        victims.push((s, w));
                    }
                }
            }
            for (s, w) in victims {
                self.stats.ri_transitive_invalidations += 1;
                self.evict(s, w, fl);
            }
        }

        fn clear(&mut self, fl: &mut FreeList) {
            for e in self.table.iter_mut().flatten() {
                if let Some(e) = e.take() {
                    fl.release(e.dst_preg);
                }
            }
        }

        fn squash(&mut self, ev: &SquashEvent, fl: &mut FreeList) {
            for inst in &ev.insts {
                let Some(d) = inst.dst.filter(|_| inst.executed) else { continue };
                self.tick += 1;
                let set = self.set_index(inst.pc);
                let ways = self.table[set].len();
                let way = match (0..ways).find(|&w| self.table[set][w].is_none()) {
                    Some(w) => w,
                    None => {
                        let w = (0..ways)
                            .min_by_key(|&w| self.table[set][w].as_ref().map_or(0, |e| e.lru))
                            .unwrap();
                        self.stats.table_replacements += 1;
                        self.stats.set_replacements[set] += 1;
                        self.evict(set, w, fl);
                        w
                    }
                };
                fl.retain(d.preg);
                self.table[set][way] = Some(RiEntry {
                    pc: inst.pc,
                    op: inst.op,
                    dst_arch: d.arch,
                    dst_preg: d.preg,
                    src_pregs: inst.src_pregs,
                    is_load: inst.is_load,
                    load_addr: inst.load_addr,
                    lru: self.tick,
                });
                self.stats.entries_logged += 1;
            }
            self.stats.streams_captured += 1;
        }

        fn try_reuse(&mut self, pc: Pc, srcs: [Option<PhysReg>; 2]) -> Option<PhysReg> {
            self.stats.reuse_tests += 1;
            self.tick += 1;
            let set = self.set_index(pc);
            let hit = self.table[set].iter().position(|e| {
                e.as_ref().is_some_and(|e| {
                    e.pc == pc
                        && e.op == Opcode::Add
                        && e.dst_arch == ArchReg::A0
                        && e.src_pregs == srcs
                })
            });
            let Some(way) = hit else {
                self.stats.reuse_fail_stale += 1;
                return None;
            };
            let e = self.table[set][way].take().unwrap();
            self.stats.reuse_grants += 1;
            if srcs == [None, None] {
                self.stats.ri_no_src_grants += 1;
            }
            if e.is_load {
                self.stats.reused_loads += 1;
            }
            Some(e.dst_preg)
        }
    }

    /// Allocation order: the sequence the free list would hand out.
    fn alloc_order(fl: &FreeList) -> Vec<PhysReg> {
        let mut fl = fl.clone();
        std::iter::from_fn(|| fl.alloc()).collect()
    }

    /// A random squash event of up to six instructions over `live`
    /// registers, allocating destinations from both free lists. Sources
    /// include duplicates and earlier destinations of the same event, so
    /// entries form dependence chains.
    fn random_event(
        rng: &mut crate::prop::Rng,
        live: &[PhysReg],
        fls: &mut [&mut FreeList],
    ) -> SquashEvent {
        let mut insts: Vec<mssr_sim::SquashedInst> = Vec::new();
        for _ in 0..rng.range(1, 7) {
            let allocs: Vec<_> = fls.iter_mut().map(|fl| fl.alloc()).collect();
            assert!(allocs.windows(2).all(|w| w[0] == w[1]), "allocation order diverged");
            let Some(dst) = allocs[0] else { break };
            let pick = |rng: &mut crate::prop::Rng| match rng.below(4) {
                0 => None,
                1 if !insts.is_empty() => insts[rng.range(0, insts.len())].dst.map(|d| d.preg),
                _ => Some(live[rng.range(0, live.len())]),
            };
            let a = pick(rng);
            let b = if rng.chance(1, 5) { a } else { pick(rng) };
            let mut i = sq_inst(0x1000 + 4 * rng.below(24), dst.index(), [None, None]);
            i.src_pregs = [a, b];
            i.executed = rng.chance(9, 10);
            i.is_load = rng.chance(1, 5);
            insts.push(i);
        }
        event(insts)
    }

    /// The pipeline's side of a squash: it drops its own hold on every
    /// squashed destination and reports registers that became free.
    fn release_squashed(
        ev: &SquashEvent,
        fl: &mut FreeList,
        mut freed: impl FnMut(PhysReg, &mut FreeList),
    ) {
        for d in ev.insts.iter().filter_map(|i| i.dst) {
            fl.release(d.preg);
            if fl.holds(d.preg) == 0 {
                freed(d.preg, fl);
            }
        }
    }

    /// Differential test of the reverse index: the engine and the
    /// full-scan [`Model`] see the same random hook sequence and must
    /// agree after every step on free-list holds, allocation order,
    /// occupancy and statistics. Checkpoint steps move the engine's
    /// state into a fresh engine dirtied with other entries, so a
    /// reverse index that is not rebuilt from the loaded table shows.
    #[test]
    fn reverse_index_matches_full_scan_model() {
        crate::prop::for_each_case("ri-reverse-index", 48, 0x5249_4e44, |rng| {
            const REGS: usize = 48;
            let sets = [1, 3, 4, 37][rng.range(0, 4)];
            let ways = [1, 2, 4][rng.range(0, 3)];
            let cfg = RiConfig::default().with_sets(sets).with_ways(ways);
            let mut ri = RegisterIntegration::new(cfg);
            let mut model = Model::new(sets, ways);
            let mut fl = FreeList::new(REGS, 8);
            let mut flm = fl.clone();
            let mut live: Vec<PhysReg> = (0..8).map(PhysReg::new).collect();
            let mut reset = false;
            let inst = mssr_isa::Inst::alu_rr(Opcode::Add, ArchReg::A0, ArchReg::A1, ArchReg::A2);
            for step in 0..160 {
                match rng.below(20) {
                    0..=2 if live.len() < 24 => {
                        let (p, q) = (fl.alloc(), flm.alloc());
                        assert_eq!(p, q, "allocation order diverged");
                        live.extend(p);
                    }
                    0..=7 => {
                        let ev = random_event(rng, &live, &mut [&mut fl, &mut flm]);
                        ri.on_mispredict_squash(&ev, &mut ctx(&mut fl, &mut reset));
                        model.squash(&ev, &mut flm);
                        release_squashed(&ev, &mut fl, |p, fl| {
                            ri.on_preg_freed(p, &mut ctx(fl, &mut reset))
                        });
                        release_squashed(&ev, &mut flm, |p, fl| {
                            model.invalidate_referencing(p, fl)
                        });
                    }
                    8..=11 => {
                        // Mostly a query that matches a valid entry.
                        let valid: Vec<_> = model.table.iter().flatten().flatten().collect();
                        let (pc, srcs) = match valid.len() {
                            n if n > 0 && rng.chance(3, 4) => {
                                let e = valid[rng.range(0, n)];
                                (e.pc.addr(), e.src_pregs)
                            }
                            _ => (0x1000 + 4 * rng.below(24), [Some(live[0]), None]),
                        };
                        let q = ReuseQuery {
                            seq: SeqNum::new(1000),
                            pc: Pc::new(pc),
                            inst: &inst,
                            src_rgids: [None, None],
                            src_pregs: srcs,
                        };
                        let g = ri.try_reuse(&q, &mut ctx(&mut fl, &mut reset)).map(|g| g.preg);
                        assert_eq!(g, model.try_reuse(Pc::new(pc), srcs), "grant diverged");
                        // The entry's hold now backs a live mapping.
                        live.extend(g);
                    }
                    12..=15 if live.len() > 1 => {
                        let p = live.swap_remove(rng.range(0, live.len()));
                        fl.release(p);
                        flm.release(p);
                        if fl.holds(p) == 0 {
                            ri.on_preg_freed(p, &mut ctx(&mut fl, &mut reset));
                            model.invalidate_referencing(p, &mut flm);
                        }
                    }
                    16 => {
                        ri.on_flush(FlushKind::ReuseVerification, &mut ctx(&mut fl, &mut reset));
                        model.clear(&mut flm);
                    }
                    17 => {
                        ri.on_register_pressure(&mut ctx(&mut fl, &mut reset));
                        model.stats.pressure_reclaims += 1;
                        model.clear(&mut flm);
                    }
                    18 => {
                        let mut w = CkptWriter::new();
                        ri.ckpt_save(&mut w);
                        let bytes = w.finish();
                        // Dirty a fresh engine against a throwaway free
                        // list, then load the saved state over it.
                        let mut spare = fl.clone();
                        let mut dirty = RegisterIntegration::new(cfg);
                        for _ in 0..3 {
                            let ev = random_event(rng, &live, &mut [&mut spare]);
                            dirty.on_mispredict_squash(&ev, &mut ctx(&mut spare, &mut reset));
                        }
                        let mut r = CkptReader::new(&bytes);
                        dirty.ckpt_load(&mut r).expect("round trip");
                        r.done().expect("fully consumed");
                        let mut again = CkptWriter::new();
                        dirty.ckpt_save(&mut again);
                        assert!(again.finish() == bytes, "step {step}: re-save moved bytes");
                        ri = dirty;
                    }
                    _ => {}
                }
                let at = format!("step {step} ({sets}x{ways})");
                for i in 0..REGS {
                    let p = PhysReg::new(i);
                    assert_eq!(fl.holds(p), flm.holds(p), "{at}: holds of {p}");
                }
                assert_eq!(alloc_order(&fl), alloc_order(&flm), "{at}: allocation order");
                assert_eq!(ri.occupancy(), model.occupancy(), "{at}: occupancy");
                assert_eq!(ri.reserved_hold_count(), model.occupancy() as u64, "{at}: holds");
                assert_eq!(ri.stats(), model.stats(), "{at}: stats");
            }
        });
    }

    #[test]
    fn set_index_wraps_pc() {
        let ri = RegisterIntegration::new(RiConfig::default().with_sets(64));
        assert_eq!(ri.set_index(Pc::new(0x1000)), ri.set_index(Pc::new(0x1000 + 64 * 4)));
        assert_ne!(ri.set_index(Pc::new(0x1000)), ri.set_index(Pc::new(0x1004)));
    }
}
