//! The default conditional predictor (bimodal base + TAGE overriding
//! tables, as in the paper's XiangShan-style frontend) and the
//! last-target BTB used as the default indirect predictor.

use mssr_isa::Pc;

use crate::ckpt::{fnv1a64, CkptError, CkptReader, CkptWriter};
use crate::config::SimConfig;

use super::{in_range, CondPredictor, IndirectPredictor, OracleFeed, PredMeta};

#[derive(Clone, Debug)]
pub(crate) struct TageEntry {
    pub(crate) tag: u16,
    /// 3-bit signed counter; taken when >= 0.
    pub(crate) ctr: i8,
    /// 2-bit useful counter.
    pub(crate) useful: u8,
}

/// How a tagged table turns `(pc, history)` into a slot: the low
/// `hist_len` history bits are XOR-folded into chunks the width of the
/// index space, and that one fold yields both the index and the tag.
/// The const parameters are the hash shifts and the tag width, so TAGE
/// and ITTAGE share the fold while keeping their own hashes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FoldHash<
    const IDX_SHL: u32,
    const TAG_SHR: u32,
    const TAG_SHL: u32,
    const TAG_BITS: u32,
> {
    hist_len: u32,
    /// History bits folded: `hist_len` capped at the 64-bit register.
    len: u32,
    /// Fold width: log2 of the table size, at least 1.
    width: u32,
    /// `(1 << width) - 1`.
    mask: u64,
    /// Where the bit leaving the window lands in a rotated fold:
    /// `len % width`, precomputed so [`FoldHash::shift`] never divides.
    out_pos: u32,
    /// Table size minus one.
    index_mask: usize,
}

impl<const IDX_SHL: u32, const TAG_SHR: u32, const TAG_SHL: u32, const TAG_BITS: u32>
    FoldHash<IDX_SHL, TAG_SHR, TAG_SHL, TAG_BITS>
{
    /// The largest tag this hash produces.
    pub(crate) const TAG_MAX: u16 = ((1u32 << TAG_BITS) - 1) as u16;

    /// The hash of a table of `entries` (a power of two) slots over
    /// `hist_len` history bits.
    pub(crate) fn new(hist_len: u32, entries: usize) -> Self {
        assert!(hist_len > 0, "a tagged table needs at least one history bit");
        let len = hist_len.min(64);
        let width = (usize::BITS - (entries - 1).leading_zeros()).max(1);
        FoldHash {
            hist_len,
            len,
            width,
            mask: (1u64 << width) - 1,
            out_pos: len % width,
            index_mask: entries - 1,
        }
    }

    /// The configured history length (part of the checkpoint identity).
    pub(crate) fn hist_len(&self) -> u32 {
        self.hist_len
    }

    /// Folds the low `len` bits of `hist` into `width` bits.
    pub(crate) fn fold(&self, hist: u64) -> u64 {
        let mut rest = if self.len >= 64 { hist } else { hist & ((1u64 << self.len) - 1) };
        let mut folded = 0u64;
        while rest != 0 {
            folded ^= rest & self.mask;
            rest >>= self.width;
        }
        folded
    }

    /// The fold of `(hist << 1) | bit`, given `f = fold(hist)`: rotate
    /// the fold left by one, insert `bit` at position 0, and cancel the
    /// bit that left the window, which the rotation carried to
    /// `out_pos`. O(1), with no division.
    pub(crate) fn shift(&self, f: u64, hist: u64, bit: bool) -> u64 {
        let rotated = ((f << 1) | (f >> (self.width - 1))) & self.mask;
        let out = (hist >> (self.len - 1)) & 1;
        rotated ^ u64::from(bit) ^ (out << self.out_pos)
    }

    /// `(index, tag)` of `pc` under the history whose fold is `f`.
    pub(crate) fn slot(&self, pc: u64, f: u64) -> (usize, u16) {
        let p = pc >> 2;
        let index = (p ^ f ^ (f << IDX_SHL) ^ u64::from(self.hist_len)) as usize & self.index_mask;
        let tag = ((p ^ (f >> TAG_SHR) ^ (f << TAG_SHL)) & u64::from(Self::TAG_MAX)) as u16;
        (index, tag)
    }
}

/// The TAGE tables' hash: 8-bit tags.
pub(crate) type TageHash = FoldHash<3, 2, 1, 8>;

#[derive(Clone, Debug)]
pub(crate) struct TageTable {
    pub(crate) entries: Vec<Option<TageEntry>>,
    hash: TageHash,
    /// Fold of the current speculative history. Derived state: kept in
    /// step by every history change, rebuilt on restore, never
    /// checkpointed.
    fold: u64,
}

/// The TAGE + bimodal conditional predictor — the behavior-preserving
/// extraction of the original `BranchPredictor` monolith's conditional
/// half. The global history register is updated *speculatively* at
/// prediction time; [`PredMeta`] carries the pre-prediction snapshot so
/// squashes restore it exactly and training replays the same indices.
///
/// Each table keeps the fold of the current history, so a prediction
/// probes without folding; training under an older history (commit
/// time) folds it at most once per table.
#[derive(Clone, Debug)]
pub(crate) struct TageCond {
    bimodal: Vec<u8>,
    tables: Vec<TageTable>,
    ghr: u64,
    /// Deterministic tie-break counter for TAGE allocation.
    alloc_seed: u64,
    /// Per-table `(index, tag)` of the history being trained, filled by
    /// the probe so allocation reuses it (scratch; never checkpointed).
    slots: Vec<(usize, u16)>,
}

impl TageCond {
    pub(crate) fn new(cfg: &SimConfig) -> TageCond {
        let hist_lens = geometric_histories(cfg.tage_tables);
        TageCond {
            bimodal: vec![2; cfg.bimodal_entries], // weakly taken
            tables: hist_lens
                .into_iter()
                .map(|hist_len| TageTable {
                    entries: vec![None; cfg.tage_entries],
                    hash: TageHash::new(hist_len, cfg.tage_entries),
                    fold: 0,
                })
                .collect(),
            ghr: 0,
            alloc_seed: 0x9e3779b97f4a7c15,
            slots: vec![(0, 0); cfg.tage_tables],
        }
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        (pc >> 2) as usize & (self.bimodal.len() - 1)
    }

    /// Finds the longest-history hitting table at `(pc, ghr)`, if any;
    /// returns `(table_index, prediction)`. `visit` sees the slot of
    /// every table probed, longest history first. Uses the maintained
    /// folds when `ghr` is the current history, else folds `ghr` once
    /// per probed table.
    fn lookup(
        &self,
        pc: u64,
        ghr: u64,
        mut visit: impl FnMut(usize, (usize, u16)),
    ) -> Option<(usize, bool)> {
        let current = ghr == self.ghr;
        for (i, t) in self.tables.iter().enumerate().rev() {
            let f = if current { t.fold } else { t.hash.fold(ghr) };
            let (idx, tag) = t.hash.slot(pc, f);
            visit(i, (idx, tag));
            if let Some(e) = &t.entries[idx] {
                if e.tag == tag {
                    return Some((i, e.ctr >= 0));
                }
            }
        }
        None
    }

    /// The pure prediction at `(pc, ghr)` — the TAGE provider if any
    /// table hits, the bimodal counter otherwise. Reads only.
    pub(crate) fn pred_at(&self, pc: u64, ghr: u64) -> bool {
        match self.lookup(pc, ghr, |_, _| {}) {
            Some((_, p)) => p,
            None => self.bimodal[self.bimodal_index(pc)] >= 2,
        }
    }

    /// The current speculative history (exposed so composing predictors
    /// like TAGE-SC-L can share one history register).
    pub(crate) fn ghr(&self) -> u64 {
        self.ghr
    }

    /// Shifts an outcome into the speculative history, updating each
    /// table's fold in O(1).
    pub(crate) fn shift_history(&mut self, bit: bool) {
        let old = self.ghr;
        self.ghr = (old << 1) | u64::from(bit);
        for t in &mut self.tables {
            t.fold = t.hash.shift(t.fold, old, bit);
        }
    }

    /// Sets the speculative history, refolding every table once unless
    /// it is unchanged.
    fn set_history(&mut self, ghr: u64) {
        if ghr != self.ghr {
            self.ghr = ghr;
            self.refold();
        }
    }

    /// Rebuilds every table's fold from the history register.
    fn refold(&mut self) {
        for t in &mut self.tables {
            t.fold = t.hash.fold(self.ghr);
        }
    }

    /// Trains with the outcome of the branch at `a` predicted under
    /// history `ghr`, and returns the pre-training prediction at
    /// `(a, ghr)` (what [`TageCond::pred_at`] returned), so a composing
    /// predictor needs no second lookup.
    pub(crate) fn train_at(&mut self, a: u64, taken: bool, ghr: u64) -> bool {
        let mut slots = std::mem::take(&mut self.slots);
        let provider = self.lookup(a, ghr, |i, s| slots[i] = s);
        self.slots = slots;
        // Bimodal update (always).
        let bi = self.bimodal_index(a);
        let c = &mut self.bimodal[bi];
        let bimodal_pred = *c >= 2;
        *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };

        let correct = match provider {
            Some((_, p)) => p == taken,
            None => (self.bimodal[bi] >= 2) == taken,
        };
        if let Some((ti, _)) = provider {
            let idx = self.slots[ti].0;
            if let Some(e) = self.tables[ti].entries[idx].as_mut() {
                e.ctr = if taken { (e.ctr + 1).min(3) } else { (e.ctr - 1).max(-4) };
                if correct {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        // Allocate a longer-history entry on a misprediction. The probe
        // visited every table from the provider up, so their slots are
        // already in `self.slots`.
        if !correct {
            let start = provider.map_or(0, |(ti, _)| ti + 1);
            self.alloc_seed = self.alloc_seed.wrapping_mul(0xd1342543de82ef95).wrapping_add(1);
            let mut allocated = false;
            for (t, &(idx, tag)) in self.tables.iter_mut().zip(&self.slots).skip(start) {
                let slot = &mut t.entries[idx];
                match slot {
                    None => {
                        *slot = Some(TageEntry { tag, ctr: if taken { 0 } else { -1 }, useful: 0 });
                        allocated = true;
                        break;
                    }
                    Some(e) if e.useful == 0 => {
                        *e = TageEntry { tag, ctr: if taken { 0 } else { -1 }, useful: 0 };
                        allocated = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            if !allocated {
                // Decay usefulness so future allocations can succeed.
                for (t, &(idx, _)) in self.tables.iter_mut().zip(&self.slots).skip(start) {
                    if let Some(e) = t.entries[idx].as_mut() {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }
        provider.map_or(bimodal_pred, |(_, p)| p)
    }
}

impl CondPredictor for TageCond {
    fn predict(&mut self, pc: Pc, _feed: Option<&OracleFeed>) -> (bool, PredMeta) {
        let meta = PredMeta { ghr_before: self.ghr };
        let pred = self.pred_at(pc.addr(), self.ghr);
        self.shift_history(pred);
        (pred, meta)
    }

    fn recover(&mut self, meta: PredMeta, actual_taken: bool) {
        let ghr = (meta.ghr_before << 1) | u64::from(actual_taken);
        if ghr ^ self.ghr == 1 {
            // Right after its own prediction: only the newest bit flips,
            // and the newest bit sits at bit 0 of every fold.
            self.ghr = ghr;
            for t in &mut self.tables {
                t.fold ^= 1;
            }
        } else {
            self.set_history(ghr);
        }
    }

    fn train(&mut self, pc: Pc, taken: bool, meta: PredMeta) {
        self.train_at(pc.addr(), taken, meta.ghr_before);
    }

    /// `predict` writes no table and `recover` changes only the history,
    /// so predict → recover → train is one training lookup under the
    /// current history followed by shifting in the outcome.
    fn warm(&mut self, pc: Pc, taken: bool, _feed: Option<&OracleFeed>) {
        self.train_at(pc.addr(), taken, self.ghr);
        self.shift_history(taken);
    }

    fn history(&self) -> u64 {
        self.ghr
    }

    fn restore_history(&mut self, ghr: u64) {
        self.set_history(ghr);
    }

    fn occupancy(&self) -> (usize, usize) {
        let tage = self.tables.iter().map(|t| t.entries.iter().flatten().count()).sum();
        let bimodal = self.bimodal.iter().filter(|&&c| c != 2).count();
        (tage, bimodal)
    }

    fn save_state(&self, w: &mut CkptWriter) {
        w.u64(self.bimodal.len() as u64);
        for &c in &self.bimodal {
            w.u8(c);
        }
        w.u64(self.tables.len() as u64);
        for t in &self.tables {
            w.u32(t.hash.hist_len());
            w.u64(t.entries.len() as u64);
            for e in &t.entries {
                match e {
                    None => w.bool(false),
                    Some(e) => {
                        w.bool(true);
                        w.u16(e.tag);
                        w.i8(e.ctr);
                        w.u8(e.useful);
                    }
                }
            }
        }
        w.u64(self.ghr);
        w.u64(self.alloc_seed);
    }

    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let nb = r.seq_len(1)?;
        if nb != self.bimodal.len() {
            return Err(CkptError::Corrupt(format!(
                "{nb} bimodal counters in checkpoint, {} configured",
                self.bimodal.len()
            )));
        }
        for (i, c) in self.bimodal.iter_mut().enumerate() {
            *c = in_range("bimodal counter", i, r.u8()?, 0..=3)?;
        }
        let nt = r.seq_len(13)?;
        if nt != self.tables.len() {
            return Err(CkptError::Corrupt(format!(
                "{nt} TAGE tables in checkpoint, {} configured",
                self.tables.len()
            )));
        }
        for t in &mut self.tables {
            let hist_len = r.u32()?;
            if hist_len != t.hash.hist_len() {
                return Err(CkptError::Corrupt(format!(
                    "TAGE history length {hist_len} in checkpoint, {} configured",
                    t.hash.hist_len()
                )));
            }
            let ne = r.seq_len(1)?;
            if ne != t.entries.len() {
                return Err(CkptError::Corrupt(format!(
                    "{ne} TAGE entries in checkpoint, {} configured",
                    t.entries.len()
                )));
            }
            for (i, e) in t.entries.iter_mut().enumerate() {
                *e = if r.bool()? {
                    Some(TageEntry {
                        tag: in_range("TAGE tag", i, r.u16()?, 0..=TageHash::TAG_MAX)?,
                        ctr: in_range("TAGE counter", i, r.i8()?, -4..=3)?,
                        useful: in_range("TAGE useful counter", i, r.u8()?, 0..=3)?,
                    })
                } else {
                    None
                };
            }
        }
        self.ghr = r.u64()?;
        self.refold();
        self.alloc_seed = r.u64()?;
        Ok(())
    }
}

/// The last-target BTB — the default indirect predictor. Updated at
/// writeback (wrong paths included), which is the pinned divergence the
/// warmup-fidelity tests document.
#[derive(Clone, Debug)]
pub(crate) struct Btb {
    entries: Vec<Option<(u64, Pc)>>,
}

impl Btb {
    pub(crate) fn new(cfg: &SimConfig) -> Btb {
        Btb { entries: vec![None; cfg.btb_entries] }
    }

    /// The pure BTB lookup (shared by the trait path and composing
    /// predictors like ITTAGE, which use the BTB as their base table).
    pub(crate) fn lookup(&self, pc: Pc) -> Option<Pc> {
        let idx = (pc.addr() >> 2) as usize & (self.entries.len() - 1);
        match self.entries[idx] {
            Some((tag, target)) if tag == pc.addr() => Some(target),
            _ => None,
        }
    }

    /// Records a resolved target.
    pub(crate) fn record(&mut self, pc: Pc, target: Pc) {
        let idx = (pc.addr() >> 2) as usize & (self.entries.len() - 1);
        self.entries[idx] = Some((pc.addr(), target));
    }

    fn save_entries(&self, w: &mut CkptWriter) {
        for e in &self.entries {
            match e {
                None => w.bool(false),
                Some((tag, target)) => {
                    w.bool(true);
                    w.u64(*tag);
                    w.pc(*target);
                }
            }
        }
    }
}

impl IndirectPredictor for Btb {
    fn predict(&mut self, pc: Pc, _feed: Option<&OracleFeed>) -> Option<Pc> {
        self.lookup(pc)
    }

    fn update(&mut self, pc: Pc, target: Pc) {
        self.record(pc, target);
    }

    fn digest(&self) -> u64 {
        let mut w = CkptWriter::new();
        self.save_entries(&mut w);
        fnv1a64(&w.finish())
    }

    fn save_state(&self, w: &mut CkptWriter) {
        w.u64(self.entries.len() as u64);
        self.save_entries(w);
    }

    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let nbtb = r.seq_len(1)?;
        if nbtb != self.entries.len() {
            return Err(CkptError::Corrupt(format!(
                "{nbtb} BTB entries in checkpoint, {} configured",
                self.entries.len()
            )));
        }
        for e in &mut self.entries {
            *e = if r.bool()? { Some((r.u64()?, r.pc()?)) } else { None };
        }
        Ok(())
    }
}

/// Geometric history lengths for `n` tagged tables (4, 8, 16, … capped at 64).
pub(crate) fn geometric_histories(n: usize) -> Vec<u32> {
    (0..n).map(|i| (4u32 << i).min(64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{for_each_case, Rng};

    /// The fold as first written: XOR-combine `bits`-wide chunks of the
    /// low `hist_len` history bits, one chunk per `bits` of history.
    fn reference_fold(hist_len: u32, entries: usize, ghr: u64) -> u64 {
        let h = if hist_len >= 64 { ghr } else { ghr & ((1u64 << hist_len) - 1) };
        let bits = (usize::BITS - (entries - 1).leading_zeros()).max(1);
        let mut folded = 0u64;
        let mut rest = h;
        let mut taken = 0;
        while taken < hist_len {
            folded ^= rest & ((1u64 << bits) - 1);
            rest >>= bits;
            taken += bits;
        }
        folded
    }

    fn cfg(tables: usize, entries: usize) -> SimConfig {
        SimConfig {
            tage_tables: tables,
            tage_entries: entries,
            bimodal_entries: 64,
            ..SimConfig::default()
        }
    }

    /// Every table's maintained fold is the fold of the current history.
    fn assert_folds_current(p: &TageCond, step: &str) {
        for (i, t) in p.tables.iter().enumerate() {
            assert_eq!(t.fold, t.hash.fold(p.ghr), "table {i} fold stale after {step}");
        }
    }

    fn random_history(rng: &mut Rng) -> u64 {
        match rng.below(3) {
            0 => rng.next_u64(),
            1 => rng.below(16),
            _ => u64::MAX - rng.below(16),
        }
    }

    #[test]
    fn one_fold_gives_the_reference_index_and_tag() {
        for_each_case("one fold gives the reference index and tag", 256, 0x7461_6765_0001, |rng| {
            let entries = 1usize << rng.range(0, 13);
            let hist_len = [1, 4, 7, 8, 16, 32, 63, 64][rng.range(0, 8)];
            let hash = TageHash::new(hist_len, entries);
            for _ in 0..64 {
                let (pc, ghr) = (rng.next_u64(), random_history(rng));
                let f = reference_fold(hist_len, entries, ghr);
                assert_eq!(
                    hash.fold(ghr),
                    f,
                    "fold of {ghr:#x} (len {hist_len}, {entries} entries)"
                );
                let index = ((pc >> 2) ^ f ^ (f << 3) ^ hist_len as u64) as usize & (entries - 1);
                let tag = (((pc >> 2) ^ (f >> 2) ^ (f << 1)) & 0xff) as u16;
                assert_eq!(hash.slot(pc, f), (index, tag));
                let bit = rng.chance(1, 2);
                let shifted = (ghr << 1) | u64::from(bit);
                assert_eq!(
                    hash.shift(f, ghr, bit),
                    reference_fold(hist_len, entries, shifted),
                    "shift of {ghr:#x} by {bit} (len {hist_len}, {entries} entries)"
                );
            }
        });
    }

    /// Random predict / recover / restore / train / warm / load
    /// sequences, with many predictions in flight as in the pipeline:
    /// after every step the maintained folds equal a direct fold.
    #[test]
    fn maintained_folds_track_the_history() {
        for_each_case("maintained folds track the history", 128, 0x7461_6765_0002, |rng| {
            let cfg = cfg(rng.range(1, 8), 1 << rng.range(0, 11));
            let mut p = TageCond::new(&cfg);
            let mut in_flight: Vec<PredMeta> = Vec::new();
            let pcs: Vec<Pc> = (0..8).map(|_| Pc::new(rng.below(1 << 16) * 4)).collect();
            for _ in 0..rng.range(1, 400) {
                let pc = pcs[rng.range(0, pcs.len())];
                let step = match rng.below(7) {
                    0 | 1 => {
                        in_flight.push(p.predict(pc, None).1);
                        "predict"
                    }
                    2 if !in_flight.is_empty() => {
                        // Resolve the newest or an older in-flight branch.
                        let k = rng.range(0, in_flight.len());
                        p.recover(in_flight[k], rng.chance(1, 2));
                        in_flight.truncate(k + 1);
                        "recover"
                    }
                    3 => {
                        let h = match in_flight.pop() {
                            Some(m) if rng.chance(3, 4) => m.ghr_before,
                            _ => random_history(rng),
                        };
                        p.restore_history(h);
                        "restore"
                    }
                    4 if !in_flight.is_empty() => {
                        let m = in_flight.remove(0);
                        p.train(pc, rng.chance(1, 2), m);
                        "train"
                    }
                    5 => {
                        p.warm(pc, rng.chance(1, 2), None);
                        "warm"
                    }
                    6 => {
                        let mut w = CkptWriter::new();
                        p.save_state(&mut w);
                        let bytes = w.finish();
                        let mut q = TageCond::new(&cfg);
                        q.restore_history(random_history(rng));
                        q.load_state(&mut CkptReader::new(&bytes)).expect("round trip");
                        p = q;
                        "load"
                    }
                    _ => "nothing",
                };
                assert_folds_current(&p, step);
            }
        });
    }

    /// The checkpoint of a predictor whose first table's first entry is
    /// `e`, loaded into a fresh predictor.
    fn load_with_entry(e: TageEntry) -> Result<(), CkptError> {
        let cfg = cfg(2, 16);
        let mut p = TageCond::new(&cfg);
        p.tables[0].entries[0] = Some(e);
        let mut w = CkptWriter::new();
        p.save_state(&mut w);
        TageCond::new(&cfg).load_state(&mut CkptReader::new(&w.finish()))
    }

    #[test]
    fn load_refuses_out_of_range_bimodal_counters() {
        let cfg = cfg(2, 16);
        let mut p = TageCond::new(&cfg);
        p.bimodal[5] = 3;
        let mut w = CkptWriter::new();
        p.save_state(&mut w);
        let mut bytes = w.finish();
        assert_eq!(TageCond::new(&cfg).load_state(&mut CkptReader::new(&bytes)), Ok(()));
        bytes[8 + 5] = 255; // after the u64 counter count
        assert_eq!(
            TageCond::new(&cfg).load_state(&mut CkptReader::new(&bytes)),
            Err(CkptError::Corrupt("bimodal counter 255 at entry 5 is outside 0..=3".into()))
        );
    }

    #[test]
    fn load_refuses_out_of_range_tage_counters() {
        for ctr in [-4, 3] {
            assert_eq!(load_with_entry(TageEntry { tag: 0, ctr, useful: 0 }), Ok(()));
        }
        for (ctr, want) in [(i8::MIN, "-128"), (-5, "-5"), (4, "4")] {
            assert_eq!(
                load_with_entry(TageEntry { tag: 0, ctr, useful: 0 }),
                Err(CkptError::Corrupt(format!(
                    "TAGE counter {want} at entry 0 is outside -4..=3"
                )))
            );
        }
    }

    #[test]
    fn load_refuses_out_of_range_useful_counters() {
        assert_eq!(load_with_entry(TageEntry { tag: 0, ctr: 0, useful: 3 }), Ok(()));
        assert_eq!(
            load_with_entry(TageEntry { tag: 0, ctr: 0, useful: 4 }),
            Err(CkptError::Corrupt("TAGE useful counter 4 at entry 0 is outside 0..=3".into()))
        );
    }

    #[test]
    fn load_refuses_tags_wider_than_eight_bits() {
        assert_eq!(load_with_entry(TageEntry { tag: 0xff, ctr: 0, useful: 0 }), Ok(()));
        assert_eq!(
            load_with_entry(TageEntry { tag: 0x100, ctr: 0, useful: 0 }),
            Err(CkptError::Corrupt("TAGE tag 256 at entry 0 is outside 0..=255".into()))
        );
    }
}
