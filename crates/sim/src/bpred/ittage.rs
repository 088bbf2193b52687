//! An ITTAGE-style indirect-target predictor: tagged tables indexed by
//! a folded target-path history over the last-target BTB base.
//!
//! Like the BTB it replaces in the prediction chain, every mutable
//! structure (tables, base BTB, path history) is updated only at
//! `update` time — the writeback-order resolved-target stream, wrong
//! paths included — so prediction stays a pure read and the predictor
//! needs no per-instruction recovery token beyond the RAS counter the
//! pipeline already snapshots.

use mssr_isa::Pc;

use crate::ckpt::{fnv1a64, CkptError, CkptReader, CkptWriter};
use crate::config::SimConfig;

use super::tage::{Btb, FoldHash};
use super::{in_range, IndirectPredictor, OracleFeed};

/// Path-history lengths (bits) of the tagged target tables.
const IT_HISTS: [u32; 3] = [4, 8, 16];

#[derive(Clone, Debug)]
struct ItEntry {
    tag: u16,
    target: Pc,
    /// 2-bit replacement confidence.
    conf: u8,
}

/// The ITTAGE tables' hash: 10-bit tags.
type ItHash = FoldHash<2, 1, 3, 10>;

#[derive(Clone, Debug)]
struct ItTable {
    entries: Vec<Option<ItEntry>>,
    hash: ItHash,
}

/// The ITTAGE indirect predictor.
#[derive(Clone, Debug)]
pub(crate) struct Ittage {
    btb: Btb,
    tables: Vec<ItTable>,
    /// Target-path history, shifted at each resolved indirect target.
    hist: u64,
}

impl Ittage {
    pub(crate) fn new(cfg: &SimConfig) -> Ittage {
        Ittage {
            btb: Btb::new(cfg),
            tables: IT_HISTS
                .iter()
                .map(|&hist_len| ItTable {
                    entries: vec![None; cfg.btb_entries],
                    hash: ItHash::new(hist_len, cfg.btb_entries),
                })
                .collect(),
            hist: 0,
        }
    }

    /// Each table's `(index, tag)` for `pc` under the current path
    /// history: one fold per table.
    fn slots(&self, pc: u64) -> [(usize, u16); IT_HISTS.len()] {
        std::array::from_fn(|i| {
            let h = &self.tables[i].hash;
            h.slot(pc, h.fold(self.hist))
        })
    }

    /// The longest tag-matching table, if any.
    fn provider(&self, slots: &[(usize, u16)]) -> Option<usize> {
        (0..self.tables.len()).rev().find(|&i| {
            let (idx, tag) = slots[i];
            self.tables[i].entries[idx].as_ref().is_some_and(|e| e.tag == tag)
        })
    }
}

impl IndirectPredictor for Ittage {
    fn predict(&mut self, pc: Pc, _feed: Option<&OracleFeed>) -> Option<Pc> {
        let slots = self.slots(pc.addr());
        match self.provider(&slots) {
            Some(i) => self.tables[i].entries[slots[i].0].as_ref().map(|e| e.target),
            None => self.btb.lookup(pc),
        }
    }

    fn update(&mut self, pc: Pc, target: Pc) {
        let slots = self.slots(pc.addr());
        let provider = self.provider(&slots);
        let correct = match provider {
            Some(i) => {
                self.tables[i].entries[slots[i].0].as_ref().is_some_and(|e| e.target == target)
            }
            None => self.btb.lookup(pc) == Some(target),
        };
        if let Some(i) = provider {
            if let Some(e) = self.tables[i].entries[slots[i].0].as_mut() {
                if e.target == target {
                    e.conf = (e.conf + 1).min(3);
                } else if e.conf == 0 {
                    e.target = target;
                } else {
                    e.conf -= 1;
                }
            }
        }
        if !correct {
            // Allocate a longer-history entry, evicting only
            // zero-confidence residents; decay confidence when every
            // candidate slot is defended (mirrors TAGE allocation).
            let start = provider.map_or(0, |i| i + 1);
            let mut allocated = false;
            for (t, &(idx, tag)) in self.tables.iter_mut().zip(&slots).skip(start) {
                let slot = &mut t.entries[idx];
                match slot {
                    None => {
                        *slot = Some(ItEntry { tag, target, conf: 0 });
                        allocated = true;
                        break;
                    }
                    Some(e) if e.conf == 0 => {
                        *e = ItEntry { tag, target, conf: 0 };
                        allocated = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            if !allocated {
                for (t, &(idx, _)) in self.tables.iter_mut().zip(&slots).skip(start) {
                    if let Some(e) = t.entries[idx].as_mut() {
                        e.conf = e.conf.saturating_sub(1);
                    }
                }
            }
        }
        self.btb.record(pc, target);
        self.hist = (self.hist << 2) ^ (target.addr() >> 2);
    }

    fn digest(&self) -> u64 {
        let mut w = CkptWriter::new();
        self.save_state(&mut w);
        fnv1a64(&w.finish())
    }

    fn save_state(&self, w: &mut CkptWriter) {
        self.btb.save_state(w);
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
                        w.pc(e.target);
                        w.u8(e.conf);
                    }
                }
            }
        }
        w.u64(self.hist);
    }

    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.btb.load_state(r)?;
        let nt = r.seq_len(13)?;
        if nt != self.tables.len() {
            return Err(CkptError::Corrupt(format!(
                "{nt} ITTAGE tables in checkpoint, {} configured",
                self.tables.len()
            )));
        }
        for t in &mut self.tables {
            let hist_len = r.u32()?;
            if hist_len != t.hash.hist_len() {
                return Err(CkptError::Corrupt(format!(
                    "ITTAGE history length {hist_len} in checkpoint, {} configured",
                    t.hash.hist_len()
                )));
            }
            let ne = r.seq_len(1)?;
            if ne != t.entries.len() {
                return Err(CkptError::Corrupt(format!(
                    "{ne} ITTAGE entries in checkpoint, {} configured",
                    t.entries.len()
                )));
            }
            for (i, e) in t.entries.iter_mut().enumerate() {
                *e = if r.bool()? {
                    Some(ItEntry {
                        tag: in_range("ITTAGE tag", i, r.u16()?, 0..=ItHash::TAG_MAX)?,
                        target: r.pc()?,
                        conf: in_range("ITTAGE confidence", i, r.u8()?, 0..=3)?,
                    })
                } else {
                    None
                };
            }
        }
        self.hist = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p`'s checkpoint, loaded into a fresh predictor.
    fn reload(p: &Ittage) -> Result<(), CkptError> {
        let mut w = CkptWriter::new();
        p.save_state(&mut w);
        Ittage::new(&SimConfig::default()).load_state(&mut CkptReader::new(&w.finish()))
    }

    #[test]
    fn load_refuses_out_of_range_confidence_and_tags() {
        let entry = |tag, conf| Some(ItEntry { tag, target: Pc::new(0x40), conf });
        let mut p = Ittage::new(&SimConfig::default());
        p.tables[1].entries[6] = entry(ItHash::TAG_MAX, 3);
        assert_eq!(reload(&p), Ok(()));
        p.tables[1].entries[6] = entry(0, 4);
        assert_eq!(
            reload(&p),
            Err(CkptError::Corrupt("ITTAGE confidence 4 at entry 6 is outside 0..=3".into()))
        );
        p.tables[1].entries[6] = entry(ItHash::TAG_MAX + 1, 0);
        assert_eq!(
            reload(&p),
            Err(CkptError::Corrupt("ITTAGE tag 1024 at entry 6 is outside 0..=1023".into()))
        );
    }
}
