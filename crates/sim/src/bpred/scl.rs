//! A TAGE-SC-L-class conditional predictor: the stock TAGE + bimodal
//! predictor augmented with a loop predictor and a GEHL-style
//! statistical corrector.
//!
//! Both additions keep the digest-equality invariant the functional
//! warmup relies on: *prediction* is a pure read (plus the shared
//! speculative history shift the embedded TAGE already does), and every
//! piece of mutable corrector/loop state is updated only at `train`
//! time — i.e. in commit order, from `(pc, taken, meta.ghr_before)` —
//! so a functional fast-forward replays exactly the state a drained
//! detailed run reaches. The corrector's train rule re-derives the
//! TAGE component prediction from the commit-time tables rather than
//! carrying predict-time state, which is what makes the update a pure
//! function of the commit stream.

use mssr_isa::Pc;

use crate::ckpt::{CkptError, CkptReader, CkptWriter};
use crate::config::SimConfig;

use super::tage::TageCond;
use super::{in_range, CondPredictor, OracleFeed, PredMeta};

/// Number of loop-table entries (direct-mapped, tagged).
const LOOP_ENTRIES: usize = 128;
/// Loop confidence needed before the loop predictor overrides.
const LOOP_CONF: u8 = 3;
/// Per-table corrector weight count.
const SC_ENTRIES: usize = 1024;
/// History lengths (in GHR bits) of the corrector tables; `0` is the
/// PC-indexed bias table.
const SC_HISTS: [u32; 3] = [0, 8, 16];
/// Confidence margin the corrector sum must clear to flip the TAGE
/// prediction, and the update threshold of the GEHL train rule.
const SC_THETA: i32 = 6;
/// Weight clamp range.
const SC_MAX: i8 = 31;
const SC_MIN: i8 = -32;
/// Contribution of the TAGE component prediction to the corrector sum.
const SC_TAGE_BIAS: i32 = 8;

#[derive(Clone, Debug)]
struct LoopEntry {
    tag: u16,
    /// Learned trip count (taken iterations per loop execution).
    trip: u16,
    /// Taken iterations observed since the last exit (commit order).
    count: u16,
    /// Confidence that `trip` is stable (saturates at [`LOOP_CONF`]).
    conf: u8,
}

/// The TAGE-SC-L conditional predictor.
#[derive(Clone, Debug)]
pub(crate) struct SclCond {
    tage: TageCond,
    loops: Vec<Option<LoopEntry>>,
    /// Corrector weights, `SC_HISTS.len()` tables of [`SC_ENTRIES`] each.
    weights: Vec<i8>,
}

fn loop_index(pc: u64) -> usize {
    (pc >> 2) as usize & (LOOP_ENTRIES - 1)
}

/// Loop tags are 10 bits.
const LOOP_TAG_MAX: u16 = 0x3ff;

fn loop_tag(pc: u64) -> u16 {
    ((pc >> 2) >> 7) as u16 & LOOP_TAG_MAX
}

fn sc_index(table: usize, pc: u64, ghr: u64) -> usize {
    let hist = SC_HISTS[table];
    let h = if hist == 0 { 0 } else { ghr & ((1u64 << hist) - 1) };
    ((pc >> 2) ^ h ^ (h << 5) ^ (table as u64) << 3) as usize & (SC_ENTRIES - 1)
}

impl SclCond {
    pub(crate) fn new(cfg: &SimConfig) -> SclCond {
        SclCond {
            tage: TageCond::new(cfg),
            loops: vec![None; LOOP_ENTRIES],
            weights: vec![0; SC_HISTS.len() * SC_ENTRIES],
        }
    }

    /// The loop predictor's verdict at `pc`, when it has a confident
    /// trip count: taken while the committed iteration count is below
    /// the learned trip count. Pure read.
    fn loop_pred(&self, pc: u64) -> Option<bool> {
        let e = self.loops[loop_index(pc)].as_ref()?;
        (e.tag == loop_tag(pc) && e.conf >= LOOP_CONF).then_some(e.count < e.trip)
    }

    /// The corrector sum at `(pc, ghr)` given the TAGE component
    /// prediction. Pure read.
    fn sc_sum(&self, pc: u64, ghr: u64, tage_pred: bool) -> i32 {
        let mut sum = if tage_pred { SC_TAGE_BIAS } else { -SC_TAGE_BIAS };
        for t in 0..SC_HISTS.len() {
            sum += i32::from(self.weights[t * SC_ENTRIES + sc_index(t, pc, ghr)]);
        }
        sum
    }

    /// The combined prediction at `(pc, ghr)`: the loop predictor when
    /// confident, otherwise TAGE corrected by the statistical sum when
    /// the sum clears the confidence margin against it.
    fn combined_pred(&self, pc: u64, ghr: u64) -> bool {
        if let Some(p) = self.loop_pred(pc) {
            return p;
        }
        let tage_pred = self.tage.pred_at(pc, ghr);
        let sum = self.sc_sum(pc, ghr, tage_pred);
        if sum.abs() >= SC_THETA {
            sum >= 0
        } else {
            tage_pred
        }
    }

    /// Loop-table train step: count taken iterations, learn the trip
    /// count at each exit, and gain confidence when it repeats.
    fn loop_train(&mut self, pc: u64, taken: bool) {
        let idx = loop_index(pc);
        let tag = loop_tag(pc);
        match &mut self.loops[idx] {
            Some(e) if e.tag == tag => {
                if taken {
                    e.count = e.count.saturating_add(1);
                } else {
                    if e.trip > 0 && e.count == e.trip {
                        e.conf = (e.conf + 1).min(LOOP_CONF);
                    } else {
                        e.trip = e.count;
                        e.conf = u8::from(e.count > 0);
                    }
                    e.count = 0;
                }
            }
            slot => {
                // Allocate over an empty or zero-confidence slot only;
                // a confident resident entry is worth keeping.
                let fresh = LoopEntry { tag, trip: 0, count: u16::from(taken), conf: 0 };
                match slot {
                    None => *slot = Some(fresh),
                    Some(e) if e.conf == 0 => *e = fresh,
                    Some(_) => {}
                }
            }
        }
    }
}

impl CondPredictor for SclCond {
    fn predict(&mut self, pc: Pc, _feed: Option<&OracleFeed>) -> (bool, PredMeta) {
        let ghr = self.tage.ghr();
        let meta = PredMeta { ghr_before: ghr };
        let pred = self.combined_pred(pc.addr(), ghr);
        self.tage.shift_history(pred);
        (pred, meta)
    }

    fn recover(&mut self, meta: PredMeta, actual_taken: bool) {
        self.tage.recover(meta, actual_taken);
    }

    fn train(&mut self, pc: Pc, taken: bool, meta: PredMeta) {
        let a = pc.addr();
        let ghr = meta.ghr_before;
        // Everything the corrector needs is re-derived from pre-train
        // state, so the update order below is a pure function of the
        // commit stream. TAGE trains first and returns its pre-training
        // prediction; its training touches neither the corrector nor
        // the loop table, so one lookup serves both.
        let tage_pred = self.tage.train_at(a, taken, ghr);
        let sum = self.sc_sum(a, ghr, tage_pred);
        let sc_pred = if sum.abs() >= SC_THETA { sum >= 0 } else { tage_pred };
        if sc_pred != taken || sum.abs() < SC_THETA {
            for t in 0..SC_HISTS.len() {
                let w = &mut self.weights[t * SC_ENTRIES + sc_index(t, a, ghr)];
                *w = if taken { (*w + 1).min(SC_MAX) } else { (*w - 1).max(SC_MIN) };
            }
        }
        self.loop_train(a, taken);
    }

    fn history(&self) -> u64 {
        self.tage.history()
    }

    fn restore_history(&mut self, ghr: u64) {
        self.tage.restore_history(ghr);
    }

    fn occupancy(&self) -> (usize, usize) {
        self.tage.occupancy()
    }

    fn save_state(&self, w: &mut CkptWriter) {
        self.tage.save_state(w);
        w.u64(self.loops.len() as u64);
        for e in &self.loops {
            match e {
                None => w.bool(false),
                Some(e) => {
                    w.bool(true);
                    w.u16(e.tag);
                    w.u16(e.trip);
                    w.u16(e.count);
                    w.u8(e.conf);
                }
            }
        }
        w.u64(self.weights.len() as u64);
        for &v in &self.weights {
            w.i8(v);
        }
    }

    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.tage.load_state(r)?;
        let nl = r.seq_len(1)?;
        if nl != self.loops.len() {
            return Err(CkptError::Corrupt(format!(
                "{nl} loop entries in checkpoint, {} configured",
                self.loops.len()
            )));
        }
        for (i, e) in self.loops.iter_mut().enumerate() {
            *e = if r.bool()? {
                Some(LoopEntry {
                    tag: in_range("loop tag", i, r.u16()?, 0..=LOOP_TAG_MAX)?,
                    trip: r.u16()?,
                    count: r.u16()?,
                    conf: in_range("loop confidence", i, r.u8()?, 0..=LOOP_CONF)?,
                })
            } else {
                None
            };
        }
        let nw = r.seq_len(1)?;
        if nw != self.weights.len() {
            return Err(CkptError::Corrupt(format!(
                "{nw} corrector weights in checkpoint, {} configured",
                self.weights.len()
            )));
        }
        for (i, v) in self.weights.iter_mut().enumerate() {
            *v = in_range("corrector weight", i, r.i8()?, SC_MIN..=SC_MAX)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `p`'s checkpoint, loaded into a fresh predictor.
    fn reload(p: &SclCond) -> Result<(), CkptError> {
        let mut w = CkptWriter::new();
        p.save_state(&mut w);
        SclCond::new(&SimConfig::default()).load_state(&mut CkptReader::new(&w.finish()))
    }

    #[test]
    fn load_refuses_out_of_range_corrector_weights() {
        let mut p = SclCond::new(&SimConfig::default());
        p.weights[7] = SC_MIN;
        p.weights[8] = SC_MAX;
        assert_eq!(reload(&p), Ok(()));
        for (v, want) in [(SC_MAX + 1, "32"), (SC_MIN - 1, "-33"), (i8::MAX, "127")] {
            p.weights[7] = v;
            assert_eq!(
                reload(&p),
                Err(CkptError::Corrupt(format!(
                    "corrector weight {want} at entry 7 is outside -32..=31"
                )))
            );
        }
    }

    #[test]
    fn load_refuses_out_of_range_loop_entries() {
        let entry = |tag, conf| Some(LoopEntry { tag, trip: 9, count: 2, conf });
        let mut p = SclCond::new(&SimConfig::default());
        p.loops[3] = entry(LOOP_TAG_MAX, LOOP_CONF);
        assert_eq!(reload(&p), Ok(()));
        p.loops[3] = entry(0, LOOP_CONF + 1);
        assert_eq!(
            reload(&p),
            Err(CkptError::Corrupt("loop confidence 4 at entry 3 is outside 0..=3".into()))
        );
        p.loops[3] = entry(LOOP_TAG_MAX + 1, 0);
        assert_eq!(
            reload(&p),
            Err(CkptError::Corrupt("loop tag 1024 at entry 3 is outside 0..=1023".into()))
        );
    }
}
