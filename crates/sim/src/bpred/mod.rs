//! Branch prediction: a pluggable predictor lab behind one facade.
//!
//! The frontend talks to [`BranchPredictor`], which composes one
//! [`CondPredictor`] (conditional directions) and one
//! [`IndirectPredictor`] (`jalr` targets) selected by
//! [`BpredKind`] — enum dispatch, so the hot path stays zero-alloc and
//! monomorphizable. The conditional history register is updated
//! *speculatively* at prediction time: every prediction returns a
//! [`PredMeta`] snapshot of the pre-prediction history, the pipeline
//! stores it per in-flight branch, and squashes restore it exactly.
//! The oracle predictors reuse the same two recovery tokens (history
//! snapshot, RAS counter) as feed cursors — see [`OracleFeed`]. Tokens
//! and cursors count with wrapping arithmetic, so every `u64` a
//! checkpoint hands back is a legal state: at worst it mispredicts.
//!
//! | kind          | conditional            | indirect        |
//! |---------------|------------------------|-----------------|
//! | `tage`        | bimodal + TAGE         | BTB + RAS       |
//! | `tagescl`     | TAGE-SC-L              | BTB + RAS       |
//! | `ittage`      | bimodal + TAGE         | ITTAGE + RAS    |
//! | `alwayswrong` | inverted oracle        | BTB + RAS       |
//! | `oracle`      | oracle                 | oracle          |

mod ittage;
mod oracle;
mod scl;
mod tage;

use mssr_isa::Pc;

use crate::ckpt::{fnv1a64, CkptError, CkptReader, CkptWriter};
use crate::config::SimConfig;

pub use oracle::OracleFeed;

/// Snapshot of predictor state at prediction time.
///
/// Carried through the pipeline with each branch; passed back to
/// [`BranchPredictor::train_cond`] at commit and used to restore history
/// on a squash.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PredMeta {
    /// GHR value *before* this prediction shifted its outcome in (for
    /// the oracle-fed predictors: the feed cursor before this
    /// prediction consumed its slot).
    pub ghr_before: u64,
}

/// Which predictor pair the frontend runs — the `--bpred` axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BpredKind {
    /// Bimodal + TAGE conditional, BTB/RAS indirect (the default, and
    /// the behavior-preserving image of the original monolith).
    #[default]
    Tage,
    /// TAGE-SC-L conditional (loop predictor + statistical corrector),
    /// BTB/RAS indirect.
    TageScl,
    /// Bimodal + TAGE conditional, ITTAGE indirect.
    Ittage,
    /// Adversarial: every committed conditional branch mispredicts
    /// (oracle-fed inverted), BTB/RAS indirect.
    AlwaysWrong,
    /// Perfect conditional and indirect prediction from the
    /// architectural interpreter stream.
    Oracle,
}

impl BpredKind {
    /// Every kind, in sweep order.
    pub const ALL: [BpredKind; 5] = [
        BpredKind::Tage,
        BpredKind::TageScl,
        BpredKind::Ittage,
        BpredKind::AlwaysWrong,
        BpredKind::Oracle,
    ];

    /// The kind's `--bpred` name.
    pub fn name(self) -> &'static str {
        match self {
            BpredKind::Tage => "tage",
            BpredKind::TageScl => "tagescl",
            BpredKind::Ittage => "ittage",
            BpredKind::AlwaysWrong => "alwayswrong",
            BpredKind::Oracle => "oracle",
        }
    }

    /// Parses a `--bpred` name.
    pub fn parse(s: &str) -> Option<BpredKind> {
        BpredKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether this kind needs the architectural [`OracleFeed`].
    pub fn needs_feed(self) -> bool {
        matches!(self, BpredKind::AlwaysWrong | BpredKind::Oracle)
    }

    /// Checkpoint identity tag (belt-and-suspenders under the config
    /// hash already guarding restores).
    fn tag(self) -> u8 {
        match self {
            BpredKind::Tage => 0,
            BpredKind::TageScl => 1,
            BpredKind::Ittage => 2,
            BpredKind::AlwaysWrong => 3,
            BpredKind::Oracle => 4,
        }
    }
}

impl std::fmt::Display for BpredKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A conditional-direction predictor.
///
/// `predict` may mutate only speculative state recoverable through
/// [`PredMeta`] / `restore_history`; everything else must move at
/// `train` time (commit order) so functional warmup replays it exactly.
pub trait CondPredictor {
    /// Predicts the branch at `pc`, speculatively advancing history.
    fn predict(&mut self, pc: Pc, feed: Option<&OracleFeed>) -> (bool, PredMeta);
    /// Records the *actual* outcome after a misprediction of the branch
    /// that produced `meta` (the branch itself survives the squash).
    fn recover(&mut self, meta: PredMeta, actual_taken: bool);
    /// Trains with a retired branch outcome; `meta` must be that
    /// dynamic branch's prediction snapshot.
    fn train(&mut self, pc: Pc, taken: bool, meta: PredMeta);
    /// Warms the predictor with one architectural outcome, leaving
    /// exactly the state of `predict` → `recover` if wrong → `train`.
    fn warm(&mut self, pc: Pc, taken: bool, feed: Option<&OracleFeed>) {
        let (pred, meta) = self.predict(pc, feed);
        if pred != taken {
            self.recover(meta, taken);
        }
        self.train(pc, taken, meta);
    }
    /// The current speculative history (or feed cursor).
    fn history(&self) -> u64;
    /// Restores the speculative history (squash or probe undo).
    fn restore_history(&mut self, h: u64);
    /// `(tagged entries filled, base counters moved off reset)`.
    fn occupancy(&self) -> (usize, usize);
    /// Serializes the predictor state (checkpoint codec).
    fn save_state(&self, w: &mut CkptWriter);
    /// Restores state written by `save_state` of the same predictor
    /// under the same configuration.
    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError>;
}

/// An indirect-target (`jalr`) predictor.
pub trait IndirectPredictor {
    /// Predicts the target of the indirect jump at `pc`, if known.
    fn predict(&mut self, pc: Pc, feed: Option<&OracleFeed>) -> Option<Pc>;
    /// Records a resolved target (writeback order, wrong paths
    /// included).
    fn update(&mut self, pc: Pc, target: Pc);
    /// Digest of the predictor's target state.
    fn digest(&self) -> u64;
    /// Serializes the predictor state (checkpoint codec).
    fn save_state(&self, w: &mut CkptWriter);
    /// Restores state written by `save_state` of the same predictor
    /// under the same configuration.
    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError>;
}

/// A checkpointed predictor field, refused unless it lies in `range`,
/// the range its update rule keeps it in (so the next update cannot
/// overflow). `field` and `entry` name it in the error.
pub(crate) fn in_range<T: PartialOrd + std::fmt::Display>(
    field: &str,
    entry: usize,
    v: T,
    range: std::ops::RangeInclusive<T>,
) -> Result<T, CkptError> {
    if range.contains(&v) {
        Ok(v)
    } else {
        Err(CkptError::Corrupt(format!(
            "{field} {v} at entry {entry} is outside {}..={}",
            range.start(),
            range.end()
        )))
    }
}

/// Enum dispatch over the conditional predictors.
#[derive(Clone, Debug)]
enum CondDispatch {
    Tage(tage::TageCond),
    Scl(scl::SclCond),
    AlwaysWrong(oracle::AlwaysWrongCond),
    Oracle(oracle::OracleCond),
}

macro_rules! cond_each {
    ($self:expr, $p:ident => $e:expr) => {
        match $self {
            CondDispatch::Tage($p) => $e,
            CondDispatch::Scl($p) => $e,
            CondDispatch::AlwaysWrong($p) => $e,
            CondDispatch::Oracle($p) => $e,
        }
    };
}

impl CondPredictor for CondDispatch {
    fn predict(&mut self, pc: Pc, feed: Option<&OracleFeed>) -> (bool, PredMeta) {
        cond_each!(self, p => p.predict(pc, feed))
    }

    fn recover(&mut self, meta: PredMeta, actual_taken: bool) {
        cond_each!(self, p => p.recover(meta, actual_taken))
    }

    fn train(&mut self, pc: Pc, taken: bool, meta: PredMeta) {
        cond_each!(self, p => p.train(pc, taken, meta))
    }

    fn warm(&mut self, pc: Pc, taken: bool, feed: Option<&OracleFeed>) {
        cond_each!(self, p => p.warm(pc, taken, feed))
    }

    fn history(&self) -> u64 {
        cond_each!(self, p => p.history())
    }

    fn restore_history(&mut self, h: u64) {
        cond_each!(self, p => p.restore_history(h))
    }

    fn occupancy(&self) -> (usize, usize) {
        cond_each!(self, p => p.occupancy())
    }

    fn save_state(&self, w: &mut CkptWriter) {
        cond_each!(self, p => p.save_state(w))
    }

    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        cond_each!(self, p => p.load_state(r))
    }
}

/// Enum dispatch over the indirect predictors.
#[derive(Clone, Debug)]
enum IndirDispatch {
    Btb(tage::Btb),
    Ittage(ittage::Ittage),
    Oracle(oracle::OracleIndirect),
}

macro_rules! indir_each {
    ($self:expr, $p:ident => $e:expr) => {
        match $self {
            IndirDispatch::Btb($p) => $e,
            IndirDispatch::Ittage($p) => $e,
            IndirDispatch::Oracle($p) => $e,
        }
    };
}

impl IndirectPredictor for IndirDispatch {
    fn predict(&mut self, pc: Pc, feed: Option<&OracleFeed>) -> Option<Pc> {
        indir_each!(self, p => p.predict(pc, feed))
    }

    fn update(&mut self, pc: Pc, target: Pc) {
        indir_each!(self, p => p.update(pc, target))
    }

    fn digest(&self) -> u64 {
        indir_each!(self, p => p.digest())
    }

    fn save_state(&self, w: &mut CkptWriter) {
        indir_each!(self, p => p.save_state(w))
    }

    fn load_state(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        indir_each!(self, p => p.load_state(r))
    }
}

/// Return-address stack: a circular buffer indexed by a wrapping
/// top-of-stack counter, so squash recovery only restores the counter.
#[derive(Clone, Debug)]
struct Ras {
    entries: Vec<Pc>,
    sp: u64,
}

impl Ras {
    fn new(depth: usize) -> Ras {
        Ras { entries: vec![Pc::new(0); depth], sp: 0 }
    }

    fn push(&mut self, ret: Pc) {
        let idx = (self.sp % self.entries.len() as u64) as usize;
        self.entries[idx] = ret;
        self.sp = self.sp.wrapping_add(1);
    }

    fn pop(&mut self) -> Option<Pc> {
        if self.sp == 0 {
            return None;
        }
        self.sp -= 1;
        let idx = (self.sp % self.entries.len() as u64) as usize;
        Some(self.entries[idx])
    }
}

/// The frontend branch predictor facade: one conditional and one
/// indirect predictor (selected by [`SimConfig::bpred`]) plus the
/// return-address stack and, for the oracle-fed kinds, the
/// architectural feed.
///
/// # Example
///
/// ```
/// use mssr_sim::{BranchPredictor, SimConfig};
/// use mssr_isa::Pc;
///
/// let mut bp = BranchPredictor::new(&SimConfig::default());
/// let pc = Pc::new(0x1000);
/// // Train a strongly-taken branch and observe the prediction follow.
/// for _ in 0..16 {
///     let (_, meta) = bp.predict_cond(pc);
///     bp.train_cond(pc, true, meta);
/// }
/// let (pred, meta) = bp.predict_cond(pc);
/// assert!(pred);
/// // Undo the speculative history update from the probe prediction.
/// bp.restore_ghr(meta.ghr_before);
/// ```
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    kind: BpredKind,
    cond: CondDispatch,
    indir: IndirDispatch,
    ras: Ras,
    feed: Option<OracleFeed>,
}

impl BranchPredictor {
    /// Builds the predictor pair selected and sized by `cfg`.
    pub fn new(cfg: &SimConfig) -> BranchPredictor {
        let cond = match cfg.bpred {
            BpredKind::Tage | BpredKind::Ittage => CondDispatch::Tage(tage::TageCond::new(cfg)),
            BpredKind::TageScl => CondDispatch::Scl(scl::SclCond::new(cfg)),
            BpredKind::AlwaysWrong => CondDispatch::AlwaysWrong(oracle::AlwaysWrongCond::default()),
            BpredKind::Oracle => CondDispatch::Oracle(oracle::OracleCond::default()),
        };
        let indir = match cfg.bpred {
            BpredKind::Tage | BpredKind::TageScl | BpredKind::AlwaysWrong => {
                IndirDispatch::Btb(tage::Btb::new(cfg))
            }
            BpredKind::Ittage => IndirDispatch::Ittage(ittage::Ittage::new(cfg)),
            BpredKind::Oracle => IndirDispatch::Oracle(oracle::OracleIndirect::default()),
        };
        BranchPredictor { kind: cfg.bpred, cond, indir, ras: Ras::new(16), feed: None }
    }

    /// The configured predictor kind.
    pub fn kind(&self) -> BpredKind {
        self.kind
    }

    /// Whether this predictor still needs its [`OracleFeed`] installed
    /// (oracle-fed kind, no feed yet — the pipeline computes and
    /// installs it lazily before the first cycle).
    pub(crate) fn feed_pending(&self) -> bool {
        self.kind.needs_feed() && self.feed.is_none()
    }

    /// Installs the architectural feed (oracle-fed kinds only). The
    /// pipeline calls this lazily before the first cycle; tests driving
    /// the predictor directly install a hand-built
    /// [`OracleFeed::from_streams`] instead.
    pub fn install_feed(&mut self, feed: OracleFeed) {
        self.feed = Some(feed);
    }

    /// The installed feed, if any (test inspection).
    pub fn feed(&self) -> Option<&OracleFeed> {
        self.feed.as_ref()
    }

    /// Pushes a return address (speculatively, at call prediction).
    /// A no-op under the oracle indirect predictor, whose `jalr`
    /// cursor replaces the RAS.
    pub fn ras_push(&mut self, ret: Pc) {
        if matches!(self.indir, IndirDispatch::Oracle(_)) {
            return;
        }
        self.ras.push(ret);
    }

    /// Pops the predicted return address, or `None` when the stack is
    /// empty. The stack is a predictor: stale entries after deep
    /// recursion or imprecise recovery simply mispredict. Always `None`
    /// under the oracle indirect predictor, so return prediction falls
    /// through to the feed cursor.
    pub fn ras_pop(&mut self) -> Option<Pc> {
        if matches!(self.indir, IndirDispatch::Oracle(_)) {
            return None;
        }
        self.ras.pop()
    }

    /// Current top-of-stack counter (snapshotted per instruction for
    /// squash recovery). Under the oracle indirect predictor this is
    /// the feed cursor — same token, same recovery discipline.
    pub fn ras_sp(&self) -> u64 {
        match &self.indir {
            IndirDispatch::Oracle(o) => o.cursor(),
            _ => self.ras.sp,
        }
    }

    /// Restores the top-of-stack counter after a squash. Entry contents
    /// are not restored — occasional stale-entry mispredictions are the
    /// standard cost of counter-only RAS recovery.
    pub fn restore_ras_sp(&mut self, sp: u64) {
        match &mut self.indir {
            IndirDispatch::Oracle(o) => o.set_cursor(sp),
            _ => self.ras.sp = sp,
        }
    }

    /// Current speculative global history (feed cursor for the
    /// oracle-fed kinds).
    pub fn ghr(&self) -> u64 {
        self.cond.history()
    }

    /// Restores the speculative history (on squash or probe undo).
    pub fn restore_ghr(&mut self, ghr: u64) {
        self.cond.restore_history(ghr);
    }

    /// Predicts a conditional branch at `pc` and speculatively shifts the
    /// predicted outcome into the history. Returns the prediction and the
    /// metadata needed to train or undo it.
    pub fn predict_cond(&mut self, pc: Pc) -> (bool, PredMeta) {
        self.cond.predict(pc, self.feed.as_ref())
    }

    /// Records the *actual* outcome into the speculative history after a
    /// misprediction recovery: call with the GHR snapshot of the
    /// mispredicted branch.
    pub fn recover_cond(&mut self, meta: PredMeta, actual_taken: bool) {
        self.cond.recover(meta, actual_taken);
    }

    /// Trains the predictor with a retired branch outcome.
    ///
    /// `meta` must be the snapshot returned by the prediction for this
    /// dynamic branch so the same table indices are updated.
    pub fn train_cond(&mut self, pc: Pc, taken: bool, meta: PredMeta) {
        self.cond.train(pc, taken, meta);
    }

    /// Warms the conditional predictor with an architectural outcome
    /// (functional fast-forward): the state a detailed run reaches by
    /// predicting the branch, recovering if wrong, and training it at
    /// commit. One table lookup for the TAGE-based kinds.
    pub fn warm_cond(&mut self, pc: Pc, taken: bool) {
        self.cond.warm(pc, taken, self.feed.as_ref());
    }

    /// Predicts the target of an indirect jump, if the indirect
    /// predictor has one (mutable because the oracle cursor advances;
    /// the table-based predictors only read here).
    pub fn predict_indirect(&mut self, pc: Pc) -> Option<Pc> {
        self.indir.predict(pc, self.feed.as_ref())
    }

    /// Records the resolved target of an indirect jump.
    pub fn update_indirect(&mut self, pc: Pc, target: Pc) {
        self.indir.update(pc, target);
    }

    /// Digest of the conditional-prediction state — the conditional
    /// predictor's full serialized state (counters, tables, global
    /// history, allocation seed) plus the RAS top-of-stack counter.
    /// Functional fast-forward warming is exactly commit-equivalent for
    /// all of it, so the warmup-fidelity tests assert digest *equality*
    /// between a functional and a cycle-accurate run of the same
    /// instructions. (The RAS entry contents and the indirect tables
    /// are intentionally excluded: both are perturbed by wrong-path
    /// execution in the detailed pipeline. The counter is included —
    /// squash recovery restores it exactly, so two states differing
    /// only in stack depth must hash differently.)
    pub fn cond_digest(&self) -> u64 {
        let mut w = CkptWriter::new();
        self.cond.save_state(&mut w);
        w.u64(self.ras_sp());
        fnv1a64(&w.finish())
    }

    /// Occupancy of the conditional tables: `(filled tagged entries,
    /// base counters moved off their reset value)`.
    pub fn cond_occupancy(&self) -> (usize, usize) {
        self.cond.occupancy()
    }

    /// Digest of the indirect predictor's target state (a pinned
    /// *divergence* in the warmup-fidelity tests: the detailed pipeline
    /// updates it at writeback, wrong paths included).
    pub fn btb_digest(&self) -> u64 {
        self.indir.digest()
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u8(self.kind.tag());
        self.cond.save_state(w);
        self.indir.save_state(w);
        for &p in &self.ras.entries {
            w.pc(p);
        }
        w.u64(self.ras.sp);
        match &self.feed {
            None => w.bool(false),
            Some(f) => {
                w.bool(true);
                f.save(w);
            }
        }
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let tag = r.u8()?;
        if tag != self.kind.tag() {
            return Err(CkptError::Corrupt(format!(
                "predictor kind tag {tag} in checkpoint, {} ({}) configured",
                self.kind.tag(),
                self.kind
            )));
        }
        self.cond.load_state(r)?;
        self.indir.load_state(r)?;
        for p in &mut self.ras.entries {
            *p = r.pc()?;
        }
        self.ras.sp = r.u64()?;
        self.feed = if r.bool()? { Some(OracleFeed::load(r)?) } else { None };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(&SimConfig::default())
    }

    fn bp_kind(kind: BpredKind) -> BranchPredictor {
        BranchPredictor::new(&SimConfig { bpred: kind, ..SimConfig::default() })
    }

    #[test]
    fn learns_strongly_biased_branch() {
        let mut p = bp();
        let pc = Pc::new(0x1000);
        for _ in 0..32 {
            let (_, m) = p.predict_cond(pc);
            p.train_cond(pc, true, m);
        }
        let (pred, m) = p.predict_cond(pc);
        p.restore_ghr(m.ghr_before);
        assert!(pred);
    }

    #[test]
    fn learns_not_taken() {
        let mut p = bp();
        let pc = Pc::new(0x2000);
        for _ in 0..32 {
            let (_, m) = p.predict_cond(pc);
            p.train_cond(pc, false, m);
        }
        let (pred, m) = p.predict_cond(pc);
        p.restore_ghr(m.ghr_before);
        assert!(!pred);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        // A strict alternation is unpredictable to bimodal but trivial for
        // any history-based table.
        for kind in [BpredKind::Tage, BpredKind::TageScl] {
            let mut p = bp_kind(kind);
            let pc = Pc::new(0x3000);
            let mut correct = 0;
            let mut total = 0;
            for i in 0..2000u64 {
                let taken = i % 2 == 0;
                let (pred, m) = p.predict_cond(pc);
                if i >= 1000 {
                    total += 1;
                    if pred == taken {
                        correct += 1;
                    }
                }
                // Simulate perfect in-order resolution.
                if pred != taken {
                    p.recover_cond(m, taken);
                }
                p.train_cond(pc, taken, m);
            }
            assert!(
                correct as f64 / total as f64 > 0.9,
                "{kind} should learn alternation, got {correct}/{total}"
            );
        }
    }

    #[test]
    fn scl_loop_predictor_learns_a_fixed_trip_count() {
        // An 11-iteration loop: TAGE with 64-bit history can learn this
        // too, so drive the branch through a *noisy* history (distinct
        // outer contexts) where the loop table's trip count is the only
        // stable signal. In-order resolution, measured after warmup.
        let mut p = bp_kind(BpredKind::TageScl);
        let pc = Pc::new(0x5000);
        let noise = Pc::new(0x7000);
        let mut wrong = 0u64;
        let mut total = 0u64;
        let mut rng = 0x1234_5678_9abc_def0u64;
        for outer in 0..400u64 {
            // A few data-dependent noise branches between loop runs.
            for _ in 0..5 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let taken = rng >> 63 == 1;
                let (pred, m) = p.predict_cond(noise);
                if pred != taken {
                    p.recover_cond(m, taken);
                }
                p.train_cond(noise, taken, m);
            }
            for i in 0..=10u64 {
                let taken = i < 10; // 10 taken iterations, then exit
                let (pred, m) = p.predict_cond(pc);
                if outer >= 100 {
                    total += 1;
                    if pred != taken {
                        wrong += 1;
                    }
                }
                if pred != taken {
                    p.recover_cond(m, taken);
                }
                p.train_cond(pc, taken, m);
            }
        }
        assert!(
            wrong * 100 < total * 5,
            "loop predictor should nail a fixed trip count, {wrong}/{total} wrong"
        );
    }

    #[test]
    fn speculative_history_shifts_and_restores() {
        let mut p = bp();
        let g0 = p.ghr();
        let (pred, m) = p.predict_cond(Pc::new(0x10));
        assert_eq!(p.ghr(), (g0 << 1) | pred as u64);
        assert_eq!(m.ghr_before, g0);
        p.restore_ghr(m.ghr_before);
        assert_eq!(p.ghr(), g0);
        p.recover_cond(m, !pred);
        assert_eq!(p.ghr(), (g0 << 1) | (!pred) as u64);
    }

    #[test]
    fn indirect_btb_remembers_last_target() {
        let mut p = bp();
        let pc = Pc::new(0x4000);
        assert_eq!(p.predict_indirect(pc), None);
        p.update_indirect(pc, Pc::new(0x8000));
        assert_eq!(p.predict_indirect(pc), Some(Pc::new(0x8000)));
        p.update_indirect(pc, Pc::new(0x9000));
        assert_eq!(p.predict_indirect(pc), Some(Pc::new(0x9000)));
        // A different PC indexing the same set but different tag misses.
        assert_eq!(p.predict_indirect(Pc::new(0x4000 + (1 << 14))), None);
    }

    #[test]
    fn ittage_learns_history_correlated_targets() {
        // One indirect jump alternating between two targets in a strict
        // pattern: the last-target BTB is wrong half the time, the
        // history-indexed tables should learn the alternation.
        let mut p = bp_kind(BpredKind::Ittage);
        let pc = Pc::new(0x4000);
        let targets = [Pc::new(0x8000), Pc::new(0x9000)];
        let mut correct = 0u64;
        let mut total = 0u64;
        for i in 0..4000u64 {
            let t = targets[(i % 2) as usize];
            let pred = p.predict_indirect(pc);
            if i >= 2000 {
                total += 1;
                if pred == Some(t) {
                    correct += 1;
                }
            }
            p.update_indirect(pc, t);
        }
        assert!(
            correct * 100 > total * 90,
            "ITTAGE should learn target alternation, got {correct}/{total}"
        );
    }

    #[test]
    fn ras_predicts_matched_calls() {
        let mut p = bp();
        p.ras_push(Pc::new(0x104));
        p.ras_push(Pc::new(0x204));
        assert_eq!(p.ras_pop(), Some(Pc::new(0x204)), "LIFO");
        assert_eq!(p.ras_pop(), Some(Pc::new(0x104)));
        assert_eq!(p.ras_pop(), None, "empty stack");
    }

    #[test]
    fn ras_counter_recovery() {
        let mut p = bp();
        p.ras_push(Pc::new(0x104));
        let sp = p.ras_sp();
        p.ras_push(Pc::new(0x204)); // wrong-path call
        let _ = p.ras_pop(); // wrong-path return
        p.restore_ras_sp(sp); // squash recovery
        assert_eq!(p.ras_pop(), Some(Pc::new(0x104)), "original entry survives");
    }

    #[test]
    fn ras_wraps_at_capacity_with_stale_predictions() {
        let mut p = bp();
        for i in 0..20u64 {
            p.ras_push(Pc::new(0x1000 + 4 * i));
        }
        // Deeper than 16 entries: the oldest were overwritten; the newest
        // 16 predict correctly, older pops return stale (wrapped) values.
        for i in (4..20u64).rev() {
            assert_eq!(p.ras_pop(), Some(Pc::new(0x1000 + 4 * i)));
        }
        // These four were overwritten by the wrap; values are stale but
        // pops still succeed (a predictor may be wrong, never stuck).
        for _ in 0..4 {
            assert!(p.ras_pop().is_some());
        }
        assert_eq!(p.ras_pop(), None);
    }

    #[test]
    fn geometric_history_lengths() {
        assert_eq!(tage::geometric_histories(5), vec![4, 8, 16, 32, 64]);
        assert_eq!(tage::geometric_histories(7), vec![4, 8, 16, 32, 64, 64, 64]);
    }

    #[test]
    fn bpred_kind_names_round_trip() {
        for kind in BpredKind::ALL {
            assert_eq!(BpredKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BpredKind::parse("perceptron"), None);
        assert_eq!(BpredKind::default(), BpredKind::Tage);
    }

    #[test]
    fn cond_digest_folds_in_the_ras_counter() {
        // Regression: two predictor states differing only in RAS depth
        // used to hash equal, hiding stack-depth divergence from the
        // warmup-fidelity tests.
        let mut p = bp();
        let d0 = p.cond_digest();
        p.ras_push(Pc::new(0x104));
        assert_ne!(p.cond_digest(), d0, "RAS counter must reach the digest");
        let _ = p.ras_pop();
        assert_eq!(p.cond_digest(), d0, "digest follows the counter back");
    }

    #[test]
    fn oracle_cursors_follow_the_feed_and_recover() {
        let mut p = bp_kind(BpredKind::Oracle);
        let mut feed = OracleFeed::default();
        for &t in &[true, false, true, true] {
            feed.push_cond(t);
        }
        feed.push_jalr(Pc::new(0x800));
        feed.push_jalr(Pc::new(0x900));
        p.install_feed(feed);
        let pc = Pc::new(0x10);
        let (p0, m0) = p.predict_cond(pc);
        let (p1, m1) = p.predict_cond(pc);
        assert_eq!((p0, p1), (true, false));
        assert_eq!((m0.ghr_before, m1.ghr_before), (0, 1));
        // Squash recovery realigns the cursor past the surviving branch.
        p.recover_cond(m1, false);
        let (p2, _) = p.predict_cond(pc);
        assert!(p2, "third outcome after recovery");
        // Indirect cursor rides the RAS token and ignores push/pop.
        p.ras_push(Pc::new(0x44));
        assert_eq!(p.ras_pop(), None, "oracle indirect replaces the RAS");
        let sp = p.ras_sp();
        assert_eq!(p.predict_indirect(pc), Some(Pc::new(0x800)));
        assert_eq!(p.predict_indirect(pc), Some(Pc::new(0x900)));
        assert_eq!(p.predict_indirect(pc), None, "beyond the feed");
        p.restore_ras_sp(sp);
        assert_eq!(p.predict_indirect(pc), Some(Pc::new(0x800)), "cursor restored");
    }

    #[test]
    fn always_wrong_inverts_the_feed() {
        let mut p = bp_kind(BpredKind::AlwaysWrong);
        let mut feed = OracleFeed::default();
        feed.push_cond(true);
        feed.push_cond(false);
        p.install_feed(feed);
        let pc = Pc::new(0x10);
        assert!(!p.predict_cond(pc).0, "taken branch predicted not-taken");
        assert!(p.predict_cond(pc).0, "not-taken branch predicted taken");
    }

    /// The fused warm step leaves exactly the state of the detailed
    /// lifecycle it replaces, for every kind: two predictors see the
    /// same outcome stream, one through `warm_cond`, one through
    /// predict → recover if wrong → train, with the same probe-and-undo
    /// predictions interleaved on both.
    #[test]
    fn warm_cond_matches_predict_recover_train() {
        use crate::prop::for_each_case;
        for_each_case("warm_cond matches predict, recover, train", 24, 0x7761_726d_0001, |rng| {
            let pcs: Vec<Pc> = (0..6).map(|_| Pc::new(rng.below(1 << 14) * 4)).collect();
            let n = rng.range(1, 600);
            let stream: Vec<(Pc, bool)> = (0..n)
                .map(|i| {
                    let pc = pcs[rng.range(0, pcs.len())];
                    // A mix of biased, patterned and random outcomes.
                    (pc, if rng.chance(1, 3) { rng.chance(1, 2) } else { i % 3 != 0 })
                })
                .collect();
            for kind in BpredKind::ALL {
                let (mut fused, mut stepwise) = (bp_kind(kind), bp_kind(kind));
                if kind.needs_feed() {
                    let mut feed = OracleFeed::default();
                    stream.iter().for_each(|&(_, t)| feed.push_cond(t));
                    fused.install_feed(feed.clone());
                    stepwise.install_feed(feed);
                }
                for (i, &(pc, taken)) in stream.iter().enumerate() {
                    if rng.chance(1, 8) {
                        for p in [&mut fused, &mut stepwise] {
                            let (_, m) = p.predict_cond(pcs[0]);
                            p.restore_ghr(m.ghr_before);
                        }
                    }
                    fused.warm_cond(pc, taken);
                    let (pred, meta) = stepwise.predict_cond(pc);
                    if pred != taken {
                        stepwise.recover_cond(meta, taken);
                    }
                    stepwise.train_cond(pc, taken, meta);
                    assert_eq!(fused.ghr(), stepwise.ghr(), "{kind}: history after branch {i}");
                    if i % 64 == 0 || i + 1 == n {
                        assert_eq!(
                            fused.cond_digest(),
                            stepwise.cond_digest(),
                            "{kind}: state after branch {i}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn oracle_feed_bitpacking_round_trips_past_a_word() {
        let mut feed = OracleFeed::default();
        let outcome = |i: u64| i.is_multiple_of(3);
        for i in 0..130 {
            feed.push_cond(outcome(i));
        }
        assert_eq!(feed.cond_len(), 130);
        for i in 0..130 {
            assert_eq!(feed.cond(i), Some(outcome(i)), "bit {i}");
        }
        assert_eq!(feed.cond(130), None);
        let mut w = CkptWriter::new();
        feed.save(&mut w);
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes);
        assert_eq!(OracleFeed::load(&mut r).expect("round trip"), feed);
    }
}
