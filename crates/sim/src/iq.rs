//! Issue queues (reservation stations) with event-driven wakeup and
//! age-ordered select.

use crate::ckpt::{CkptError, CkptReader, CkptWriter};
use crate::types::{FuClass, PhysReg, SeqNum};

/// The FU classes in ready-list index order.
const CLASSES: [FuClass; 3] = [FuClass::Alu, FuClass::Bru, FuClass::Lsu];

fn class_index(fu: FuClass) -> usize {
    match fu {
        FuClass::Alu => 0,
        FuClass::Bru => 1,
        FuClass::Lsu => 2,
    }
}

/// One reservation-station entry: an instruction waiting for its source
/// operands to become ready.
#[derive(Clone, Copy, Debug)]
pub struct IqEntry {
    /// The instruction's sequence number (its ROB key).
    pub seq: SeqNum,
    /// Which functional-unit class executes it.
    pub fu: FuClass,
    /// Per-source-slot pending registers (cleared by [`IssueQueue::wake`]).
    /// `None` slots are ready; the entry issues when all slots are.
    waiting: [Option<PhysReg>; 2],
    /// Insertion stamp: checkpoints write entries in insertion order.
    stamp: u64,
}

impl IqEntry {
    /// The source registers still pending, in slot order.
    pub fn pending(&self) -> impl Iterator<Item = PhysReg> + '_ {
        self.waiting.iter().flatten().copied()
    }

    fn is_ready(&self) -> bool {
        self.waiting == [None, None]
    }
}

/// An issue queue: fixed entry slots, a waiter bitmap per physical
/// register, and one ready list per FU class.
///
/// * [`IssueQueue::wake`] visits only the slots whose bit is set in the
///   produced register's bitmap — O(dependents), not O(capacity).
/// * Each ready list holds the entries with no pending source, sorted by
///   [`SeqNum`], so [`IssueQueue::select_into`] takes its head: exactly
///   oldest-first, at O(issue width).
/// * Checkpoints write entries in insertion order, which is *not* always
///   age order: a `Forward::Pending` load is re-inserted behind younger
///   entries. Restore replays the entries through [`IssueQueue::insert`].
#[derive(Debug)]
pub struct IssueQueue {
    slots: Vec<Option<IqEntry>>,
    /// Free slot indices (a stack).
    free: Vec<usize>,
    /// `words` u64s per physical register: bit `s` set while slot `s`
    /// waits on that register.
    waiters: Vec<u64>,
    words: usize,
    /// Per class (`CLASSES` order): `(seq, slot)` of every entry with no
    /// pending source, sorted by `seq`.
    ready: [Vec<(SeqNum, usize)>; 3],
    next_stamp: u64,
}

impl IssueQueue {
    /// Creates an empty queue of `capacity` entries whose sources name
    /// physical registers below `phys_regs`. Allocates everything up front.
    pub fn new(capacity: usize, phys_regs: usize) -> IssueQueue {
        let words = capacity.div_ceil(64);
        IssueQueue {
            slots: vec![None; capacity],
            free: (0..capacity).rev().collect(),
            waiters: vec![0; phys_regs * words],
            words,
            ready: std::array::from_fn(|_| Vec::with_capacity(capacity)),
            next_stamp: 0,
        }
    }

    /// Whether another entry can be dispatched.
    pub fn has_space(&self) -> bool {
        !self.free.is_empty()
    }

    /// Occupancy.
    #[cfg_attr(not(test), allow(dead_code))] // exercised by unit tests; kept for symmetry
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the queue is empty.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The occupied entries, in slot order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &IqEntry> {
        self.slots.iter().flatten()
    }

    /// Every ready-list element as `(class, seq)`, class by class, each
    /// list in its stored order.
    pub(crate) fn ready_seqs(&self) -> impl Iterator<Item = (FuClass, SeqNum)> + Clone + '_ {
        CLASSES.iter().zip(&self.ready).flat_map(|(&fu, l)| l.iter().map(move |&(s, _)| (fu, s)))
    }

    /// Dispatches an instruction. `waiting` holds, per source slot, the
    /// physical register whose value is not yet ready (`None`: ready).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn insert(&mut self, seq: SeqNum, fu: FuClass, waiting: [Option<PhysReg>; 2]) {
        assert!(self.has_space(), "issue queue overflow");
        let slot = self.free.pop().expect("space checked above");
        let e = IqEntry { seq, fu, waiting, stamp: self.next_stamp };
        self.next_stamp += 1;
        for p in e.pending() {
            self.waiters[p.index() * self.words + slot / 64] |= 1 << (slot % 64);
        }
        self.slots[slot] = Some(e);
        if e.is_ready() {
            self.push_ready(fu, seq, slot);
        }
    }

    fn push_ready(&mut self, fu: FuClass, seq: SeqNum, slot: usize) {
        let list = &mut self.ready[class_index(fu)];
        let at = list.partition_point(|&(s, _)| s < seq);
        list.insert(at, (seq, slot));
    }

    /// Broadcasts that `p` has been produced, waking its dependents.
    pub fn wake(&mut self, p: PhysReg) {
        let row = p.index() * self.words;
        for w in 0..self.words {
            let mut bits = std::mem::take(&mut self.waiters[row + w]);
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = self.slots[slot].as_mut().expect("a waiter bit names an occupied slot");
                for s in &mut e.waiting {
                    if *s == Some(p) {
                        *s = None;
                    }
                }
                if e.is_ready() {
                    let (fu, seq) = (e.fu, e.seq);
                    self.push_ready(fu, seq, slot);
                }
            }
        }
    }

    /// Selects up to `max` oldest ready entries of class `fu` into `out`
    /// (cleared first), removing them from the queue.
    pub fn select_into(&mut self, fu: FuClass, max: usize, out: &mut Vec<SeqNum>) {
        out.clear();
        let list = &mut self.ready[class_index(fu)];
        let n = max.min(list.len());
        for &(seq, slot) in &list[..n] {
            out.push(seq);
            self.slots[slot] = None;
            self.free.push(slot);
        }
        list.drain(..n);
    }

    /// Allocating convenience wrapper over [`IssueQueue::select_into`]
    /// (tests and cold paths only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn select(&mut self, fu: FuClass, max: usize) -> Vec<SeqNum> {
        let mut out = Vec::new();
        self.select_into(fu, max, &mut out);
        out
    }

    /// Removes every entry with `seq >= first` (pipeline squash).
    pub fn squash_from(&mut self, first: SeqNum) {
        for slot in 0..self.slots.len() {
            let Some(e) = self.slots[slot] else { continue };
            if e.seq < first {
                continue;
            }
            for p in e.pending() {
                self.waiters[p.index() * self.words + slot / 64] &= !(1 << (slot % 64));
            }
            self.slots[slot] = None;
            self.free.push(slot);
        }
        for list in &mut self.ready {
            let keep = list.partition_point(|&(s, _)| s < first);
            list.truncate(keep);
        }
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        let mut order: Vec<&IqEntry> = self.entries().collect();
        order.sort_unstable_by_key(|e| e.stamp);
        w.u64(order.len() as u64);
        for e in order {
            w.seq(e.seq);
            w.u8(class_index(e.fu) as u8);
            // Wire format: count of pending registers, then each in slot
            // order.
            w.u64(e.pending().count() as u64);
            for p in e.pending() {
                w.preg(p);
            }
        }
    }

    /// Restores the entries [`IssueQueue::ckpt_save`] wrote, re-inserting
    /// them in order. Whether they fit the rest of the machine (class,
    /// ROB membership, wakeups) is checked by the caller.
    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.seq_len(10)?;
        if n > self.slots.len() {
            return Err(CkptError::Corrupt(format!(
                "{n} issue-queue entries in checkpoint, capacity {}",
                self.slots.len()
            )));
        }
        self.slots.fill(None);
        self.free.clear();
        self.free.extend((0..self.slots.len()).rev());
        self.waiters.fill(0);
        for list in &mut self.ready {
            list.clear();
        }
        self.next_stamp = 0;
        for _ in 0..n {
            let seq = r.seq()?;
            let fu = match r.u8()? {
                b @ 0..=2 => CLASSES[b as usize],
                b => return Err(CkptError::Corrupt(format!("unknown FU class byte {b}"))),
            };
            let m = r.seq_len(2)?;
            if m > 2 {
                return Err(CkptError::Corrupt(format!(
                    "issue-queue entry {seq} waits on {m} sources"
                )));
            }
            let mut waiting = [None, None];
            for w in waiting.iter_mut().take(m) {
                *w = Some(r.preg()?);
            }
            self.insert(seq, fu, waiting);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PhysReg {
        PhysReg::new(i)
    }

    #[test]
    fn ready_entry_is_selected_oldest_first() {
        let mut iq = IssueQueue::new(8, 16);
        iq.insert(SeqNum::new(3), FuClass::Alu, [None, None]);
        iq.insert(SeqNum::new(1), FuClass::Alu, [None, None]);
        iq.insert(SeqNum::new(2), FuClass::Alu, [None, None]);
        let sel = iq.select(FuClass::Alu, 2);
        assert_eq!(sel, vec![SeqNum::new(1), SeqNum::new(2)]);
        assert_eq!(iq.len(), 1, "unselected entry remains");
    }

    #[test]
    fn waiting_entry_not_selected_until_woken() {
        let mut iq = IssueQueue::new(8, 16);
        iq.insert(SeqNum::new(1), FuClass::Alu, [Some(p(10)), Some(p(11))]);
        assert!(iq.select(FuClass::Alu, 4).is_empty());
        iq.wake(p(10));
        assert!(iq.select(FuClass::Alu, 4).is_empty(), "still waiting on p11");
        iq.wake(p(11));
        assert_eq!(iq.select(FuClass::Alu, 4), vec![SeqNum::new(1)]);
    }

    #[test]
    fn duplicate_source_slots_wake_together() {
        let mut iq = IssueQueue::new(8, 16);
        // e.g. `add r1, r1, r1`: both slots wait on the same register.
        iq.insert(SeqNum::new(1), FuClass::Alu, [Some(p(7)), Some(p(7))]);
        assert!(iq.select(FuClass::Alu, 4).is_empty());
        iq.wake(p(7));
        assert_eq!(iq.select(FuClass::Alu, 4), vec![SeqNum::new(1)]);
    }

    #[test]
    fn classes_are_independent() {
        let mut iq = IssueQueue::new(8, 16);
        iq.insert(SeqNum::new(1), FuClass::Alu, [None, None]);
        iq.insert(SeqNum::new(2), FuClass::Lsu, [None, None]);
        iq.insert(SeqNum::new(3), FuClass::Bru, [None, None]);
        assert_eq!(iq.select(FuClass::Bru, 4), vec![SeqNum::new(3)]);
        assert_eq!(iq.select(FuClass::Lsu, 4), vec![SeqNum::new(2)]);
        assert_eq!(iq.select(FuClass::Alu, 4), vec![SeqNum::new(1)]);
    }

    #[test]
    fn squash_drops_young_entries() {
        let mut iq = IssueQueue::new(8, 16);
        for s in 1..=5 {
            iq.insert(SeqNum::new(s), FuClass::Alu, [None, None]);
        }
        iq.squash_from(SeqNum::new(3));
        let sel = iq.select(FuClass::Alu, 8);
        assert_eq!(sel, vec![SeqNum::new(1), SeqNum::new(2)]);
    }

    #[test]
    fn select_into_reuses_buffer_without_stale_entries() {
        let mut iq = IssueQueue::new(8, 16);
        iq.insert(SeqNum::new(1), FuClass::Alu, [None, None]);
        let mut out = vec![SeqNum::new(99)];
        iq.select_into(FuClass::Alu, 4, &mut out);
        assert_eq!(out, vec![SeqNum::new(1)]);
        iq.select_into(FuClass::Alu, 4, &mut out);
        assert!(out.is_empty(), "cleared on every call");
    }

    #[test]
    fn capacity_tracking() {
        let mut iq = IssueQueue::new(2, 16);
        assert!(iq.has_space());
        iq.insert(SeqNum::new(1), FuClass::Alu, [None, None]);
        iq.insert(SeqNum::new(2), FuClass::Alu, [None, None]);
        assert!(!iq.has_space());
        assert!(!iq.is_empty());
    }

    /// A `Forward::Pending` load is selected, then re-inserted behind a
    /// younger LSU entry that has not issued: the checkpoint writes the
    /// entries in insertion order, not in age order.
    #[test]
    fn requeued_load_checkpoints_behind_younger_entry() {
        let mut iq = IssueQueue::new(8, 16);
        iq.insert(SeqNum::new(3), FuClass::Lsu, [None, None]);
        iq.insert(SeqNum::new(5), FuClass::Lsu, [Some(p(10)), None]);
        assert_eq!(iq.select(FuClass::Lsu, 2), vec![SeqNum::new(3)]);
        iq.insert(SeqNum::new(3), FuClass::Lsu, [None, None]);
        let mut w = CkptWriter::new();
        iq.ckpt_save(&mut w);
        let mut want = CkptWriter::new();
        want.u64(2);
        for (seq, pending) in [(5, &[10][..]), (3, &[][..])] {
            want.seq(SeqNum::new(seq));
            want.u8(2); // Lsu
            want.u64(pending.len() as u64);
            for &r in pending {
                want.preg(p(r));
            }
        }
        let bytes = w.finish();
        assert_eq!(bytes, want.finish());

        // Restoring keeps that order, and the requeued load still issues first.
        let mut back = IssueQueue::new(8, 16);
        back.ckpt_load(&mut CkptReader::new(&bytes)).unwrap();
        let mut again = CkptWriter::new();
        back.ckpt_save(&mut again);
        assert_eq!(again.finish(), bytes);
        assert_eq!(back.select(FuClass::Lsu, 2), vec![SeqNum::new(3)]);
    }

    /// The scan-based queue this one replaced, as a reference model:
    /// wake scans every entry, select sorts the ready ones.
    #[derive(Default)]
    struct ScanModel(Vec<(SeqNum, FuClass, [Option<PhysReg>; 2])>);

    impl ScanModel {
        fn insert(&mut self, seq: SeqNum, fu: FuClass, waiting: [Option<PhysReg>; 2]) {
            self.0.push((seq, fu, waiting));
        }

        fn wake(&mut self, p: PhysReg) {
            for w in self.0.iter_mut().flat_map(|e| &mut e.2) {
                if *w == Some(p) {
                    *w = None;
                }
            }
        }

        fn select(&mut self, fu: FuClass, max: usize) -> Vec<SeqNum> {
            let ready = self.0.iter().filter(|e| e.1 == fu && e.2 == [None, None]);
            let mut out: Vec<SeqNum> = ready.map(|e| e.0).collect();
            out.sort_unstable();
            out.truncate(max);
            self.0.retain(|e| !out.contains(&e.0));
            out
        }

        fn squash_from(&mut self, first: SeqNum) {
            self.0.retain(|e| e.0 < first);
        }

        fn ckpt_save(&self, w: &mut CkptWriter) {
            w.u64(self.0.len() as u64);
            for &(seq, fu, waiting) in &self.0 {
                w.seq(seq);
                w.u8(class_index(fu) as u8);
                w.u64(waiting.iter().flatten().count() as u64);
                waiting.iter().flatten().for_each(|&p| w.preg(p));
            }
        }
    }

    /// Random insert/wake/select/squash/requeue sequences leave the queue
    /// and the scan model with equal selections and checkpoint bytes.
    #[test]
    fn matches_the_scan_model() {
        crate::prop::for_each_case("iq-vs-scan-model", 64, 0x1a_5eed, |rng| {
            let cap = rng.range(1, 80);
            let mut iq = IssueQueue::new(cap, 16);
            let mut model = ScanModel::default();
            let mut next = 1u64;
            for _ in 0..400 {
                match rng.below(10) {
                    0..=3 if iq.has_space() => {
                        let fu = CLASSES[rng.range(0, 3)];
                        let mut src = || rng.chance(1, 2).then(|| p(rng.range(0, 16)));
                        let waiting = [src(), src()];
                        iq.insert(SeqNum::new(next), fu, waiting);
                        model.insert(SeqNum::new(next), fu, waiting);
                        next += 1;
                    }
                    4 | 5 => {
                        let r = p(rng.range(0, 16));
                        iq.wake(r);
                        model.wake(r);
                    }
                    6..=8 => {
                        let (fu, max) = (CLASSES[rng.range(0, 3)], rng.range(0, 5));
                        let got = iq.select(fu, max);
                        assert_eq!(got, model.select(fu, max));
                        // A `Forward::Pending` load goes back in, ready,
                        // behind any younger entries still waiting.
                        if let (FuClass::Lsu, Some(&seq)) = (fu, got.last()) {
                            if rng.chance(1, 2) {
                                iq.insert(seq, fu, [None, None]);
                                model.insert(seq, fu, [None, None]);
                            }
                        }
                    }
                    9 => {
                        let first = SeqNum::new(rng.range(1, next as usize + 1) as u64);
                        iq.squash_from(first);
                        model.squash_from(first);
                    }
                    _ => {}
                }
                assert_eq!(iq.len(), model.0.len());
            }
            let (mut a, mut b) = (CkptWriter::new(), CkptWriter::new());
            iq.ckpt_save(&mut a);
            model.ckpt_save(&mut b);
            assert_eq!(a.finish(), b.finish());
        });
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut iq = IssueQueue::new(1, 16);
        iq.insert(SeqNum::new(1), FuClass::Alu, [None, None]);
        iq.insert(SeqNum::new(2), FuClass::Alu, [None, None]);
    }
}
