//! The reorder buffer.

use std::collections::VecDeque;

use mssr_isa::{ArchReg, Inst, Pc};

use crate::bpred::PredMeta;
use crate::types::{PhysReg, Rgid, SeqNum};

/// Destination-register bookkeeping for a renamed instruction.
#[derive(Clone, Copy, Debug)]
pub struct DstInfo {
    /// Architectural destination.
    pub arch: ArchReg,
    /// Physical register this instruction writes (or reuses).
    pub new_preg: PhysReg,
    /// Previous mapping of `arch`, freed when this instruction commits.
    pub prev_preg: PhysReg,
    /// RGID tagged on the new mapping.
    pub new_rgid: Rgid,
    /// RGID of the previous mapping, restored on rollback.
    pub prev_rgid: Rgid,
}

/// Resolution outcome of a control instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the branch was actually taken.
    pub taken: bool,
    /// The actual next PC.
    pub next: Pc,
}

/// Per-branch pipeline state.
#[derive(Clone, Copy, Debug)]
pub struct BranchState {
    /// The next PC the frontend followed after this instruction.
    pub pred_next: Pc,
    /// Whether the frontend predicted taken.
    pub pred_taken: bool,
    /// Predictor snapshot for training/recovery.
    pub meta: PredMeta,
    /// Filled at execution.
    pub resolved: Option<BranchOutcome>,
}

/// One reorder-buffer entry.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Global dynamic sequence number.
    pub seq: SeqNum,
    /// Instruction address.
    pub pc: Pc,
    /// The decoded instruction.
    pub inst: Inst,
    /// Destination bookkeeping, if the instruction writes a register.
    pub dst: Option<DstInfo>,
    /// Source physical registers (`None` for absent or `x0` operands).
    pub src_pregs: [Option<PhysReg>; 2],
    /// Source RGIDs at rename time (mirrors the paper's ROB RGID fields,
    /// used to populate the Squash Log on a misprediction).
    pub src_rgids: [Option<Rgid>; 2],
    /// Whether the result (if any) has been produced.
    pub completed: bool,
    /// Whether this instruction's result was granted by a reuse engine.
    pub reused: bool,
    /// A reused load that has not yet passed its verification
    /// re-execution; blocks commit.
    pub verify_pending: bool,
    /// The instruction is a load requeued behind an older same-block
    /// store whose data is not yet known
    /// ([`Forward::Pending`](crate::lsq::Forward)); cleared when the load
    /// eventually executes. Read by the CPI-stack accounting to blame
    /// stalled commit slots on store-forwarding rather than the memory
    /// system at large.
    pub fwd_stalled: bool,
    /// Result value computed at issue, applied to the PRF at writeback.
    pub pending_value: Option<u64>,
    /// Branch state for control instructions.
    pub branch: Option<BranchState>,
    /// Effective address, once computed, for loads and stores.
    pub mem_addr: Option<u64>,
    /// Speculative global history before this instruction's prediction
    /// (used to restore the GHR when a flush squashes from here).
    pub ghr_before: u64,
    /// Return-address-stack top-of-stack counter before this
    /// instruction's prediction (restored on squash).
    pub ras_sp_before: u64,
}

/// The reorder buffer: an age-ordered queue of in-flight instructions.
///
/// Lookup by sequence number is O(1) through a position hint: `hint`,
/// indexed by `seq & (hint.len() - 1)`, records where each entry was
/// pushed as an absolute position (`popped` plus its index at push time).
/// Head pops bump `popped` and tail squashes leave the remaining
/// positions as they were, so a live entry's hint stays valid until a
/// younger push with the same low seq bits overwrites it. A lookup accepts
/// the hint only when that position is live and holds exactly the wanted
/// seq; otherwise (a squashed seq, or a colliding live one) it falls back
/// to a binary search, so the answer is always exact.
#[derive(Debug)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Absolute position of the last pushed entry whose seq maps here.
    hint: Vec<usize>,
    /// Head pops so far: the absolute position of `entries[0]`.
    popped: usize,
}

impl Rob {
    /// Creates an empty ROB with the given capacity.
    pub fn new(capacity: usize) -> Rob {
        // Four slots per entry: live seqs collide only once squashes
        // have stretched the live seq span past the table size.
        let slots = (4 * capacity).next_power_of_two();
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            hint: vec![usize::MAX; slots],
            popped: 0,
        }
    }

    /// Whether another instruction can be dispatched.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Number of in-flight instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a dispatched instruction.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full or `e.seq` is not strictly older-to-newer.
    pub fn push(&mut self, e: RobEntry) {
        assert!(self.has_space(), "ROB overflow");
        if let Some(tail) = self.entries.back() {
            assert!(e.seq > tail.seq, "ROB entries must be pushed in age order");
        }
        let slot = self.slot(e.seq);
        self.hint[slot] = self.popped.wrapping_add(self.entries.len());
        self.entries.push_back(e);
    }

    /// The oldest entry, if any.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Pops the oldest entry (at commit).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_front()?;
        self.popped = self.popped.wrapping_add(1);
        Some(e)
    }

    fn slot(&self, seq: SeqNum) -> usize {
        seq.value() as usize & (self.hint.len() - 1)
    }

    /// The index of `seq` in `entries`: the hinted position if it holds
    /// exactly `seq`, else a binary search (entries are age-ordered and
    /// seq numbers are never reused).
    fn index_of(&self, seq: SeqNum) -> Option<usize> {
        let idx = self.hint[self.slot(seq)].wrapping_sub(self.popped);
        if self.entries.get(idx).is_some_and(|e| e.seq == seq) {
            return Some(idx);
        }
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// Looks up an entry by sequence number; O(1) unless the position
    /// hint misses.
    pub fn get(&self, seq: SeqNum) -> Option<&RobEntry> {
        let idx = self.index_of(seq)?;
        self.entries.get(idx)
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: SeqNum) -> Option<&mut RobEntry> {
        let idx = self.index_of(seq)?;
        self.entries.get_mut(idx)
    }

    /// Removes all entries with `seq >= first` into `out` (cleared
    /// first), youngest first — the natural order of a tail walk, which
    /// callers use to unwind the RAT before reversing for engine
    /// consumption. Taking the buffer by reference keeps the squash path
    /// allocation-free in steady state.
    pub fn squash_from_into(&mut self, first: SeqNum, out: &mut Vec<RobEntry>) {
        out.clear();
        while let Some(tail) = self.entries.back() {
            if tail.seq >= first {
                out.push(self.entries.pop_back().expect("back exists"));
            } else {
                break;
            }
        }
    }

    /// Allocating convenience wrapper over [`Rob::squash_from_into`]
    /// (tests and cold paths only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn squash_from(&mut self, first: SeqNum) -> Vec<RobEntry> {
        let mut out = Vec::new();
        self.squash_from_into(first, &mut out);
        out
    }

    /// Iterates entries oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Iterates entries mutably, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        self.entries.iter_mut()
    }

    /// ROB capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_isa::Opcode;

    fn entry(seq: u64) -> RobEntry {
        RobEntry {
            seq: SeqNum::new(seq),
            pc: Pc::new(0x1000 + seq * 4),
            inst: Inst::simple(Opcode::Nop),
            dst: None,
            src_pregs: [None, None],
            src_rgids: [None, None],
            completed: false,
            reused: false,
            verify_pending: false,
            fwd_stalled: false,
            pending_value: None,
            branch: None,
            mem_addr: None,
            ghr_before: 0,
            ras_sp_before: 0,
        }
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
        rob.push(entry(2));
        rob.push(entry(3));
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.pop_head().unwrap().seq, SeqNum::new(1));
        assert_eq!(rob.head().unwrap().seq, SeqNum::new(2));
    }

    #[test]
    fn lookup_by_seq() {
        let mut rob = Rob::new(8);
        for s in [2, 5, 9] {
            rob.push(entry(s));
        }
        assert!(rob.get(SeqNum::new(5)).is_some());
        assert!(rob.get(SeqNum::new(4)).is_none());
        rob.get_mut(SeqNum::new(9)).unwrap().completed = true;
        assert!(rob.get(SeqNum::new(9)).unwrap().completed);
    }

    #[test]
    fn squash_removes_youngest_first() {
        let mut rob = Rob::new(8);
        for s in 1..=6 {
            rob.push(entry(s));
        }
        let squashed = rob.squash_from(SeqNum::new(4));
        let seqs: Vec<u64> = squashed.iter().map(|e| e.seq.value()).collect();
        assert_eq!(seqs, vec![6, 5, 4], "tail walk is youngest first");
        assert_eq!(rob.len(), 3);
        assert!(rob.get(SeqNum::new(4)).is_none());
        assert!(rob.get(SeqNum::new(3)).is_some());
    }

    #[test]
    fn squash_of_nothing_is_empty() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
        assert!(rob.squash_from(SeqNum::new(2)).is_empty());
        assert_eq!(rob.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(1));
        rob.push(entry(2));
    }

    #[test]
    #[should_panic(expected = "age order")]
    fn out_of_order_push_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5));
        rob.push(entry(3));
    }
}
