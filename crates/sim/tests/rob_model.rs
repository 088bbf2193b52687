//! Differential property test for the reorder buffer's lookup by sequence
//! number: on random push / pop / squash / lookup schedules, `Rob::get`
//! and `Rob::get_mut` must agree with a binary search over a plain
//! age-ordered model.
//!
//! Seqs advance by gaps wider than the ROB's position-hint table, so live
//! entries share hint slots, and squashed seqs are looked up again after
//! younger pushes have reused their slots: both hint-miss paths run.

#[path = "../../../tests/common/prop.rs"]
mod prop;

use mssr_isa::{Inst, Opcode, Pc};
use mssr_sim::{Rob, RobEntry, SeqNum};
use prop::{for_each_case, Rng};

fn entry(seq: u64, tag: u64) -> RobEntry {
    RobEntry {
        seq: SeqNum::new(seq),
        pc: Pc::new(0x1000),
        inst: Inst::simple(Opcode::Nop),
        dst: None,
        src_pregs: [None, None],
        src_rgids: [None, None],
        completed: false,
        reused: false,
        verify_pending: false,
        fwd_stalled: false,
        pending_value: Some(tag),
        branch: None,
        mem_addr: None,
        ghr_before: 0,
        ras_sp_before: 0,
    }
}

/// The reference: `(seq, tag)` pairs oldest first, found by binary search.
struct Model {
    live: Vec<(u64, u64)>,
}

impl Model {
    fn find(&self, seq: u64) -> Option<usize> {
        self.live.binary_search_by_key(&seq, |&(s, _)| s).ok()
    }
}

/// A seq to look up: live, squashed, or never pushed.
fn probe(rng: &mut Rng, model: &Model, squashed: &[u64], next_seq: u64) -> u64 {
    match rng.below(3) {
        0 if !model.live.is_empty() => model.live[rng.range(0, model.live.len())].0,
        1 if !squashed.is_empty() => squashed[rng.range(0, squashed.len())],
        _ => rng.below(next_seq + 8),
    }
}

#[test]
fn lookups_match_a_binary_search_model() {
    for_each_case("lookups_match_a_binary_search_model", 256, 0x726f_6200_0001, |rng| {
        let capacity = rng.range(1, 24);
        // The hint table has `(4 * capacity).next_power_of_two()` slots;
        // gaps up to three times that make live seqs collide.
        let max_gap = 3 * (4 * capacity).next_power_of_two() as u64;
        let mut rob = Rob::new(capacity);
        let mut model = Model { live: Vec::new() };
        let mut squashed: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        let mut next_seq = 1;
        for step in 0..rng.range(50, 400) {
            match rng.below(10) {
                0..=3 => {
                    if rob.has_space() {
                        next_seq += if rng.chance(1, 3) { rng.below(max_gap) } else { 0 };
                        let tag = rng.next_u64();
                        rob.push(entry(next_seq, tag));
                        model.live.push((next_seq, tag));
                        next_seq += 1;
                    }
                }
                4 => {
                    let got = rob.pop_head().map(|e| e.seq.value());
                    let want = (!model.live.is_empty()).then(|| model.live.remove(0).0);
                    assert_eq!(got, want, "step {step}: pop_head");
                }
                5 => {
                    let first = probe(rng, &model, &squashed, next_seq);
                    rob.squash_from_into(SeqNum::new(first), &mut out);
                    let keep = model.live.partition_point(|&(s, _)| s < first);
                    let gone: Vec<u64> = model.live.drain(keep..).rev().map(|(s, _)| s).collect();
                    let got: Vec<u64> = out.iter().map(|e| e.seq.value()).collect();
                    assert_eq!(got, gone, "step {step}: squash_from_into #{first}");
                    squashed.extend(gone);
                }
                6..=7 => {
                    let seq = probe(rng, &model, &squashed, next_seq);
                    let got = rob.get(SeqNum::new(seq)).map(|e| (e.seq.value(), e.pending_value));
                    let want = model.find(seq).map(|i| (seq, Some(model.live[i].1)));
                    assert_eq!(got, want, "step {step}: get #{seq}");
                }
                _ => {
                    let seq = probe(rng, &model, &squashed, next_seq);
                    let tag = rng.next_u64();
                    let got = rob.get_mut(SeqNum::new(seq)).map(|e| {
                        e.pending_value = Some(tag);
                        e.seq.value()
                    });
                    let want = model.find(seq).map(|i| {
                        model.live[i].1 = tag;
                        seq
                    });
                    assert_eq!(got, want, "step {step}: get_mut #{seq}");
                }
            }
            assert_eq!(rob.len(), model.live.len(), "step {step}: length");
        }
        // Every live entry is still found, with the tag last written.
        for &(seq, tag) in &model.live {
            assert_eq!(rob.get(SeqNum::new(seq)).and_then(|e| e.pending_value), Some(tag));
        }
    });
}
