//! The pipeline invariant checker.
//!
//! Squash reuse rearranges register ownership in ways ordinary
//! out-of-order pipelines never do — holds transfer from engines to live
//! mappings, squashed values outlive their instructions, RGID
//! generations are forwarded across squashes — so the simulator carries
//! an always-on-in-debug checker that sweeps the full machine state
//! every cycle (`Simulator::step`) and after every squash. A release
//! build compiles the per-cycle sweep out; the sweep itself
//! ([`Simulator::invariant_violations`](crate::Simulator::invariant_violations))
//! stays available in release builds for tests and tools.
//!
//! The rules, and the bug class each one backstops:
//!
//! * [`Rule::FreeListIntegrity`] — the free list and the hold counts
//!   must agree: a register is queued exactly when its hold count is
//!   zero, with no duplicates.
//! * [`Rule::FreeListConservation`] — every hold is owned by someone:
//!   the total hold count equals the number of distinct live registers
//!   (RAT mappings plus in-flight ROB destinations and rollback
//!   targets) plus the engine's reported reservations
//!   ([`ReuseEngine::reserved_hold_count`](crate::ReuseEngine::reserved_hold_count)).
//!   An engine that retains a register and forgets it leaks PRF capacity
//!   forever; this rule catches the leak the cycle it happens.
//! * [`Rule::RobAgeOrder`] / [`Rule::LsqAgeOrder`] — the ROB and both
//!   LSQ halves hold strictly increasing sequence numbers (dispatch
//!   order is age order; `store_check` and forwarding both assume it).
//! * [`Rule::RgidMonotone`] — per architectural register, RGIDs granted
//!   by the allocator never exceed its counter, and the non-reused
//!   destinations in the ROB carry strictly increasing generations.
//!   Reused destinations are exempt from the ordering half: a grant
//!   *forwards* the squashed generation (paper §3.1), which may be older
//!   than generations allocated in between.
//! * [`Rule::StoreReuse`] — a store is never granted reuse (stores have
//!   externally visible effects; the pipeline never even queries them,
//!   and this rule keeps it that way).
//! * [`Rule::ReuseValue`] — a granted register holds exactly what
//!   re-executing the (non-load) instruction on its current sources
//!   yields. Checked at every grant in debug builds; a mismatch means the
//!   engine matched sources it should have rejected.
//! * [`Rule::ReusedLoadVerify`] — `verify_pending` appears only on
//!   reused loads, and no instruction commits while it is set (the
//!   paper's §3.8.3 re-execution gate).
//! * [`Rule::LoadIssuedAddr`] — every issued, non-reused load-queue
//!   entry has a recorded address, so `store_check` can see *forwarded*
//!   loads, not just memory-sourced ones. (Reused entries may carry no
//!   address; the engine's verification policy covers them.)
//! * [`Rule::ForwardPending`] — no issued load coexists with an older
//!   same-block store that knows its address but not its data; such a
//!   load must wait ([`Forward::Pending`](crate::lsq::Forward)) rather
//!   than read stale memory.
//! * [`Rule::CpiConservation`] — the CPI-stack account attributes every
//!   commit slot exactly once: `sum(categories) == cycles × commit_width`,
//!   and the reuse credit never exceeds the squash-penalty slots it is
//!   clamped against. A miscounted slot means a cycle was double-blamed
//!   or silently dropped, which would make every CPI stack a lie.
//!
//! The rule bodies are pure functions over iterators, so tests can seed
//! violating states directly (a leaked register, a reordered queue, a
//! reused store) and prove each rule trips — see `tests/invariants.rs`.

use mssr_isa::{ArchReg, NUM_ARCH_REGS};

use crate::account::{Category, CycleAccount};
use crate::engine::ReuseEngine;
use crate::lsq::{LqEntry, SqEntry};
use crate::stage::MachineState;
#[cfg(debug_assertions)]
use crate::stage::Scratch;
use crate::types::{PhysReg, Rgid, SeqNum};

/// Which invariant a [`Violation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Free list ⇔ hold counts disagreement.
    FreeListIntegrity,
    /// Total holds ≠ live mappings + engine reservations (a leak or a
    /// double-release).
    FreeListConservation,
    /// ROB sequence numbers out of age order.
    RobAgeOrder,
    /// Load- or store-queue sequence numbers out of age order.
    LsqAgeOrder,
    /// An RGID beyond its allocator counter, or non-reused destination
    /// generations out of order.
    RgidMonotone,
    /// A store marked as reused.
    StoreReuse,
    /// A granted register whose value differs from re-execution.
    ReuseValue,
    /// `verify_pending` on a non-reused-load entry, or a commit gated by
    /// an unfinished verification.
    ReusedLoadVerify,
    /// An issued load-queue entry without a recorded address.
    LoadIssuedAddr,
    /// An issued load despite an older address-known/data-pending store
    /// to the same block.
    ForwardPending,
    /// The CPI-stack account lost or invented commit slots
    /// (`sum(categories) != cycles × commit_width`), or its reuse credit
    /// exceeds the squash-penalty slots it is clamped against.
    CpiConservation,
    /// A basic-block-vector trace lost or invented instructions: each
    /// interval's per-block counts must sum to its instruction count,
    /// and the interval counts must sum to the functional pass's total.
    BbvConservation,
}

impl Rule {
    /// The rule's stable name (also the panic-message prefix, so tests
    /// can `#[should_panic(expected = ...)]` on it).
    pub fn name(self) -> &'static str {
        match self {
            Rule::FreeListIntegrity => "free-list-integrity",
            Rule::FreeListConservation => "free-list-conservation",
            Rule::RobAgeOrder => "rob-age-order",
            Rule::LsqAgeOrder => "lsq-age-order",
            Rule::RgidMonotone => "rgid-monotone",
            Rule::StoreReuse => "store-reuse",
            Rule::ReuseValue => "reuse-value",
            Rule::ReusedLoadVerify => "reused-load-verify",
            Rule::LoadIssuedAddr => "load-issued-addr",
            Rule::ForwardPending => "forward-pending",
            Rule::CpiConservation => "cpi-conservation",
            Rule::BbvConservation => "bbv-conservation",
        }
    }
}

/// One detected invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The broken rule.
    pub rule: Rule,
    /// What exactly disagreed (register ids, sequence numbers, counts).
    pub detail: String,
}

impl Violation {
    fn new(rule: Rule, detail: impl Into<String>) -> Violation {
        Violation { rule, detail: detail.into() }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.rule.name(), self.detail)
    }
}

/// Checks that `seqs` is strictly increasing (oldest first).
pub fn check_age_order(
    rule: Rule,
    what: &str,
    seqs: impl Iterator<Item = SeqNum>,
) -> Option<Violation> {
    let mut prev: Option<SeqNum> = None;
    for s in seqs {
        if let Some(p) = prev {
            if s <= p {
                return Some(Violation::new(
                    rule,
                    format!("{what} entry {s} follows {p} (must be strictly older-to-younger)"),
                ));
            }
        }
        prev = Some(s);
    }
    None
}

/// Checks hold conservation: every hold in the free list is owned either
/// by a live mapping (RAT or ROB) or by the engine's reservations.
pub fn check_conservation(
    total_holds: u64,
    live_mappings: u64,
    engine_reserved: u64,
) -> Option<Violation> {
    if total_holds != live_mappings + engine_reserved {
        let (verb, n) = if total_holds > live_mappings + engine_reserved {
            ("leaked", total_holds - live_mappings - engine_reserved)
        } else {
            ("lost", live_mappings + engine_reserved - total_holds)
        };
        return Some(Violation::new(
            Rule::FreeListConservation,
            format!(
                "{n} hold(s) {verb}: {total_holds} total holds vs {live_mappings} live \
                 mappings + {engine_reserved} engine reservations"
            ),
        ));
    }
    None
}

/// Checks per-architectural-register RGID sanity over ROB destinations,
/// oldest first: no live generation beyond its allocator counter, and
/// strictly increasing generations across *non-reused* destinations
/// (reused destinations carry forwarded, possibly older generations).
///
/// `counters[a]` is the allocator's current value for architectural
/// register index `a`; entries are `(arch_index, new_rgid, reused)`.
pub fn check_rgids(
    counters: &[u16],
    entries: impl Iterator<Item = (usize, Rgid, bool)>,
) -> Option<Violation> {
    let mut last: [Option<u16>; NUM_ARCH_REGS] = [None; NUM_ARCH_REGS];
    for (a, g, reused) in entries {
        if g.is_null() {
            continue; // nulled by a global reset; never compared again
        }
        if g.value() > counters[a] {
            return Some(Violation::new(
                Rule::RgidMonotone,
                format!("arch r{a} carries {g} beyond its allocator counter {}", counters[a]),
            ));
        }
        if reused {
            continue; // forwarded generation; ordering exemption
        }
        if let Some(prev) = last[a] {
            if g.value() <= prev {
                return Some(Violation::new(
                    Rule::RgidMonotone,
                    format!("arch r{a} allocated {g} after g{prev} (must be strictly increasing)"),
                ));
            }
        }
        last[a] = Some(g.value());
    }
    None
}

/// Checks reuse safety over ROB entries: stores are never reused, and
/// `verify_pending` appears only on reused loads.
///
/// Entries are `(seq, is_store, is_load, reused, verify_pending)`.
pub fn check_reuse_safety(
    entries: impl Iterator<Item = (SeqNum, bool, bool, bool, bool)>,
) -> Option<Violation> {
    for (seq, is_store, is_load, reused, verify_pending) in entries {
        if is_store && reused {
            return Some(Violation::new(
                Rule::StoreReuse,
                format!("store {seq} marked as reused (stores must always execute)"),
            ));
        }
        if verify_pending && !(reused && is_load) {
            return Some(Violation::new(
                Rule::ReusedLoadVerify,
                format!("{seq} has verify_pending but is not a reused load"),
            ));
        }
    }
    None
}

/// Checks a non-load reuse grant against re-execution: `granted` (the
/// value in the granted register `preg`) must equal `fresh`, what the
/// instruction computes from its current sources.
pub fn check_reuse_value(
    seq: SeqNum,
    preg: PhysReg,
    granted: u64,
    fresh: u64,
) -> Option<Violation> {
    if granted != fresh {
        return Some(Violation::new(
            Rule::ReuseValue,
            format!("{seq} granted {preg} holding {granted}; re-execution yields {fresh}"),
        ));
    }
    None
}

/// Checks that an instruction about to commit is not gated by an
/// unfinished reused-load verification ("every reused load verified
/// before commit"). The commit stage refuses such heads; this rule is
/// the backstop should that gate ever regress.
pub fn check_commit_entry(seq: SeqNum, reused: bool, verify_pending: bool) -> Option<Violation> {
    if verify_pending {
        return Some(Violation::new(
            Rule::ReusedLoadVerify,
            format!(
                "{seq} committing with verify_pending set (reused={reused}); \
                 reused loads must be verified before commit"
            ),
        ));
    }
    None
}

/// Checks the load/store queues: age order in each half, issued loads
/// have addresses, and no issued load coexists with an older
/// address-known/data-pending store to the same block.
pub fn check_lsq<'a>(
    loads: impl Iterator<Item = &'a LqEntry> + Clone,
    stores: impl Iterator<Item = &'a SqEntry> + Clone,
) -> Option<Violation> {
    if let Some(v) = check_age_order(Rule::LsqAgeOrder, "load queue", loads.clone().map(|l| l.seq))
    {
        return Some(v);
    }
    if let Some(v) =
        check_age_order(Rule::LsqAgeOrder, "store queue", stores.clone().map(|s| s.seq))
    {
        return Some(v);
    }
    // Reused entries are exempt: a grant may carry no recorded address
    // (the engine's verification policy covers that case instead).
    for l in loads.clone() {
        if l.issued && !l.reused && l.addr.is_none() {
            return Some(Violation::new(
                Rule::LoadIssuedAddr,
                format!(
                    "load {} issued without a recorded address (invisible to store_check)",
                    l.seq
                ),
            ));
        }
    }
    // Address-known/data-pending stores are the Forward::Pending case;
    // a younger load that issued anyway read stale memory. The filter
    // runs first because such stores are rare (the simulator computes
    // address and data together), keeping the sweep near O(stores).
    for s in stores {
        let (Some(sa), None) = (s.addr, s.data) else { continue };
        for l in loads.clone() {
            if l.seq > s.seq && l.issued && l.addr.is_some_and(|la| la >> 3 == sa >> 3) {
                return Some(Violation::new(
                    Rule::ForwardPending,
                    format!(
                        "load {} issued past store {} (address {sa:#x} known, data pending)",
                        l.seq, s.seq
                    ),
                ));
            }
        }
    }
    None
}

/// Checks the CPI-stack conservation law: the account attributes exactly
/// `cycles × commit_width` commit slots across its categories, and its
/// reuse credit stays within the squash-penalty slots it is clamped to.
pub fn check_cpi_account(
    account: &CycleAccount,
    cycles: u64,
    commit_width: u64,
) -> Option<Violation> {
    let expect = cycles * commit_width;
    let got = account.total_slots();
    if got != expect {
        let (verb, n) =
            if got > expect { ("invented", got - expect) } else { ("lost", expect - got) };
        return Some(Violation::new(
            Rule::CpiConservation,
            format!(
                "{n} commit slot(s) {verb}: account holds {got} slots \
                 vs {cycles} cycles \u{d7} width {commit_width} = {expect}"
            ),
        ));
    }
    let cap = account.get(Category::SquashBranch);
    if account.credit_reuse_cycles > cap {
        return Some(Violation::new(
            Rule::CpiConservation,
            format!(
                "reuse credit {} exceeds the {cap} squash-penalty slot(s) it is clamped to",
                account.credit_reuse_cycles
            ),
        ));
    }
    None
}

/// Checks the basic-block-vector conservation law: within every
/// interval the per-block counts sum to the interval's instruction
/// count, and across intervals the counts sum to `expected_insts` — the
/// instruction total the functional pass reported. A mismatch means the
/// collector dropped or invented instructions, which would silently skew
/// every downstream cluster weight.
pub fn check_bbv(intervals: &[crate::bbv::BbvInterval], expected_insts: u64) -> Option<Violation> {
    let mut total = 0u64;
    for (i, iv) in intervals.iter().enumerate() {
        let got = iv.block_insts();
        if got != iv.insts {
            return Some(Violation::new(
                Rule::BbvConservation,
                format!(
                    "interval {i} (start {}): block counts sum to {got}, \
                     interval executed {} instruction(s)",
                    iv.start_inst, iv.insts
                ),
            ));
        }
        total += iv.insts;
    }
    if total != expected_insts {
        return Some(Violation::new(
            Rule::BbvConservation,
            format!(
                "intervals account for {total} instruction(s), \
                 functional pass executed {expected_insts}"
            ),
        ));
    }
    None
}

/// How often the debug-build checker sweeps the machine state, from the
/// `MSSR_CHECK_STRIDE` environment variable (read once): `1` (the
/// default) checks every cycle, `N` every N cycles, `0` disables the
/// per-cycle sweep (the post-squash sweep still runs). A relief valve
/// for long debug-build simulations; CI leaves it unset.
// Only the debug-build sweep in `Simulator::step` calls this.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
pub fn check_stride() -> u64 {
    use std::sync::OnceLock;
    static STRIDE: OnceLock<u64> = OnceLock::new();
    *STRIDE.get_or_init(|| {
        std::env::var("MSSR_CHECK_STRIDE").ok().and_then(|s| s.parse().ok()).unwrap_or(1)
    })
}

/// Sweeps the full machine state against every [`Rule`], returning all
/// violations found (empty for a healthy pipeline). Allocating
/// convenience wrapper over [`machine_violations_with`] for tests and
/// tools; the debug-build hot path passes scratch bitmaps instead.
pub(crate) fn machine_violations(st: &MachineState, engine: &dyn ReuseEngine) -> Vec<Violation> {
    let mut live = Vec::new();
    let mut queued = Vec::new();
    machine_violations_with(st, engine, &mut live, &mut queued)
}

/// The full rule sweep over caller-provided scratch bitmaps (cleared and
/// refilled), so a clean sweep allocates nothing: `Vec::new()` defers its
/// first allocation to the first push, and violations are the only thing
/// pushed.
pub(crate) fn machine_violations_with(
    st: &MachineState,
    engine: &dyn ReuseEngine,
    live: &mut Vec<bool>,
    queued: &mut Vec<bool>,
) -> Vec<Violation> {
    let mut out = Vec::new();

    // Free-list internal integrity, then the per-mapping hold checks
    // (a mapped or in-flight register must never be allocatable).
    if let Err(detail) = st.free_list.validate_with(queued) {
        out.push(Violation { rule: Rule::FreeListIntegrity, detail });
    }
    for a in ArchReg::all() {
        let p = st.rat.lookup(a);
        if st.free_list.holds(p) == 0 {
            out.push(Violation {
                rule: Rule::FreeListIntegrity,
                detail: format!("RAT maps {a} to {p} which has no holds"),
            });
        }
    }
    for e in st.rob.iter() {
        if let Some(d) = e.dst {
            for (what, p) in [("destination", d.new_preg), ("rollback target", d.prev_preg)] {
                if st.free_list.holds(p) == 0 {
                    out.push(Violation {
                        rule: Rule::FreeListIntegrity,
                        detail: format!("ROB {} has {what} {p} with no holds", e.seq),
                    });
                }
            }
        }
    }

    // Hold conservation: every hold belongs to a live mapping (RAT
    // target, in-flight ROB destination, or rollback target — as a
    // *set*: each live register carries exactly one pipeline hold) or
    // to the engine's reservations.
    live.clear();
    live.resize(st.free_list.num_regs(), false);
    for a in ArchReg::all() {
        live[st.rat.lookup(a).index()] = true;
    }
    for e in st.rob.iter() {
        if let Some(d) = e.dst {
            live[d.new_preg.index()] = true;
            live[d.prev_preg.index()] = true;
        }
    }
    let live_mappings = live.iter().filter(|&&l| l).count() as u64;
    if let Some(v) =
        check_conservation(st.free_list.total_holds(), live_mappings, engine.reserved_hold_count())
    {
        out.push(v);
    }

    if let Some(v) = check_age_order(Rule::RobAgeOrder, "ROB", st.rob.iter().map(|e| e.seq)) {
        out.push(v);
    }
    if let Some(v) = check_rgids(
        st.rgids.counters(),
        st.rob.iter().filter_map(|e| e.dst.map(|d| (d.arch.index(), d.new_rgid, e.reused))),
    ) {
        out.push(v);
    }
    if let Some(v) = check_reuse_safety(
        st.rob
            .iter()
            .map(|e| (e.seq, e.inst.is_store(), e.inst.is_load(), e.reused, e.verify_pending)),
    ) {
        out.push(v);
    }
    if let Some(v) = check_lsq(st.lsq.loads(), st.lsq.stores()) {
        out.push(v);
    }
    // The account accrues immediately before the cycle counter
    // increments, so the law holds exactly at every sweep point: the
    // per-cycle sweep (after the increment) and the post-squash
    // thorough sweep (mid-cycle, before this cycle's accrual).
    if let Some(v) = check_cpi_account(&st.account, st.cycle, st.cfg.commit_width as u64) {
        out.push(v);
    }
    out
}

/// One fused, allocation-free pass over the machine state checking the
/// same invariants as [`machine_violations`] minus the free list's
/// internal-integrity scan (covered by the thorough sweep after every
/// squash). This is the per-cycle debug-build hot path: it only answers
/// clean/dirty; diagnosis is re-derived by the rule functions when it
/// reports dirty. Kept semantically a subset of the thorough sweep —
/// [`assert_sweep`] enforces that.
#[cfg(debug_assertions)]
pub(crate) fn sweep_is_clean(
    st: &MachineState,
    engine: &dyn ReuseEngine,
    live: &mut Vec<bool>,
) -> bool {
    let fl = &st.free_list;
    live.clear();
    live.resize(fl.num_regs(), false);
    let mut live_count: u64 = 0;
    for a in ArchReg::all() {
        let p = st.rat.lookup(a);
        if fl.holds(p) == 0 {
            return false;
        }
        if !live[p.index()] {
            live[p.index()] = true;
            live_count += 1;
        }
    }
    let counters = st.rgids.counters();
    let mut prev: Option<SeqNum> = None;
    let mut last: [Option<u16>; NUM_ARCH_REGS] = [None; NUM_ARCH_REGS];
    for e in st.rob.iter() {
        if prev.is_some_and(|p| e.seq <= p) {
            return false;
        }
        prev = Some(e.seq);
        if e.inst.is_store() && e.reused {
            return false;
        }
        if e.verify_pending && !(e.reused && e.inst.is_load()) {
            return false;
        }
        if let Some(d) = e.dst {
            for p in [d.new_preg, d.prev_preg] {
                if fl.holds(p) == 0 {
                    return false;
                }
                if !live[p.index()] {
                    live[p.index()] = true;
                    live_count += 1;
                }
            }
            let g = d.new_rgid;
            if !g.is_null() {
                let a = d.arch.index();
                if g.value() > counters[a] {
                    return false;
                }
                if !e.reused {
                    if last[a].is_some_and(|prev| g.value() <= prev) {
                        return false;
                    }
                    last[a] = Some(g.value());
                }
            }
        }
    }
    fl.total_holds() == live_count + engine.reserved_hold_count()
        && check_lsq(st.lsq.loads(), st.lsq.stores()).is_none()
        && check_cpi_account(&st.account, st.cycle, st.cfg.commit_width as u64).is_none()
}

/// Panics on the first invariant violation (debug-build backstop).
/// The fused sweep screens; the rule functions produce the report.
#[cfg(debug_assertions)]
pub(crate) fn assert_sweep(st: &MachineState, engine: &dyn ReuseEngine, scratch: &mut Scratch) {
    if sweep_is_clean(st, engine, &mut scratch.live) {
        return;
    }
    assert_thorough(st, engine, scratch);
    panic!(
        "invariant sweep flagged cycle {} but the thorough check found nothing \
         (fast/thorough sweep divergence — this is a checker bug)",
        st.cycle
    );
}

/// The thorough variant: full rule-function sweep including free-list
/// internal integrity. Run after every squash and on demand.
#[cfg(debug_assertions)]
pub(crate) fn assert_thorough(st: &MachineState, engine: &dyn ReuseEngine, scratch: &mut Scratch) {
    if let Some(v) =
        machine_violations_with(st, engine, &mut scratch.live, &mut scratch.queued).first()
    {
        panic!("invariant violation at cycle {}: {v}", st.cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(v: &[u64]) -> impl Iterator<Item = SeqNum> + '_ {
        v.iter().map(|&s| SeqNum::new(s))
    }

    #[test]
    fn age_order_accepts_strictly_increasing() {
        assert!(check_age_order(Rule::RobAgeOrder, "rob", seqs(&[1, 2, 5, 9])).is_none());
        assert!(check_age_order(Rule::RobAgeOrder, "rob", seqs(&[])).is_none());
        assert!(check_age_order(Rule::RobAgeOrder, "rob", seqs(&[7])).is_none());
    }

    #[test]
    fn age_order_rejects_reorder_and_duplicate() {
        // A reordered LSQ push: entry 4 dispatched after entry 5.
        let v = check_age_order(Rule::LsqAgeOrder, "load queue", seqs(&[2, 5, 4])).unwrap();
        assert_eq!(v.rule, Rule::LsqAgeOrder);
        assert!(v.detail.contains("#4 follows #5"), "{}", v.detail);
        assert!(v.to_string().starts_with("lsq-age-order:"));
        assert!(check_age_order(Rule::RobAgeOrder, "rob", seqs(&[3, 3])).is_some());
    }

    #[test]
    fn conservation_balances_live_and_reserved() {
        assert!(check_conservation(40, 33, 7).is_none());
        let leak = check_conservation(41, 33, 7).unwrap();
        assert_eq!(leak.rule, Rule::FreeListConservation);
        assert!(leak.detail.contains("1 hold(s) leaked"), "{}", leak.detail);
        let lost = check_conservation(39, 33, 7).unwrap();
        assert!(lost.detail.contains("lost"), "{}", lost.detail);
    }

    #[test]
    fn rgid_rules_allow_forwarding_but_not_fabrication() {
        let mut counters = vec![0u16; NUM_ARCH_REGS];
        counters[5] = 10;
        // Allocation order 3, 7 is fine; a reused entry forwarding the
        // older generation 4 in between is the paper's §3.1 forwarding.
        let ok = [(5, Rgid::new(3), false), (5, Rgid::new(4), true), (5, Rgid::new(7), false)];
        assert!(check_rgids(&counters, ok.iter().copied()).is_none());
        // A generation beyond the allocator counter cannot exist.
        let beyond = [(5, Rgid::new(11), false)];
        let v = check_rgids(&counters, beyond.iter().copied()).unwrap();
        assert_eq!(v.rule, Rule::RgidMonotone);
        assert!(v.detail.contains("beyond its allocator counter"), "{}", v.detail);
        // Non-reused allocations must be strictly increasing.
        let reorder = [(5, Rgid::new(7), false), (5, Rgid::new(3), false)];
        assert!(check_rgids(&counters, reorder.iter().copied()).is_some());
        // Null generations are never compared.
        let nulls = [(5, Rgid::NULL, false), (5, Rgid::new(1), false)];
        assert!(check_rgids(&counters, nulls.iter().copied()).is_none());
    }

    #[test]
    fn reuse_safety_rejects_reused_stores() {
        // (seq, is_store, is_load, reused, verify_pending)
        let ok = [
            (SeqNum::new(1), false, true, true, true),
            (SeqNum::new(2), true, false, false, false),
        ];
        assert!(check_reuse_safety(ok.iter().copied()).is_none());
        let store = [(SeqNum::new(3), true, false, true, false)];
        let v = check_reuse_safety(store.iter().copied()).unwrap();
        assert_eq!(v.rule, Rule::StoreReuse);
        let stray = [(SeqNum::new(4), false, false, false, true)];
        assert_eq!(check_reuse_safety(stray.iter().copied()).unwrap().rule, Rule::ReusedLoadVerify);
    }

    #[test]
    fn commit_gate_requires_verification() {
        assert!(check_commit_entry(SeqNum::new(9), true, false).is_none());
        let v = check_commit_entry(SeqNum::new(9), true, true).unwrap();
        assert_eq!(v.rule, Rule::ReusedLoadVerify);
        assert!(v.detail.contains("before commit"));
    }

    #[test]
    fn cpi_account_balances_slots_and_credit() {
        let mut a = CycleAccount::default();
        a.accrue(5, Category::MemStall, 8);
        a.accrue(0, Category::SquashBranch, 8);
        assert!(check_cpi_account(&a, 2, 8).is_none());
        // One slot too few attributed (an uncounted cycle).
        let lost = check_cpi_account(&a, 3, 8).unwrap();
        assert_eq!(lost.rule, Rule::CpiConservation);
        assert!(lost.detail.contains("lost"), "{}", lost.detail);
        // One slot too many (a double-blamed cycle).
        let invented = check_cpi_account(&a, 1, 8).unwrap();
        assert!(invented.detail.contains("invented"), "{}", invented.detail);
        // Credit within the squash-penalty cap is fine; beyond it is not.
        a.credit_reuse_cycles = 8;
        assert!(check_cpi_account(&a, 2, 8).is_none());
        a.credit_reuse_cycles = 9;
        let over = check_cpi_account(&a, 2, 8).unwrap();
        assert_eq!(over.rule, Rule::CpiConservation);
        assert!(over.detail.contains("exceeds"), "{}", over.detail);
    }

    #[test]
    fn lsq_rules_cover_order_addresses_and_pending_stores() {
        let load = |seq: u64, addr: Option<u64>, issued: bool| LqEntry {
            seq: SeqNum::new(seq),
            addr,
            issued,
            value: None,
            reused: false,
        };
        let store = |seq: u64, addr: Option<u64>, data: Option<u64>| SqEntry {
            seq: SeqNum::new(seq),
            addr,
            data,
        };

        let clean_l = [load(2, Some(0x100), true), load(6, None, false)];
        let clean_s = [store(1, Some(0x200), Some(7)), store(4, None, None)];
        assert!(check_lsq(clean_l.iter(), clean_s.iter()).is_none());

        let reordered = [load(6, None, false), load(2, None, false)];
        assert_eq!(check_lsq(reordered.iter(), clean_s.iter()).unwrap().rule, Rule::LsqAgeOrder);

        let missing_addr = [load(2, None, true)];
        assert_eq!(
            check_lsq(missing_addr.iter(), clean_s.iter()).unwrap().rule,
            Rule::LoadIssuedAddr
        );

        // Store 3 knows its address but not its data; load 5 to the same
        // block must not have issued.
        let pend_s = [store(3, Some(0x104), None)];
        let pend_l = [load(5, Some(0x100), true)];
        let v = check_lsq(pend_l.iter(), pend_s.iter()).unwrap();
        assert_eq!(v.rule, Rule::ForwardPending);
        // An older load, a different block, or an unissued load is fine.
        let ok_l = [load(2, Some(0x100), true)];
        assert!(check_lsq(ok_l.iter(), pend_s.iter()).is_none(), "older load");
        let other_l = [load(5, Some(0x108), true)];
        assert!(check_lsq(other_l.iter(), pend_s.iter()).is_none(), "different block");
        let unissued_l = [load(5, Some(0x100), false)];
        assert!(check_lsq(unissued_l.iter(), pend_s.iter()).is_none(), "not yet issued");
    }
}
