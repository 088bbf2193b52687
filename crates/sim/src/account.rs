//! Per-cycle CPI-stack accounting.
//!
//! Every simulated cycle the commit stage owns `commit_width` slots;
//! each slot either retires an instruction or goes idle for exactly one
//! reason. This module attributes every slot to one [`Category`], giving
//! the classic CPI-stack decomposition the paper's evaluation leans on
//! (where do the cycles go, and which of them does squash reuse win
//! back). The attribution is integer-only and derived from deterministic
//! pipeline state, so accounts are byte-identical across runs, `--jobs`
//! values, and platforms — like every other counter in `SimStats`.
//!
//! The account obeys a hard conservation law:
//!
//! ```text
//! sum(slots over all categories) == cycles × commit_width
//! ```
//!
//! enforced every debug-build cycle by the invariant checker
//! ([`Rule::CpiConservation`](crate::check::Rule)). A partial final
//! cycle — the commit that retires `halt` or hits an instruction bound —
//! is never counted (`Simulator::step` stops before incrementing the
//! cycle counter), which is what keeps the law exact rather than
//! approximate.
//!
//! Alongside the stack, two **credit** counters estimate what reuse won:
//! [`CycleAccount::credit_reuse_cycles`] accumulates the execution
//! latency each granted instruction skipped, and
//! [`CycleAccount::credit_recon_fetches`] counts grants delivered
//! through a reconvergence stream (RGID-forwarding engines). Credits are
//! clamped so they never exceed the squash-penalty slots actually
//! accrued: reuse cannot recover more cycles than mispredictions lost.

/// Why a commit slot was spent (or idle) this cycle.
///
/// Exactly one category applies per slot. The first, [`Category::Base`],
/// is the useful work; the rest decompose the lost slots by the reason
/// the commit head (or the whole ROB) was not ready.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Category {
    /// The slot retired an instruction.
    Base,
    /// The ROB was empty with no recent squash to blame: the frontend
    /// simply had not delivered (cold start, fetch off the program).
    FrontendEmpty,
    /// The ROB was empty while refilling after a branch-misprediction
    /// squash — the squash penalty squash reuse targets.
    SquashBranch,
    /// The commit head was an uncompleted load or store waiting on the
    /// memory system (or the ROB was refilling after a memory-order
    /// replay).
    MemStall,
    /// The commit head was a load requeued behind an older store that
    /// knows its address but not yet its data
    /// ([`Forward::Pending`](crate::lsq::Forward)).
    StoreForwardPending,
    /// The commit head was an uncompleted non-memory instruction:
    /// execution latency, issue-queue backpressure, or operand waits —
    /// backend pressure rather than any memory or control cause.
    BackendPressure,
    /// The commit head was a reused load whose verification re-execution
    /// had not finished, or the ROB was refilling after a
    /// reuse-verification flush.
    ReuseVerify,
}

impl Category {
    /// Number of categories (size of the slot array).
    pub const COUNT: usize = 7;

    /// All categories, in slot-index order.
    pub const ALL: [Category; Category::COUNT] = [
        Category::Base,
        Category::FrontendEmpty,
        Category::SquashBranch,
        Category::MemStall,
        Category::StoreForwardPending,
        Category::BackendPressure,
        Category::ReuseVerify,
    ];

    /// The category's stable name (the JSON key of the account object
    /// and the column header of `mssr-report`'s CPI-stack table).
    pub fn name(self) -> &'static str {
        match self {
            Category::Base => "base",
            Category::FrontendEmpty => "frontend_empty",
            Category::SquashBranch => "squash_branch",
            Category::MemStall => "mem_stall",
            Category::StoreForwardPending => "store_forward_pending",
            Category::BackendPressure => "backend_pressure",
            Category::ReuseVerify => "reuse_verify",
        }
    }

    /// The category's index into the slot array.
    pub fn index(self) -> usize {
        match self {
            Category::Base => 0,
            Category::FrontendEmpty => 1,
            Category::SquashBranch => 2,
            Category::MemStall => 3,
            Category::StoreForwardPending => 4,
            Category::BackendPressure => 5,
            Category::ReuseVerify => 6,
        }
    }
}

/// The cycle account of one simulation: commit-slot attribution plus
/// reuse-credit counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleAccount {
    /// Slots attributed per category, indexed by [`Category::index`].
    pub slots: [u64; Category::COUNT],
    /// Execution-latency cycles skipped by reuse grants (granted
    /// instructions × the latency each would have occupied a functional
    /// unit for), clamped to never exceed `slots[SquashBranch]`.
    pub credit_reuse_cycles: u64,
    /// Grants delivered through a reconvergence stream (the engine
    /// forwarded an RGID — MSSR/DCI; Register Integration grants carry
    /// none and are not counted here).
    pub credit_recon_fetches: u64,
}

impl CycleAccount {
    /// Attributes the `commit_width` slots of one cycle: `committed`
    /// slots retired instructions ([`Category::Base`]), the remainder is
    /// blamed on `idle`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `committed > commit_width` — the commit loop is
    /// bounded by the width, so overshoot is a pipeline bug.
    pub fn accrue(&mut self, committed: u64, idle: Category, commit_width: u64) {
        debug_assert!(committed <= commit_width, "committed {committed} > width {commit_width}");
        self.slots[Category::Base.index()] += committed;
        self.slots[idle.index()] += commit_width - committed.min(commit_width);
    }

    /// Credits `latency` skipped execution cycles to reuse, clamped so
    /// the running credit never exceeds the squash-penalty slots accrued
    /// so far (reuse cannot recover more than mispredictions lost).
    pub fn credit_reuse(&mut self, latency: u64) {
        let cap = self.slots[Category::SquashBranch.index()];
        self.credit_reuse_cycles = (self.credit_reuse_cycles + latency).min(cap);
    }

    /// Total slots attributed across all categories. The conservation
    /// law says this always equals `cycles × commit_width`.
    pub fn total_slots(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Slots attributed to one category.
    pub fn get(&self, c: Category) -> u64 {
        self.slots[c.index()]
    }

    /// The account's counters as `(name, value)`: one slot per
    /// category in [`Category::ALL`] order, then the two credits. This is
    /// the account's JSON key order, checkpoint byte order and merge
    /// order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Category::ALL.iter().map(|c| c.name()).zip(self.slots).chain([
            ("credit_reuse_cycles", self.credit_reuse_cycles),
            ("credit_recon_fetches", self.credit_recon_fetches),
        ])
    }

    /// The walk of [`CycleAccount::counters`] as `(name, &mut value)`.
    pub fn counters_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> + '_ {
        Category::ALL.iter().map(|c| c.name()).zip(self.slots.iter_mut()).chain([
            ("credit_reuse_cycles", &mut self.credit_reuse_cycles),
            ("credit_recon_fetches", &mut self.credit_recon_fetches),
        ])
    }

    /// Counter-wise `self = f(self, other)` (see
    /// [`SimStats::merge`](crate::SimStats::merge)).
    pub fn merge(&mut self, other: &CycleAccount, f: fn(u64, u64) -> u64) {
        crate::stats::fold(self.counters_mut(), other.counters(), f);
    }

    /// The account as a JSON object (stable key order, integers only —
    /// byte-identical across runs and platforms). Nested under
    /// `"account"` in [`SimStats::to_json`](crate::SimStats::to_json).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        crate::stats::json_members(&mut out, self.counters());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_round_trip_names_and_indices() {
        for (i, c) in Category::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let names: Vec<&str> = Category::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "base",
                "frontend_empty",
                "squash_branch",
                "mem_stall",
                "store_forward_pending",
                "backend_pressure",
                "reuse_verify"
            ]
        );
    }

    #[test]
    fn accrue_conserves_slots_per_cycle() {
        let mut a = CycleAccount::default();
        a.accrue(8, Category::Base, 8); // full commit: no idle slots
        a.accrue(3, Category::MemStall, 8);
        a.accrue(0, Category::FrontendEmpty, 8);
        assert_eq!(a.total_slots(), 3 * 8);
        assert_eq!(a.get(Category::Base), 11);
        assert_eq!(a.get(Category::MemStall), 5);
        assert_eq!(a.get(Category::FrontendEmpty), 8);
    }

    #[test]
    fn credit_is_clamped_to_squash_slots() {
        let mut a = CycleAccount::default();
        a.credit_reuse(5);
        assert_eq!(a.credit_reuse_cycles, 0, "no squash penalty yet: nothing to recover");
        a.accrue(0, Category::SquashBranch, 8);
        a.credit_reuse(5);
        a.credit_reuse(5);
        assert_eq!(a.credit_reuse_cycles, 8, "clamped at the accrued penalty");
        a.accrue(0, Category::SquashBranch, 8);
        a.credit_reuse(3);
        assert_eq!(a.credit_reuse_cycles, 11, "cap grows with the penalty");
    }

    #[test]
    fn json_schema_is_stable() {
        let mut a = CycleAccount::default();
        a.accrue(2, Category::SquashBranch, 4);
        a.credit_reuse(1);
        a.credit_recon_fetches = 7;
        assert_eq!(
            a.to_json(),
            "{\"base\":2,\"frontend_empty\":0,\"squash_branch\":2,\"mem_stall\":0,\
             \"store_forward_pending\":0,\"backend_pressure\":0,\"reuse_verify\":0,\
             \"credit_reuse_cycles\":1,\"credit_recon_fetches\":7}"
        );
    }
}
