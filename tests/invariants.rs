//! The invariant checker catches seeded corruption.
//!
//! Each test plants one specific kind of microarchitectural damage — a
//! leaked physical-register hold, an out-of-order LSQ entry, a "reused"
//! store, a lost issue-queue wakeup — and asserts that the matching
//! checker rule reports it. These are the negative controls for the
//! debug-build sweep in `Simulator::step`: a checker that never fires on
//! clean runs is only trustworthy if it demonstrably fires on dirty ones.

use mssr::core::{MssrConfig, MultiStreamReuse, RiConfig};
use mssr::sim::{
    check_age_order, check_conservation, check_cpi_account, check_iq_wakeup, check_lsq,
    check_reuse_safety, check_rgids, Category, CycleAccount, EngineCtx, FuClass, LqEntry, PhysReg,
    ReuseEngine, Rgid, Rule, SeqNum, SimConfig, SqEntry, SquashEvent,
};
use mssr::workloads::microbench;

fn cfg() -> SimConfig {
    SimConfig::default().with_max_cycles(50_000_000)
}

fn lq(seq: u64) -> LqEntry {
    LqEntry { seq: SeqNum::new(seq), addr: None, issued: false, value: None, reused: false }
}

fn sq(seq: u64) -> SqEntry {
    SqEntry { seq: SeqNum::new(seq), addr: None, data: None }
}

/// An engine that retains the destination register of the first squashed
/// instruction it sees and never releases it — and, crucially, does not
/// report the hold through `reserved_hold_count`. From the checker's
/// point of view this is exactly what a free-list leak in the pipeline
/// would look like.
struct LeakyEngine {
    leaked: bool,
}

impl ReuseEngine for LeakyEngine {
    fn name(&self) -> &'static str {
        "leaky"
    }

    fn on_mispredict_squash(&mut self, ev: &SquashEvent, ctx: &mut EngineCtx<'_>) {
        if self.leaked {
            return;
        }
        if let Some(d) = ev.insts.iter().find_map(|i| i.dst) {
            ctx.free_list.retain(d.preg);
            self.leaked = true;
        }
    }
}

/// A seeded physical-register leak trips the conservation sweep on the
/// very cycle of the squash (the post-squash sweep is unconditional).
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "free-list-conservation")]
fn seeded_free_list_leak_is_detected() {
    let w = microbench::nested_mispred(400);
    w.run(cfg(), Some(Box::new(LeakyEngine { leaked: false })));
}

/// An engine whose reuse test ignores the sources: it retains the
/// result of one squashed ALU instruction and grants it to the next
/// non-load instruction at another PC. It reports its hold, so the
/// register accounting stays clean and only the granted value is wrong.
#[cfg(debug_assertions)]
struct WrongValueEngine {
    held: Option<(mssr::sim::PhysReg, mssr::isa::Pc)>,
}

#[cfg(debug_assertions)]
impl ReuseEngine for WrongValueEngine {
    fn name(&self) -> &'static str {
        "wrong-value"
    }

    fn on_mispredict_squash(&mut self, ev: &SquashEvent, ctx: &mut EngineCtx<'_>) {
        if self.held.is_some() {
            return;
        }
        let alu = ev.insts.iter().find(|i| {
            i.executed && !i.is_load && !i.is_store && !i.op.is_control() && i.dst.is_some()
        });
        if let Some(i) = alu {
            let d = i.dst.expect("filtered on dst");
            ctx.free_list.retain(d.preg);
            self.held = Some((d.preg, i.pc));
        }
    }

    fn try_reuse(
        &mut self,
        q: &mssr::sim::ReuseQuery<'_>,
        _ctx: &mut EngineCtx<'_>,
    ) -> Option<mssr::sim::ReuseGrant> {
        let (preg, pc) = self.held?;
        if q.inst.is_load() || q.pc == pc {
            return None;
        }
        self.held = None;
        Some(mssr::sim::ReuseGrant { preg, rgid: None, load_addr: None, needs_load_verify: false })
    }

    fn reserved_hold_count(&self) -> u64 {
        self.held.is_some() as u64
    }
}

/// Negative control for the `reuse-value` rule: a grant of a register
/// holding another instruction's result panics at the grant, before the
/// wrong value can reach a consumer.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "reuse-value")]
fn seeded_wrong_reuse_value_is_detected() {
    let w = microbench::nested_mispred(400);
    w.run(cfg(), Some(Box::new(WrongValueEngine { held: None })));
}

/// A reordered load-queue push trips the LSQ age-order rule.
#[test]
fn seeded_lsq_reorder_is_detected() {
    let loads = [lq(3), lq(7), lq(5)]; // 5 pushed after 7: out of age order
    let stores = [sq(2), sq(6)];
    let v = check_lsq(loads.iter(), stores.iter()).expect("reorder must be reported");
    assert_eq!(v.rule, Rule::LsqAgeOrder);
    assert!(v.to_string().contains("#5 follows #7"), "got: {v}");

    // The same damage on the store side is also caught.
    let stores = [sq(6), sq(2)];
    let v = check_lsq([lq(3)].iter(), stores.iter()).expect("store reorder must be reported");
    assert_eq!(v.rule, Rule::LsqAgeOrder);

    // And the direct age-order primitive agrees.
    let v =
        check_age_order(Rule::LsqAgeOrder, "load queue", [3, 7, 5].map(SeqNum::new).into_iter())
            .expect("primitive must agree");
    assert_eq!(v.rule, Rule::LsqAgeOrder);
}

/// An issue-queue entry still pending on a register the PRF already
/// holds (a lost wakeup), or a ready entry its ready list misses,
/// repeats or misorders, trips the iq-wakeup rule.
#[test]
fn seeded_iq_lost_wakeup_is_detected() {
    let s = SeqNum::new;
    let (p5, p6) = (PhysReg::new(5), PhysReg::new(6));
    let ready_regs = |p: PhysReg| p == p5; // p5 produced, p6 not yet
    let entries = [
        (s(2), FuClass::Alu, vec![p6]),
        (s(3), FuClass::Alu, vec![]),
        (s(4), FuClass::Lsu, vec![]),
    ];
    let ready = [(FuClass::Alu, s(3)), (FuClass::Lsu, s(4))];
    let check = |entries: &[(SeqNum, FuClass, Vec<PhysReg>)], ready: &[(FuClass, SeqNum)]| {
        check_iq_wakeup(
            "iq",
            entries.iter().map(|(seq, fu, p)| (*seq, *fu, p.iter().copied())),
            ready.iter().copied(),
            ready_regs,
        )
    };
    assert!(check(&entries, &ready).is_none(), "the clean state passes");

    // Entry #2 waits on p5, which writeback already produced.
    let mut lost = entries.clone();
    lost[0].2 = vec![p6, p5];
    let v = check(&lost, &ready).expect("lost wakeup must be reported");
    assert_eq!(v.rule, Rule::IqWakeup);
    assert!(v.to_string().contains("#2 still waits on p5"), "got: {v}");

    // Ready entry #3 missing from its list, listed twice, or listed
    // behind a younger entry; and a stale element for a waiting entry.
    let damaged: [&[(FuClass, SeqNum)]; 4] = [
        &[(FuClass::Lsu, s(4))],
        &[(FuClass::Alu, s(3)), (FuClass::Alu, s(3)), (FuClass::Lsu, s(4))],
        &[(FuClass::Alu, s(3)), (FuClass::Alu, s(2)), (FuClass::Lsu, s(4))],
        &[(FuClass::Alu, s(2)), (FuClass::Alu, s(3)), (FuClass::Lsu, s(4))],
    ];
    for list in damaged {
        let v = check(&entries, list).expect("ready-list damage must be reported");
        assert_eq!(v.rule, Rule::IqWakeup, "{list:?}");
    }
}

/// A store marked as reused trips the store-reuse rule: stores must
/// always execute (reuse would replay a wrong-path memory write).
#[test]
fn seeded_store_reuse_is_detected() {
    // (seq, is_store, is_load, reused, verify_pending)
    let entries = [
        (SeqNum::new(1), false, true, true, true), // reused load, verify pending: fine
        (SeqNum::new(2), true, false, false, false), // normal store: fine
        (SeqNum::new(3), true, false, true, false), // reused store: violation
    ];
    let v = check_reuse_safety(entries.into_iter()).expect("reused store must be reported");
    assert_eq!(v.rule, Rule::StoreReuse);
    assert!(v.to_string().contains("#3"), "got: {v}");
}

/// A verify_pending flag on a non-reused instruction is reported.
#[test]
fn seeded_stray_verify_pending_is_detected() {
    let entries = [(SeqNum::new(4), false, true, false, true)];
    let v = check_reuse_safety(entries.into_iter()).expect("stray verify must be reported");
    assert_eq!(v.rule, Rule::ReusedLoadVerify);
}

/// An RGID beyond its allocator counter (or allocated out of order)
/// trips the monotonicity rule; forwarded (reused) generations are
/// exempt from ordering but not from the counter bound.
#[test]
fn seeded_rgid_corruption_is_detected() {
    let mut counters = [10u16; 64];
    // Beyond the counter: arch r5 carries generation 11 with counter 10.
    let v = check_rgids(&counters, [(5usize, Rgid::new(11), false)].into_iter())
        .expect("overrun must be reported");
    assert_eq!(v.rule, Rule::RgidMonotone);

    // Non-monotone allocation on one architectural register.
    let v = check_rgids(
        &counters,
        [(5usize, Rgid::new(4), false), (5, Rgid::new(4), false)].into_iter(),
    )
    .expect("repeat must be reported");
    assert_eq!(v.rule, Rule::RgidMonotone);

    // A forwarded (reused) old generation between them is legal.
    counters[5] = 10;
    assert!(check_rgids(
        &counters,
        [(5usize, Rgid::new(4), false), (5, Rgid::new(2), true), (5, Rgid::new(7), false)]
            .into_iter(),
    )
    .is_none());

    // Nulled generations (post-reset) are never compared.
    assert!(check_rgids(&counters, [(5usize, Rgid::NULL, false)].into_iter()).is_none());
}

/// The conservation primitive distinguishes leaks from losses.
#[test]
fn seeded_conservation_imbalance_is_detected() {
    let v = check_conservation(10, 7, 2).expect("leak must be reported");
    assert_eq!(v.rule, Rule::FreeListConservation);
    assert!(v.to_string().contains("leaked"), "got: {v}");
    let v = check_conservation(8, 7, 2).expect("loss must be reported");
    assert!(v.to_string().contains("lost"), "got: {v}");
    assert!(check_conservation(9, 7, 2).is_none());
}

/// The CPI-conservation primitive distinguishes invented slots from
/// lost ones: every cycle must contribute exactly `commit_width` commit
/// slots to the account, no more, no less.
#[test]
fn seeded_cpi_imbalance_is_detected() {
    let mut a = CycleAccount::default();
    // One cycle at width 4: 2 committed + 2 idle slots blamed on squash.
    a.accrue(2, Category::SquashBranch, 4);
    assert!(check_cpi_account(&a, 1, 4).is_none(), "a balanced account passes");

    // The same account against two cycles is short 4 slots.
    let v = check_cpi_account(&a, 2, 4).expect("lost slots must be reported");
    assert_eq!(v.rule, Rule::CpiConservation);
    assert!(v.to_string().contains("lost"), "got: {v}");

    // Against zero cycles it has invented all 4.
    let v = check_cpi_account(&a, 0, 4).expect("invented slots must be reported");
    assert_eq!(v.rule, Rule::CpiConservation);
    assert!(v.to_string().contains("invented"), "got: {v}");

    // Reuse credit is clamped to the squash-penalty slots by
    // construction: crediting far more than the 2 squash slots sticks at
    // the cap and stays legal.
    a.credit_reuse(100);
    assert_eq!(a.credit_reuse_cycles, a.get(Category::SquashBranch));
    assert!(check_cpi_account(&a, 1, 4).is_none());
}

/// A seeded account corruption (one extra base slot) trips the
/// CPI-conservation rule in the debug sweep while the simulation runs.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "cpi-conservation")]
fn seeded_cpi_account_corruption_is_detected() {
    let w = microbench::nested_mispred(400);
    let mut sim = w.instantiate(cfg());
    sim.corrupt_account_for_test();
    sim.run();
}

/// Negative controls for the checkpoint envelope: a truncated file, a
/// wrong-version header, and a flipped payload byte are each rejected
/// with a *distinct* error — and a rejected envelope never mutates the
/// simulator (no silent partial restore).
#[test]
fn corrupted_checkpoints_are_rejected_with_distinct_errors() {
    use mssr::sim::CkptError;
    let w = microbench::nested_mispred(100);
    let mut sim = w.instantiate(cfg());
    sim.run_until_insts(200);
    assert!(!sim.is_halted(), "the checkpoint must be taken mid-run");
    let good = sim.snapshot();

    // Control for the controls: the pristine bytes restore cleanly.
    w.instantiate(cfg()).restore(&good).expect("pristine checkpoint restores");

    // Truncation anywhere — mid-header or mid-payload — is caught by the
    // length check before anything is parsed.
    for keep in [4, good.len() / 2, good.len() - 9] {
        let err = w.instantiate(cfg()).restore(&good[..keep]).unwrap_err();
        assert!(matches!(err, CkptError::Truncated { .. }), "keep={keep}: got {err}");
    }

    // A corrupted magic is not mistaken for a version or checksum error.
    let mut bad = good.clone();
    bad[0] ^= 0x20;
    let err = w.instantiate(cfg()).restore(&bad).unwrap_err();
    assert!(matches!(err, CkptError::BadMagic), "got: {err}");

    // A future (or mangled) version number in the header is refused
    // outright — forward compatibility is explicit, not best-effort.
    let mut bad = good.clone();
    bad[8] ^= 0xff; // first byte of the little-endian version field
    let err = w.instantiate(cfg()).restore(&bad).unwrap_err();
    assert!(matches!(err, CkptError::BadVersion { .. }), "got: {err}");

    // A single flipped payload byte trips the checksum.
    let mut bad = good.clone();
    let mid = good.len() / 2;
    bad[mid] ^= 0x01;
    let err = w.instantiate(cfg()).restore(&bad).unwrap_err();
    assert!(matches!(err, CkptError::BadChecksum { .. }), "got: {err}");

    // Identity guards fire before any state is touched: wrong config,
    // wrong program, wrong engine each get their own error.
    let other_cfg = SimConfig { rob_size: cfg().rob_size / 2, ..cfg() };
    let err = w.instantiate(other_cfg).restore(&good).unwrap_err();
    assert!(matches!(err, CkptError::ConfigMismatch), "got: {err}");
    let err = microbench::linear_mispred(100).instantiate(cfg()).restore(&good).unwrap_err();
    assert!(matches!(err, CkptError::ProgramMismatch), "got: {err}");
    let mut engined =
        w.instantiate_with(cfg(), Box::new(MultiStreamReuse::new(MssrConfig::default())));
    let err = engined.restore(&good).unwrap_err();
    assert!(matches!(err, CkptError::EngineMismatch { .. }), "got: {err}");

    // No silent partial restore: every rejection above left its target
    // pristine, so running one to completion still passes the checks.
    let mut survivor = w.instantiate(cfg());
    let err = survivor.restore(&good[..good.len() - 1]).unwrap_err();
    assert!(matches!(err, CkptError::Truncated { .. }));
    survivor.run();
    assert!(survivor.is_halted());
    w.verify(&survivor).expect("a rejected restore must not corrupt the simulator");
}

/// Clean runs under both paper engines stay violation-free — in debug
/// builds the per-cycle sweep has also been asserting this throughout.
#[test]
fn engines_run_clean_under_the_checker() {
    use mssr::core::RegisterIntegration;
    let w = microbench::nested_mispred(300);
    for engine in [
        None,
        Some(Box::new(MultiStreamReuse::new(MssrConfig::default())) as Box<dyn ReuseEngine>),
        Some(Box::new(RegisterIntegration::new(RiConfig::default()))),
    ] {
        let mut sim = match engine {
            Some(e) => w.instantiate_with(cfg(), e),
            None => w.instantiate(cfg()),
        };
        sim.run();
        w.verify(&sim).expect("architectural results hold");
        let violations = sim.invariant_violations();
        assert!(violations.is_empty(), "unexpected violations: {violations:?}");
    }
}

/// A clean BBV collection satisfies the conservation rule: per-interval
/// block counts sum exactly to the interval's instruction count, and the
/// intervals together account for every instruction the functional pass
/// executed.
#[test]
fn bbv_collection_conserves_instruction_counts() {
    use mssr::sim::{check_bbv, BbvCollector};
    let w = microbench::nested_mispred(200);
    let mut sim = w.instantiate(cfg());
    let mut bbv = BbvCollector::new(512);
    let executed = sim.fast_forward_collect(12_000, &mut bbv);
    let trace = bbv.try_finish(executed).expect("clean collection must conserve counts");
    assert!(trace.intervals.len() >= 2, "expected several 512-inst intervals");
    assert_eq!(trace.total_insts, executed);
    assert!(check_bbv(&trace.intervals, executed).is_none());
}

/// Negative control for the `bbv-conservation` rule: silently dropping a
/// block count from one interval must make `finish` panic with the rule
/// name. A conservation check that cannot detect a seeded leak would let
/// a real collection bug skew every downstream clustering unnoticed.
#[test]
#[should_panic(expected = "bbv-conservation")]
fn bbv_conservation_catches_seeded_corruption() {
    use mssr::sim::BbvCollector;
    let w = microbench::nested_mispred(200);
    let mut sim = w.instantiate(cfg());
    let mut bbv = BbvCollector::new(512);
    let executed = sim.fast_forward_collect(12_000, &mut bbv);
    bbv.corrupt_for_test();
    let _ = bbv.finish(executed);
}

/// Per-predictor checkpoint round-trip: a mid-run snapshot restored into
/// a fresh simulator re-snapshots byte-identically (the codec is a pure
/// function of machine state, feed included), and the restored run
/// finishes exactly like the uninterrupted one. A checkpoint taken under
/// one `--bpred` kind is refused by every other kind with
/// `CkptError::ConfigMismatch` — the predictor is part of the config
/// identity, so the guard fires before any predictor codec runs.
#[test]
fn predictor_checkpoints_round_trip_and_refuse_cross_kind_restores() {
    use mssr::sim::{BpredKind, CkptError};
    let w = microbench::nested_mispred(100);
    for kind in BpredKind::ALL {
        let kcfg = cfg().with_bpred(kind);
        let mut sim = w.instantiate(kcfg.clone());
        sim.run_until_insts(200);
        assert!(!sim.is_halted(), "{kind}: the checkpoint must be taken mid-run");
        let snap = sim.snapshot();

        let mut fresh = w.instantiate(kcfg.clone());
        fresh.restore(&snap).expect("same-kind restore");
        assert!(fresh.snapshot() == snap, "{kind}: restore/re-snapshot is not byte-identical");

        let a = sim.run();
        let b = fresh.run();
        assert!(sim.is_halted() && fresh.is_halted(), "{kind}: both runs must halt");
        assert_eq!(a.cycles, b.cycles, "{kind}: restored run diverged in cycles");
        assert_eq!(a.mispredictions, b.mispredictions, "{kind}: mispredict count diverged");
        w.verify(&fresh).expect("restored run must verify");

        for other in BpredKind::ALL {
            if other == kind {
                continue;
            }
            let err = w.instantiate(cfg().with_bpred(other)).restore(&snap).unwrap_err();
            assert!(
                matches!(err, CkptError::ConfigMismatch),
                "{kind}->{other}: got {err}, want ConfigMismatch"
            );
        }
    }
}

/// Checkpoint-envelope framing: magic (8) + version (4) + length (8)
/// before the payload, an FNV-1a checksum (8) after it.
const ENVELOPE_HEADER: usize = 20;
const ENVELOPE_CHECKSUM: usize = 8;

/// Takes a `nested_mispred(200)` snapshot under `engine` at the first
/// 25-commit boundary from 500 on where `locate` finds a destination
/// register in the engine's blob, overwrites that register with
/// `p60000`, and re-seals the envelope. `guard` is the engine's
/// configuration-guard hash, the first word of its blob. `locate` walks
/// the blob (guard excluded) and returns the offset of a
/// destination-register field within it.
fn snapshot_with_bad_engine_preg(
    engine: fn() -> Box<dyn ReuseEngine>,
    guard: u64,
    locate: fn(&[u8]) -> Option<usize>,
) -> (mssr::workloads::Workload, Vec<u8>) {
    let w = microbench::nested_mispred(200);
    let mut sim = w.instantiate_with(cfg(), engine());
    for k in (500..5_000).step_by(25) {
        sim.run_until_insts(k);
        assert!(!sim.is_halted(), "the checkpoint must be taken mid-run");
        let bytes = sim.snapshot();
        let mut payload = bytes[ENVELOPE_HEADER..bytes.len() - ENVELOPE_CHECKSUM].to_vec();
        let needle = guard.to_le_bytes();
        let start = payload
            .windows(8)
            .position(|win| win == needle)
            .expect("engine blob located by its configuration guard")
            + 8;
        if let Some(off) = locate(&payload[start..]) {
            let at = start + off;
            payload[at..at + 2].copy_from_slice(&60000u16.to_le_bytes());
            return (w, mssr::sim::seal(&payload));
        }
    }
    panic!("no engine entry with a destination register in any snapshot");
}

/// A tiny cursor over checkpoint bytes for the blob walkers below.
struct Walk<'a>(&'a [u8], usize);

impl Walk<'_> {
    fn skip(&mut self, n: usize) {
        self.1 += n;
    }
    fn u8(&mut self) -> u8 {
        self.1 += 1;
        self.0[self.1 - 1]
    }
    fn u64(&mut self) -> u64 {
        self.1 += 8;
        u64::from_le_bytes(self.0[self.1 - 8..self.1].try_into().unwrap())
    }
    /// Skips an optional field of `n` bytes behind its presence flag.
    fn opt(&mut self, n: usize) {
        if self.u8() == 1 {
            self.skip(n);
        }
    }
}

/// A checkpoint whose Register Integration table names a register past
/// the register file is refused at restore with a named error. It used
/// to restore cleanly and then panic in `FreeList::release`.
#[test]
fn out_of_range_ri_register_in_checkpoint_is_rejected() {
    use mssr::core::RegisterIntegration;
    use mssr::sim::{fnv1a64, CkptError};
    let guard = fnv1a64(format!("{:?}", RiConfig::default()).as_bytes());
    // Slot layout: valid flag, then pc, op, dst arch, dst preg, ...
    let first_entry_dst = |blob: &[u8]| {
        let mut r = Walk(blob, 0);
        for _ in 0..RiConfig::default().sets * RiConfig::default().ways {
            if r.u8() == 1 {
                return Some(r.1 + 10);
            }
        }
        None
    };
    let (w, bad) = snapshot_with_bad_engine_preg(
        || Box::new(RegisterIntegration::new(RiConfig::default())),
        guard,
        first_entry_dst,
    );
    let mut sim =
        w.instantiate_with(cfg(), Box::new(RegisterIntegration::new(RiConfig::default())));
    let err = sim.restore(&bad).expect_err("an out-of-range register must not restore");
    assert!(
        matches!(&err, CkptError::Corrupt(m) if m.contains("p60000")),
        "got: {err}, want a corrupt-payload error naming p60000"
    );
}

/// The same for a Squash Log entry of the MSSR engine.
#[test]
fn out_of_range_mssr_register_in_checkpoint_is_rejected() {
    use mssr::sim::{fnv1a64, CkptError};
    let guard = fnv1a64(format!("{:?}", MssrConfig::default()).as_bytes());
    let first_log_dst = |blob: &[u8]| {
        let mut r = Walk(blob, 0);
        let streams = r.u64();
        for _ in 0..streams {
            r.skip(1 + 8 + 8); // valid, squash id, cause seq
            let blocks = r.u64() as usize;
            r.skip(blocks * 16 + 8); // block ranges, vpn
            for _ in 0..r.u64() {
                r.skip(8 + 1); // pc, op
                if r.u8() == 1 {
                    return Some(r.1 + 1); // behind the dst arch byte
                }
                r.opt(2); // src rgids
                r.opt(2);
                r.skip(2); // executed, is_load
                r.opt(8); // load address
                r.skip(2); // preg_held, consumed
            }
            r.skip(8); // created_at
        }
        None
    };
    let (w, bad) = snapshot_with_bad_engine_preg(
        || Box::new(MultiStreamReuse::new(MssrConfig::default())),
        guard,
        first_log_dst,
    );
    let mut sim = w.instantiate_with(cfg(), Box::new(MultiStreamReuse::new(MssrConfig::default())));
    let err = sim.restore(&bad).expect_err("an out-of-range register must not restore");
    assert!(
        matches!(&err, CkptError::Corrupt(m) if m.contains("p60000")),
        "got: {err}, want a corrupt-payload error naming p60000"
    );
}
