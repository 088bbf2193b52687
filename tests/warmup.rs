//! Warmup fidelity of functional fast-forward (`Simulator::fast_forward`).
//!
//! The conditional-branch predictor state (bimodal counters, TAGE tables,
//! global history) is warmed *commit-equivalently*: a functional run must
//! match a drained cycle-accurate run of the same instruction stream
//! bit-for-bit. The caches see the architectural stream only, so on
//! wrong-path-heavy code their contents are a subset of the detailed
//! run's; on branch-free code they match exactly. The BTB (updated at
//! writeback in the detailed pipeline, wrong paths included) and the RAS
//! are pinned as intentional divergences: fast-forward leaves the BTB
//! cold, and a short detailed interval re-warms it.

use mssr::isa::{regs::*, Assembler};
use mssr::sim::{BpredKind, SimConfig};
use mssr::workloads::{microbench, Suite, Workload};

fn cfg() -> SimConfig {
    SimConfig::default().with_max_cycles(50_000_000)
}

/// A branch-free workload: a fully unrolled sweep over a 32-word window
/// (load, add, store each slot), so the detailed pipeline has no wrong
/// path at all and touches exactly the lines the architectural stream
/// touches.
fn straightline() -> Workload {
    let mut a = Assembler::new();
    a.li(S2, 0x10_0000);
    for i in 0..32i64 {
        a.ld(T0, S2, 8 * i);
        a.addi(T0, T0, i + 1);
        a.st(S2, T0, 8 * i);
    }
    a.halt();
    let mem: Vec<(u64, u64)> = (0..32).map(|i| (0x10_0000 + 8 * i, i)).collect();
    let checks = (0..32)
        .map(|i| mssr::workloads::Check {
            addr: 0x10_0000 + 8 * i,
            expect: 2 * i + 1,
            what: "slot",
        })
        .collect();
    Workload::new("straightline", Suite::Micro, a.assemble().unwrap(), mem, checks)
}

/// Conditional-predictor state after a full functional run equals the
/// state after a full detailed run — on the repo's most mispredict-heavy
/// microbenchmark, so the equality is exercised by thousands of predict /
/// recover / train cycles, not vacuously — under every table-based
/// predictor (TAGE-SC-L runs the stepwise warm path; the TAGE kinds run
/// the fused one).
#[test]
fn functional_warmup_matches_detailed_cond_predictor_state() {
    let w = microbench::nested_mispred(300);
    for kind in [BpredKind::Tage, BpredKind::TageScl, BpredKind::Ittage] {
        let cfg = cfg().with_bpred(kind);
        let mut detailed = w.instantiate(cfg.clone());
        detailed.run();
        assert!(detailed.is_halted());

        let mut func = w.instantiate(cfg);
        let executed = func.fast_forward(u64::MAX);
        assert!(func.is_halted(), "{kind}: fast-forward must run the program to its halt");
        assert_eq!(
            executed,
            detailed.stats().committed_instructions,
            "{kind}: the functional stream must be the committed stream"
        );
        w.verify(&func).expect("fast-forward must apply the architectural effects");

        let (tage, bimodal) = func.bpred().cond_occupancy();
        assert!(tage > 0 && bimodal > 0, "{kind}: warming must actually populate the predictor");
        assert_eq!(
            func.bpred().cond_occupancy(),
            detailed.bpred().cond_occupancy(),
            "{kind}: bpred table occupancy diverged"
        );
        assert_eq!(
            func.bpred().cond_digest(),
            detailed.bpred().cond_digest(),
            "{kind}: bpred table contents diverged"
        );
    }
}

/// On wrong-path-heavy code the functional cache contents are a subset of
/// the detailed run's (the detailed pipeline additionally issues
/// wrong-path loads); with no evictions at this working-set size, every
/// architecturally touched line must be present in both.
#[test]
fn functional_cache_lines_are_a_subset_of_detailed_on_wrong_path_heavy_code() {
    let w = microbench::nested_mispred(300);
    let mut detailed = w.instantiate(cfg());
    detailed.run();
    let mut func = w.instantiate(cfg());
    func.fast_forward(u64::MAX);

    for (level, f, d) in [
        ("L1", func.hierarchy().l1.resident_lines(), detailed.hierarchy().l1.resident_lines()),
        ("L2", func.hierarchy().l2.resident_lines(), detailed.hierarchy().l2.resident_lines()),
    ] {
        assert!(!f.is_empty(), "{level}: warming must populate the cache");
        for line in &f {
            assert!(
                d.binary_search(line).is_ok(),
                "{level}: functionally warmed line {line:#x} missing from the detailed run"
            );
        }
    }
}

/// On branch-free code there is no wrong path, so the functional and
/// detailed cache tag contents match exactly.
#[test]
fn functional_cache_lines_match_detailed_on_straightline_code() {
    let w = straightline();
    let mut detailed = w.instantiate(cfg());
    detailed.run();
    assert!(detailed.is_halted());
    let mut func = w.instantiate(cfg());
    func.fast_forward(u64::MAX);
    w.verify(&func).expect("fast-forward must apply the architectural effects");

    assert!(!func.hierarchy().l1.resident_lines().is_empty());
    assert_eq!(
        func.hierarchy().l1.resident_lines(),
        detailed.hierarchy().l1.resident_lines(),
        "L1 tags diverged on branch-free code"
    );
    assert_eq!(
        func.hierarchy().l2.resident_lines(),
        detailed.hierarchy().l2.resident_lines(),
        "L2 tags diverged on branch-free code"
    );
    // No conditional branches at all: the predictor stays untouched in
    // both worlds.
    assert_eq!(func.bpred().cond_occupancy(), (0, 0));
    assert_eq!(func.bpred().cond_occupancy(), detailed.bpred().cond_occupancy());
}

/// Pins the intentional BTB divergence. Fast-forward warms the BTB from
/// the *architectural* indirect-jump stream (the `ret`s in the calc
/// helpers), so it is not left cold — but the detailed pipeline updates
/// the BTB at writeback, wrong paths included, so bit-equality with a
/// detailed run is workload-dependent and deliberately NOT part of the
/// fidelity contract. That is why `BranchPredictor` splits `cond_digest`
/// (equality asserted above) from `btb_digest` (equality not asserted);
/// the RAS is excluded for the same reason. On this particular workload
/// the two happen to coincide — the assertion below only pins that both
/// worlds warm the BTB at all.
#[test]
fn fast_forward_warms_the_btb_from_the_architectural_stream() {
    let w = microbench::nested_mispred(300);
    let fresh_btb = w.instantiate(cfg()).bpred().btb_digest();

    let mut func = w.instantiate(cfg());
    func.fast_forward(u64::MAX);
    assert_ne!(
        func.bpred().btb_digest(),
        fresh_btb,
        "architectural returns must warm the BTB during fast-forward"
    );

    let mut detailed = w.instantiate(cfg());
    detailed.run();
    assert_ne!(detailed.bpred().btb_digest(), fresh_btb, "the detailed run warms the BTB too");
}

/// Partial warmup is the `--ffwd N` shape: N functional instructions,
/// then a cycle-accurate remainder. The handoff must keep the stats
/// honest (N in `ffwd_insts`/`skipped_cycles`, never in the committed
/// count) and the run must still pass its architectural checks.
#[test]
fn partial_fast_forward_hands_off_cleanly() {
    const N: u64 = 100;
    let w = microbench::nested_mispred(300);
    let full = w.run(cfg(), None);

    let mut sim = w.instantiate(cfg());
    let executed = sim.fast_forward(N);
    assert_eq!(executed, N);
    assert!(!sim.is_halted());
    let (tage, bimodal) = sim.bpred().cond_occupancy();
    assert!(tage + bimodal > 0, "partial warmup reaches the predictor");
    let stats = w.finish(&mut sim);
    assert_eq!(stats.ffwd_insts, N);
    assert_eq!(stats.skipped_cycles, N);
    assert_eq!(
        stats.committed_instructions + N,
        full.committed_instructions,
        "every instruction is either fast-forwarded or committed, never both"
    );
    assert!(stats.cycles < full.cycles, "the detailed interval shrinks by the warmed prefix");
}
