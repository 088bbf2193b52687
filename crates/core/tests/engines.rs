//! Integration tests for the squash-reuse engines running on the full
//! simulator: architectural correctness under reuse, reuse activity on
//! branchy code, multi-stream benefits, memory-hazard handling, register
//! pressure, and the RGID overflow/reset protocol.

use mssr_core::{MemCheckPolicy, MssrConfig, MultiStreamReuse, RegisterIntegration, RiConfig};
use mssr_isa::{regs::*, Assembler, Program};
use mssr_sim::{ReuseEngine, SimConfig, SimStats, Simulator};

/// Builds the nested data-dependent branch kernel (the shape of the
/// paper's Listing 1): an outer and an inner branch, both driven by a
/// pseudo-random hash, followed by control-independent work.
fn nested_branch_kernel(iters: i64) -> Program {
    let mut a = Assembler::new();
    a.li(S0, 0); // i
    a.li(S1, iters);
    a.li(S2, 0); // acc (control-dependent)
    a.li(S4, 0); // acc2 (control-independent)
    a.li(S3, 0x243f6a8885a308d3u64 as i64); // hash state
    a.label("loop");
    a.li(T0, 0x9e3779b97f4a7c15u64 as i64);
    a.mul(S3, S3, T0);
    a.srli(T1, S3, 29);
    a.andi(T2, T1, 1); // data1 bit
    a.andi(T3, T1, 2); // data2 bit
    a.beq(T2, ZERO, "merge"); // Br1 (outer, H2P)
    a.beq(T3, ZERO, "m1"); // Br2 (inner, H2P)
    a.addi(S2, S2, 7); // calc on data2 path
    a.label("m1");
    a.addi(S2, S2, 11); // calc on data1 path
    a.label("merge");
    // CIDI region: depends only on the loop counter.
    a.mul(T4, S0, S0);
    a.addi(T4, T4, 13);
    a.mul(T5, T4, T4);
    a.add(S4, S4, T5);
    a.addi(S0, S0, 1);
    a.blt(S0, S1, "loop");
    a.st(ZERO, S2, 0x100);
    a.st(ZERO, S4, 0x108);
    a.halt();
    a.assemble().expect("kernel assembles")
}

/// Architectural reference for [`nested_branch_kernel`].
fn nested_branch_reference(iters: i64) -> (u64, u64) {
    let mut state = 0x243f6a8885a308d3u64;
    let mut acc = 0u64;
    let mut acc2 = 0u64;
    for i in 0..iters as u64 {
        state = state.wrapping_mul(0x9e3779b97f4a7c15);
        let t1 = state >> 29;
        if t1 & 1 != 0 {
            if t1 & 2 != 0 {
                acc = acc.wrapping_add(7);
            }
            acc = acc.wrapping_add(11);
        }
        let t4 = i.wrapping_mul(i).wrapping_add(13);
        acc2 = acc2.wrapping_add(t4.wrapping_mul(t4));
    }
    (acc, acc2)
}

fn run(
    program: Program,
    engine: Option<Box<dyn ReuseEngine>>,
    cfg: SimConfig,
) -> (Simulator, SimStats) {
    let mut sim = match engine {
        Some(e) => Simulator::with_engine(cfg, program, e),
        None => Simulator::new(cfg, program),
    };
    let stats = sim.run();
    assert!(sim.is_halted(), "program must run to completion");
    (sim, stats)
}

fn default_cfg() -> SimConfig {
    SimConfig::default().with_max_cycles(5_000_000)
}

#[test]
fn all_engines_preserve_architectural_results() {
    let iters = 400;
    let (acc, acc2) = nested_branch_reference(iters);
    let engines: Vec<(&str, Option<Box<dyn ReuseEngine>>)> = vec![
        ("baseline", None),
        ("mssr", Some(Box::new(MultiStreamReuse::new(MssrConfig::default())))),
        ("dci", Some(Box::new(MultiStreamReuse::dci()))),
        ("ri", Some(Box::new(RegisterIntegration::new(RiConfig::default())))),
        (
            "mssr-bloom",
            Some(Box::new(MultiStreamReuse::new(
                MssrConfig::default().with_mem_policy(MemCheckPolicy::BloomFilter),
            ))),
        ),
    ];
    for (name, engine) in engines {
        let (sim, _) = run(nested_branch_kernel(iters), engine, default_cfg());
        assert_eq!(sim.read_mem_u64(0x100), acc, "{name}: control-dependent accumulator");
        assert_eq!(sim.read_mem_u64(0x108), acc2, "{name}: control-independent accumulator");
    }
}

#[test]
fn mssr_reuses_cidi_work_on_branchy_code() {
    let engine = MultiStreamReuse::new(MssrConfig::default());
    let (_, stats) = run(nested_branch_kernel(600), Some(Box::new(engine)), default_cfg());
    assert!(stats.mispredictions > 100, "kernel must be hard to predict");
    assert!(
        stats.engine.reuse_grants > 50,
        "CIDI instructions should be reused, got {} grants",
        stats.engine.reuse_grants
    );
    assert!(stats.engine.reconvergences > 50);
    assert!(stats.engine.streams_captured > 100);
}

#[test]
fn no_reuse_activity_on_predictable_code() {
    let mut a = Assembler::new();
    a.li(T0, 0);
    a.li(T1, 2000);
    a.label("loop");
    a.addi(T0, T0, 1);
    a.blt(T0, T1, "loop");
    a.halt();
    let engine = MultiStreamReuse::new(MssrConfig::default());
    let (_, stats) = run(a.assemble().unwrap(), Some(Box::new(engine)), default_cfg());
    assert!(stats.mispredictions <= 3, "loop branch is trivially predictable");
    assert_eq!(stats.engine.reuse_grants, 0, "nothing squashed, nothing reused");
}

#[test]
fn mssr_improves_ipc_on_the_nested_kernel() {
    let iters = 800;
    let (_, base) = run(nested_branch_kernel(iters), None, default_cfg());
    let engine = MultiStreamReuse::new(MssrConfig::default().with_log_entries(64));
    let (_, reuse) = run(nested_branch_kernel(iters), Some(Box::new(engine)), default_cfg());
    assert!(
        reuse.ipc() > base.ipc() * 0.98,
        "reuse should not hurt: baseline {:.3} vs mssr {:.3}",
        base.ipc(),
        reuse.ipc()
    );
}

#[test]
fn multi_stream_finds_more_reuse_than_single_stream() {
    let iters = 800;
    let single = MultiStreamReuse::new(MssrConfig::default().with_streams(1));
    let (_, s1) = run(nested_branch_kernel(iters), Some(Box::new(single)), default_cfg());
    let multi = MultiStreamReuse::new(MssrConfig::default().with_streams(4));
    let (_, s4) = run(nested_branch_kernel(iters), Some(Box::new(multi)), default_cfg());
    // On this simple kernel the streams mostly reconverge with their own
    // squash (simple reconvergence), so four streams buy little — but
    // they must not cost much either. The multi-stream *advantage* is
    // demonstrated on the nested/linear-mispred microbenchmarks
    // (mssr-workloads / Table 1), where out-of-order branch resolution
    // creates distance-2+ reconvergence.
    assert!(
        s4.engine.reuse_grants as f64 >= s1.engine.reuse_grants as f64 * 0.85,
        "4 streams ({}) should find roughly as much reuse as 1 ({})",
        s4.engine.reuse_grants,
        s1.engine.reuse_grants
    );
}

#[test]
fn reconvergence_classification_is_populated() {
    let engine = MultiStreamReuse::new(MssrConfig::default());
    let (_, stats) = run(nested_branch_kernel(800), Some(Box::new(engine)), default_cfg());
    let e = &stats.engine;
    assert_eq!(
        e.recon_simple + e.recon_software + e.recon_hardware,
        e.reconvergences,
        "every reconvergence is classified exactly once"
    );
    assert!(e.recon_simple > 0, "simple reconvergence dominates");
    let total_distance: u64 = e.stream_distance.iter().sum();
    assert_eq!(total_distance, e.reconvergences, "distance histogram is complete");
}

/// A kernel where a store writes an address that a squashed load read:
/// reused loads must be caught by verification.
fn store_aliasing_kernel(iters: i64) -> Program {
    let mut a = Assembler::new();
    a.li(S0, 0);
    a.li(S1, iters);
    a.li(S5, 0x4000); // array base
    a.li(S3, 0xfeedface); // hash
    a.label("loop");
    a.li(T0, 0x9e3779b97f4a7c15u64 as i64);
    a.mul(S3, S3, T0);
    a.srli(T1, S3, 30);
    a.andi(T2, T1, 1);
    // The H2P branch.
    a.beq(T2, ZERO, "merge");
    a.addi(S2, S2, 1);
    a.label("merge");
    // CI region: load a[i%8], add, store back — loads may be reused
    // while stores to the same slot keep changing the value.
    a.andi(T3, S0, 7);
    a.slli(T3, T3, 3);
    a.add(T3, T3, S5);
    a.ld(T4, T3, 0);
    a.addi(T4, T4, 1);
    a.st(T3, T4, 0);
    a.addi(S0, S0, 1);
    a.blt(S0, S1, "loop");
    a.st(ZERO, S2, 0x100);
    a.halt();
    a.assemble().expect("kernel assembles")
}

#[test]
fn reused_loads_are_verified_and_memory_stays_consistent() {
    let iters = 600;
    let (sim, stats) = run(
        store_aliasing_kernel(iters),
        Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))),
        default_cfg(),
    );
    // Each slot a[i%8] is incremented iters/8 times from 0.
    for slot in 0..8u64 {
        assert_eq!(
            sim.read_mem_u64(0x4000 + slot * 8),
            (iters as u64) / 8,
            "slot {slot} must reflect every increment"
        );
    }
    // Loads were reused (or at least attempted) under verification.
    assert!(
        stats.engine.reused_loads > 0
            || stats.engine.reuse_fail_mem > 0
            || stats.engine.reuse_grants > 0,
        "the CI region should produce reuse traffic"
    );
}

#[test]
fn bloom_policy_also_preserves_memory_consistency() {
    let iters = 600;
    let engine =
        MultiStreamReuse::new(MssrConfig::default().with_mem_policy(MemCheckPolicy::BloomFilter));
    let (sim, stats) = run(store_aliasing_kernel(iters), Some(Box::new(engine)), default_cfg());
    for slot in 0..8u64 {
        assert_eq!(sim.read_mem_u64(0x4000 + slot * 8), (iters as u64) / 8);
    }
    assert_eq!(
        stats.flushes_reuse_verify, 0,
        "the Bloom policy filters at reuse time instead of flushing"
    );
}

#[test]
fn register_pressure_reclaims_streams_instead_of_deadlocking() {
    // Tiny physical register file: engine holds must yield under pressure.
    let cfg = SimConfig::default()
        .with_phys_regs(80) // only 16 beyond the architectural 64
        .with_rob_size(32)
        .with_max_cycles(5_000_000);
    let engine = MultiStreamReuse::new(MssrConfig::default());
    let (sim, stats) = run(nested_branch_kernel(300), Some(Box::new(engine)), cfg);
    let (acc, acc2) = nested_branch_reference(300);
    assert_eq!(sim.read_mem_u64(0x100), acc);
    assert_eq!(sim.read_mem_u64(0x108), acc2);
    // With 16 spare registers the engine must have been squeezed.
    assert!(stats.engine.pressure_reclaims > 0, "expected pressure reclaims with an 80-entry PRF");
}

#[test]
fn rgid_overflow_triggers_reset_and_stays_correct() {
    // 3-bit RGIDs overflow after 7 generations per register.
    let cfg = SimConfig { rgid_bits: 3, ..SimConfig::default() }.with_max_cycles(5_000_000);
    let engine = MultiStreamReuse::new(MssrConfig::default());
    let (sim, stats) = run(nested_branch_kernel(500), Some(Box::new(engine)), cfg);
    let (acc, acc2) = nested_branch_reference(500);
    assert_eq!(sim.read_mem_u64(0x100), acc);
    assert_eq!(sim.read_mem_u64(0x108), acc2);
    assert!(stats.engine.rgid_overflows > 0, "3-bit RGIDs must overflow");
    assert!(stats.engine.rgid_resets > 0, "overflows must trigger global resets");
}

#[test]
fn ri_table_replacements_are_counted() {
    let ri = RegisterIntegration::new(RiConfig::default().with_sets(64).with_ways(1));
    let (_, stats) = run(nested_branch_kernel(600), Some(Box::new(ri)), default_cfg());
    let total: u64 = stats.engine.set_replacements.iter().sum();
    assert_eq!(total, stats.engine.table_replacements);
    assert!(total > 0, "a direct-mapped table must conflict on this kernel");
}

#[test]
fn ri_higher_associativity_replaces_less() {
    let mut totals = Vec::new();
    for ways in [1usize, 4] {
        let ri = RegisterIntegration::new(RiConfig::default().with_sets(64).with_ways(ways));
        let (_, stats) = run(nested_branch_kernel(600), Some(Box::new(ri)), default_cfg());
        totals.push(stats.engine.set_replacements.iter().sum::<u64>());
    }
    assert!(
        totals[1] < totals[0],
        "4-way ({}) should replace less than direct-mapped ({})",
        totals[1],
        totals[0]
    );
}

#[test]
fn snoops_poison_the_bloom_filter() {
    let engine =
        MultiStreamReuse::new(MssrConfig::default().with_mem_policy(MemCheckPolicy::BloomFilter));
    let mut sim =
        Simulator::with_engine(default_cfg(), store_aliasing_kernel(400), Box::new(engine));
    // Aggressively snoop the whole array: reused-load candidates are
    // poisoned. (The Bloom filter resets whenever all Squash Logs empty,
    // so a rare reuse can still slip through between a reset and the
    // next snoop batch — the mechanism only needs to catch snoops that
    // arrived while the load sat in a log.)
    while !sim.is_halted() {
        sim.run_cycles(10);
        for slot in 0..8 {
            sim.inject_snoop(0x4000 + slot * 8);
        }
    }
    let stats = sim.stats();
    assert!(stats.snoops > 0);
    // Compare with an unsnooped run of the same configuration: snooping
    // must suppress the vast majority of load reuse.
    let (_, unsnooped) = run(
        store_aliasing_kernel(400),
        Some(Box::new(MultiStreamReuse::new(
            MssrConfig::default().with_mem_policy(MemCheckPolicy::BloomFilter),
        ))),
        default_cfg(),
    );
    assert!(
        stats.engine.reused_loads * 5 <= unsnooped.engine.reused_loads.max(1),
        "snooping should suppress load reuse: snooped {} vs unsnooped {}",
        stats.engine.reused_loads,
        unsnooped.engine.reused_loads
    );
    // And memory must remain consistent regardless.
    for slot in 0..8u64 {
        assert_eq!(sim.read_mem_u64(0x4000 + slot * 8), 400 / 8);
    }
}

#[test]
fn dci_equals_mssr_with_one_stream() {
    let dci = MultiStreamReuse::dci();
    assert_eq!(dci.name(), "dci");
    assert_eq!(dci.config().streams, 1);
    let mssr = MultiStreamReuse::new(MssrConfig::default());
    assert_eq!(mssr.name(), "mssr");
}

#[test]
fn vpn_restricted_wpb_still_works_and_stays_correct() {
    let engine = MultiStreamReuse::new(MssrConfig::default().with_vpn_restrict(true));
    let (sim, stats) = run(nested_branch_kernel(400), Some(Box::new(engine)), default_cfg());
    let (acc, acc2) = nested_branch_reference(400);
    assert_eq!(sim.read_mem_u64(0x100), acc);
    assert_eq!(sim.read_mem_u64(0x108), acc2);
    // The kernel fits one page, so reuse should still happen.
    assert!(stats.engine.reuse_grants > 0);
}

#[test]
fn constant_rgid_resets_never_alias_generations() {
    // Regression test for a window-aliasing bug: a squash arriving in the
    // same cycle as (but after) an RGID-reset request used to capture a
    // stream with old-window generations, which could then falsely match
    // new-window generations and grant stale values. With 4-bit RGIDs the
    // counters wrap every few iterations, so resets and squashes collide
    // constantly; any aliasing shows up as an architectural mismatch.
    for streams in [1usize, 2, 4] {
        let cfg = SimConfig { rgid_bits: 4, ..SimConfig::default() }.with_max_cycles(5_000_000);
        let engine = MultiStreamReuse::new(MssrConfig::default().with_streams(streams));
        let (sim, stats) = run(nested_branch_kernel(600), Some(Box::new(engine)), cfg);
        let (acc, acc2) = nested_branch_reference(600);
        assert_eq!(sim.read_mem_u64(0x100), acc, "{streams} streams");
        assert_eq!(sim.read_mem_u64(0x108), acc2, "{streams} streams");
        assert!(stats.engine.rgid_resets > 0, "4-bit RGIDs must reset constantly");
    }
}

#[test]
fn multiple_block_fetching_stays_correct_and_detects_reconvergence() {
    // §3.9.1: with two prediction blocks per cycle, reconvergence
    // detection runs on each block; architectural results are unchanged
    // and reuse still happens.
    let iters = 400;
    let (acc, acc2) = nested_branch_reference(iters);
    let cfg = SimConfig::default().with_fetch_blocks_per_cycle(2).with_max_cycles(5_000_000);
    let engine = MultiStreamReuse::new(MssrConfig::default());
    let (sim, stats) = run(nested_branch_kernel(iters), Some(Box::new(engine)), cfg.clone());
    assert_eq!(sim.read_mem_u64(0x100), acc);
    assert_eq!(sim.read_mem_u64(0x108), acc2);
    assert!(stats.engine.reuse_grants > 0);
    // The wider frontend must not be slower than the single-block one.
    let (_, single) = run(
        nested_branch_kernel(iters),
        Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))),
        default_cfg(),
    );
    assert!(
        stats.cycles as f64 <= single.cycles as f64 * 1.05,
        "two blocks/cycle ({}) should not lose to one ({})",
        stats.cycles,
        single.cycles
    );
}

#[test]
fn tiny_timeout_invalidates_streams() {
    let engine = MultiStreamReuse::new(MssrConfig::default().with_timeout(8));
    let (_, stats) = run(nested_branch_kernel(400), Some(Box::new(engine)), default_cfg());
    assert!(
        stats.engine.timeouts > 0,
        "an 8-instruction timeout must expire streams on this kernel"
    );
}
