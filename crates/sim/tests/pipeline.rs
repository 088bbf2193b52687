//! End-to-end pipeline tests: architectural correctness under
//! misprediction, memory-order replay, snoops, tracing, and the
//! invariant sweep. These exercise the `Simulator` orchestrator and the
//! stage passes together through the public API.

use mssr_isa::{regs::*, Assembler};
use mssr_sim::{BufferSink, SimConfig, SimStats, Simulator, TraceKind};

fn run_program(build: impl FnOnce(&mut Assembler)) -> (Simulator, SimStats) {
    let mut a = Assembler::new();
    build(&mut a);
    let program = a.assemble().expect("assembles");
    let cfg = SimConfig::default().with_max_cycles(2_000_000);
    let mut sim = Simulator::new(cfg, program);
    let stats = sim.run();
    (sim, stats)
}

#[test]
fn straightline_arithmetic_commits() {
    let (sim, stats) = run_program(|a| {
        a.li(T0, 6);
        a.li(T1, 7);
        a.mul(T2, T0, T1);
        a.st(ZERO, T2, 0x200);
        a.halt();
    });
    assert!(sim.is_halted());
    assert_eq!(stats.committed_instructions, 5);
    assert_eq!(sim.read_mem_u64(0x200), 42);
    assert_eq!(stats.mispredictions, 0);
}

#[test]
fn loop_counts_correctly() {
    let (sim, stats) = run_program(|a| {
        a.li(T0, 0);
        a.li(T1, 100);
        a.label("loop");
        a.addi(T0, T0, 1);
        a.blt(T0, T1, "loop");
        a.st(ZERO, T0, 0x100);
        a.halt();
    });
    assert_eq!(sim.read_mem_u64(0x100), 100);
    // 2 setup + 100*2 loop + store + halt
    assert_eq!(stats.committed_instructions, 2 + 200 + 2);
    assert!(stats.ipc() > 1.0, "a tight predictable loop should exceed IPC 1, got {}", stats.ipc());
}

#[test]
fn load_store_through_memory() {
    let (sim, _) = run_program(|a| {
        a.li(T0, 0x300);
        a.li(T1, 1234);
        a.st(T0, T1, 0);
        a.ld(T2, T0, 0); // must forward or read the committed store
        a.addi(T2, T2, 1);
        a.st(T0, T2, 8);
        a.halt();
    });
    assert_eq!(sim.read_mem_u64(0x300), 1234);
    assert_eq!(sim.read_mem_u64(0x308), 1235);
}

#[test]
fn store_to_load_forwarding_counts() {
    let (_, stats) = run_program(|a| {
        a.li(T0, 0x400);
        a.li(T1, 5);
        a.st(T0, T1, 0);
        a.ld(T2, T0, 0);
        a.halt();
    });
    assert!(stats.store_forwards >= 1, "load should forward from in-flight store");
}

#[test]
fn data_dependent_branch_mispredicts_and_recovers() {
    // Branch direction depends on a loaded pseudo-random value; the
    // final accumulated sum must match the architectural result.
    let (sim, stats) = run_program(|a| {
        a.li(S0, 0); // i
        a.li(S1, 200); // bound
        a.li(S2, 0); // acc
        a.li(S3, 0x123456789); // lcg state
        a.label("loop");
        // state = state * 6364136223846793005 + 1442695040888963407
        a.li(T0, 6364136223846793005);
        a.mul(S3, S3, T0);
        a.li(T0, 1442695040888963407);
        a.add(S3, S3, T0);
        a.srli(T1, S3, 33);
        a.andi(T1, T1, 1);
        a.beq(T1, ZERO, "skip");
        a.addi(S2, S2, 3);
        a.j("join");
        a.label("skip");
        a.addi(S2, S2, 5);
        a.label("join");
        a.addi(S0, S0, 1);
        a.blt(S0, S1, "loop");
        a.st(ZERO, S2, 0x500);
        a.halt();
    });
    // Reference model.
    let mut state = 0x123456789u64;
    let mut acc = 0u64;
    for _ in 0..200 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let bit = (state >> 33) & 1;
        acc += if bit != 0 { 3 } else { 5 };
    }
    assert_eq!(sim.read_mem_u64(0x500), acc, "wrong-path execution must not corrupt state");
    assert!(
        stats.mispredictions > 20,
        "random branches should mispredict, got {}",
        stats.mispredictions
    );
}

#[test]
fn memory_order_violation_detected_and_replayed() {
    // A store whose address arrives late (behind a divide) followed by
    // a load to the same address that issues first.
    let (sim, stats) = run_program(|a| {
        a.li(T0, 1024);
        a.li(T1, 4);
        a.li(S0, 0x600);
        a.li(S1, 77);
        a.st(S0, S1, 0); // establish old value 77
        a.div(T2, T0, T1); // slow: 1024/4 = 256
        a.add(T3, T2, ZERO);
        a.st(T3, S1, 0x600 - 256); // addr = 0x600, late
        a.li(S1, 99);
        a.st(S0, S1, 0); // younger store overwrites with 99
        a.ld(T4, S0, 0); // younger load, issues early, may read stale
        a.st(ZERO, T4, 0x608);
        a.halt();
    });
    // Architecturally the load must see 99.
    assert_eq!(sim.read_mem_u64(0x608), 99);
    // At least one ordering violation should have been detected on the
    // way (the load issues before the slow store chain resolves).
    assert!(
        stats.flushes_mem_order >= 1,
        "expected a store-to-load replay, got {}",
        stats.flushes_mem_order
    );
}

#[test]
fn call_and_return_via_btb() {
    let (sim, _) = run_program(|a| {
        a.li(S0, 0);
        a.li(S1, 50);
        a.label("loop");
        a.call("f");
        a.addi(S0, S0, 1);
        a.blt(S0, S1, "loop");
        a.st(ZERO, S2, 0x700);
        a.halt();
        a.label("f");
        a.addi(S2, S2, 2);
        a.ret();
    });
    assert_eq!(sim.read_mem_u64(0x700), 100);
}

#[test]
fn snoop_replays_speculative_loads() {
    // A load executes speculatively; a snoop to its address arrives
    // before it commits; it must be replayed (flush counted), and the
    // program still produces the right value.
    let mut a = Assembler::new();
    a.li(T0, 0x900);
    a.li(T1, 1000);
    a.li(T2, 4);
    a.div(T3, T1, T2); // slow op keeps commit away
    a.ld(T4, T0, 0); // speculative load, executes early
    a.add(T5, T4, T3);
    a.st(ZERO, T5, 0x100);
    a.halt();
    let program = a.assemble().unwrap();
    let mut sim = Simulator::new(SimConfig::default().with_max_cycles(100_000), program);
    sim.write_mem_u64(0x900, 7);
    // Step until the load has issued but the divide holds up commit,
    // then snoop its address.
    sim.run_cycles(12);
    sim.inject_snoop(0x900);
    let stats = sim.run();
    assert_eq!(sim.read_mem_u64(0x100), 257);
    assert_eq!(stats.snoops, 1);
    assert!(
        stats.flushes_mem_order >= 1,
        "the snooped speculative load must replay, got {} flushes",
        stats.flushes_mem_order
    );
}

#[test]
fn snoop_to_unrelated_address_is_harmless() {
    let mut a = Assembler::new();
    a.li(T0, 0x900);
    a.ld(T4, T0, 0);
    a.st(ZERO, T4, 0x100);
    a.halt();
    let mut sim =
        Simulator::new(SimConfig::default().with_max_cycles(100_000), a.assemble().unwrap());
    sim.write_mem_u64(0x900, 5);
    sim.run_cycles(8);
    sim.inject_snoop(0x5000);
    let stats = sim.run();
    assert_eq!(sim.read_mem_u64(0x100), 5);
    assert_eq!(stats.flushes_mem_order, 0);
}

#[test]
fn max_cycles_bound_stops_infinite_loop() {
    let mut a = Assembler::new();
    a.label("spin");
    a.j("spin");
    let program = a.assemble().unwrap();
    let mut sim = Simulator::new(SimConfig::default().with_max_cycles(1000), program);
    let stats = sim.run();
    assert_eq!(stats.cycles, 1000);
    assert!(!sim.is_halted());
}

#[test]
fn max_insts_bound() {
    let mut a = Assembler::new();
    a.li(T1, 1_000_000);
    a.label("loop");
    a.addi(T0, T0, 1);
    a.blt(T0, T1, "loop");
    a.halt();
    let program = a.assemble().unwrap();
    let mut sim = Simulator::new(SimConfig::default().with_max_insts(5000), program);
    let stats = sim.run();
    assert!(sim.is_halted());
    assert!(stats.committed_instructions >= 5000);
    assert!(stats.committed_instructions < 5000 + 16, "stops promptly at the bound");
}
#[test]
fn nested_hard_branches_still_architecturally_correct() {
    // The Listing-1 shape: two nested data-dependent branches.
    let (sim, stats) = run_program(|a| {
        a.li(S0, 0); // i
        a.li(S1, 300);
        a.li(S2, 0); // acc
        a.li(S3, 0xdeadbeef);
        a.label("loop");
        a.li(T0, 0x9e3779b97f4a7c15u64 as i64);
        a.mul(S3, S3, T0);
        a.srli(T1, S3, 31);
        a.andi(T2, T1, 1);
        a.andi(T3, T1, 2);
        a.beq(T2, ZERO, "merge"); // Br1
        a.beq(T3, ZERO, "inner_done"); // Br2
        a.addi(S2, S2, 7);
        a.label("inner_done");
        a.addi(S2, S2, 11);
        a.label("merge");
        a.addi(S2, S2, 1);
        a.addi(S0, S0, 1);
        a.blt(S0, S1, "loop");
        a.st(ZERO, S2, 0x800);
        a.halt();
    });
    let mut state = 0xdeadbeefu64;
    let mut acc = 0u64;
    for _ in 0..300 {
        state = state.wrapping_mul(0x9e3779b97f4a7c15);
        let t1 = state >> 31;
        if t1 & 1 != 0 {
            if t1 & 2 != 0 {
                acc += 7;
            }
            acc += 11;
        }
        acc += 1;
    }
    assert_eq!(sim.read_mem_u64(0x800), acc);
    assert!(stats.mispredictions > 50);
}

#[test]
fn jalr_negative_displacement_across_32bit_boundary() {
    // The jalr target is `base.wrapping_add(imm as u64)`; `imm()` is
    // already sign-extended to i64, so `as u64` must be a
    // sign-preserving bit-cast. Force a subtraction that crosses a
    // 32-bit boundary: base = RA + 2^32, displacement = -2^32. If the
    // displacement were zero-extended (or truncated to 32 bits) the
    // jump would land ~4 GiB away from the return point and the
    // program would never halt.
    let (sim, _) = run_program(|a| {
        a.li(S0, 0xa00);
        a.call("sub");
        a.li(S1, 1); // return lands here
        a.st(S0, S1, 0);
        a.halt();
        a.label("sub");
        a.li(T1, 1i64 << 32);
        a.add(T0, RA, T1); // T0 = return address + 2^32
        a.jalr(ZERO, T0, -(1i64 << 32)); // back down across the boundary
    });
    assert!(sim.is_halted(), "jalr with a negative displacement must return");
    assert_eq!(sim.read_mem_u64(0xa00), 1);
}

#[test]
fn trace_events_are_recorded_and_counted() {
    let mut a = Assembler::new();
    a.li(T0, 0x300);
    a.li(T1, 7);
    a.st(T0, T1, 0);
    a.ld(T2, T0, 0);
    a.halt();
    let program = a.assemble().expect("assembles");
    let cfg = SimConfig::default().with_max_cycles(100_000);
    let mut sim = Simulator::new(cfg.clone(), program.clone());
    let sink = BufferSink::new();
    let buf = sink.handle();
    sim.set_trace_sink(Box::new(sink), !0);
    let stats = sim.run();
    let trace = buf.lock().unwrap().clone();
    // Five instructions commit; each also fetches and renames, and
    // all but the halt (which never enters an issue queue) issue.
    let counts = trace_counts(&trace);
    for (kind, at_least) in [
        (TraceKind::Fetch, 1),
        (TraceKind::Rename, 5),
        (TraceKind::Issue, 4),
        (TraceKind::Commit, 5),
    ] {
        let n = counts[kind.index()];
        assert!(n >= at_least, "{} = {n}, expected >= {at_least}", kind.name());
    }
    // Every line is one JSON object of a known kind.
    assert_eq!(trace.lines().count() as u64, counts.iter().sum::<u64>());
    assert!(trace.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    // Tracing leaves the statistics alone.
    assert_eq!(stats, Simulator::new(cfg, program).run(), "a traced run's stats differ");
}

/// Lines of a JSON-lines trace stream, per event kind.
fn trace_counts(trace: &str) -> [u64; TraceKind::COUNT] {
    TraceKind::ALL.map(|k| {
        let tag = format!("{{\"ev\":\"{}\"", k.name());
        trace.lines().filter(|l| l.starts_with(&tag)).count() as u64
    })
}

#[test]
fn clean_run_has_no_invariant_violations() {
    let (sim, _) = run_program(|a| {
        a.li(S0, 0);
        a.li(S1, 40);
        a.label("loop");
        a.call("f");
        a.addi(S0, S0, 1);
        a.blt(S0, S1, "loop");
        a.st(ZERO, S2, 0xb00);
        a.halt();
        a.label("f");
        a.addi(S2, S2, 3);
        a.ret();
    });
    assert_eq!(sim.read_mem_u64(0xb00), 120);
    let violations = sim.invariant_violations();
    assert!(violations.is_empty(), "unexpected violations: {violations:?}");
}

/// Checkpoints carry the machine, not the observers: a fast-forward
/// boundary snapshot taken under one trace mask and sample interval,
/// restored under the other, records exactly the lines of a cold run
/// of the recipient's configuration — in both directions.
#[test]
fn boundary_restore_traces_like_a_cold_run_of_the_recipient() {
    let mut a = Assembler::new();
    a.li(T0, 0);
    a.li(T1, 400);
    a.label("loop");
    a.addi(T0, T0, 1);
    a.andi(T2, T0, 3);
    a.beq(T2, ZERO, "skip");
    a.st(ZERO, T0, 0x300);
    a.label("skip");
    a.blt(T0, T1, "loop");
    a.halt();
    let program = a.assemble().expect("assembles");
    // Runs one observer configuration to halt, cold (the sink attached
    // before the fast-forward) or from `boundary` (the sink attached
    // after the restore). Returns the trace, its lines per kind and the
    // snapshot taken at the boundary.
    let run = |(mask, interval): (u64, u64), boundary: Option<&[u8]>| {
        let mut sim =
            Simulator::new(SimConfig::default().with_max_cycles(100_000), program.clone());
        sim.set_sample_interval(interval);
        let sink = BufferSink::new();
        let buf = sink.handle();
        match boundary {
            None => {
                sim.set_trace_sink(Box::new(sink), mask);
                assert_eq!(sim.fast_forward(300), 300);
            }
            Some(bytes) => {
                sim.restore(bytes).expect("boundary snapshot restores");
                sim.set_trace_sink(Box::new(sink), mask);
            }
        }
        let snap = sim.snapshot();
        sim.run();
        let trace = buf.lock().unwrap().clone();
        (trace_counts(&trace), trace, snap)
    };
    let full = (!0, 0);
    let samples = (TraceKind::Sample.bit(), 50);
    let (full_counts, full_trace, full_snap) = run(full, None);
    let (sample_counts, sample_trace, sample_snap) = run(samples, None);
    assert!(full_trace.starts_with("{\"ev\":\"ckpt\""), "the stream opens at the boundary");
    assert_eq!(full_counts[TraceKind::Ckpt.index()], 1);
    assert!(full_counts[TraceKind::Commit.index()] > 0);
    assert_eq!(full_counts[TraceKind::Sample.index()], 0);
    assert!(sample_counts[TraceKind::Sample.index()] >= 2, "fixture: several intervals sampled");
    assert_eq!(sample_counts.iter().sum::<u64>(), sample_counts[TraceKind::Sample.index()]);
    assert_eq!(full_snap, sample_snap, "observer state stays out of the snapshot");

    for (donor, recipient, cold_trace) in
        [(&full_snap, samples, &sample_trace), (&sample_snap, full, &full_trace)]
    {
        let (_, trace, _) = run(recipient, Some(donor));
        assert_eq!(trace, *cold_trace, "{recipient:?}: restored stream differs from cold");
    }
}
