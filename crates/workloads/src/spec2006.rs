//! SPECint2006-like synthetic kernels.
//!
//! Real SPEC binaries and SimPoint checkpoints are unavailable in this
//! environment, so each benchmark the paper reports is represented by a
//! small kernel engineered to match that benchmark's *branch and memory
//! character* (see `DESIGN.md`):
//!
//! | kernel | character it reproduces |
//! |---|---|
//! | `astar` | grid search with data-dependent open-list scans and relaxations — the paper's biggest SPEC2006 winner |
//! | `gobmk` | board evaluation with deeply nested data-dependent pattern branches |
//! | `mcf` | pointer chasing over a working set far beyond L2 — memory-bound, little reuse benefit |
//! | `omnetpp` | event-queue scanning with type-dispatch branches, memory-bound |
//! | `sjeng` | game-tree walk with alpha-beta-style pruning branches |
//! | `bzip2` | block sorting: insertion-sort comparison branches on incompressible data |
//! | `hmmer` | dynamic-programming max-recurrence, mostly predictable |
//! | `xalancbmk` | tree traversal with node-type dispatch |
//!
//! Every kernel checks its architectural results against a Rust mirror.

use mssr_isa::{regs::*, Assembler};

use crate::graph::SplitMix64;
use crate::util::{emit_mix, mix_ref, MIX};
use crate::workload::{Check, Suite, Workload};

const RESULT: u64 = 0x8000;
const DATA: u64 = 0x10_0000;
const DATA2: u64 = 0x80_0000;
const DATA3: u64 = 0xc0_0000;

// ---------------------------------------------------------------------
// astar
// ---------------------------------------------------------------------

/// Grid shortest-path search (Dijkstra with a linear-scan open list, the
/// shape of `astar`'s region search). The min-scan comparison and the
/// relaxation test are both data-dependent.
pub fn astar(side: usize) -> Workload {
    let n = side * side;
    let inf: u64 = 1 << 40;
    // Deterministic cell weights.
    let mut rng = SplitMix64::new(0xa57a);
    let wt: Vec<u64> = (0..n).map(|_| 1 + rng.next_u64() % 31).collect();

    let dist_base = DATA;
    let seen_base = DATA + (n as u64) * 8;
    let wt_base = DATA + 2 * (n as u64) * 8;

    let mut a = Assembler::new();
    // S0=&dist S1=&seen S2=&wt S3=n S4=INF S5=side S6=checksum
    a.li(S0, dist_base as i64);
    a.li(S1, seen_base as i64);
    a.li(S2, wt_base as i64);
    a.li(S3, n as i64);
    a.li(S4, inf as i64);
    a.li(S5, side as i64);
    a.li(S7, 0); // iterations of the outer visit loop
    a.label("visit");
    a.bge(S7, S3, "sum");
    // Scan for the unvisited cell with minimum distance.
    a.li(T0, 0); // index
    a.mv(T1, S4); // best dist
    a.li(T2, -1); // best index
    a.label("scan");
    a.bge(T0, S3, "scandone");
    a.slli(A2, T0, 3);
    a.add(A3, A2, S1);
    a.ld(A4, A3, 0); // seen[i]
    a.bne(A4, ZERO, "snext");
    a.add(A5, A2, S0);
    a.ld(A6, A5, 0); // dist[i]
    a.bge(A6, T1, "snext"); // min-scan: hard to predict
    a.mv(T1, A6);
    a.mv(T2, T0);
    a.label("snext");
    a.addi(T0, T0, 1);
    a.j("scan");
    a.label("scandone");
    a.li(A7, -1);
    a.beq(T2, A7, "sum"); // nothing reachable left
                          // Mark visited.
    a.slli(A2, T2, 3);
    a.add(A3, A2, S1);
    a.li(A4, 1);
    a.st(A3, A4, 0);
    // Relax the four grid neighbors of T2 (row T3, col T4).
    a.div(T3, T2, S5);
    a.rem(T4, T2, S5);
    // Neighbor deltas encoded as (cond, index expr) sequences.
    // left: col > 0 -> idx-1
    a.beq(T4, ZERO, "no_left");
    a.addi(T5, T2, -1);
    a.call("relax");
    a.label("no_left");
    // right: col < side-1 -> idx+1
    a.addi(A5, S5, -1);
    a.bge(T4, A5, "no_right");
    a.addi(T5, T2, 1);
    a.call("relax");
    a.label("no_right");
    // up: row > 0 -> idx-side
    a.beq(T3, ZERO, "no_up");
    a.sub(T5, T2, S5);
    a.call("relax");
    a.label("no_up");
    // down: row < side-1 -> idx+side
    a.addi(A5, S5, -1);
    a.bge(T3, A5, "no_down");
    a.add(T5, T2, S5);
    a.call("relax");
    a.label("no_down");
    a.addi(S7, S7, 1);
    a.j("visit");
    // relax(T5 = neighbor index; T1 = dist of visited cell)
    a.label("relax");
    a.slli(A2, T5, 3);
    a.add(A3, A2, S2);
    a.ld(A4, A3, 0); // wt[v]
    a.add(A4, A4, T1); // nd = dist[u] + wt[v]
    a.add(A5, A2, S0); // &dist[v]
    a.ld(A6, A5, 0);
    a.bge(A4, A6, "norelax"); // hard to predict
    a.st(A5, A4, 0);
    a.label("norelax");
    a.ret();
    // Checksum.
    a.label("sum");
    a.li(T0, 0);
    a.li(S6, 0);
    a.label("sloop");
    a.bge(T0, S3, "done");
    a.slli(A2, T0, 3);
    a.add(A2, A2, S0);
    a.ld(A3, A2, 0);
    a.add(S6, S6, A3);
    a.addi(T0, T0, 1);
    a.j("sloop");
    a.label("done");
    a.st(ZERO, S6, RESULT as i64);
    a.halt();

    // Reference.
    let mut dist = vec![inf; n];
    let mut seen = vec![false; n];
    dist[0] = 0;
    for _ in 0..n {
        let mut best = inf;
        let mut bi = usize::MAX;
        for i in 0..n {
            if !seen[i] && dist[i] < best {
                best = dist[i];
                bi = i;
            }
        }
        if bi == usize::MAX {
            break;
        }
        seen[bi] = true;
        let (r, c) = (bi / side, bi % side);
        let mut relax = |v: usize| {
            let nd = best + wt[v];
            if nd < dist[v] {
                dist[v] = nd;
            }
        };
        if c > 0 {
            relax(bi - 1);
        }
        if c < side - 1 {
            relax(bi + 1);
        }
        if r > 0 {
            relax(bi - side);
        }
        if r < side - 1 {
            relax(bi + side);
        }
    }
    let checksum: u64 = dist.iter().fold(0u64, |s, &d| s.wrapping_add(d));

    let mut mem = Vec::new();
    #[allow(clippy::needless_range_loop)] // i is used for three parallel arrays
    for i in 0..n {
        mem.push((dist_base + 8 * i as u64, if i == 0 { 0 } else { inf }));
        mem.push((seen_base + 8 * i as u64, 0));
        mem.push((wt_base + 8 * i as u64, wt[i]));
    }
    Workload::new(
        format!("astar/{side}"),
        Suite::Spec2006,
        a.assemble().expect("astar assembles"),
        mem,
        vec![Check { addr: RESULT, expect: checksum, what: "distance checksum" }],
    )
}

// ---------------------------------------------------------------------
// gobmk
// ---------------------------------------------------------------------

/// Board-evaluation surrogate: repeatedly mutate a small board with
/// hash-driven moves and re-score it with nested data-dependent pattern
/// branches.
pub fn gobmk(rounds: u64) -> Workload {
    let size = 81u64; // 9x9 board
    let board_base = DATA;
    let mut a = Assembler::new();
    // S0=&board S1=size S2=score S3=hash-state S4=MIX S5=rounds S6=3
    a.li(S0, board_base as i64);
    a.li(S1, size as i64);
    a.li(S2, 0);
    a.li(S3, 0x60b0);
    a.li(S4, MIX as i64);
    a.li(S5, rounds as i64);
    a.li(S6, 3);
    a.li(S7, 0); // round counter
    a.label("round");
    a.bge(S7, S5, "done");
    // Mutate: board[hash % size] = hash % 3.
    emit_mix(&mut a, S3, S3, S4, A2);
    a.srli(A6, S3, 8); // positive dividend for the signed rem
    a.rem(T0, A6, S1);
    a.rem(T1, A6, S6);
    a.slli(A3, T0, 3);
    a.add(A3, A3, S0);
    a.st(A3, T1, 0);
    // Score: walk interior points, branching on this point and its
    // left/right neighbors (deeply nested data-dependent control).
    a.li(T2, 1);
    a.addi(T3, S1, -1);
    a.label("scan");
    a.bge(T2, T3, "rnext");
    a.slli(A4, T2, 3);
    a.add(A4, A4, S0);
    a.ld(T4, A4, 0); // p = board[i]
    a.ld(T5, A4, -8); // l = board[i-1]
    a.ld(T6, A4, 8); // r = board[i+1]
    a.beq(T4, ZERO, "snext"); // empty point
    a.bne(T4, T5, "try_r"); // pattern: same colour left?
    a.addi(S2, S2, 3);
    a.label("try_r");
    a.bne(T4, T6, "try_both");
    a.addi(S2, S2, 5);
    a.label("try_both");
    a.bne(T5, T6, "snext");
    a.beq(T5, ZERO, "snext");
    a.addi(S2, S2, 7);
    a.label("snext");
    a.addi(T2, T2, 1);
    a.j("scan");
    a.label("rnext");
    a.addi(S7, S7, 1);
    a.j("round");
    a.label("done");
    a.st(ZERO, S2, RESULT as i64);
    a.halt();

    // Reference.
    let mut board = vec![0u64; size as usize];
    let mut state = 0x60b0u64;
    let mut score = 0u64;
    for _ in 0..rounds {
        state = mix_ref(state);
        let pos = state >> 8;
        board[(pos % size) as usize] = pos % 3;
        for i in 1..(size as usize - 1) {
            let (p, l, r) = (board[i], board[i - 1], board[i + 1]);
            if p == 0 {
                continue;
            }
            if p == l {
                score += 3;
            }
            if p == r {
                score += 5;
            }
            if l == r && l != 0 {
                score += 7;
            }
        }
    }

    let mem = (0..size).map(|i| (board_base + 8 * i, 0)).collect();
    Workload::new(
        format!("gobmk/{rounds}"),
        Suite::Spec2006,
        a.assemble().expect("gobmk assembles"),
        mem,
        vec![Check { addr: RESULT, expect: score, what: "board score" }],
    )
}

// ---------------------------------------------------------------------
// mcf
// ---------------------------------------------------------------------

/// Pointer-chasing surrogate for `mcf`: walk a randomly permuted linked
/// list whose working set exceeds the L2 cache, conditionally adjusting
/// node costs. Memory-bound — squash reuse buys little here because the
/// latency is dominated by cache misses (paper §4.1.1).
pub fn mcf(nodes: usize, steps: u64) -> Workload {
    // Random cyclic permutation for the next[] links.
    let mut rng = SplitMix64::new(0x3cf);
    let mut perm: Vec<u64> = (0..nodes as u64).collect();
    for i in (1..nodes).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    let mut next = vec![0u64; nodes];
    for i in 0..nodes {
        next[perm[i] as usize] = perm[(i + 1) % nodes];
    }
    let cost: Vec<u64> = (0..nodes).map(|_| rng.next_u64() % 1000).collect();

    let next_base = DATA2;
    let cost_base = DATA3;
    let mut a = Assembler::new();
    // S0=&next S1=&cost S2=node S3=acc S4=steps S5=500 (threshold)
    a.li(S0, next_base as i64);
    a.li(S1, cost_base as i64);
    a.li(S2, 0);
    a.li(S3, 0);
    a.li(S4, steps as i64);
    a.li(S5, 500);
    a.li(S6, 0);
    a.label("walk");
    a.bge(S6, S4, "done");
    a.slli(A2, S2, 3);
    a.add(A3, A2, S1);
    a.ld(T0, A3, 0); // cost[node]
    a.bge(T0, S5, "expensive"); // data-dependent on loaded cost
    a.add(S3, S3, T0);
    a.addi(T0, T0, 7);
    a.st(A3, T0, 0); // cost[node] += 7
    a.j("step");
    a.label("expensive");
    a.sub(S3, S3, T0);
    a.label("step");
    a.add(A4, A2, S0);
    a.ld(S2, A4, 0); // node = next[node] (serial pointer chase)
    a.addi(S6, S6, 1);
    a.j("walk");
    a.label("done");
    a.st(ZERO, S3, RESULT as i64);
    a.st(ZERO, S2, (RESULT + 8) as i64);
    a.halt();

    // Reference.
    let mut c = cost.clone();
    let mut node = 0usize;
    let mut acc = 0u64;
    for _ in 0..steps {
        let c0 = c[node];
        if c0 < 500 {
            acc = acc.wrapping_add(c0);
            c[node] = c0 + 7;
        } else {
            acc = acc.wrapping_sub(c0);
        }
        node = next[node] as usize;
    }

    let mut mem = Vec::with_capacity(2 * nodes);
    for i in 0..nodes {
        mem.push((next_base + 8 * i as u64, next[i]));
        mem.push((cost_base + 8 * i as u64, cost[i]));
    }
    Workload::new(
        format!("mcf/{nodes}"),
        Suite::Spec2006,
        a.assemble().expect("mcf assembles"),
        mem,
        vec![
            Check { addr: RESULT, expect: acc, what: "cost accumulator" },
            Check { addr: RESULT + 8, expect: node as u64, what: "final node" },
        ],
    )
}

// ---------------------------------------------------------------------
// omnetpp
// ---------------------------------------------------------------------

/// Discrete-event simulation surrogate: scan a small event list for the
/// earliest timestamp, dispatch on the event type, and reschedule.
pub fn omnetpp(slots: usize, events: u64) -> Workload {
    let mut rng = SplitMix64::new(0x0e7);
    let times: Vec<u64> = (0..slots).map(|_| rng.next_u64() % 1000).collect();
    let types: Vec<u64> = (0..slots).map(|_| rng.next_u64() % 3).collect();

    let time_base = DATA;
    let type_base = DATA + (slots as u64) * 8;
    let mut a = Assembler::new();
    // S0=&time S1=&type S2=slots S3=state(acc) S4=events S5=hash S6=MIX
    a.li(S0, time_base as i64);
    a.li(S1, type_base as i64);
    a.li(S2, slots as i64);
    a.li(S3, 0);
    a.li(S4, events as i64);
    a.li(S5, 0x0e7e);
    a.li(S6, MIX as i64);
    a.li(S7, 0);
    a.label("event");
    a.bge(S7, S4, "done");
    // Min-time scan.
    a.li(T0, 0);
    a.li(T1, -1); // best idx
    a.li(T2, i64::MAX); // best time
    a.label("scan");
    a.bge(T0, S2, "fire");
    a.slli(A2, T0, 3);
    a.add(A3, A2, S0);
    a.ld(A4, A3, 0);
    a.bge(A4, T2, "snext"); // hard to predict
    a.mv(T2, A4);
    a.mv(T1, T0);
    a.label("snext");
    a.addi(T0, T0, 1);
    a.j("scan");
    a.label("fire");
    // Dispatch on the event type.
    a.slli(A2, T1, 3);
    a.add(A5, A2, S1);
    a.ld(T3, A5, 0); // type
    a.li(A6, 1);
    a.beq(T3, ZERO, "t0");
    a.beq(T3, A6, "t1");
    // type 2: state += time * 3
    a.li(A7, 3);
    a.mul(A7, T2, A7);
    a.add(S3, S3, A7);
    a.j("resched");
    a.label("t0"); // state += time
    a.add(S3, S3, T2);
    a.j("resched");
    a.label("t1"); // state ^= time
    a.xor(S3, S3, T2);
    a.label("resched");
    // New time = time + 1 + hash % 256; new type = hash % 3.
    emit_mix(&mut a, S5, S5, S6, A7);
    a.andi(T4, S5, 255);
    a.add(T4, T4, T2);
    a.addi(T4, T4, 1);
    a.add(A3, A2, S0);
    a.st(A3, T4, 0);
    a.li(A6, 3);
    a.srli(T6, S5, 8); // positive dividend for the signed rem
    a.rem(T5, T6, A6);
    a.st(A5, T5, 0);
    a.addi(S7, S7, 1);
    a.j("event");
    a.label("done");
    a.st(ZERO, S3, RESULT as i64);
    a.halt();

    // Reference.
    let mut t = times.clone();
    let mut ty = types.clone();
    let mut state = 0x0e7eu64;
    let mut acc = 0u64;
    for _ in 0..events {
        let mut bi = usize::MAX;
        let mut bt = u64::MAX >> 1; // i64::MAX as u64
        for (i, &x) in t.iter().enumerate() {
            if x < bt {
                bt = x;
                bi = i;
            }
        }
        match ty[bi] {
            0 => acc = acc.wrapping_add(bt),
            1 => acc ^= bt,
            _ => acc = acc.wrapping_add(bt.wrapping_mul(3)),
        }
        state = mix_ref(state);
        t[bi] = bt + 1 + (state & 255);
        ty[bi] = (state >> 8) % 3;
    }

    let mut mem = Vec::new();
    for i in 0..slots {
        mem.push((time_base + 8 * i as u64, times[i]));
        mem.push((type_base + 8 * i as u64, types[i]));
    }
    Workload::new(
        format!("omnetpp/{events}"),
        Suite::Spec2006,
        a.assemble().expect("omnetpp assembles"),
        mem,
        vec![Check { addr: RESULT, expect: acc, what: "event accumulator" }],
    )
}

// ---------------------------------------------------------------------
// sjeng
// ---------------------------------------------------------------------

/// Game-tree surrogate: a three-level search with hash-driven move
/// values and alpha-beta-style pruning branches.
pub fn sjeng(positions: u64) -> Workload {
    let mut a = Assembler::new();
    // S0=hash S1=MIX S2=best-acc S3=positions S5=branching(4)
    a.li(S0, 0x57e9);
    a.li(S1, MIX as i64);
    a.li(S2, 0);
    a.li(S3, positions as i64);
    a.li(S5, 4);
    a.li(S4, 0);
    a.label("pos");
    a.bge(S4, S3, "done");
    a.li(S6, i64::MIN); // alpha for this position
    a.li(T0, 0); // move1
    a.label("l1");
    a.bge(T0, S5, "pnext");
    emit_mix(&mut a, S0, S0, S1, A2);
    a.srai(S7, S0, 32); // value seed for subtree
    a.li(S8, i64::MAX); // beta (min at level 2)
    a.li(T1, 0);
    a.label("l2");
    a.bge(T1, S5, "l1next");
    emit_mix(&mut a, S0, S0, S1, A3);
    a.li(T2, 0);
    a.li(S9, i64::MIN); // max at level 3
    a.label("l3");
    a.bge(T2, S5, "l2next");
    emit_mix(&mut a, S0, S0, S1, A4);
    a.srai(A5, S0, 40);
    a.add(A5, A5, S7); // leaf eval
    a.bge(S9, A5, "no3"); // max update: hard to predict
    a.mv(S9, A5);
    a.label("no3");
    // Alpha-beta-style cut: if leaf already exceeds beta, prune.
    a.blt(A5, S8, "no_cut");
    a.j("l2cut");
    a.label("no_cut");
    a.addi(T2, T2, 1);
    a.j("l3");
    a.label("l2cut");
    a.label("l2next");
    a.bge(S9, S8, "nomin");
    a.mv(S8, S9);
    a.label("nomin");
    a.addi(T1, T1, 1);
    a.j("l2");
    a.label("l1next");
    a.bge(S6, S8, "nomax");
    a.mv(S6, S8);
    a.label("nomax");
    a.addi(T0, T0, 1);
    a.j("l1");
    a.label("pnext");
    a.add(S2, S2, S6);
    a.addi(S4, S4, 1);
    a.j("pos");
    a.label("done");
    a.st(ZERO, S2, RESULT as i64);
    a.halt();

    // Reference.
    let mut state = 0x57e9u64;
    let mut acc = 0i64;
    for _ in 0..positions {
        let mut alpha = i64::MIN;
        for _ in 0..4 {
            state = mix_ref(state);
            let seed = (state as i64) >> 32;
            let mut beta = i64::MAX;
            for _ in 0..4 {
                state = mix_ref(state);
                let mut m3 = i64::MIN;
                let mut t2 = 0;
                while t2 < 4 {
                    state = mix_ref(state);
                    let leaf = ((state as i64) >> 40).wrapping_add(seed);
                    if m3 < leaf {
                        m3 = leaf;
                    }
                    if leaf >= beta {
                        break; // prune
                    }
                    t2 += 1;
                }
                if m3 < beta {
                    beta = m3;
                }
            }
            if alpha < beta {
                alpha = beta;
            }
        }
        acc = acc.wrapping_add(alpha);
    }

    Workload::new(
        format!("sjeng/{positions}"),
        Suite::Spec2006,
        a.assemble().expect("sjeng assembles"),
        vec![],
        vec![Check { addr: RESULT, expect: acc as u64, what: "search accumulator" }],
    )
}

// ---------------------------------------------------------------------
// bzip2
// ---------------------------------------------------------------------

/// Block-sorting surrogate: insertion-sort small blocks of
/// pseudo-random words (inner comparison loop is data-dependent), then
/// run-length scan the sorted block.
pub fn bzip2(blocks: u64) -> Workload {
    const BLOCK: u64 = 24;
    let buf_base = DATA;
    let mut a = Assembler::new();
    // S0=&buf S1=BLOCK S2=acc S3=blocks S4=hash S5=MIX S6=mask
    a.li(S0, buf_base as i64);
    a.li(S1, BLOCK as i64);
    a.li(S2, 0);
    a.li(S3, blocks as i64);
    a.li(S4, 0xb21b);
    a.li(S5, MIX as i64);
    a.li(S6, 0xff);
    a.li(S7, 0);
    a.label("block");
    a.bge(S7, S3, "done");
    // Fill the block with pseudo-random bytes.
    a.li(T0, 0);
    a.label("fill");
    a.bge(T0, S1, "sort");
    emit_mix(&mut a, S4, S4, S5, A2);
    a.and(A3, S4, S6);
    a.slli(A4, T0, 3);
    a.add(A4, A4, S0);
    a.st(A4, A3, 0);
    a.addi(T0, T0, 1);
    a.j("fill");
    // Insertion sort.
    a.label("sort");
    a.li(T0, 1);
    a.label("iloop");
    a.bge(T0, S1, "rle");
    a.slli(A2, T0, 3);
    a.add(A2, A2, S0);
    a.ld(T1, A2, 0); // key
    a.mv(T2, T0); // j
    a.label("shift");
    a.beq(T2, ZERO, "place");
    a.slli(A3, T2, 3);
    a.add(A3, A3, S0);
    a.ld(T3, A3, -8); // buf[j-1]
    a.bge(T1, T3, "place"); // comparison on random data
    a.st(A3, T3, 0); // buf[j] = buf[j-1]
    a.addi(T2, T2, -1);
    a.j("shift");
    a.label("place");
    a.slli(A4, T2, 3);
    a.add(A4, A4, S0);
    a.st(A4, T1, 0);
    a.addi(T0, T0, 1);
    a.j("iloop");
    // Run-length scan.
    a.label("rle");
    a.li(T0, 1);
    a.label("rloop");
    a.bge(T0, S1, "bnext");
    a.slli(A2, T0, 3);
    a.add(A2, A2, S0);
    a.ld(T1, A2, 0);
    a.ld(T2, A2, -8);
    a.bne(T1, T2, "norun");
    a.addi(S2, S2, 1);
    a.label("norun");
    a.add(S2, S2, T1);
    a.addi(T0, T0, 1);
    a.j("rloop");
    a.label("bnext");
    a.addi(S7, S7, 1);
    a.j("block");
    a.label("done");
    a.st(ZERO, S2, RESULT as i64);
    a.halt();

    // Reference.
    let mut state = 0xb21bu64;
    let mut acc = 0u64;
    for _ in 0..blocks {
        let mut buf: Vec<u64> = (0..BLOCK)
            .map(|_| {
                state = mix_ref(state);
                state & 0xff
            })
            .collect();
        for i in 1..buf.len() {
            let key = buf[i];
            let mut j = i;
            while j > 0 && key < buf[j - 1] {
                buf[j] = buf[j - 1];
                j -= 1;
            }
            buf[j] = key;
        }
        for i in 1..buf.len() {
            if buf[i] == buf[i - 1] {
                acc += 1;
            }
            acc = acc.wrapping_add(buf[i]);
        }
    }

    Workload::new(
        format!("bzip2/{blocks}"),
        Suite::Spec2006,
        a.assemble().expect("bzip2 assembles"),
        vec![],
        vec![Check { addr: RESULT, expect: acc, what: "sort/RLE accumulator" }],
    )
}

// ---------------------------------------------------------------------
// hmmer
// ---------------------------------------------------------------------

/// Profile-HMM dynamic-programming surrogate: a max-recurrence over a
/// sequence, with comparison branches that correlate with the data and
/// are therefore only moderately hard to predict.
pub fn hmmer(length: u64) -> Workload {
    const STATES: u64 = 8;
    let dp_base = DATA;
    let dp2_base = DATA + STATES * 8;
    let mut a = Assembler::new();
    // S0=&dp S1=&dp2 S2=STATES S3=len S4=hash S5=MIX S6=acc
    a.li(S0, dp_base as i64);
    a.li(S1, dp2_base as i64);
    a.li(S2, STATES as i64);
    a.li(S3, length as i64);
    a.li(S4, 0x4a3e);
    a.li(S5, MIX as i64);
    a.li(S6, 0);
    a.li(S7, 0); // position
    a.label("pos");
    a.bge(S7, S3, "done");
    emit_mix(&mut a, S4, S4, S5, A2);
    a.andi(T4, S4, 63); // emission score for this position
    a.li(T0, 0); // state
    a.label("state");
    a.bge(T0, S2, "swap");
    a.slli(A3, T0, 3);
    a.add(A4, A3, S0);
    a.ld(T1, A4, 0); // dp[s] + trans_stay(2)
    a.addi(T1, T1, 2);
    // dp[s-1] + trans_step(3), with dp[-1] treated as 0.
    a.li(T2, 3);
    a.beq(T0, ZERO, "nomatch");
    a.ld(T3, A4, -8);
    a.add(T2, T3, T2);
    a.label("nomatch");
    a.bge(T1, T2, "keep"); // max(): data-correlated
    a.mv(T1, T2);
    a.label("keep");
    a.add(T1, T1, T4);
    a.add(A5, A3, S1);
    a.st(A5, T1, 0); // dp2[s] = max + emit
    a.addi(T0, T0, 1);
    a.j("state");
    a.label("swap");
    a.mv(A6, S0);
    a.mv(S0, S1);
    a.mv(S1, A6);
    // Accumulate the last state's score.
    a.slli(A7, S2, 3);
    a.add(A7, A7, S0);
    a.ld(A2, A7, -8);
    a.add(S6, S6, A2);
    a.addi(S7, S7, 1);
    a.j("pos");
    a.label("done");
    a.st(ZERO, S6, RESULT as i64);
    a.halt();

    // Reference.
    let mut dp = vec![0u64; STATES as usize];
    let mut state = 0x4a3eu64;
    let mut acc = 0u64;
    for _ in 0..length {
        state = mix_ref(state);
        let emit = state & 63;
        let mut dp2 = vec![0u64; STATES as usize];
        for s in 0..STATES as usize {
            let stay = dp[s] + 2;
            let step = if s == 0 { 3 } else { dp[s - 1] + 3 };
            dp2[s] = stay.max(step) + emit;
        }
        dp = dp2;
        acc = acc.wrapping_add(dp[STATES as usize - 1]);
    }

    let mut mem = Vec::new();
    for s in 0..STATES {
        mem.push((dp_base + 8 * s, 0));
        mem.push((dp2_base + 8 * s, 0));
    }
    Workload::new(
        format!("hmmer/{length}"),
        Suite::Spec2006,
        a.assemble().expect("hmmer assembles"),
        mem,
        vec![Check { addr: RESULT, expect: acc, what: "dp accumulator" }],
    )
}

// ---------------------------------------------------------------------
// xalancbmk
// ---------------------------------------------------------------------

/// Tree-walk surrogate: iterative traversal of a random binary tree with
/// a data-dependent dispatch on each node's type.
pub fn xalancbmk(nodes: usize, walks: u64) -> Workload {
    // Node layout: [type, left, right, value] — 4 words per node.
    let mut rng = SplitMix64::new(0xa1a);
    let mut ty = vec![0u64; nodes];
    let mut left = vec![0u64; nodes];
    let mut right = vec![0u64; nodes];
    let mut val = vec![0u64; nodes];
    for i in 0..nodes {
        ty[i] = rng.next_u64() % 3;
        // Children point forward (acyclic); leaves point to 0 (sentinel).
        left[i] = if 2 * i + 1 < nodes { (2 * i + 1) as u64 } else { 0 };
        right[i] = if 2 * i + 2 < nodes { (2 * i + 2) as u64 } else { 0 };
        val[i] = rng.next_u64() % 100;
    }
    let node_base = DATA;

    let mut a = Assembler::new();
    // S0=&nodes S1=acc S2=walks S3=hash S4=MIX S5=node-count
    a.li(S0, node_base as i64);
    a.li(S1, 0);
    a.li(S2, walks as i64);
    a.li(S3, 0x7a1a);
    a.li(S4, MIX as i64);
    a.li(S5, nodes as i64);
    a.li(S6, 0);
    a.label("walk");
    a.bge(S6, S2, "done");
    emit_mix(&mut a, S3, S3, S4, A2);
    a.srli(T0, S3, 8); // positive dividend for the signed rem
    a.rem(T0, T0, S5); // start node
    a.label("descend");
    a.beq(T0, ZERO, "wnext"); // sentinel reached
    a.slli(A3, T0, 5); // node * 32 bytes
    a.add(A3, A3, S0);
    a.ld(T1, A3, 0); // type
    a.ld(T2, A3, 24); // value
    a.li(A4, 1);
    a.beq(T1, ZERO, "ty0"); // dispatch: hard to predict
    a.beq(T1, A4, "ty1");
    // type 2: acc += value*2; go right
    a.slli(A5, T2, 1);
    a.add(S1, S1, A5);
    a.ld(T0, A3, 16);
    a.j("descend");
    a.label("ty0"); // acc += value; go left
    a.add(S1, S1, T2);
    a.ld(T0, A3, 8);
    a.j("descend");
    a.label("ty1"); // acc ^= value; go left
    a.xor(S1, S1, T2);
    a.ld(T0, A3, 8);
    a.j("descend");
    a.label("wnext");
    a.addi(S6, S6, 1);
    a.j("walk");
    a.label("done");
    a.st(ZERO, S1, RESULT as i64);
    a.halt();

    // Reference.
    let mut state = 0x7a1au64;
    let mut acc = 0u64;
    for _ in 0..walks {
        state = mix_ref(state);
        let mut node = ((state >> 8) % nodes as u64) as usize;
        while node != 0 {
            match ty[node] {
                0 => {
                    acc = acc.wrapping_add(val[node]);
                    node = left[node] as usize;
                }
                1 => {
                    acc ^= val[node];
                    node = left[node] as usize;
                }
                _ => {
                    acc = acc.wrapping_add(val[node] * 2);
                    node = right[node] as usize;
                }
            }
        }
    }

    let mut mem = Vec::with_capacity(4 * nodes);
    for i in 0..nodes {
        let b = node_base + 32 * i as u64;
        mem.push((b, ty[i]));
        mem.push((b + 8, left[i]));
        mem.push((b + 16, right[i]));
        mem.push((b + 24, val[i]));
    }
    Workload::new(
        format!("xalancbmk/{walks}"),
        Suite::Spec2006,
        a.assemble().expect("xalancbmk assembles"),
        mem,
        vec![Check { addr: RESULT, expect: acc, what: "walk accumulator" }],
    )
}

// ---------------------------------------------------------------------
// perlbench
// ---------------------------------------------------------------------

/// Interpreter surrogate for `perlbench`: a bytecode VM whose dispatch is
/// an **indirect jump** through a handler table in memory. Random opcodes
/// make the jump target hard to predict — the classic interpreter
/// dispatch misprediction — and each handler's work is short, so the
/// squashed wrong-handler work rarely helps (interpreters are a known
/// hard case for reuse).
pub fn perlbench(ops: u64) -> Workload {
    const N_OPS: u64 = 5;
    let code_base = DATA;
    let arg_base = DATA + 0x4_0000;
    let table_base = DATA + 0x8_0000;
    let mut rng = SplitMix64::new(0x9e91);
    let code: Vec<u64> = (0..ops).map(|_| rng.next_u64() % N_OPS).collect();
    let args: Vec<u64> = (0..ops).map(|_| rng.next_u64() % 1000).collect();

    let mut a = Assembler::new();
    // S0=&code S1=n S2=acc S3=&table S4=&args S5=ip
    a.li(S0, code_base as i64);
    a.li(S1, ops as i64);
    a.li(S2, 1);
    a.li(S3, table_base as i64);
    a.li(S4, arg_base as i64);
    a.li(S5, 0);
    a.label("dispatch");
    a.bge(S5, S1, "done");
    a.slli(T0, S5, 3);
    a.add(A2, T0, S0);
    a.ld(T1, A2, 0); // op
    a.add(A3, T0, S4);
    a.ld(T2, A3, 0); // arg
    a.slli(A4, T1, 3);
    a.add(A4, A4, S3);
    a.ld(T3, A4, 0); // handler address
    a.jalr(ZERO, T3, 0); // indirect dispatch: hard-to-predict target
    let h_add = a.here();
    a.add(S2, S2, T2);
    a.j("next");
    let h_xor = a.here();
    a.xor(S2, S2, T2);
    a.j("next");
    let h_shl = a.here();
    a.andi(A5, T2, 7);
    a.sll(S2, S2, A5);
    a.j("next");
    let h_mul = a.here();
    a.ori(A6, T2, 1);
    a.mul(S2, S2, A6);
    a.j("next");
    let h_sub = a.here();
    a.sub(S2, S2, T2);
    a.label("next");
    a.addi(S5, S5, 1);
    a.j("dispatch");
    a.label("done");
    a.st(ZERO, S2, RESULT as i64);
    a.halt();

    // Reference.
    let mut acc = 1u64;
    for i in 0..ops as usize {
        let arg = args[i];
        match code[i] {
            0 => acc = acc.wrapping_add(arg),
            1 => acc ^= arg,
            2 => acc = acc.wrapping_shl((arg & 7) as u32),
            3 => acc = acc.wrapping_mul(arg | 1),
            _ => acc = acc.wrapping_sub(arg),
        }
    }

    let mut mem: Vec<(u64, u64)> = Vec::new();
    for (i, &c) in code.iter().enumerate() {
        mem.push((code_base + 8 * i as u64, c));
    }
    for (i, &v) in args.iter().enumerate() {
        mem.push((arg_base + 8 * i as u64, v));
    }
    for (i, h) in [h_add, h_xor, h_shl, h_mul, h_sub].iter().enumerate() {
        mem.push((table_base + 8 * i as u64, h.addr()));
    }
    Workload::new(
        format!("perlbench/{ops}"),
        Suite::Spec2006,
        a.assemble().expect("perlbench assembles"),
        mem,
        vec![Check { addr: RESULT, expect: acc, what: "vm accumulator" }],
    )
}

// ---------------------------------------------------------------------
// gcc
// ---------------------------------------------------------------------

/// Compiler surrogate for `gcc`: constant-folding over random expression
/// trees. An explicit value stack in memory is pushed and popped while an
/// operator walk dispatches on node kinds — branchy control with
/// store-to-load traffic on the stack slots.
pub fn gcc(trees: u64) -> Workload {
    const NODES: u64 = 63; // complete binary tree, depth 6
    let op_base = DATA;
    let val_base = DATA + 0x2_0000;
    let stack_base = DATA + 0x4_0000;
    let mut rng = SplitMix64::new(0x6cc);

    let mut a = Assembler::new();
    // S0=&op S1=&val S2=&stack S3=acc S4=hash S5=MIX S6=trees S7=NODES
    a.li(S0, op_base as i64);
    a.li(S1, val_base as i64);
    a.li(S2, stack_base as i64);
    a.li(S3, 0);
    a.li(S4, 0x6cc6);
    a.li(S5, MIX as i64);
    a.li(S6, trees as i64);
    a.li(S7, NODES as i64);
    a.li(S8, 0); // tree counter
    a.label("tree");
    a.bge(S8, S6, "done");
    // Mutate one node per tree: op[h % NODES] = h % 4, val[..] = h & 0xff.
    emit_mix(&mut a, S4, S4, S5, A2);
    a.srli(A3, S4, 8);
    a.rem(T0, A3, S7);
    a.slli(T0, T0, 3);
    a.add(A4, T0, S0);
    a.li(A5, 4);
    a.srli(A6, S4, 16);
    a.rem(A6, A6, A5);
    a.st(A4, A6, 0);
    a.add(A7, T0, S1);
    a.andi(A2, S4, 0xff);
    a.st(A7, A2, 0);
    // Fold bottom-up: leaves are nodes 31..62; internal node i combines
    // children 2i+1, 2i+2 according to op[i]. Results go to the stack
    // array (stack[i] = folded value of node i).
    a.li(T0, NODES as i64 - 1); // i
    a.label("fold");
    a.blt(T0, ZERO, "sum");
    a.slli(T1, T0, 3);
    a.li(A3, 31);
    a.bge(T0, A3, "leaf");
    // Internal: load children results.
    a.slli(A4, T0, 4); // 2i * 8
    a.add(A4, A4, S2);
    a.ld(T2, A4, 8); // stack[2i+1]
    a.ld(T3, A4, 16); // stack[2i+2]
    a.add(A5, T1, S0);
    a.ld(T4, A5, 0); // op
    a.li(A6, 1);
    a.beq(T4, ZERO, "op_add"); // dispatch: hard to predict
    a.beq(T4, A6, "op_xor");
    a.li(A6, 2);
    a.beq(T4, A6, "op_max");
    a.sub(T5, T2, T3); // op 3: sub
    a.j("store");
    a.label("op_add");
    a.add(T5, T2, T3);
    a.j("store");
    a.label("op_xor");
    a.xor(T5, T2, T3);
    a.j("store");
    a.label("op_max");
    a.mv(T5, T2);
    a.bgeu(T2, T3, "store"); // data-dependent (unsigned) max
    a.mv(T5, T3);
    a.j("store");
    a.label("leaf");
    a.add(A7, T1, S1);
    a.ld(T5, A7, 0); // leaf value
    a.label("store");
    a.add(A2, T1, S2);
    a.st(A2, T5, 0); // stack[i] = folded
    a.addi(T0, T0, -1);
    a.j("fold");
    a.label("sum");
    a.ld(A3, S2, 0); // root result
    a.add(S3, S3, A3);
    a.addi(S8, S8, 1);
    a.j("tree");
    a.label("done");
    a.st(ZERO, S3, RESULT as i64);
    a.halt();

    // Reference.
    let ops0: Vec<u64> = (0..NODES).map(|_| rng.next_u64() % 4).collect();
    let vals0: Vec<u64> = (0..NODES).map(|_| rng.next_u64() % 256).collect();
    let mut ops = ops0.clone();
    let mut vals = vals0.clone();
    let mut state = 0x6cc6u64;
    let mut acc = 0u64;
    for _ in 0..trees {
        state = mix_ref(state);
        let idx = ((state >> 8) % NODES) as usize;
        ops[idx] = (state >> 16) % 4;
        vals[idx] = state & 0xff;
        let mut stack = vec![0u64; NODES as usize];
        for i in (0..NODES as usize).rev() {
            stack[i] = if i >= 31 {
                vals[i]
            } else {
                let (l, r) = (stack[2 * i + 1], stack[2 * i + 2]);
                match ops[i] {
                    0 => l.wrapping_add(r),
                    1 => l ^ r,
                    2 => l.max(r),
                    _ => l.wrapping_sub(r),
                }
            };
        }
        acc = acc.wrapping_add(stack[0]);
    }

    let mut mem: Vec<(u64, u64)> = Vec::new();
    for i in 0..NODES as usize {
        mem.push((op_base + 8 * i as u64, ops0[i]));
        mem.push((val_base + 8 * i as u64, vals0[i]));
        mem.push((stack_base + 8 * i as u64, 0));
    }
    Workload::new(
        format!("gcc/{trees}"),
        Suite::Spec2006,
        a.assemble().expect("gcc assembles"),
        mem,
        vec![Check { addr: RESULT, expect: acc, what: "fold accumulator" }],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mssr_core::{MssrConfig, MultiStreamReuse};
    use mssr_sim::SimConfig;

    fn cfg() -> SimConfig {
        SimConfig::default().with_max_cycles(30_000_000)
    }

    #[test]
    fn astar_is_correct() {
        astar(12).run(cfg(), None);
    }

    #[test]
    fn gobmk_is_correct() {
        gobmk(60).run(cfg(), None);
    }

    #[test]
    fn mcf_is_correct() {
        mcf(4096, 3000).run(cfg(), None);
    }

    #[test]
    fn omnetpp_is_correct() {
        omnetpp(24, 300).run(cfg(), None);
    }

    #[test]
    fn sjeng_is_correct() {
        sjeng(150).run(cfg(), None);
    }

    #[test]
    fn bzip2_is_correct() {
        bzip2(40).run(cfg(), None);
    }

    #[test]
    fn hmmer_is_correct() {
        hmmer(600).run(cfg(), None);
    }

    #[test]
    fn xalancbmk_is_correct() {
        xalancbmk(255, 400).run(cfg(), None);
    }

    #[test]
    fn gcc_is_correct() {
        gcc(300).run(cfg(), None);
        gcc(150).run(cfg(), Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
    }

    #[test]
    fn perlbench_is_correct_and_mispredicts_dispatch() {
        let stats = perlbench(1500).run(cfg(), None);
        assert!(
            stats.mispredictions > 300,
            "indirect dispatch should mispredict often, got {}",
            stats.mispredictions
        );
        perlbench(500).run(cfg(), Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
    }

    #[test]
    fn kernels_survive_reuse_engine() {
        for w in [astar(10), gobmk(40), sjeng(80), bzip2(25)] {
            w.run(cfg(), Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
        }
    }

    #[test]
    fn mcf_is_memory_bound() {
        let stats = mcf(1 << 15, 20_000).run(cfg(), None);
        assert!(stats.l2_misses > 1000, "pointer chase should miss in L2, got {}", stats.l2_misses);
        assert!(stats.ipc() < 1.0, "memory-bound kernel, got IPC {}", stats.ipc());
    }
}
