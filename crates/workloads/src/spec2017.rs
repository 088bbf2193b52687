//! SPECint2017-like synthetic kernels (see the `spec2006` module and
//! `DESIGN.md` for the substitution rationale).
//!
//! | kernel | character it reproduces |
//! |---|---|
//! | `leela` | MCTS playouts: data-dependent descent comparisons — the paper's biggest SPEC2017 winner |
//! | `deepsjeng` | deeper game-tree search with transposition-table traffic |
//! | `xz` | LZ match finding: hash-chain loads adjacent to chain-update stores. Reused loads alias recent stores, provoking verification flushes — the paper observes a slight *slowdown* here |
//! | `mcf_r` / `omnetpp_r` | larger-input variants of the 2006 kernels |
//! | `x264` | block SAD with early-termination branches |

use mssr_isa::{regs::*, Assembler};

use crate::graph::SplitMix64;
use crate::util::{emit_mix, mix_ref, MIX};
use crate::workload::{Check, Suite, Workload};

const RESULT: u64 = 0x8000;
const DATA: u64 = 0x10_0000;

// ---------------------------------------------------------------------
// leela
// ---------------------------------------------------------------------

/// Monte-Carlo tree search surrogate: repeated descents through a node
/// array choosing children by comparing visit-scaled scores (the UCT
/// comparison — inherently data-dependent), followed by a playout score
/// accumulated back into the tree.
pub fn leela(playouts: u64) -> Workload {
    // A realistically large search tree: the score/visit arrays exceed
    // the caches, so UCT-comparison loads stall and the descent branches
    // resolve late with idle execution slots — giving the wrong path
    // both the time and the bandwidth to execute the next levels'
    // bookkeeping, which is what squash reuse recovers.
    const TREE: u64 = (1 << 18) - 1; // heap-shaped tree, 18 levels
    let score_base = DATA;
    let visit_base = DATA + TREE * 8;
    // Random priors (real MCTS seeds nodes with policy priors): they make
    // the UCT comparison data-dependent from the first playout.
    let mut prior = SplitMix64::new(0x1ee1a);
    let scores: Vec<u64> = (0..TREE).map(|_| prior.next_u64() % 1024).collect();
    let visits: Vec<u64> = (0..TREE).map(|_| prior.next_u64() % 7).collect();
    let mut a = Assembler::new();
    // S0=&score S1=&visits S2=acc S3=hash S4=MIX S5=playouts S6=TREE
    a.li(S0, score_base as i64);
    a.li(S1, visit_base as i64);
    a.li(S2, 0);
    a.li(S3, 0x1ee1a);
    a.li(S4, MIX as i64);
    a.li(S5, playouts as i64);
    a.li(S6, TREE as i64);
    a.li(S7, 0);
    a.li(S8, 0x5ca1ab1e); // per-playout bookkeeping state (CIDI)
    a.li(S9, 0); // depth
    a.label("playout");
    a.bge(S7, S5, "done");
    a.li(T0, 0); // node
    a.li(S9, 0);
    a.label("descend");
    // Tree statistics bookkeeping, common to both children — this is the
    // control-independent work of a descent step (real MCTS updates path
    // statistics regardless of which child the UCT rule picks).
    a.addi(S9, S9, 1);
    a.mul(S8, S8, S4);
    a.add(S8, S8, S9);
    a.srli(S10, S8, 33);
    a.xor(S8, S8, S10);
    // Children of node i: 2i+1, 2i+2; stop at leaves.
    a.slli(T1, T0, 1);
    a.addi(T1, T1, 1); // l
    a.addi(T2, T1, 1); // r
    a.bge(T2, S6, "rollout");
    // UCT-ish: compare score[l]*(visits[r]+1) vs score[r]*(visits[l]+1).
    a.slli(A2, T1, 3);
    a.add(A3, A2, S0);
    a.ld(T3, A3, 0); // score[l]
    a.add(A4, A2, S1);
    a.ld(T4, A4, 0); // visits[l]
    a.slli(A5, T2, 3);
    a.add(A6, A5, S0);
    a.ld(T5, A6, 0); // score[r]
    a.add(A7, A5, S1);
    a.ld(T6, A7, 0); // visits[r]
    a.addi(T6, T6, 1);
    a.mul(T3, T3, T6); // score[l] * (visits[r]+1)
    a.addi(T4, T4, 1);
    a.mul(T5, T5, T4); // score[r] * (visits[l]+1)
                       // Exploration noise (the UCT exploration term): derived from the
                       // control-independent bookkeeping hash, it varies per playout and
                       // keeps the choice hard to predict.
    a.andi(S11, S8, 4095);
    a.add(T3, T3, S11);
    a.bge(T3, T5, "go_left"); // UCT choice: hard to predict
    a.mv(T0, T2);
    a.j("descend");
    a.label("go_left");
    a.mv(T0, T1);
    a.j("descend");
    a.label("rollout");
    // Playout score from the hash; update the leaf's stats.
    emit_mix(&mut a, S3, S3, S4, A2);
    a.andi(T3, S3, 1023);
    a.slli(A3, T0, 3);
    a.add(A4, A3, S0);
    a.ld(A5, A4, 0);
    a.add(A5, A5, T3);
    a.st(A4, A5, 0); // score[leaf] += playout
    a.add(A6, A3, S1);
    a.ld(A7, A6, 0);
    a.addi(A7, A7, 1);
    a.st(A6, A7, 0); // visits[leaf] += 1
    a.add(S2, S2, T3);
    a.add(S2, S2, S8); // fold the bookkeeping state into the result
    a.addi(S7, S7, 1);
    a.j("playout");
    a.label("done");
    a.st(ZERO, S2, RESULT as i64);
    a.halt();

    // Reference.
    let mut score = scores.clone();
    let mut visits = visits.clone();
    let mut state = 0x1ee1au64;
    let mut book = 0x5ca1ab1eu64;
    let mut acc = 0u64;
    for _ in 0..playouts {
        let mut node = 0usize;
        let mut depth = 0u64;
        loop {
            depth += 1;
            book = book.wrapping_mul(MIX).wrapping_add(depth);
            book ^= book >> 33;
            let l = 2 * node + 1;
            let r = 2 * node + 2;
            if r >= TREE as usize {
                break;
            }
            let lv = score[l].wrapping_mul(visits[r] + 1).wrapping_add(book & 4095);
            let rv = score[r].wrapping_mul(visits[l] + 1);
            node = if lv >= rv { l } else { r };
        }
        state = mix_ref(state);
        let playout = state & 1023;
        score[node] = score[node].wrapping_add(playout);
        visits[node] += 1;
        acc = acc.wrapping_add(playout).wrapping_add(book);
    }

    let mut mem = Vec::with_capacity(2 * TREE as usize);
    for i in 0..TREE as usize {
        mem.push((score_base + 8 * i as u64, scores[i]));
        mem.push((visit_base + 8 * i as u64, visits[i]));
    }
    Workload::new(
        format!("leela/{playouts}"),
        Suite::Spec2017,
        a.assemble().expect("leela assembles"),
        mem,
        vec![Check { addr: RESULT, expect: acc, what: "playout accumulator" }],
    )
}

// ---------------------------------------------------------------------
// deepsjeng
// ---------------------------------------------------------------------

/// Deeper game-tree surrogate with a transposition table: each node
/// probes a hash-indexed table (load), prunes on a hit (data-dependent),
/// and stores its result back (store traffic near the probing loads).
pub fn deepsjeng(positions: u64) -> Workload {
    const TT: u64 = 1 << 10;
    let tt_base = DATA;
    let mut a = Assembler::new();
    // S0=&tt S1=TT-1 S2=acc S3=hash S4=MIX S5=positions S6=4 (branching)
    a.li(S0, tt_base as i64);
    a.li(S1, (TT - 1) as i64);
    a.li(S2, 0);
    a.li(S3, 0xdee9);
    a.li(S4, MIX as i64);
    a.li(S5, positions as i64);
    a.li(S6, 4);
    a.li(S7, 0);
    a.label("pos");
    a.bge(S7, S5, "done");
    a.li(S8, 0); // position best
    a.li(T0, 0); // move1
    a.label("l1");
    a.bge(T0, S6, "pnext");
    emit_mix(&mut a, S3, S3, S4, A2);
    // Transposition-table probe.
    a.and(T1, S3, S1);
    a.slli(A3, T1, 3);
    a.add(A3, A3, S0);
    a.ld(T2, A3, 0); // tt entry
    a.srli(T3, S3, 20);
    a.andi(T3, T3, 4095); // expected tag+value
    a.beq(T2, T3, "tt_hit"); // data-dependent hit check
                             // Miss: "search" — an inner loop of hash evals.
    a.li(T4, 0);
    a.li(T5, 0);
    a.label("l2");
    a.bge(T4, S6, "l2done");
    emit_mix(&mut a, S3, S3, S4, A4);
    a.srli(A5, S3, 50);
    a.add(T5, T5, A5);
    // Futility-style cut on the running value.
    a.li(A6, 24000);
    a.blt(T5, A6, "l2go"); // hard to predict
    a.j("l2done");
    a.label("l2go");
    a.addi(T4, T4, 1);
    a.j("l2");
    a.label("l2done");
    a.st(A3, T3, 0); // tt store (aliases future probes)
    a.add(S8, S8, T5);
    a.j("l1next");
    a.label("tt_hit");
    a.add(S8, S8, T2);
    a.label("l1next");
    a.addi(T0, T0, 1);
    a.j("l1");
    a.label("pnext");
    a.add(S2, S2, S8);
    a.addi(S7, S7, 1);
    a.j("pos");
    a.label("done");
    a.st(ZERO, S2, RESULT as i64);
    a.halt();

    // Reference.
    let mut tt = vec![0u64; TT as usize];
    let mut state = 0xdee9u64;
    let mut acc = 0u64;
    for _ in 0..positions {
        let mut best = 0u64;
        for _ in 0..4 {
            state = mix_ref(state);
            let idx = (state & (TT - 1)) as usize;
            let tag = (state >> 20) & 4095;
            if tt[idx] == tag {
                best = best.wrapping_add(tt[idx]);
            } else {
                let mut v = 0u64;
                let mut t4 = 0;
                while t4 < 4 {
                    state = mix_ref(state);
                    v = v.wrapping_add(state >> 50);
                    if v >= 24000 {
                        break;
                    }
                    t4 += 1;
                }
                tt[idx] = tag;
                best = best.wrapping_add(v);
            }
        }
        acc = acc.wrapping_add(best);
    }

    let mem = (0..TT).map(|i| (tt_base + 8 * i, 0)).collect();
    Workload::new(
        format!("deepsjeng/{positions}"),
        Suite::Spec2017,
        a.assemble().expect("deepsjeng assembles"),
        mem,
        vec![Check { addr: RESULT, expect: acc, what: "search accumulator" }],
    )
}

// ---------------------------------------------------------------------
// xz
// ---------------------------------------------------------------------

/// LZ match-finder surrogate: for each input position, probe a hash-chain
/// head (load), compare candidate match words (loads), then update the
/// chain head (store). The chain-head stores frequently alias loads that
/// squash reuse wants to recycle, so reused loads fail verification and
/// flush — reproducing the paper's observed `xz` slowdown.
pub fn xz(positions: u64) -> Workload {
    const HASH_SLOTS: u64 = 32;
    let input_base = DATA;
    let head_base = DATA + 0x8_0000;
    // Compressible pseudo-random input: small alphabet with repeats.
    let mut rng = SplitMix64::new(0x5a5a);
    let n = positions + 8;
    let input: Vec<u64> = (0..n).map(|_| rng.next_u64() % 7).collect();

    let mut a = Assembler::new();
    // S0=&input S1=&head S2=matches S3=pos S4=positions S5=HASH-1 S6=acc
    a.li(S0, input_base as i64);
    a.li(S1, head_base as i64);
    a.li(S2, 0);
    a.li(S3, 0);
    a.li(S4, positions as i64);
    a.li(S5, (HASH_SLOTS - 1) as i64);
    a.li(S6, 0);
    a.li(S7, MIX as i64);
    a.li(S9, MIX as i64);
    a.li(S10, 0xf1de83e19937733du64 as i64); // multiplicative inverse of MIX mod 2^64
    a.label("pos");
    a.bge(S3, S4, "done");
    // h = mix(input[pos] * 8 + input[pos+1]) & mask
    a.slli(A2, S3, 3);
    a.add(A2, A2, S0);
    a.ld(T0, A2, 0);
    a.ld(T1, A2, 8);
    a.slli(T0, T0, 3);
    a.add(T0, T0, T1);
    // A deliberately deep hash chain: the chain-head slot (and thus the
    // chain-update store's address) resolves late, exactly the situation
    // where squashed loads are reused before an older aliasing store has
    // executed (paper §3.8.1).
    a.mul(T0, T0, S7);
    a.srli(T1, T0, 23);
    a.xor(T0, T0, T1);
    a.mul(T0, T0, S7);
    a.srli(T1, T0, 17);
    a.xor(T0, T0, T1);
    a.mul(T0, T0, S7);
    a.srli(T0, T0, 40);
    a.and(T0, T0, S5);
    // Probe chain head.
    a.slli(A3, T0, 3);
    a.add(A3, A3, S1);
    a.ld(T2, A3, 0); // candidate position + 1 (0 = empty)
    a.beq(T2, ZERO, "update"); // empty slot: data-dependent
    a.addi(T2, T2, -1);
    // Match-length loop: compare words at cand and pos.
    a.li(T3, 0); // len
    a.label("mlen");
    a.li(A4, 4);
    a.bge(T3, A4, "mdone");
    a.add(A5, T2, T3);
    a.slli(A5, A5, 3);
    a.add(A5, A5, S0);
    a.ld(A6, A5, 0);
    a.add(A7, S3, T3);
    a.slli(A7, A7, 3);
    a.add(A7, A7, S0);
    a.ld(T4, A7, 0);
    a.bne(A6, T4, "mdone"); // data-dependent match test
    a.addi(T3, T3, 1);
    a.j("mlen");
    a.label("mdone");
    a.add(S6, S6, T3);
    a.beq(T3, ZERO, "update");
    a.addi(S2, S2, 1);
    // Mark the matched position (LZ output rewrites the window) — this
    // read-modify-write aliases the match-loop loads of later positions,
    // which is what trips reused-load verification.
    a.ld(A4, A2, 0);
    a.ori(A4, A4, 0x100);
    a.st(A2, A4, 0);
    a.label("update");
    // head[h] = pos + 1 — the store that aliases future probes. Its
    // address goes through a slow multiplicative-inverse identity
    // (h * MIX * MIX⁻¹ * MIX * MIX⁻¹ == h), so the store's address
    // resolves ~12 cycles after the probes — younger probe loads run
    // ahead of it, and their squashed results go stale.
    a.mul(A5, T0, S9);
    a.mul(A5, A5, S10);
    a.mul(A5, A5, S9);
    a.mul(A5, A5, S10);
    a.slli(A5, A5, 3);
    a.add(A5, A5, S1);
    a.addi(T5, S3, 1);
    a.st(A5, T5, 0);
    a.addi(S3, S3, 1);
    a.j("pos");
    a.label("done");
    a.st(ZERO, S2, RESULT as i64);
    a.st(ZERO, S6, (RESULT + 8) as i64);
    a.halt();

    // Reference (mutating a copy of the input, like the kernel does).
    let mut buf = input.clone();
    let mut head = vec![0u64; HASH_SLOTS as usize];
    let mut matches = 0u64;
    let mut total_len = 0u64;
    for pos in 0..positions {
        let mut h =
            buf[pos as usize].wrapping_mul(8).wrapping_add(buf[pos as usize + 1]).wrapping_mul(MIX);
        h ^= h >> 23;
        h = h.wrapping_mul(MIX);
        h ^= h >> 17;
        h = h.wrapping_mul(MIX);
        h = (h >> 40) & (HASH_SLOTS - 1);
        let cand = head[h as usize];
        if cand != 0 {
            let cand = cand - 1;
            let mut len = 0u64;
            while len < 4 && buf[(cand + len) as usize] == buf[(pos + len) as usize] {
                len += 1;
            }
            total_len += len;
            if len > 0 {
                matches += 1;
                buf[pos as usize] |= 0x100;
            }
        }
        head[h as usize] = pos + 1;
    }

    let mut mem: Vec<(u64, u64)> =
        input.iter().enumerate().map(|(i, &v)| (input_base + 8 * i as u64, v)).collect();
    for i in 0..HASH_SLOTS {
        mem.push((head_base + 8 * i, 0));
    }
    Workload::new(
        format!("xz/{positions}"),
        Suite::Spec2017,
        a.assemble().expect("xz assembles"),
        mem,
        vec![
            Check { addr: RESULT, expect: matches, what: "match count" },
            Check { addr: RESULT + 8, expect: total_len, what: "total match length" },
        ],
    )
}

// ---------------------------------------------------------------------
// mcf_r / omnetpp_r
// ---------------------------------------------------------------------

/// The 2017 `mcf_r`: the same pointer-chasing surrogate with a larger
/// working set.
pub fn mcf_r(nodes: usize, steps: u64) -> Workload {
    crate::spec2006::mcf(nodes, steps).renamed(format!("mcf_r/{nodes}"), Suite::Spec2017)
}

/// The 2017 `omnetpp_r`: the event-queue surrogate with a larger queue.
pub fn omnetpp_r(slots: usize, events: u64) -> Workload {
    crate::spec2006::omnetpp(slots, events).renamed(format!("omnetpp_r/{events}"), Suite::Spec2017)
}

// ---------------------------------------------------------------------
// x264
// ---------------------------------------------------------------------

/// Motion-estimation surrogate: sum-of-absolute-differences over
/// candidate blocks with an early-termination branch once the partial
/// SAD exceeds the current best.
pub fn x264(blocks: u64) -> Workload {
    const FRAME: u64 = 4096;
    const BLOCK: u64 = 16;
    const CANDS: u64 = 8;
    let frame_base = DATA;
    let mut rng = SplitMix64::new(0x264);
    // A frame with local similarity: values drift slowly.
    let mut cur = 128i64;
    let frame: Vec<u64> = (0..FRAME)
        .map(|_| {
            cur += (rng.next_u64() % 9) as i64 - 4;
            cur = cur.clamp(0, 255);
            cur as u64
        })
        .collect();

    let mut a = Assembler::new();
    // S0=&frame S1=acc S2=hash S3=MIX S4=blocks S5=BLOCK S6=CANDS
    a.li(S0, frame_base as i64);
    a.li(S1, 0);
    a.li(S2, 0x8264);
    a.li(S3, MIX as i64);
    a.li(S4, blocks as i64);
    a.li(S5, BLOCK as i64);
    a.li(S6, CANDS as i64);
    a.li(S7, 0);
    a.label("block");
    a.bge(S7, S4, "done");
    emit_mix(&mut a, S2, S2, S3, A2);
    a.li(T6, (FRAME - 2 * BLOCK - 256) as i64);
    a.srli(S8, S2, 8); // positive dividend for the signed rem
    a.rem(S8, S8, T6); // block start
    a.li(S9, i64::MAX); // best SAD
    a.li(T0, 0); // candidate index
    a.label("cand");
    a.bge(T0, S6, "bnext");
    // Candidate offset: start + 16 + cand*29 (within bounds).
    a.li(A3, 29);
    a.mul(A3, T0, A3);
    a.add(A3, A3, S8);
    a.addi(A3, A3, 16); // candidate start
    a.li(T1, 0); // i
    a.li(T2, 0); // sad
    a.label("sad");
    a.bge(T1, S5, "sdone");
    a.add(A4, S8, T1);
    a.slli(A4, A4, 3);
    a.add(A4, A4, S0);
    a.ld(A5, A4, 0); // frame[start+i]
    a.add(A6, A3, T1);
    a.slli(A6, A6, 3);
    a.add(A6, A6, S0);
    a.ld(A7, A6, 0); // frame[cand+i]
    a.sub(A5, A5, A7);
    a.srai(A6, A5, 63);
    a.xor(A5, A5, A6);
    a.sub(A5, A5, A6); // |diff|
    a.add(T2, T2, A5);
    a.bge(T2, S9, "sdone"); // early termination: data-dependent
    a.addi(T1, T1, 1);
    a.j("sad");
    a.label("sdone");
    a.bge(T2, S9, "cnext");
    a.mv(S9, T2); // new best
    a.label("cnext");
    a.addi(T0, T0, 1);
    a.j("cand");
    a.label("bnext");
    a.add(S1, S1, S9);
    a.addi(S7, S7, 1);
    a.j("block");
    a.label("done");
    a.st(ZERO, S1, RESULT as i64);
    a.halt();

    // Reference.
    let mut state = 0x8264u64;
    let mut acc = 0u64;
    for _ in 0..blocks {
        state = mix_ref(state);
        let start = ((state >> 8) % (FRAME - 2 * BLOCK - 256)) as usize;
        let mut best = u64::MAX >> 1; // i64::MAX
        for c in 0..CANDS {
            let cand = start + 16 + (c * 29) as usize;
            let mut sad = 0u64;
            let mut i = 0usize;
            while i < BLOCK as usize {
                let d = frame[start + i] as i64 - frame[cand + i] as i64;
                sad += d.unsigned_abs();
                if sad >= best {
                    break;
                }
                i += 1;
            }
            if sad < best {
                best = sad;
            }
        }
        acc = acc.wrapping_add(best);
    }

    let mem = frame.iter().enumerate().map(|(i, &v)| (frame_base + 8 * i as u64, v)).collect();
    Workload::new(
        format!("x264/{blocks}"),
        Suite::Spec2017,
        a.assemble().expect("x264 assembles"),
        mem,
        vec![Check { addr: RESULT, expect: acc, what: "SAD accumulator" }],
    )
}

// ---------------------------------------------------------------------
// exchange2
// ---------------------------------------------------------------------

/// Backtracking-search surrogate for `exchange2` (a Sudoku solver):
/// iterative N-queens with one board cell banned per round. Backtracking
/// search is dominated by deeply data-dependent conflict-test branches —
/// among the hardest control flow for any predictor.
pub fn exchange2(n: usize, rounds: u64) -> Workload {
    let pos_base = DATA; // pos[row]: current column per row (-1 = unplaced)
    let mut a = Assembler::new();
    // S0=&pos S1=n S2=solutions S3=banned_row S4=banned_col S5=round
    // S6=rounds S7=-1
    a.li(S0, pos_base as i64);
    a.li(S1, n as i64);
    a.li(S2, 0);
    a.li(S5, 0);
    a.li(S6, rounds as i64);
    a.li(S7, -1);
    a.label("round");
    a.bge(S5, S6, "done");
    // Ban cell (round % n, (round / n) % n).
    a.rem(S3, S5, S1);
    a.div(S4, S5, S1);
    a.rem(S4, S4, S1);
    // pos[] = -1.
    a.li(T0, 0);
    a.label("clear");
    a.bge(T0, S1, "search");
    a.slli(A2, T0, 3);
    a.add(A2, A2, S0);
    a.st(A2, S7, 0);
    a.addi(T0, T0, 1);
    a.j("clear");
    a.label("search");
    a.li(T0, 0); // row
    a.label("advance");
    a.blt(T0, ZERO, "rnext"); // backtracked past row 0: done
    a.bge(T0, S1, "solution");
    // pos[row] += 1.
    a.slli(A3, T0, 3);
    a.add(A3, A3, S0);
    a.ld(T1, A3, 0);
    a.addi(T1, T1, 1);
    a.st(A3, T1, 0);
    a.bge(T1, S1, "exhausted"); // no columns left in this row
                                // The banned cell is unusable.
    a.bne(T0, S3, "conflicts");
    a.beq(T1, S4, "advance");
    a.label("conflicts");
    // Check against rows 0..row.
    a.li(T2, 0); // r
    a.label("chk");
    a.bge(T2, T0, "place"); // all prior rows checked: placeable
    a.slli(A4, T2, 3);
    a.add(A4, A4, S0);
    a.ld(T3, A4, 0); // pos[r]
    a.beq(T3, T1, "advance"); // same column: conflict (hard to predict)
    a.sub(A5, T0, T2); // row distance
    a.sub(A6, T1, T3); // column distance
    a.beq(A6, A5, "advance"); // same diagonal
    a.sub(A7, T3, T1);
    a.beq(A7, A5, "advance"); // other diagonal
    a.addi(T2, T2, 1);
    a.j("chk");
    a.label("place");
    a.addi(T0, T0, 1);
    a.j("advance");
    a.label("exhausted");
    a.st(A3, S7, 0); // reset this row
    a.addi(T0, T0, -1); // backtrack
    a.j("advance");
    a.label("solution");
    a.addi(S2, S2, 1);
    a.addi(T0, T0, -1); // keep searching for more solutions
    a.j("advance");
    a.label("rnext");
    a.addi(S5, S5, 1);
    a.j("round");
    a.label("done");
    a.st(ZERO, S2, RESULT as i64);
    a.halt();

    // Reference: identical iterative search.
    let mut solutions = 0u64;
    for round in 0..rounds {
        let banned_row = (round % n as u64) as i64;
        let banned_col = ((round / n as u64) % n as u64) as i64;
        let mut pos = vec![-1i64; n];
        let mut row = 0i64;
        loop {
            if row < 0 {
                break;
            }
            if row >= n as i64 {
                solutions += 1;
                row -= 1;
                continue;
            }
            pos[row as usize] += 1;
            let col = pos[row as usize];
            if col >= n as i64 {
                pos[row as usize] = -1;
                row -= 1;
                continue;
            }
            if row == banned_row && col == banned_col {
                continue;
            }
            let mut ok = true;
            for r in 0..row {
                let c = pos[r as usize];
                if c == col || col - c == row - r || c - col == row - r {
                    ok = false;
                    break;
                }
            }
            if ok {
                row += 1;
            }
        }
    }

    let mem = (0..n).map(|i| (pos_base + 8 * i as u64, 0)).collect();
    Workload::new(
        format!("exchange2/{n}x{rounds}"),
        Suite::Spec2017,
        a.assemble().expect("exchange2 assembles"),
        mem,
        vec![Check { addr: RESULT, expect: solutions, what: "solution count" }],
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
    fn exchange2_is_correct() {
        // 6-queens with banned cells across 6 rounds.
        exchange2(6, 6).run(cfg(), None);
        exchange2(6, 3).run(cfg(), Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
    }

    #[test]
    fn exchange2_counts_classic_queens() {
        // With the banned cell outside reachable play... instead check a
        // known value: 6-queens has 4 solutions on a free board; banning
        // one cell per round only removes solutions using that cell.
        // Verified directly against the Rust reference by Workload::run;
        // here we additionally pin the free-board count via a 1-round run
        // whose banned cell is never used by any solution.
        let w = exchange2(6, 1); // bans (0,0); no 6-queens solution uses it
        let mut sim = w.instantiate(cfg());
        sim.run();
        w.verify(&sim).unwrap();
        assert_eq!(sim.read_mem_u64(0x8000), 4, "6-queens has 4 solutions");
    }

    #[test]
    fn leela_is_correct() {
        leela(300).run(cfg(), None);
    }

    #[test]
    fn deepsjeng_is_correct() {
        deepsjeng(200).run(cfg(), None);
    }

    #[test]
    fn xz_is_correct() {
        xz(1500).run(cfg(), None);
    }

    #[test]
    fn mcf_r_is_correct() {
        mcf_r(4096, 3000).run(cfg(), None);
    }

    #[test]
    fn omnetpp_r_is_correct() {
        omnetpp_r(32, 300).run(cfg(), None);
    }

    #[test]
    fn x264_is_correct() {
        x264(60).run(cfg(), None);
    }

    #[test]
    fn xz_provokes_memory_hazards_under_reuse() {
        let stats =
            xz(3000).run(cfg(), Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
        // The chain-head stores aliasing reused loads must surface as
        // verification flushes or memory-order replays (or suppress load
        // reuse entirely); the kernel exists to exercise that path.
        assert!(
            stats.flushes_reuse_verify + stats.flushes_mem_order > 0
                || stats.engine.reused_loads == 0,
            "expected memory-hazard activity under reuse"
        );
    }

    #[test]
    fn kernels_survive_reuse_engine() {
        for w in [leela(150), deepsjeng(100), x264(30)] {
            w.run(cfg(), Some(Box::new(MultiStreamReuse::new(MssrConfig::default()))));
        }
    }
}
