//! Rename stage: in-order register rename over the RAT, reuse test
//! against the engine (paper §3.5), and dispatch into ROB/IQ/LSQ.
//!
//! Distinct from `crate::rename`, which holds the RAT/free-list/PRF
//! structures themselves; this module is the pipeline pass over them.

use mssr_isa::{ArchReg, Opcode};

use crate::engine::{DstBinding, RenamedInst, ReuseEngine, ReuseQuery};
use crate::lsq::{LqEntry, SqEntry};
use crate::rob::{BranchState, DstInfo, RobEntry};
use crate::stage::{ectx, fu_class, MachineState};
use crate::trace::{TraceEvent, Tracer};
use crate::types::{FuClass, Rgid, SeqNum};

/// Allocates the next RGID generation for `a`, reporting overflow.
fn alloc_rgid(st: &mut MachineState, engine: &mut dyn ReuseEngine, a: ArchReg) -> Rgid {
    let g = st.rgids.next(a);
    if g.is_null() {
        st.rgid_overflows_total += 1;
        engine.on_rgid_overflow(&mut ectx!(st));
    }
    g
}

/// Renames and dispatches up to `rename_width` instructions.
pub(crate) fn run(st: &mut MachineState, engine: &mut dyn ReuseEngine, tracer: &mut Tracer) {
    for _ in 0..st.cfg.rename_width {
        let Some(front) = st.frontend_q.front() else { break };
        if front.ready_cycle > st.cycle || !st.rob.has_space() {
            break;
        }
        let inst = front.inst;
        // Structural checks before consuming the instruction.
        let fu = fu_class(inst.op());
        let iq_ok = match fu {
            Some(FuClass::Lsu) => st.iq_mem.has_space(),
            Some(_) => st.iq_int.has_space(),
            None => true,
        };
        let lsq_ok = (!inst.is_load() || st.lsq.lq_has_space())
            && (!inst.is_store() || st.lsq.sq_has_space());
        if !iq_ok || !lsq_ok {
            break;
        }
        if inst.writes_reg() && st.free_list.available() == 0 {
            engine.on_register_pressure(&mut ectx!(st));
            if st.free_list.available() == 0 {
                break;
            }
        }

        let fi = st.frontend_q.pop_front().expect("front exists");
        let seq = SeqNum::new(st.next_seq);
        st.next_seq += 1;
        st.stats.renamed_instructions += 1;

        // Source lookup; `x0` and absent operands carry no integrity tag.
        let mut src_pregs = [None, None];
        let mut src_rgids = [None, None];
        for (i, s) in inst.sources().iter().enumerate() {
            if let Some(a) = s {
                if !a.is_zero() {
                    // Lazily revive mappings whose RGID was nulled by a
                    // global reset: long-lived registers (loop-invariant
                    // constants, stack pointers) would otherwise stay
                    // unreusable forever.
                    if st.rat.rgid(*a).is_null() {
                        let g = alloc_rgid(st, engine, *a);
                        if !g.is_null() {
                            st.rat.retag(*a, g);
                        }
                    }
                    src_pregs[i] = Some(st.rat.lookup(*a));
                    src_rgids[i] = Some(st.rat.rgid(*a));
                }
            }
        }

        // Reuse test (paper §3.5): only value-producing, non-control,
        // non-store instructions are candidates.
        let eligible = inst.writes_reg() && !inst.is_control();
        let grant = if eligible {
            let q = ReuseQuery { seq, pc: fi.pc, inst: &inst, src_rgids, src_pregs };
            engine.try_reuse(&q, &mut ectx!(st))
        } else {
            None
        };

        let mut dst_info = None;
        let mut completed = false;
        let mut reused = false;
        let mut verify_pending = false;

        if let Some(g) = grant {
            // Credit the execution latency this grant skipped to the
            // account (clamped there against the accrued
            // squash-penalty slots); the engine can discount it, e.g.
            // verified loads re-execute and recover nothing.
            let estimate = match inst.op() {
                Opcode::Mul => st.cfg.mul_latency,
                Opcode::Div | Opcode::Rem => st.cfg.div_latency,
                Opcode::Ld => st.cfg.l1d.latency,
                _ => 1,
            };
            let credit = engine.reuse_credit_latency(inst.op(), estimate);
            st.account.credit_reuse(credit);
            if g.rgid.is_some() {
                // The grant forwarded a reconvergence stream: a
                // fast-path fetch in the paper's terms.
                st.account.credit_recon_fetches += 1;
            }
            st.grants_total += 1;
            #[cfg(debug_assertions)]
            if !inst.is_load() {
                // A sound ALU grant hands over exactly what re-executing
                // the instruction on its current (reuse-test-matched)
                // sources would produce.
                let a = src_pregs[0].map_or(0, |p| st.prf.read(p));
                let b = src_pregs[1].map_or(0, |p| st.prf.read(p));
                if let Some(fresh) = crate::exec::alu(inst.op(), a, b, inst.imm()) {
                    let got = st.prf.read(g.preg);
                    if let Some(v) = crate::check::check_reuse_value(seq, g.preg, got, fresh) {
                        panic!("invariant violation at cycle {}: {v}", st.cycle);
                    }
                }
            }
            let arch = inst.dst().expect("granted instruction writes a register");
            let rgid = match g.rgid {
                Some(r) => r,
                None => alloc_rgid(st, engine, arch),
            };
            let (prev_preg, prev_rgid) = st.rat.install(arch, g.preg, rgid);
            st.prf.set_ready(g.preg);
            dst_info =
                Some(DstInfo { arch, new_preg: g.preg, prev_preg, new_rgid: rgid, prev_rgid });
            completed = true;
            reused = true;
            if inst.is_load() {
                st.lsq.push_load(LqEntry {
                    seq,
                    addr: g.load_addr,
                    issued: true,
                    value: Some(st.prf.read(g.preg)),
                    reused: true,
                });
                if g.needs_load_verify {
                    verify_pending = true;
                    // Re-execute for verification; sources are ready
                    // (the squashed instance executed with the same
                    // mappings), so it waits only for LSU bandwidth.
                    st.iq_mem.insert(seq, FuClass::Lsu, [None, None]);
                }
            }
        } else {
            if let Some(arch) = inst.dst() {
                let preg = st.free_list.alloc().expect("availability checked above");
                let rgid = alloc_rgid(st, engine, arch);
                let (prev_preg, prev_rgid) = st.rat.install(arch, preg, rgid);
                st.prf.clear_ready(preg);
                dst_info =
                    Some(DstInfo { arch, new_preg: preg, prev_preg, new_rgid: rgid, prev_rgid });
            }
            match fu {
                None => completed = true, // nop / halt: nothing to execute
                Some(c) => {
                    let mut waiting = [None, None];
                    for (w, s) in waiting.iter_mut().zip(src_pregs.iter()) {
                        *w = s.filter(|&p| !st.prf.is_ready(p));
                    }
                    if inst.is_load() {
                        st.lsq.push_load(LqEntry {
                            seq,
                            addr: None,
                            issued: false,
                            value: None,
                            reused: false,
                        });
                    }
                    if inst.is_store() {
                        st.lsq.push_store(SqEntry { seq, addr: None, data: None });
                    }
                    match c {
                        FuClass::Lsu => st.iq_mem.insert(seq, c, waiting),
                        _ => st.iq_int.insert(seq, c, waiting),
                    }
                }
            }
        }

        let branch = inst.is_control().then_some(BranchState {
            pred_next: fi.pred_next,
            pred_taken: fi.pred_taken,
            meta: fi.meta,
            resolved: None,
        });

        st.rob.push(RobEntry {
            seq,
            pc: fi.pc,
            inst,
            dst: dst_info,
            src_pregs,
            src_rgids,
            completed,
            reused,
            verify_pending,
            fwd_stalled: false,
            pending_value: None,
            branch,
            mem_addr: None,
            ghr_before: fi.ghr_before,
            ras_sp_before: fi.ras_sp_before,
        });

        if tracer.on() {
            tracer.emit(TraceEvent::Rename { cycle: st.cycle, seq, pc: fi.pc });
            if reused {
                tracer.emit(TraceEvent::ReuseGrant {
                    cycle: st.cycle,
                    seq,
                    pc: fi.pc,
                    verify: verify_pending,
                });
            }
        }

        let r = RenamedInst {
            seq,
            pc: fi.pc,
            op: inst.op(),
            dst: dst_info.map(|d| DstBinding { arch: d.arch, preg: d.new_preg, rgid: d.new_rgid }),
            reused,
        };
        engine.on_renamed(&r, &mut ectx!(st));
    }
}
