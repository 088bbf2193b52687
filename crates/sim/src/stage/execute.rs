//! Execute/writeback stage: functional execution on the issued FUs,
//! completion-event drain into the PRF, branch resolution, and the
//! reused-load verification comparison.

use std::cmp::Reverse;

use mssr_isa::{Opcode, Pc};

use crate::engine::ReuseEngine;
use crate::exec;
use crate::lsq::Forward;
use crate::rename::Prf;
use crate::rob::{BranchOutcome, RobEntry};
use crate::stage::{ectx, MachineState, PendingFlush};
use crate::trace::{TraceEvent, Tracer};
use crate::types::{FlushKind, FuClass, SeqNum};

/// Drains due completion events: retire values into the PRF, wake
/// dependents, resolve branches, and flag mispredictions.
pub(crate) fn writeback(st: &mut MachineState, tracer: &mut Tracer) {
    while let Some(&Reverse((c, s))) = st.completions.peek() {
        if c > st.cycle {
            break;
        }
        st.completions.pop();
        let seq = SeqNum::new(s);
        // Squashed instructions have left the ROB; drop the event.
        let Some(e) = st.rob.get_mut(seq) else { continue };
        debug_assert!(writeback_ready(e), "completion event for unexecuted {seq}");

        // Reused-load verification completion (paper §3.8.3): compare
        // the re-executed value with the reused one.
        if e.reused && e.verify_pending && e.inst.is_load() {
            let fresh = e.pending_value.expect("verification executed");
            let reused = st.prf.read(e.dst.expect("loads have destinations").new_preg);
            if fresh == reused {
                e.verify_pending = false;
            } else {
                let pc = e.pc;
                st.pending_flushes.push(PendingFlush {
                    first_squashed: seq,
                    redirect: pc,
                    kind: FlushKind::ReuseVerification,
                    cause_seq: seq,
                    cause_pc: pc,
                });
            }
            continue;
        }

        if e.completed {
            continue;
        }
        e.completed = true;
        let dst = e.dst;
        let value = e.pending_value;
        let branch = e.branch;
        let pc = e.pc;
        let op = e.inst.op();
        if tracer.on() {
            tracer.emit(TraceEvent::Writeback { cycle: st.cycle, seq, value: value.unwrap_or(0) });
        }
        if let Some(d) = dst {
            st.prf.write(d.new_preg, value.unwrap_or(0));
            st.iq_int.wake(d.new_preg);
            st.iq_mem.wake(d.new_preg);
        }
        if let Some(b) = branch {
            let o = b.resolved.expect("executed branch has an outcome");
            if op == Opcode::Jalr {
                st.bpred.update_indirect(pc, o.next);
            }
            if o.next != b.pred_next {
                st.pending_flushes.push(PendingFlush {
                    first_squashed: seq.next(),
                    redirect: o.next,
                    kind: FlushKind::BranchMispredict,
                    cause_seq: seq,
                    cause_pc: pc,
                });
            }
        }
    }
}

/// Whether [`writeback`] can drain a completion event for the live entry
/// `e`: every field it reads for `e` was produced at execute. A verified
/// load needs its re-executed value; an entry already completed is
/// skipped; otherwise a destination needs its value, a branch its
/// outcome, and anything else (a store) its address.
pub(crate) fn writeback_ready(e: &RobEntry) -> bool {
    if e.reused && e.verify_pending && e.inst.is_load() {
        return e.pending_value.is_some() && e.dst.is_some();
    }
    let produced = match e.branch {
        Some(b) => b.resolved.is_some(),
        None => e.pending_value.is_some() || e.mem_addr.is_some(),
    };
    e.completed || (produced && (e.dst.is_none() || e.pending_value.is_some()))
}

fn src_vals(prf: &Prf, e: &RobEntry) -> (u64, u64) {
    let a = e.src_pregs[0].map_or(0, |p| prf.read(p));
    let b = e.src_pregs[1].map_or(0, |p| prf.read(p));
    (a, b)
}

pub(crate) fn exec_alu(st: &mut MachineState, seq: SeqNum) {
    let e = st.rob.get_mut(seq).expect("issued instruction is in the ROB");
    let (a, b) = src_vals(&st.prf, e);
    let op = e.inst.op();
    let v = exec::alu(op, a, b, e.inst.imm()).unwrap_or(0);
    let lat = match op {
        Opcode::Mul => st.cfg.mul_latency,
        Opcode::Div | Opcode::Rem => st.cfg.div_latency,
        _ => 1,
    };
    e.pending_value = Some(v);
    st.completions.push(Reverse((st.cycle + lat, seq.value())));
}

pub(crate) fn exec_bru(st: &mut MachineState, seq: SeqNum) {
    let e = st.rob.get_mut(seq).expect("issued instruction is in the ROB");
    let (a, b) = src_vals(&st.prf, e);
    let op = e.inst.op();
    let pc = e.pc;
    let outcome = if op.is_cond_branch() {
        let taken = exec::branch_taken(op, a, b);
        BranchOutcome {
            taken,
            next: if taken { e.inst.target().expect("branch has target") } else { pc.next() },
        }
    } else if op == Opcode::Jal {
        BranchOutcome { taken: true, next: e.inst.target().expect("jal has target") }
    } else {
        // Jalr: target from register.
        BranchOutcome { taken: true, next: Pc::new(a.wrapping_add(e.inst.imm() as u64)) }
    };
    let link = pc.next().addr();
    if e.dst.is_some() {
        e.pending_value = Some(link);
    }
    e.branch.as_mut().expect("control instruction has branch state").resolved = Some(outcome);
    st.completions.push(Reverse((st.cycle + 1, seq.value())));
}

pub(crate) fn exec_mem(st: &mut MachineState, engine: &mut dyn ReuseEngine, seq: SeqNum) {
    let e = st.rob.get_mut(seq).expect("issued instruction is in the ROB");
    let (base, data) = src_vals(&st.prf, e);
    let inst = e.inst;
    let addr = st.memory.wrap(exec::mem_addr(&inst, base));
    if inst.is_load() {
        let verify = e.reused && e.verify_pending;
        let (value, lat) = match st.lsq.forward(seq, addr) {
            Forward::Data(v) => {
                st.stats.store_forwards += 1;
                (v, st.cfg.forward_latency)
            }
            Forward::Pending => {
                // The forwarding source knows its address but not yet
                // its data: reading memory now would return the
                // pre-store value. Requeue the load (ready — it was
                // just selected) and retry next cycle.
                st.stats.store_forward_stalls += 1;
                e.fwd_stalled = true;
                st.iq_mem.insert(seq, FuClass::Lsu, [None, None]);
                return;
            }
            Forward::Miss => (st.memory.read_u64(addr), st.hier.access(addr)),
        };
        if !verify {
            let lq = st.lsq.load_mut(seq).expect("dispatched load is in the LQ");
            lq.addr = Some(addr);
            lq.issued = true;
            lq.value = Some(value);
        } else if let Some(lq) = st.lsq.load_mut(seq) {
            // Verification re-executions refresh the recorded address.
            lq.addr = Some(addr);
        }
        e.pending_value = Some(value);
        e.mem_addr = Some(addr);
        e.fwd_stalled = false;
        st.completions.push(Reverse((st.cycle + lat, seq.value())));
    } else {
        // Store: address and data become known together.
        let sq = st.lsq.store_mut(seq).expect("dispatched store is in the SQ");
        sq.addr = Some(addr);
        sq.data = Some(data);
        e.mem_addr = Some(addr);
        // Store-to-load ordering check (§3.8.1).
        if let Some(lseq) = st.lsq.store_check(seq, addr) {
            let lpc = st.rob.get(lseq).expect("violating load is in the ROB").pc;
            st.pending_flushes.push(PendingFlush {
                first_squashed: lseq,
                redirect: lpc,
                kind: FlushKind::MemoryOrder,
                cause_seq: lseq,
                cause_pc: lpc,
            });
        }
        engine.on_store_executed(addr, &mut ectx!(st));
        st.completions.push(Reverse((st.cycle + 1, seq.value())));
    }
}
