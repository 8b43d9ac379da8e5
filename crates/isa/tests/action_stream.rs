//! Pins the warp interpreter's externally visible behaviour on a set of
//! control-flow nesting shapes: the exact `StepResult` sequence, the
//! final `retired()` count, and the canonical fingerprint of every
//! intermediate state (after each step and after each completion).
//!
//! The expected values were recorded from the tree-walking interpreter,
//! so any later implementation must reproduce its action stream, its
//! lazy block popping (which the fingerprint's frame count observes) and
//! its block ids exactly. The digests were re-derived for the
//! folded-multiply `Fingerprint` from an unchanged interpreter, so they
//! still pin the tree walker's hashed `u64` stream.

use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::scope::Scope;
use sbrp_isa::{
    AccessKind, BinOp, FenceAccess, Instr, Kernel, KernelBuilder, LaunchConfig, MemWidth, Reg,
    Special, StepResult, Stmt, WarpInterp,
};
use std::collections::HashMap;
use std::sync::Arc;

/// What one run of a warp looked like.
struct Stream {
    /// One token per `step`: `A` (ALU), `S<n>` (sleep), `D` (done), or
    /// the action's kind and its active-lane mask in hex.
    tokens: String,
    retired: u64,
    /// Digest of every step's full `Debug` form and of the warp's
    /// fingerprint after each step and each completion.
    digest: u64,
}

fn mask_of(lanes: &[sbrp_isa::LaneAccess]) -> u32 {
    lanes.iter().fold(0, |m, la| m | 1 << la.lane)
}

/// Runs warp `warp` of block `block` against a flat word memory whose
/// unwritten words read as `addr ^ 0x5a`.
fn run(kernel: &Kernel, launch: LaunchConfig, block: u32, warp: u32) -> Stream {
    let blocks = kernel.block_index();
    let fingerprint = |w: &WarpInterp| {
        let mut fp = Fingerprint::new();
        w.fingerprint_into(&blocks, &mut fp);
        fp.finish()
    };
    let mut mem: HashMap<u64, u64> = HashMap::new();
    let read = |mem: &HashMap<u64, u64>, a: u64| *mem.get(&a).unwrap_or(&(a ^ 0x5a));
    let mut w = WarpInterp::new(kernel, launch, block, warp);
    let mut tokens = Vec::new();
    let mut all = Fingerprint::new();
    all.write_u64(fingerprint(&w));
    for _ in 0..100_000 {
        let r = w.step();
        all.write_str(&format!("{r:?}"));
        all.write_u64(fingerprint(&w));
        match r {
            StepResult::Alu => tokens.push("A".to_string()),
            StepResult::Sleep(n) => tokens.push(format!("S{n}")),
            StepResult::Done => {
                tokens.push("D".to_string());
                // Done is sticky.
                assert_eq!(w.step(), StepResult::Done);
                assert!(w.is_done());
                return Stream {
                    tokens: tokens.join(" "),
                    retired: w.retired(),
                    digest: all.finish(),
                };
            }
            StepResult::Mem(acc) => {
                let kind = match acc.kind {
                    AccessKind::Load => "ld",
                    AccessKind::LoadVolatile => "ldv",
                    AccessKind::Store => "st",
                    AccessKind::AtomAdd => "atom",
                };
                tokens.push(format!("{kind}:{:x}", mask_of(&acc.lanes)));
                match acc.kind {
                    AccessKind::Store => {
                        for la in &acc.lanes {
                            mem.insert(la.addr, la.value);
                        }
                        w.complete();
                    }
                    AccessKind::AtomAdd => {
                        let olds: Vec<u64> = acc
                            .lanes
                            .iter()
                            .map(|la| {
                                let old = read(&mem, la.addr);
                                mem.insert(la.addr, old.wrapping_add(la.value));
                                old
                            })
                            .collect();
                        w.complete_load(&olds);
                    }
                    AccessKind::Load | AccessKind::LoadVolatile => {
                        let vals: Vec<u64> =
                            acc.lanes.iter().map(|la| read(&mem, la.addr)).collect();
                        w.complete_load(&vals);
                    }
                }
            }
            StepResult::Fence(f) => match f {
                FenceAccess::PAcq { lanes, .. } => {
                    tokens.push(format!("pacq:{:x}", mask_of(&lanes)));
                    let vals: Vec<u64> = lanes.iter().map(|la| read(&mem, la.addr)).collect();
                    w.complete_load(&vals);
                }
                FenceAccess::PRel { lanes, .. } => {
                    tokens.push(format!("prel:{:x}", mask_of(&lanes)));
                    for la in &lanes {
                        mem.insert(la.addr, la.value);
                    }
                    w.complete();
                }
                other => {
                    tokens.push(format!("{other:?}"));
                    w.complete();
                }
            },
        }
        all.write_u64(fingerprint(&w));
    }
    panic!("runaway warp");
}

fn check(name: &str, s: &Stream, tokens: &str, retired: u64, digest: u64) {
    assert_eq!(s.tokens, tokens, "{name}: action stream");
    assert_eq!(s.retired, retired, "{name}: retired");
    assert_eq!(s.digest, digest, "{name}: digest {:#018x}", s.digest);
}

fn launch() -> LaunchConfig {
    LaunchConfig::new(2, 64)
}

/// `i = 0; while ({ if (lane odd) st; i < lane % 4 }) { if (i == 1) st
/// else ld; i += 1 }`: an `If` inside a `While` whose condition block
/// itself holds an `If`.
#[test]
fn if_inside_while_whose_cond_holds_an_if() {
    let mut b = KernelBuilder::new();
    let lane = b.special(Special::Lane);
    let odd = b.andi(lane, 1);
    let lim = b.andi(lane, 3);
    let base = b.movi(0x1000);
    let off = b.muli(lane, 8);
    let addr = b.add(base, off);
    let i = b.movi(0);
    b.while_loop(
        |b| {
            b.if_then(odd, |b| b.st(addr, 0, i, MemWidth::W8));
            b.lt(i, lim)
        },
        |b| {
            let one = b.eqi(i, 1);
            b.if_then_else(
                one,
                |b| b.st(addr, 0x100, lane, MemWidth::W8),
                |b| {
                    let _ = b.ld(addr, 0x100, MemWidth::W8);
                },
            );
            b.bin_to(BinOp::Add, i, one);
            let bump = b.movi(1);
            let is_zero = b.eqi(one, 0);
            b.if_then(is_zero, |b| b.bin_to(BinOp::Add, i, bump));
        },
    );
    b.ofence();
    let k = b.build("nest");
    let s = run(&k, launch(), 1, 1);
    check(
        "nest",
        &s,
        "A A A A A A A A A st:aaaaaaaa A A A ld:eeeeeeee A A A A A A st:aaaaaaaa A A A \
         st:cccccccc A A A A A st:88888888 A A A ld:88888888 A A A A A A st:88888888 A \
         OFence D",
        44,
        0x7dbb_fe8e_0e2c_6cc8,
    );
}

/// An `if` with an empty `else`, and an `if_then_else` with an empty
/// `then`: an empty branch is never entered.
#[test]
fn empty_branches_are_not_entered() {
    let mut b = KernelBuilder::new();
    let tid = b.special(Special::Tid);
    let lo = b.lti(tid, 40);
    let addr = b.muli(tid, 8);
    b.if_then(lo, |b| b.st(addr, 0, tid, MemWidth::W8));
    b.if_then_else(lo, |_| {}, |b| b.st(addr, 0x800, tid, MemWidth::W8));
    let all = b.movi(1);
    b.if_then_else(all, |b| b.dfence(), |_| {});
    let none = b.movi(0);
    b.if_then_else(none, |b| b.ofence(), |_| {});
    let k = b.build("empty_else");
    for warp in 0..2 {
        let s = run(&k, launch(), 0, warp);
        let (tokens, retired, digest) = [
            (
                "A A A A st:ffffffff A A A DFence A A D",
                11,
                0xfcd5_1d43_34a2_2397,
            ),
            (
                "A A A A st:ff A st:ffffff00 A A DFence A A D",
                12,
                0x1f63_2e5d_298c_29b2,
            ),
        ][warp as usize];
        check(&format!("empty_else/w{warp}"), &s, tokens, retired, digest);
    }
}

/// A loop with an empty body whose condition block does the counting,
/// and a loop that no lane ever enters.
#[test]
fn empty_body_and_zero_trip_loops() {
    let mut b = KernelBuilder::new();
    let lane = b.special(Special::Lane);
    let n = b.movi(0);
    let lim = b.shri(lane, 3);
    b.while_loop(
        |b| {
            let c = b.lt(n, lim);
            b.bin_to(BinOp::Add, n, c);
            c
        },
        |_| {},
    );
    b.while_loop(|b| b.movi(0), |b| b.dfence());
    let addr = b.muli(lane, 8);
    b.st(addr, 0, n, MemWidth::W8);
    let k = b.build("empty_body");
    let s = run(&k, launch(), 0, 0);
    check(
        "empty_body",
        &s,
        "A A A A A A A A A A A A A A A st:ffffffff D",
        16,
        0x6afe_62af_2b3a_6ce4,
    );
}

/// `while (i < lane) { i += 1; sleep 2 }` followed by a store: lanes
/// leave the loop one per iteration and reconverge for the store.
#[test]
fn lanes_leave_a_loop_one_at_a_time() {
    let mut b = KernelBuilder::new();
    let lane = b.special(Special::Lane);
    let i = b.movi(0);
    b.while_loop(
        |b| b.lt(i, lane),
        |b| {
            let one = b.movi(1);
            b.bin_to(BinOp::Add, i, one);
            b.sleep(2);
        },
    );
    let addr = b.muli(lane, 8);
    b.st(addr, 0, i, MemWidth::W8);
    let k = b.build("one_at_a_time");
    let s = run(&k, launch(), 0, 0);
    // Lane l runs l iterations, so one lane leaves per iteration.
    let tokens = format!("A A A{} A A st:ffffffff D", " A A A S2".repeat(31));
    check("one_at_a_time", &s, &tokens, 130, 0xf2b7_d418_abfe_0b29);
}

/// Every ALU and memory instruction kind under a partial mask, nested in
/// a loop: specials, params, select, division whose inactive lanes have
/// a zero divisor, atomics, volatile loads, acquire/release and every
/// fence.
#[test]
fn every_instruction_under_divergence() {
    let mut b = KernelBuilder::new();
    b.set_params(vec![0x4000, 7]);
    let base = b.param(0);
    let seven = b.param(1);
    let tid = b.special(Special::Tid);
    let gtid = b.special(Special::GlobalTid);
    let ntid = b.special(Special::Ntid);
    let cta = b.special(Special::CtaId);
    let ncta = b.special(Special::NCta);
    let wid = b.special(Special::WarpId);
    let lane = b.special(Special::Lane);
    let div = b.andi(lane, 7);
    let off = b.muli(lane, 8);
    let addr = b.add(base, off);
    let k = b.movi(0);
    b.while_loop(
        |b| b.lti(k, 2),
        |b| {
            b.if_then_else(
                div,
                |b| {
                    let q = b.div(gtid, div);
                    let r = b.rem(ntid, div);
                    let s = b.select(k, q, r);
                    let t = b.divi(s, 3);
                    b.st(addr, 0, t, MemWidth::W4);
                    let _ = b.atom_add(base, seven, MemWidth::W8);
                    b.ofence();
                },
                |b| {
                    let x = b.add(cta, ncta);
                    let y = b.add(x, wid);
                    let v = b.ld_volatile(addr, 0, MemWidth::W8);
                    let z = b.add(y, v);
                    b.prel(addr, z, Scope::Block);
                    let _ = b.pacq(addr, Scope::Device);
                    b.epoch_barrier();
                },
            );
            b.sync_block();
            let one = b.movi(1);
            b.bin_to(BinOp::Add, k, one);
            let same = b.reg();
            b.mov_to(same, tid);
            let _ = b.ld(addr, 0, MemWidth::W8);
            b.st(addr, 8, same, MemWidth::W8);
        },
    );
    let kernel = b.build("every");
    let s = run(&kernel, launch(), 1, 1);
    let trip = "st:fefefefe atom:fefefefe OFence A A ldv:1010101 A prel:1010101 \
                pacq:1010101 EpochBarrier SyncBlock A A A ld:ffffffff st:ffffffff";
    let tokens = format!("{} {trip} A A A A A A {trip} A D", ["A"; 20].join(" "));
    check("every", &s, &tokens, 59, 0x0b10_48f6_07d0_3e3a);
}

/// A hand-built tree that uses one `Arc` block in two places: block ids
/// are per distinct block, so both uses carry the same id.
#[test]
fn shared_blocks_keep_one_id() {
    let r = Reg::new;
    let shared: Arc<[Stmt]> = vec![
        Stmt::I(Instr::BinI(BinOp::Add, r(1), r(1), 1)),
        Stmt::I(Instr::Sleep(1)),
    ]
    .into();
    let program: Arc<[Stmt]> = vec![
        Stmt::I(Instr::Spec(r(0), Special::Lane)),
        Stmt::I(Instr::BinI(BinOp::And, r(2), r(0), 1)),
        Stmt::If {
            cond: r(2),
            then_b: Arc::clone(&shared),
            else_b: Arc::clone(&shared),
        },
        Stmt::While {
            cond_b: vec![Stmt::I(Instr::BinI(BinOp::SetLt, r(3), r(1), 3))].into(),
            cond: r(3),
            body: shared,
        },
        Stmt::I(Instr::St(r(0), 0, r(1), MemWidth::W8)),
    ]
    .into();
    let k = Kernel::new("shared", program, Vec::new());
    let s = run(&k, launch(), 0, 0);
    check(
        "shared",
        &s,
        "A A A A S1 A S1 A A A S1 A A S1 A st:ffffffff D",
        16,
        0xa094_fd4e_416a_2f92,
    );
}
