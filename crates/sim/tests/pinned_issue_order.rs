//! Pinned results of runs whose outcome depends on the exact order in
//! which `Sm::tick` issues warps. The serial reference scheduler shares
//! that issue loop, so `prop_step_equiv` cannot see an issue-order
//! change; these pins can.
//!
//! The loop is loose round-robin: it starts at slot `step % n` of the
//! SM's `n` warp slots, issues up to `issue_width` ready warps in slot
//! order, wrapping once past the last slot, and re-reads readiness at
//! every slot it reaches, so a warp readied by an earlier issue of the
//! same scan (a barrier release) issues in that scan only if its slot
//! is still ahead. The cases cover:
//!
//! - `max_warps_per_sm` of 1, 24 and 32 (one slot; a slot count that is
//!   neither a power of two nor the width of a `u32`; every slot),
//! - `issue_width` of 1 and 4,
//! - a barrier kernel whose warps reach each `__syncthreads` in a
//!   skewed order, so the last arrival's release readies slots both
//!   behind and ahead of the scan (a build that counted them saw
//!   hundreds of each in every 4-wide case with more than one slot),
//!   and
//! - a second launch on the same GPU, whose scans start at the step
//!   count the first launch left, so the first slot is mid-range and
//!   the scan wraps past the last slot.
//!
//! Each run is pinned by its end cycle and one digest over its
//! `SimStats` JSON and every SM's and every warp's stall breakdown. The
//! values were recorded from the slot-by-slot issue scan that tested
//! every warp slot in turn.

use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::stall::{StallBreakdown, StallCause};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::{Gpu, RunOutcome};
use sbrp_isa::{Kernel, KernelBuilder, LaunchConfig, MemWidth, Special};

const LIMIT: u64 = 50_000_000;

/// Barrier rounds of [`barrier_kernel`].
const ROUNDS: u64 = 6;

/// `ROUNDS` times: spin `(5 * warp + 3 * round) % 7` ALU iterations,
/// sleep 9 cycles in odd warps, load a volatile word, log it to PM,
/// oFence, `__syncthreads`. Then one dFence. The skew moves the last
/// warp to arrive at each barrier around the block.
fn barrier_kernel() -> Kernel {
    let (vol, log) = (1u64 << 20, PM_BASE);
    let mut b = KernelBuilder::new();
    b.set_params(vec![vol, log]);
    let vol_r = b.param(0);
    let log_r = b.param(1);
    let warp = b.special(Special::WarpId);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let vaddr = b.add(vol_r, off);
    let laddr = b.add(log_r, off);
    let round = b.movi(0);
    b.while_loop(
        |b| b.lti(round, ROUNDS),
        |b| {
            let w5 = b.muli(warp, 5);
            let r3 = b.muli(round, 3);
            let sum = b.add(w5, r3);
            let spin = b.remi(sum, 7);
            let i = b.movi(0);
            b.while_loop(
                |b| b.lt(i, spin),
                |b| {
                    let next = b.addi(i, 1);
                    b.mov_to(i, next);
                },
            );
            let odd = b.andi(warp, 1);
            b.if_then(odd, |b| b.sleep(9));
            let x = b.ld(vaddr, 0, MemWidth::W8);
            let v = b.add(x, round);
            b.st(laddr, 0, v, MemWidth::W8);
            b.ofence();
            b.sync_block();
            let next = b.addi(round, 1);
            b.mov_to(round, next);
        },
    );
    b.dfence();
    b.build("barrier_skew")
}

/// x = data[gtid]; compute for 40 cycles; log[gtid] = x + 1; oFence;
/// `__syncthreads`; data[gtid] = x + 1; dFence. Loads, compute sleeps,
/// PM stores, a barrier and a durability wait all contend.
fn mixed_kernel() -> Kernel {
    let (log, data) = (PM_BASE, PM_BASE + (1 << 20));
    let mut b = KernelBuilder::new();
    b.set_params(vec![log, data]);
    let log_r = b.param(0);
    let data_r = b.param(1);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let laddr = b.add(log_r, off);
    let daddr = b.add(data_r, off);
    let x = b.ld(daddr, 0, MemWidth::W8);
    b.sleep(40);
    let v = b.addi(x, 1);
    b.st(laddr, 0, v, MemWidth::W8);
    b.ofence();
    b.sync_block();
    b.st(daddr, 0, v, MemWidth::W8);
    b.dfence();
    b.build("mixed")
}

/// One pinned run on the 4-SM small GPU.
#[derive(Clone, Copy)]
struct Case {
    model: ModelKind,
    system: SystemDesign,
    warps: u32,
    issue_width: u32,
    barrier: bool,
    /// Once the launch completes, launch it again on the same GPU.
    relaunch: bool,
}

impl Case {
    fn label(&self) -> String {
        format!(
            "{:?}/{:?}/w{}/iw{}/{}{}",
            self.model,
            self.system,
            self.warps,
            self.issue_width,
            if self.barrier { "barrier" } else { "mixed" },
            if self.relaunch { "/relaunch" } else { "" },
        )
    }

    /// Blocks of up to 8 warps (never more than an SM holds), three
    /// times as many as the 4 SMs hold at once, so blocks queue and land
    /// as others retire.
    fn launch(&self) -> LaunchConfig {
        let block_warps = self.warps.min(8);
        let blocks = 4 * 3 * (self.warps / block_warps);
        LaunchConfig::new(blocks, block_warps * 32)
    }
}

fn hash_breakdown(fp: &mut Fingerprint, b: &StallBreakdown) {
    fp.write_u64(b.total);
    for cause in StallCause::ALL {
        fp.write_u64(b.get(cause));
    }
}

/// One run: (end cycle, digest of the stats and stall breakdowns).
fn run(case: Case) -> (u64, u64) {
    let cfg = GpuConfig {
        max_warps_per_sm: case.warps,
        issue_width: case.issue_width,
        ..GpuConfig::small(case.model, case.system)
    };
    let kernel = if case.barrier {
        barrier_kernel()
    } else {
        mixed_kernel()
    };
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, case.launch());
    let mut report = gpu.run(LIMIT).expect("completes");
    if case.relaunch {
        assert_eq!(report.outcome, RunOutcome::Completed);
        gpu.launch(&kernel, case.launch());
        report = gpu.run(LIMIT).expect("completes");
    }
    assert_eq!(report.outcome, RunOutcome::Completed);
    let mut fp = Fingerprint::new();
    fp.write_str(&gpu.stats().to_json());
    for (sm, b) in gpu.sm_stall_breakdowns().iter().enumerate() {
        hash_breakdown(&mut fp, b);
        for w in &gpu.warp_stall_breakdowns(sm) {
            hash_breakdown(&mut fp, w);
        }
    }
    (report.cycles, fp.finish())
}

/// SBRP on PM-near and GPM on PM-far, each over every slot count, issue
/// width and kernel, then the relaunches of the barrier kernel at 24
/// and 32 slots.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (model, system) in [
        (ModelKind::Sbrp, SystemDesign::PmNear),
        (ModelKind::Gpm, SystemDesign::PmFar),
    ] {
        for warps in [1, 24, 32] {
            for issue_width in [1, 4] {
                for barrier in [false, true] {
                    out.push(Case {
                        model,
                        system,
                        warps,
                        issue_width,
                        barrier,
                        relaunch: false,
                    });
                }
            }
        }
        for warps in [24, 32] {
            out.push(Case {
                model,
                system,
                warps,
                issue_width: 4,
                barrier: true,
                relaunch: true,
            });
        }
    }
    out
}

/// One line per case: label, end cycle, digest.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64)] = &[
    ("Sbrp/PmNear/w1/iw1/mixed", 2850, 0x37a25a8999e50f46),
    ("Sbrp/PmNear/w1/iw1/barrier", 4840, 0x829c6f5544c0e3ca),
    ("Sbrp/PmNear/w1/iw4/mixed", 2850, 0x37a25a8999e50f46),
    ("Sbrp/PmNear/w1/iw4/barrier", 4840, 0x829c6f5544c0e3ca),
    ("Sbrp/PmNear/w24/iw1/mixed", 39080, 0xd01f3dfe8b9184fb),
    ("Sbrp/PmNear/w24/iw1/barrier", 108974, 0xc712a834b09d6960),
    ("Sbrp/PmNear/w24/iw4/mixed", 36657, 0x7c023c997bab8ff4),
    ("Sbrp/PmNear/w24/iw4/barrier", 108388, 0xf674dec3dc043a7e),
    ("Sbrp/PmNear/w32/iw1/mixed", 50702, 0xe15307cf5f6bfda6),
    ("Sbrp/PmNear/w32/iw1/barrier", 145444, 0xa9daf38760fb5c47),
    ("Sbrp/PmNear/w32/iw4/mixed", 48648, 0x30d3365d8434f663),
    ("Sbrp/PmNear/w32/iw4/barrier", 144422, 0xf049272c4468bef0),
    ("Sbrp/PmNear/w24/iw4/barrier/relaunch", 216472, 0x7b3c2e6f57902652),
    ("Sbrp/PmNear/w32/iw4/barrier/relaunch", 288557, 0x67135cb457259dc0),
    ("Gpm/PmFar/w1/iw1/mixed", 10696, 0x163bd6a8ffc4d972),
    ("Gpm/PmFar/w1/iw1/barrier", 19328, 0x63340f9d99624b5b),
    ("Gpm/PmFar/w1/iw4/mixed", 10696, 0x163bd6a8ffc4d972),
    ("Gpm/PmFar/w1/iw4/barrier", 19328, 0x63340f9d99624b5b),
    ("Gpm/PmFar/w24/iw1/mixed", 83644, 0x10bbfa1c73d8a639),
    ("Gpm/PmFar/w24/iw1/barrier", 165968, 0xf7a16802b7f9bcc7),
    ("Gpm/PmFar/w24/iw4/mixed", 83262, 0x93d58e773c29ca5e),
    ("Gpm/PmFar/w24/iw4/barrier", 176606, 0xe67078d4f70dde5d),
    ("Gpm/PmFar/w32/iw1/mixed", 110563, 0x666794f136108607),
    ("Gpm/PmFar/w32/iw1/barrier", 218845, 0x4806231694902b99),
    ("Gpm/PmFar/w32/iw4/mixed", 110229, 0xcf0b0df81fd29f9b),
    ("Gpm/PmFar/w32/iw4/barrier", 230529, 0xf9affacf3ceb62ea),
    ("Gpm/PmFar/w24/iw4/barrier/relaunch", 340718, 0xabef940e067f9805),
    ("Gpm/PmFar/w32/iw4/barrier/relaunch", 452219, 0x1521ad3e7ff640c6),
];

#[test]
fn issue_order_pins_hold() {
    let cases = cases();
    let got: Vec<(String, u64, u64)> = cases
        .iter()
        .map(|&c| {
            let (cycles, digest) = run(c);
            (c.label(), cycles, digest)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(l, c, d)| format!("    (\"{l}\", {c}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "case count; got:\n{table}");
    for ((label, cycles, digest), &(pl, pc, pd)) in got.iter().zip(PINS) {
        assert_eq!(
            (label.as_str(), *cycles, *digest),
            (pl, pc, pd),
            "got:\n{table}"
        );
    }
}
