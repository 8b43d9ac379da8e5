//! Pinned results of the runs whose accounts are hardest to keep exact
//! while idle SMs are skipped: sparse launches on the 30-SM Table 1 GPU
//! (most SMs idle for the whole run) with PCIe faults armed (backoff
//! flips re-attribute memory and durability waits mid-span), with a
//! timeline recorded (every warp-state change is observed at its
//! cycle), and with both. Each run is pinned by its end cycle, one
//! digest over its `SimStats` JSON and every SM's and every warp's
//! stall breakdown, and for timeline runs a digest of the exported
//! Chrome-trace JSON.
//!
//! The values were recorded from the exact every-SM scheduler, which
//! ticked and charged every SM at every step of these runs, except the
//! trace digests of the `relaunch` cases: that scheduler dated a second
//! launch's warps one cycle before the launch, and those digests were
//! re-recorded once new warps were observed at their launch cycle. A
//! change to SM stepping, stall charging or timeline observation that
//! moves any of them changes what the simulator reports.

use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::stall::{StallBreakdown, StallCause};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::fault::{CrashTrigger, FaultPlan, PcieFaultConfig};
use sbrp_gpu_sim::{Gpu, RunOutcome};
use sbrp_isa::{Kernel, KernelBuilder, LaunchConfig, MemWidth, Special};

const LIMIT: u64 = 50_000_000;

/// The cycle the crash runs cut power at: mid-run for every case.
fn crash_at(system: SystemDesign) -> u64 {
    match system {
        SystemDesign::PmNear => 400,
        SystemDesign::PmFar => 1_500,
    }
}

/// x = data[gtid]; compute for 40 cycles; log[gtid] = x + 1; oFence;
/// `__syncthreads`; data[gtid] = x + 1; dFence. A PM load miss, a
/// compute sleep, a barrier wait and a durability wait all occur. Odd
/// blocks first compute for `skew` cycles, so blocks on different SMs
/// need not run in lockstep.
fn mixed_kernel(skew: u32) -> Kernel {
    let (log, data) = (PM_BASE, PM_BASE + (1 << 20));
    let mut b = KernelBuilder::new();
    b.set_params(vec![log, data]);
    if skew > 0 {
        let cta = b.special(Special::CtaId);
        let odd = b.andi(cta, 1);
        b.if_then(odd, |b| b.sleep(skew));
    }
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

/// What a run records besides its stats.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// PCIe faults armed, no timeline.
    Pcie,
    /// A timeline recorded, no faults.
    Timeline,
    /// PCIe faults armed and a timeline recorded.
    Both,
}

/// One pinned run.
#[derive(Clone, Copy)]
struct Case {
    model: ModelKind,
    system: SystemDesign,
    launch: LaunchConfig,
    crash: bool,
    kind: Kind,
    /// Every `period`-th PCIe transfer faults with a burst of `burst`
    /// retries backing off `base << i` cycles.
    period: u64,
    burst: u32,
    base: u64,
    /// See [`mixed_kernel`].
    skew: u32,
    /// Once the launch completes, launch three 3-warp blocks of the
    /// same kernel at the same cycle and run them to completion too.
    relaunch: bool,
}

impl Case {
    fn label(&self) -> String {
        let end = match (self.crash, self.relaunch) {
            (true, _) => "crash",
            (false, false) => "complete",
            (false, true) => "relaunch",
        };
        format!(
            "{:?}/{:?}/{}x{}/{end}/{:?}/p{}b{}+{}/skew{}",
            self.model,
            self.system,
            self.launch.blocks,
            self.launch.threads_per_block,
            self.kind,
            self.period,
            self.burst,
            self.base,
            self.skew,
        )
    }
}

fn hash_breakdown(fp: &mut Fingerprint, b: &StallBreakdown) {
    fp.write_u64(b.total);
    for cause in StallCause::ALL {
        fp.write_u64(b.get(cause));
    }
}

/// One run: (end cycle, stats digest, Chrome-trace digest or 0).
fn run(case: Case) -> (u64, u64, u64) {
    let timeline = matches!(case.kind, Kind::Timeline | Kind::Both);
    let cfg = GpuConfig {
        timeline,
        ..GpuConfig::table1(case.model, case.system)
    };
    let crash_at = crash_at(case.system);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&mixed_kernel(case.skew), case.launch);
    let faulted = matches!(case.kind, Kind::Pcie | Kind::Both);
    let report = if faulted {
        let mut plan = FaultPlan::default().with_pcie(PcieFaultConfig {
            period: case.period,
            burst: case.burst,
            max_retries: 8,
            backoff_base: case.base,
        });
        if case.crash {
            plan.trigger = Some(CrashTrigger::AtCycle(crash_at));
        }
        gpu.set_fault_plan(plan);
        gpu.run(LIMIT)
    } else if case.crash {
        gpu.run_until(crash_at)
    } else {
        gpu.run(LIMIT)
    }
    .expect("completes or crashes");
    let report = if case.relaunch {
        gpu.launch(&mixed_kernel(case.skew), LaunchConfig::new(3, 96));
        gpu.run(LIMIT).expect("completes")
    } else {
        report
    };
    let stats = gpu.stats();
    // The crash runs end before the kernel, and the faulted runs charge
    // backoff: the pins cover both.
    if case.crash {
        assert_eq!(report.outcome, RunOutcome::Crashed);
        assert_eq!(report.cycles, crash_at);
    } else {
        assert_eq!(report.outcome, RunOutcome::Completed);
        if faulted {
            assert!(stats.stall.pcie_backoff > 0, "backoff was charged");
        }
    }
    let mut fp = Fingerprint::new();
    fp.write_str(&stats.to_json());
    for (sm, b) in gpu.sm_stall_breakdowns().iter().enumerate() {
        hash_breakdown(&mut fp, b);
        for w in &gpu.warp_stall_breakdowns(sm) {
            hash_breakdown(&mut fp, w);
        }
    }
    let trace = gpu.take_timeline().map_or(0, |tl| {
        let mut fp = Fingerprint::new();
        fp.write_str(&tl.to_chrome_json());
        fp.finish()
    });
    (report.cycles, fp.finish(), trace)
}

/// Every case. First, each model on each system it exists on, 1 or 2
/// blocks of 64 threads (sharing SM0) or 1024 threads (an SM each), to
/// completion and crashed at [`crash_at`], under a fault plan that
/// keeps the link in backoff most of the time; PCIe faults only exist
/// on PM-far. Then two-SM runs under sparser faults, where the backoff
/// expires and is set again while one SM's warps wait with its ticks
/// skipped: two 32-warp blocks, the odd one 90 cycles late, and two
/// 18-warp blocks in lockstep. Last, one block followed by a second
/// launch on the same GPU, whose first step revisits the cycle the
/// first launch completed at.
fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for model in ModelKind::ALL {
        for system in [SystemDesign::PmNear, SystemDesign::PmFar] {
            // GPM only exists on PM-far (§7).
            if model == ModelKind::Gpm && system == SystemDesign::PmNear {
                continue;
            }
            let kinds: &[Kind] = match system {
                SystemDesign::PmFar => &[Kind::Pcie, Kind::Timeline, Kind::Both],
                SystemDesign::PmNear => &[Kind::Timeline],
            };
            for blocks in 1..=2 {
                for threads in [64, 1024] {
                    for crash in [false, true] {
                        for &kind in kinds {
                            out.push(Case {
                                model,
                                system,
                                launch: LaunchConfig::new(blocks, threads),
                                crash,
                                kind,
                                period: 3,
                                burst: 2,
                                base: 24,
                                skew: 0,
                                relaunch: false,
                            });
                        }
                    }
                }
            }
        }
    }
    for model in ModelKind::ALL {
        for (threads, period, skew) in [(1024, 7, 90), (576, 12, 0)] {
            for crash in [false, true] {
                out.push(Case {
                    model,
                    system: SystemDesign::PmFar,
                    launch: LaunchConfig::new(2, threads),
                    crash,
                    kind: Kind::Both,
                    period,
                    burst: 1,
                    base: 8,
                    skew,
                    relaunch: false,
                });
            }
        }
    }
    for model in ModelKind::ALL {
        for system in [SystemDesign::PmNear, SystemDesign::PmFar] {
            if model == ModelKind::Gpm && system == SystemDesign::PmNear {
                continue;
            }
            let kinds: &[Kind] = match system {
                SystemDesign::PmFar => &[Kind::Timeline, Kind::Both],
                SystemDesign::PmNear => &[Kind::Timeline],
            };
            for &kind in kinds {
                out.push(Case {
                    model,
                    system,
                    launch: LaunchConfig::new(1, 64),
                    crash: false,
                    kind,
                    period: 3,
                    burst: 2,
                    base: 24,
                    skew: 0,
                    relaunch: true,
                });
            }
        }
    }
    out
}

/// One line per case: label, end cycle, stats digest, trace digest (0
/// without a timeline).
#[rustfmt::skip]
const PINS: &[(&str, u64, u64, u64)] = &[
    ("Gpm/PmFar/1x64/complete/Pcie/p3b2+24/skew0", 7644, 0x9a2d55a9ba20a51e, 0x0000000000000000),
    ("Gpm/PmFar/1x64/complete/Timeline/p3b2+24/skew0", 4020, 0x318fac5891d46264, 0xf9a917d47f3c8555),
    ("Gpm/PmFar/1x64/complete/Both/p3b2+24/skew0", 7644, 0x9a2d55a9ba20a51e, 0xdfa784598666f9e5),
    ("Gpm/PmFar/1x64/crash/Pcie/p3b2+24/skew0", 1500, 0x91bbba20904005b2, 0x0000000000000000),
    ("Gpm/PmFar/1x64/crash/Timeline/p3b2+24/skew0", 1500, 0x767d11e6fefafac2, 0x7fcddf31af475d3e),
    ("Gpm/PmFar/1x64/crash/Both/p3b2+24/skew0", 1500, 0x91bbba20904005b2, 0x08e8e74069ef8c72),
    ("Gpm/PmFar/1x1024/complete/Pcie/p3b2+24/skew0", 63514, 0xf2a81ff32697fde7, 0x0000000000000000),
    ("Gpm/PmFar/1x1024/complete/Timeline/p3b2+24/skew0", 5687, 0x44a802411e6b0674, 0xe09fab088d0f8911),
    ("Gpm/PmFar/1x1024/complete/Both/p3b2+24/skew0", 63514, 0xf2a81ff32697fde7, 0x123bae0e6dddd97a),
    ("Gpm/PmFar/1x1024/crash/Pcie/p3b2+24/skew0", 1500, 0xa4e8625aa3c59090, 0x0000000000000000),
    ("Gpm/PmFar/1x1024/crash/Timeline/p3b2+24/skew0", 1500, 0xd8ec73fbba17b6b6, 0x0dc7d567df1b7ee7),
    ("Gpm/PmFar/1x1024/crash/Both/p3b2+24/skew0", 1500, 0xa4e8625aa3c59090, 0xcdefb053ae3f761f),
    ("Gpm/PmFar/2x64/complete/Pcie/p3b2+24/skew0", 10852, 0xb0c8c4c21e367d76, 0x0000000000000000),
    ("Gpm/PmFar/2x64/complete/Timeline/p3b2+24/skew0", 4083, 0xfd2cfedf412763cd, 0x0e9d5d085b384bee),
    ("Gpm/PmFar/2x64/complete/Both/p3b2+24/skew0", 10852, 0xb0c8c4c21e367d76, 0xd90546cd0d739982),
    ("Gpm/PmFar/2x64/crash/Pcie/p3b2+24/skew0", 1500, 0x26d9f9c3dee78d08, 0x0000000000000000),
    ("Gpm/PmFar/2x64/crash/Timeline/p3b2+24/skew0", 1500, 0xccd6d5630a666664, 0x5b52b09eef4726ad),
    ("Gpm/PmFar/2x64/crash/Both/p3b2+24/skew0", 1500, 0x26d9f9c3dee78d08, 0x9e127236d83b569f),
    ("Gpm/PmFar/2x1024/complete/Pcie/p3b2+24/skew0", 120012, 0xe4c556fd0bf1471c, 0x0000000000000000),
    ("Gpm/PmFar/2x1024/complete/Timeline/p3b2+24/skew0", 6361, 0x8801688d1dc8151d, 0xe572defe35122ff6),
    ("Gpm/PmFar/2x1024/complete/Both/p3b2+24/skew0", 120012, 0xe4c556fd0bf1471c, 0x22bb2db125d7065a),
    ("Gpm/PmFar/2x1024/crash/Pcie/p3b2+24/skew0", 1500, 0xd8ddf5c1f61edf9d, 0x0000000000000000),
    ("Gpm/PmFar/2x1024/crash/Timeline/p3b2+24/skew0", 1500, 0xfe7a34e4d4bdc8ab, 0x6ebab4cb65c97a77),
    ("Gpm/PmFar/2x1024/crash/Both/p3b2+24/skew0", 1500, 0xd8ddf5c1f61edf9d, 0xa6501e52b4249bdd),
    ("Epoch/PmNear/1x64/complete/Timeline/p3b2+24/skew0", 694, 0x3a12c0047940d2cd, 0xb5eba2fdf7f9fa46),
    ("Epoch/PmNear/1x64/crash/Timeline/p3b2+24/skew0", 400, 0x2351d6d1d0c72a26, 0xd26fd270891b3b9d),
    ("Epoch/PmNear/1x1024/complete/Timeline/p3b2+24/skew0", 1333, 0xf09d98668a7e741f, 0x90f2615723814c3e),
    ("Epoch/PmNear/1x1024/crash/Timeline/p3b2+24/skew0", 400, 0xd4b3f79ac77e8329, 0xff6fe3b973cac3ac),
    ("Epoch/PmNear/2x64/complete/Timeline/p3b2+24/skew0", 731, 0xa47bb85c1c6a54d0, 0x8ac45b7235fcf8f9),
    ("Epoch/PmNear/2x64/crash/Timeline/p3b2+24/skew0", 400, 0x3c7849190469a199, 0x19ccada4e7e3cac2),
    ("Epoch/PmNear/2x1024/complete/Timeline/p3b2+24/skew0", 1722, 0x3bb41a5f99719eab, 0xda3b77388d09f9f6),
    ("Epoch/PmNear/2x1024/crash/Timeline/p3b2+24/skew0", 400, 0x395309b55844760d, 0xd1c2d6264b436210),
    ("Epoch/PmFar/1x64/complete/Pcie/p3b2+24/skew0", 7644, 0x9a2d55a9ba20a51e, 0x0000000000000000),
    ("Epoch/PmFar/1x64/complete/Timeline/p3b2+24/skew0", 4020, 0x318fac5891d46264, 0xf9a917d47f3c8555),
    ("Epoch/PmFar/1x64/complete/Both/p3b2+24/skew0", 7644, 0x9a2d55a9ba20a51e, 0xdfa784598666f9e5),
    ("Epoch/PmFar/1x64/crash/Pcie/p3b2+24/skew0", 1500, 0x91bbba20904005b2, 0x0000000000000000),
    ("Epoch/PmFar/1x64/crash/Timeline/p3b2+24/skew0", 1500, 0x767d11e6fefafac2, 0x7fcddf31af475d3e),
    ("Epoch/PmFar/1x64/crash/Both/p3b2+24/skew0", 1500, 0x91bbba20904005b2, 0x08e8e74069ef8c72),
    ("Epoch/PmFar/1x1024/complete/Pcie/p3b2+24/skew0", 63514, 0xf2a81ff32697fde7, 0x0000000000000000),
    ("Epoch/PmFar/1x1024/complete/Timeline/p3b2+24/skew0", 5687, 0x44a802411e6b0674, 0xe09fab088d0f8911),
    ("Epoch/PmFar/1x1024/complete/Both/p3b2+24/skew0", 63514, 0xf2a81ff32697fde7, 0x123bae0e6dddd97a),
    ("Epoch/PmFar/1x1024/crash/Pcie/p3b2+24/skew0", 1500, 0xa4e8625aa3c59090, 0x0000000000000000),
    ("Epoch/PmFar/1x1024/crash/Timeline/p3b2+24/skew0", 1500, 0xd8ec73fbba17b6b6, 0x0dc7d567df1b7ee7),
    ("Epoch/PmFar/1x1024/crash/Both/p3b2+24/skew0", 1500, 0xa4e8625aa3c59090, 0xcdefb053ae3f761f),
    ("Epoch/PmFar/2x64/complete/Pcie/p3b2+24/skew0", 10852, 0xb0c8c4c21e367d76, 0x0000000000000000),
    ("Epoch/PmFar/2x64/complete/Timeline/p3b2+24/skew0", 4083, 0xfd2cfedf412763cd, 0x0e9d5d085b384bee),
    ("Epoch/PmFar/2x64/complete/Both/p3b2+24/skew0", 10852, 0xb0c8c4c21e367d76, 0xd90546cd0d739982),
    ("Epoch/PmFar/2x64/crash/Pcie/p3b2+24/skew0", 1500, 0x26d9f9c3dee78d08, 0x0000000000000000),
    ("Epoch/PmFar/2x64/crash/Timeline/p3b2+24/skew0", 1500, 0xccd6d5630a666664, 0x5b52b09eef4726ad),
    ("Epoch/PmFar/2x64/crash/Both/p3b2+24/skew0", 1500, 0x26d9f9c3dee78d08, 0x9e127236d83b569f),
    ("Epoch/PmFar/2x1024/complete/Pcie/p3b2+24/skew0", 120012, 0xe4c556fd0bf1471c, 0x0000000000000000),
    ("Epoch/PmFar/2x1024/complete/Timeline/p3b2+24/skew0", 6361, 0x8801688d1dc8151d, 0xe572defe35122ff6),
    ("Epoch/PmFar/2x1024/complete/Both/p3b2+24/skew0", 120012, 0xe4c556fd0bf1471c, 0x22bb2db125d7065a),
    ("Epoch/PmFar/2x1024/crash/Pcie/p3b2+24/skew0", 1500, 0xd8ddf5c1f61edf9d, 0x0000000000000000),
    ("Epoch/PmFar/2x1024/crash/Timeline/p3b2+24/skew0", 1500, 0xfe7a34e4d4bdc8ab, 0x6ebab4cb65c97a77),
    ("Epoch/PmFar/2x1024/crash/Both/p3b2+24/skew0", 1500, 0xd8ddf5c1f61edf9d, 0xa6501e52b4249bdd),
    ("Sbrp/PmNear/1x64/complete/Timeline/p3b2+24/skew0", 631, 0x7d8f760c0873e5e8, 0x30641083de990598),
    ("Sbrp/PmNear/1x64/crash/Timeline/p3b2+24/skew0", 400, 0x2351d6d1d0c72a26, 0xd26fd270891b3b9d),
    ("Sbrp/PmNear/1x1024/complete/Timeline/p3b2+24/skew0", 1168, 0x3fb1a15a0b1032d4, 0x42c6abfa2b8aa6b7),
    ("Sbrp/PmNear/1x1024/crash/Timeline/p3b2+24/skew0", 400, 0xd4b3f79ac77e8329, 0xff6fe3b973cac3ac),
    ("Sbrp/PmNear/2x64/complete/Timeline/p3b2+24/skew0", 667, 0x8027ec65f40734f1, 0x4f67b5d196d14287),
    ("Sbrp/PmNear/2x64/crash/Timeline/p3b2+24/skew0", 400, 0x3c7849190469a199, 0x19ccada4e7e3cac2),
    ("Sbrp/PmNear/2x1024/complete/Timeline/p3b2+24/skew0", 1659, 0x8386986b62bc5416, 0xa5f1f882b15ef7b7),
    ("Sbrp/PmNear/2x1024/crash/Timeline/p3b2+24/skew0", 400, 0x395309b55844760d, 0xd1c2d6264b436210),
    ("Sbrp/PmFar/1x64/complete/Pcie/p3b2+24/skew0", 6752, 0xf6c3632504944a0c, 0x0000000000000000),
    ("Sbrp/PmFar/1x64/complete/Timeline/p3b2+24/skew0", 3128, 0x4287c4cb189d0fed, 0x49e80d6afb4d8cea),
    ("Sbrp/PmFar/1x64/complete/Both/p3b2+24/skew0", 6752, 0xf6c3632504944a0c, 0xb701a5f427a05c2f),
    ("Sbrp/PmFar/1x64/crash/Pcie/p3b2+24/skew0", 1500, 0x91bbba20904005b2, 0x0000000000000000),
    ("Sbrp/PmFar/1x64/crash/Timeline/p3b2+24/skew0", 1500, 0x1368a0e743a40d89, 0x99c974fc704e34a3),
    ("Sbrp/PmFar/1x64/crash/Both/p3b2+24/skew0", 1500, 0x91bbba20904005b2, 0x08e8e74069ef8c72),
    ("Sbrp/PmFar/1x1024/complete/Pcie/p3b2+24/skew0", 60876, 0xf077334bd4a989b7, 0x0000000000000000),
    ("Sbrp/PmFar/1x1024/complete/Timeline/p3b2+24/skew0", 3561, 0xa4c9c9c0d01b3bc3, 0xa51c9efa869f0691),
    ("Sbrp/PmFar/1x1024/complete/Both/p3b2+24/skew0", 60876, 0xf077334bd4a989b7, 0x2b150ff1855d571c),
    ("Sbrp/PmFar/1x1024/crash/Pcie/p3b2+24/skew0", 1500, 0xa4e8625aa3c59090, 0x0000000000000000),
    ("Sbrp/PmFar/1x1024/crash/Timeline/p3b2+24/skew0", 1500, 0xfaeed5a006398f00, 0x010688462f54b086),
    ("Sbrp/PmFar/1x1024/crash/Both/p3b2+24/skew0", 1500, 0xa4e8625aa3c59090, 0xcdefb053ae3f761f),
    ("Sbrp/PmFar/2x64/complete/Pcie/p3b2+24/skew0", 9097, 0xc1939a5e50545bd4, 0x0000000000000000),
    ("Sbrp/PmFar/2x64/complete/Timeline/p3b2+24/skew0", 3169, 0xb78b4b0aaaa2f477, 0x12b57087bf308592),
    ("Sbrp/PmFar/2x64/complete/Both/p3b2+24/skew0", 9097, 0xc1939a5e50545bd4, 0x2ddbf994e481d8d4),
    ("Sbrp/PmFar/2x64/crash/Pcie/p3b2+24/skew0", 1500, 0x26d9f9c3dee78d08, 0x0000000000000000),
    ("Sbrp/PmFar/2x64/crash/Timeline/p3b2+24/skew0", 1500, 0xf760ecc7e351fd9c, 0x5d4cc4fee6b0c7a5),
    ("Sbrp/PmFar/2x64/crash/Both/p3b2+24/skew0", 1500, 0x26d9f9c3dee78d08, 0x9e127236d83b569f),
    ("Sbrp/PmFar/2x1024/complete/Pcie/p3b2+24/skew0", 120012, 0x3136d7518439b8ba, 0x0000000000000000),
    ("Sbrp/PmFar/2x1024/complete/Timeline/p3b2+24/skew0", 4225, 0x72c1c1a8e88e1cb2, 0x47b14570d5fd6ee2),
    ("Sbrp/PmFar/2x1024/complete/Both/p3b2+24/skew0", 120012, 0x3136d7518439b8ba, 0xda69aa848565f42f),
    ("Sbrp/PmFar/2x1024/crash/Pcie/p3b2+24/skew0", 1500, 0xd8ddf5c1f61edf9d, 0x0000000000000000),
    ("Sbrp/PmFar/2x1024/crash/Timeline/p3b2+24/skew0", 1500, 0x663ff1c00d9b9a48, 0xc2909866be01cba7),
    ("Sbrp/PmFar/2x1024/crash/Both/p3b2+24/skew0", 1500, 0xd8ddf5c1f61edf9d, 0xa6501e52b4249bdd),
    ("Gpm/PmFar/2x1024/complete/Both/p7b1+8/skew90", 28350, 0x84339d5eec214f91, 0x04b96ddb1cf3b94c),
    ("Gpm/PmFar/2x1024/crash/Both/p7b1+8/skew90", 1500, 0xec726308b9c4cd4b, 0x75fb3bf81628e5c1),
    ("Gpm/PmFar/2x576/complete/Both/p12b1+8/skew0", 12398, 0x8b23beb2e0104410, 0xc52fe2b43ff6bf17),
    ("Gpm/PmFar/2x576/crash/Both/p12b1+8/skew0", 1500, 0x3acc51dcc51785f4, 0x49d7f8a9a2c72dd5),
    ("Epoch/PmFar/2x1024/complete/Both/p7b1+8/skew90", 28350, 0x84339d5eec214f91, 0x04b96ddb1cf3b94c),
    ("Epoch/PmFar/2x1024/crash/Both/p7b1+8/skew90", 1500, 0xec726308b9c4cd4b, 0x75fb3bf81628e5c1),
    ("Epoch/PmFar/2x576/complete/Both/p12b1+8/skew0", 12398, 0x8b23beb2e0104410, 0xc52fe2b43ff6bf17),
    ("Epoch/PmFar/2x576/crash/Both/p12b1+8/skew0", 1500, 0x3acc51dcc51785f4, 0x49d7f8a9a2c72dd5),
    ("Sbrp/PmFar/2x1024/complete/Both/p7b1+8/skew90", 27080, 0xb8159c902aada6f3, 0x230e4d86517d3e21),
    ("Sbrp/PmFar/2x1024/crash/Both/p7b1+8/skew90", 1500, 0xc0130057f66a80b0, 0x526444a5b8185134),
    ("Sbrp/PmFar/2x576/complete/Both/p12b1+8/skew0", 10722, 0xa9435919b67b147e, 0x9dcbc151b74aa2b7),
    ("Sbrp/PmFar/2x576/crash/Both/p12b1+8/skew0", 1500, 0xf5ee7efcb4ade206, 0x5ea344b2374c9003),
    ("Gpm/PmFar/1x64/relaunch/Timeline/p3b2+24/skew0", 8669, 0x622f4bb9516ac055, 0x4fae619b8e67315f),
    ("Gpm/PmFar/1x64/relaunch/Both/p3b2+24/skew0", 26777, 0x97a2cd660beb9b50, 0xc824b633afaf74ef),
    ("Epoch/PmNear/1x64/relaunch/Timeline/p3b2+24/skew0", 1540, 0xde3d6dcdb07c6722, 0x8b64032d1a600d21),
    ("Epoch/PmFar/1x64/relaunch/Timeline/p3b2+24/skew0", 8669, 0x622f4bb9516ac055, 0x4fae619b8e67315f),
    ("Epoch/PmFar/1x64/relaunch/Both/p3b2+24/skew0", 26777, 0x97a2cd660beb9b50, 0xc824b633afaf74ef),
    ("Sbrp/PmNear/1x64/relaunch/Timeline/p3b2+24/skew0", 1383, 0x2624c1f4523cc599, 0xb59192d7c7eb3a27),
    ("Sbrp/PmFar/1x64/relaunch/Timeline/p3b2+24/skew0", 6326, 0xdc57e58e1baf9fb3, 0x2c2609a10d127cf1),
    ("Sbrp/PmFar/1x64/relaunch/Both/p3b2+24/skew0", 23255, 0xc2fc76ad5f3ce824, 0x572d4226243b117d),
];

#[test]
fn traced_and_faulted_sparse_runs_match_their_pins() {
    let actual: Vec<(String, u64, u64, u64)> = cases()
        .into_iter()
        .map(|case| {
            let (cycles, digest, trace) = run(case);
            (case.label(), cycles, digest, trace)
        })
        .collect();
    let expected: Vec<(String, u64, u64, u64)> = PINS
        .iter()
        .map(|&(label, cycles, digest, trace)| (label.to_string(), cycles, digest, trace))
        .collect();
    // On a mismatch, print the whole actual table in `PINS` syntax.
    let table: Vec<String> = actual
        .iter()
        .map(|(label, cycles, digest, trace)| {
            format!("    (\"{label}\", {cycles}, {digest:#018x}, {trace:#018x}),")
        })
        .collect();
    assert_eq!(actual, expected, "actual pins:\n{}", table.join("\n"));
}

/// A launch at the cycle the previous one completed shows its warps
/// from that cycle, not from the cycle before it.
#[test]
fn a_relaunched_kernel_starts_on_the_timeline_at_its_launch_cycle() {
    let cfg = GpuConfig {
        timeline: true,
        ..GpuConfig::table1(ModelKind::Epoch, SystemDesign::PmNear)
    };
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&mixed_kernel(0), LaunchConfig::new(1, 64));
    let first = gpu.run(LIMIT).expect("completes");
    assert_eq!(first.cycles, 694);
    // Three 3-warp blocks: the first lands on SM 0, whose slot 2 the
    // 2-warp first launch never used.
    gpu.launch(&mixed_kernel(0), LaunchConfig::new(3, 96));
    gpu.run(LIMIT).expect("completes");
    let timeline = gpu.take_timeline().expect("timeline on");
    let slot2 = timeline
        .slices
        .iter()
        .find(|s| s.pid == 0 && s.tid == 2)
        .expect("slot 2 of SM 0 ran a warp");
    assert_eq!(slot2.start, first.cycles, "{slot2:?}");
}
