//! Property test: fast-forwarding is a pure scheduling optimization.
//! Forcing serial stepping (one cycle per step, no idle-time leaps)
//! must produce *identical* results — same completion cycle, same
//! `SimStats`, same per-SM and per-warp stall breakdowns — as the
//! fast-forwarded run, for any kernel, model, system, and crash point.
//! Recording a timeline must not change those results either, and
//! read cycle by cycle the stall accounts only ever grow, by at most
//! one cycle per warp per cycle.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sbrp_core::stall::{StallBreakdown, StallCause};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::fault::{CrashTrigger, FaultPlan, PcieFaultConfig};
use sbrp_gpu_sim::stats::SimStats;
use sbrp_gpu_sim::{Gpu, SimError};
use sbrp_isa::{Kernel, KernelBuilder, LaunchConfig, MemWidth, Special};

const LIMIT: u64 = 50_000_000;

/// log[gtid] = x, oFence, data[gtid] = x — a fence between persists, so
/// the run exercises stores, drains, and engine stalls.
fn wal_kernel(log: u64, data: u64) -> Kernel {
    let mut b = KernelBuilder::new();
    b.set_params(vec![log, data]);
    let log_r = b.param(0);
    let data_r = b.param(1);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let laddr = b.add(log_r, off);
    let daddr = b.add(data_r, off);
    let v = b.addi(tid, 100);
    b.st(laddr, 0, v, MemWidth::W8);
    b.ofence();
    b.st(daddr, 0, v, MemWidth::W8);
    b.build("wal")
}

/// x = data[gtid]; compute for `sleep` cycles; log[gtid] = x + 1;
/// oFence; `__syncthreads`; data[gtid] = x + 1; dFence. Every blocked
/// kind occurs: a PM load miss, a compute sleep, a barrier wait, and a
/// durability wait (engine-blocked under SBRP, an epoch barrier under
/// the baselines).
fn mixed_kernel(log: u64, data: u64, sleep: u32) -> Kernel {
    let mut b = KernelBuilder::new();
    b.set_params(vec![log, data]);
    let log_r = b.param(0);
    let data_r = b.param(1);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let laddr = b.add(log_r, off);
    let daddr = b.add(data_r, off);
    let x = b.ld(daddr, 0, MemWidth::W8);
    b.sleep(sleep);
    let v = b.addi(x, 1);
    b.st(laddr, 0, v, MemWidth::W8);
    b.ofence();
    b.sync_block();
    b.st(daddr, 0, v, MemWidth::W8);
    b.dfence();
    b.build("mixed")
}

/// How a run ends.
#[derive(Clone, Copy)]
enum Drive {
    /// `Gpu::run` to completion.
    Complete,
    /// `Gpu::run_until` the given crash cycle.
    CrashAt(u64),
    /// `Gpu::run` under the plan.
    Faulted(FaultPlan),
}

/// Everything observable we compare between the two stepping modes.
struct Observed {
    end_cycle: u64,
    stats: SimStats,
    sm_stalls: Vec<StallBreakdown>,
    warp_stalls: Vec<StallBreakdown>,
}

fn observe(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    serial: bool,
    drive: Drive,
) -> Observed {
    let mut gpu = Gpu::new(cfg);
    gpu.set_serial_stepping(serial);
    gpu.launch(kernel, launch);
    let report = match drive {
        Drive::Complete => gpu.run(LIMIT).expect("completes"),
        Drive::CrashAt(cycle) => gpu.run_until(cycle).expect("no deadlock"),
        Drive::Faulted(plan) => {
            gpu.set_fault_plan(plan);
            gpu.run(LIMIT).expect("completes or crashes")
        }
    };
    Observed {
        end_cycle: report.cycles,
        stats: gpu.stats(),
        sm_stalls: gpu.sm_stall_breakdowns(),
        warp_stalls: gpu.warp_stall_breakdowns(0),
    }
}

fn assert_identical(a: &Observed, b: &Observed) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.end_cycle, b.end_cycle, "end cycle");
    prop_assert_eq!(a.stats, b.stats, "SimStats");
    prop_assert_eq!(&a.sm_stalls, &b.sm_stalls, "per-SM stalls");
    prop_assert_eq!(&a.warp_stalls, &b.warp_stalls, "SM0 warp stalls");
    Ok(())
}

/// The model/system pairs the paper evaluates (GPM only exists on
/// PM-far, §7).
fn valid(model: ModelKind, system: SystemDesign) -> bool {
    !(model == ModelKind::Gpm && system == SystemDesign::PmNear)
}

fn crash_drive(crash_at: u64) -> Drive {
    if crash_at == 0 {
        Drive::Complete
    } else {
        Drive::CrashAt(crash_at)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fast-forwarded and serial-stepped runs are indistinguishable —
    /// to completion (`crash_at == 0`) or at any crash point.
    #[test]
    fn serial_and_fast_forward_runs_are_identical(
        crash_at in prop_oneof![Just(0u64), 100u64..20_000],
        model_ix in 0usize..3,
        system_ix in 0usize..2,
    ) {
        let model = ModelKind::ALL[model_ix];
        let system = [SystemDesign::PmNear, SystemDesign::PmFar][system_ix];
        if !valid(model, system) {
            return Ok(());
        }
        let cfg = GpuConfig::small(model, system);
        let kernel = wal_kernel(PM_BASE, PM_BASE + (1 << 20));
        let launch = LaunchConfig::new(2, 64);
        let drive = crash_drive(crash_at);
        assert_identical(
            &observe(&cfg, &kernel, launch, false, drive),
            &observe(&cfg, &kernel, launch, true, drive),
        )?;
    }

    /// Barrier and sleep waits that a fast-forward jump leaps over are
    /// charged exactly as serial stepping charges them cycle by cycle.
    #[test]
    fn barrier_and_sleep_spans_survive_fast_forward(
        crash_at in prop_oneof![Just(0u64), 100u64..20_000],
        sleep in 1u32..400,
        model_ix in 0usize..3,
        system_ix in 0usize..2,
    ) {
        let model = ModelKind::ALL[model_ix];
        let system = [SystemDesign::PmNear, SystemDesign::PmFar][system_ix];
        if !valid(model, system) {
            return Ok(());
        }
        let cfg = GpuConfig::small(model, system);
        let kernel = mixed_kernel(PM_BASE, PM_BASE + (1 << 20), sleep);
        let launch = LaunchConfig::new(4, 128);
        let drive = crash_drive(crash_at);
        let fast = observe(&cfg, &kernel, launch, false, drive);
        if crash_at == 0 {
            prop_assert!(fast.stats.stall.scoreboard > 0, "barrier/sleep waits charged");
        }
        assert_identical(&fast, &observe(&cfg, &kernel, launch, true, drive))?;
    }

    /// PCIe fault-retry backoff flips the cause of memory and
    /// durability waits mid-block; fast-forwarded runs must split each
    /// wait at the flip exactly as serial stepping does.
    #[test]
    fn pcie_backoff_flips_attribute_identically(
        period in 1u64..6,
        burst in 1u32..4,
        backoff_base in 4u64..96,
        crash_at in prop_oneof![Just(0u64), 500u64..20_000],
        model_ix in 0usize..3,
    ) {
        let model = ModelKind::ALL[model_ix];
        let cfg = GpuConfig::small(model, SystemDesign::PmFar);
        let kernel = mixed_kernel(PM_BASE, PM_BASE + (1 << 20), 16);
        let launch = LaunchConfig::new(4, 128);
        let mut plan = FaultPlan::default().with_pcie(PcieFaultConfig {
            period,
            burst,
            max_retries: 8,
            backoff_base,
        });
        if crash_at > 0 {
            plan.trigger = Some(CrashTrigger::AtCycle(crash_at));
        }
        let fast = observe(&cfg, &kernel, launch, false, Drive::Faulted(plan));
        if crash_at == 0 {
            prop_assert!(fast.stats.stall.pcie_backoff > 0, "backoff was charged");
        }
        assert_identical(
            &fast,
            &observe(&cfg, &kernel, launch, true, Drive::Faulted(plan)),
        )?;
    }

    /// Recording a timeline observes warp states; it must not change
    /// what is charged.
    #[test]
    fn timeline_recording_does_not_change_accounts(
        crash_at in prop_oneof![Just(0u64), 100u64..20_000],
        model_ix in 0usize..3,
        system_ix in 0usize..2,
    ) {
        let model = ModelKind::ALL[model_ix];
        let system = [SystemDesign::PmNear, SystemDesign::PmFar][system_ix];
        if !valid(model, system) {
            return Ok(());
        }
        let plain = GpuConfig::small(model, system);
        let traced = GpuConfig { timeline: true, ..plain.clone() };
        let kernel = mixed_kernel(PM_BASE, PM_BASE + (1 << 20), 32);
        let launch = LaunchConfig::new(4, 128);
        let drive = crash_drive(crash_at);
        assert_identical(
            &observe(&plain, &kernel, launch, false, drive),
            &observe(&traced, &kernel, launch, false, drive),
        )?;
    }

    /// Read after every cycle, the per-warp accounts never withdraw or
    /// re-attribute a charged cycle and never charge a warp more than
    /// one stall cycle per cycle — however long a wait is, and whether
    /// PCIe backoff flips its cause midway — and each SM's account is
    /// the sum of its warps'.
    #[test]
    fn stall_accounts_grow_one_cycle_at_a_time(
        pcie in any::<bool>(),
        model_ix in 0usize..3,
    ) {
        let cfg = GpuConfig::small(ModelKind::ALL[model_ix], SystemDesign::PmFar);
        let mut gpu = Gpu::new(&cfg);
        if pcie {
            gpu.set_fault_plan(FaultPlan::default().with_pcie(PcieFaultConfig {
                period: 4,
                burst: 1,
                max_retries: 8,
                backoff_base: 16,
            }));
        }
        gpu.launch(&mixed_kernel(PM_BASE, PM_BASE + (1 << 20), 16), LaunchConfig::new(4, 128));
        let sms = cfg.num_sms as usize;
        let mut prev: Vec<Vec<StallBreakdown>> =
            (0..sms).map(|sm| gpu.warp_stall_breakdowns(sm)).collect();
        loop {
            let before = gpu.cycle();
            let done = match gpu.run(1) {
                Ok(_) => true,
                Err(SimError::Timeout { .. }) => false,
                Err(e) => return Err(TestCaseError::fail(e.to_string())),
            };
            let elapsed = gpu.cycle() - before;
            let per_sm = gpu.sm_stall_breakdowns();
            for (sm, prev) in prev.iter_mut().enumerate() {
                let now = gpu.warp_stall_breakdowns(sm);
                let mut sum = StallBreakdown::default();
                for w in &now {
                    sum.merge(*w);
                }
                prop_assert_eq!(sum, per_sm[sm], "SM{} account", sm);
                for (slot, (p, n)) in prev.iter().zip(&now).enumerate() {
                    for cause in StallCause::ALL {
                        prop_assert!(
                            n.get(cause) >= p.get(cause),
                            "cycle {}: SM{} slot {} lost {} cycles",
                            gpu.cycle(), sm, slot, cause
                        );
                    }
                    prop_assert!(
                        n.total - p.total <= elapsed,
                        "cycle {}: SM{} slot {} charged {} cycles in {}",
                        gpu.cycle(), sm, slot, n.total - p.total, elapsed
                    );
                }
                *prev = now;
            }
            if done {
                break;
            }
        }
    }
}

/// Runs `kernel` as `drive` says and returns the GPU with its end cycle.
fn run_gpu(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    serial: bool,
    drive: Drive,
) -> (Gpu, u64) {
    let mut gpu = Gpu::new(cfg);
    gpu.set_serial_stepping(serial);
    gpu.launch(kernel, launch);
    let report = match drive {
        Drive::Complete => gpu.run(LIMIT).expect("completes"),
        Drive::CrashAt(cycle) => gpu.run_until(cycle).expect("no deadlock"),
        Drive::Faulted(plan) => {
            gpu.set_fault_plan(plan);
            gpu.run(LIMIT).expect("completes or crashes")
        }
    };
    (gpu, report.cycles)
}

/// A timeline-on run ticks and charges every SM at every step; a
/// timeline-off run skips the SMs that cannot change state and charges
/// each only when a completion next reaches it. Both must end with the
/// same stats and the same stall accounts on every SM and every warp.
fn assert_skipping_matches_every_sm_path(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    serial: bool,
    drive: Drive,
) -> Result<(), TestCaseError> {
    let traced = GpuConfig {
        timeline: true,
        ..cfg.clone()
    };
    let (skip, skip_end) = run_gpu(cfg, kernel, launch, serial, drive);
    let (every, every_end) = run_gpu(&traced, kernel, launch, serial, drive);
    prop_assert_eq!(skip_end, every_end, "end cycle");
    prop_assert_eq!(skip.stats(), every.stats(), "SimStats");
    prop_assert_eq!(
        skip.sm_stall_breakdowns(),
        every.sm_stall_breakdowns(),
        "per-SM stalls"
    );
    for sm in 0..cfg.num_sms as usize {
        prop_assert_eq!(
            skip.warp_stall_breakdowns(sm),
            every.warp_stall_breakdowns(sm),
            "SM{} warp stalls",
            sm
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A sparse launch on the 30-SM Table 1 GPU leaves most SMs idle,
    /// so most SM ticks are skipped: the skipping run must charge and
    /// simulate exactly what the every-SM run does, to completion or at
    /// any crash point, serial or fast-forwarded. With PCIe faults armed
    /// both runs must take the every-SM path: a backoff flip splits
    /// spans that a skipped SM would charge in one piece.
    #[test]
    fn skipping_idle_sms_matches_the_every_sm_path(
        crash_at in prop_oneof![Just(0u64), 100u64..20_000],
        blocks in 1u32..3,
        wide in any::<bool>(),
        serial in any::<bool>(),
        pcie in any::<bool>(),
        sleep in 1u32..200,
        model_ix in 0usize..3,
        system_ix in 0usize..2,
    ) {
        let model = ModelKind::ALL[model_ix];
        let system = [SystemDesign::PmNear, SystemDesign::PmFar][system_ix];
        if !valid(model, system) {
            return Ok(());
        }
        let cfg = GpuConfig::table1(model, system);
        let kernel = mixed_kernel(PM_BASE, PM_BASE + (1 << 20), sleep);
        // 32-warp blocks fill an SM each; 2-warp blocks share SM0.
        let launch = LaunchConfig::new(blocks, if wide { 1024 } else { 64 });
        let mut plan = FaultPlan::default();
        if pcie {
            plan = plan.with_pcie(PcieFaultConfig {
                period: 2,
                burst: 2,
                max_retries: 8,
                backoff_base: 24,
            });
        }
        if crash_at > 0 {
            plan.trigger = Some(CrashTrigger::AtCycle(crash_at));
        }
        assert_skipping_matches_every_sm_path(&cfg, &kernel, launch, serial, Drive::Faulted(plan))?;
    }
}

/// One warp persists a line and waits at a dFence. While the flush is
/// in flight on PM-far, its SM has only that engine-blocked warp and an
/// idle persist unit, so its ticks are skipped for the whole round-trip.
/// The ack must not re-attribute that span: it held as WPQ backpressure
/// (the buffer had drained, the flush was unacknowledged), and only the
/// ack cycle itself sees the drained dFence.
#[test]
fn a_skipped_span_is_charged_with_the_cause_before_the_ack() {
    let mut b = KernelBuilder::new();
    b.set_params(vec![PM_BASE]);
    let base = b.param(0);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let addr = b.add(base, off);
    b.st(addr, 0, tid, MemWidth::W8);
    b.dfence();
    let kernel = b.build("store_dfence");
    let cfg = GpuConfig::table1(ModelKind::Sbrp, SystemDesign::PmFar);
    let launch = LaunchConfig::new(1, 32);
    assert_skipping_matches_every_sm_path(&cfg, &kernel, launch, false, Drive::Complete)
        .expect("skipping run charges as the every-SM run does");
    let (gpu, _) = run_gpu(&cfg, &kernel, launch, false, Drive::Complete);
    let warp = gpu.warp_stall_breakdowns(0)[0];
    assert!(
        warp.wpq_backpressure > 500,
        "the round-trip is charged as backpressure: {warp:?}"
    );
    assert_eq!(
        warp.dfence, 1,
        "only the ack cycle is a drained dFence: {warp:?}"
    );
}
