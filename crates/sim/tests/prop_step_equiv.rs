//! Property test: the scheduler's shortcuts are pure optimizations.
//! The serial reference (`Gpu::set_serial_stepping`: every cycle
//! visited, every SM ticked and charged one cycle at a time) must
//! produce *identical* results — same completion cycle, same
//! `SimStats`, same per-SM and per-warp stall breakdowns — as the
//! default scheduler, which fast-forwards over idle gaps, skips the
//! ticks of idle SMs and charges their stalls lazily, for any kernel,
//! model, system, and crash point. Recording a timeline must not change
//! those results either, and read cycle by cycle the stall accounts
//! only ever grow, by at most one cycle per warp per cycle.

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
    skewed_kernel(log, data, sleep, 0)
}

/// [`mixed_kernel`] whose odd blocks first compute for `skew` cycles,
/// so blocks on different SMs stop running in lockstep: one SM's PCIe
/// transfers then set the backoff flag while another SM's warps wait
/// with their ticks skipped.
fn skewed_kernel(log: u64, data: u64, sleep: u32, skew: u32) -> Kernel {
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
    /// Per SM, per warp slot.
    warp_stalls: Vec<Vec<StallBreakdown>>,
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
        warp_stalls: (0..cfg.num_sms as usize)
            .map(|sm| gpu.warp_stall_breakdowns(sm))
            .collect(),
    }
}

fn assert_identical(a: &Observed, b: &Observed) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.end_cycle, b.end_cycle, "end cycle");
    prop_assert_eq!(a.stats, b.stats, "SimStats");
    prop_assert_eq!(&a.sm_stalls, &b.sm_stalls, "per-SM stalls");
    for (sm, (a, b)) in a.warp_stalls.iter().zip(&b.warp_stalls).enumerate() {
        prop_assert_eq!(a, b, "SM{} warp stalls", sm);
    }
    Ok(())
}

/// The default scheduler's run and the serial reference's.
fn assert_matches_serial_reference(
    cfg: &GpuConfig,
    kernel: &Kernel,
    launch: LaunchConfig,
    drive: Drive,
) -> Result<(), TestCaseError> {
    assert_identical(
        &observe(cfg, kernel, launch, false, drive),
        &observe(cfg, kernel, launch, true, drive),
    )
}

/// A PCIe fault plan that keeps the link in backoff most of the time:
/// a burst of two retries on every other transfer.
fn busy_link_plan() -> FaultPlan {
    FaultPlan::default().with_pcie(PcieFaultConfig {
        period: 2,
        burst: 2,
        max_retries: 8,
        backoff_base: 24,
    })
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

/// A completed or crashed run, with the busy-link PCIe plan armed when
/// `pcie` is set (the crash then comes from the plan's trigger).
fn pcie_or_crash_drive(pcie: bool, crash_at: u64) -> Drive {
    if !pcie {
        return crash_drive(crash_at);
    }
    let mut plan = busy_link_plan();
    if crash_at > 0 {
        plan.trigger = Some(CrashTrigger::AtCycle(crash_at));
    }
    Drive::Faulted(plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The default scheduler and the serial reference are
    /// indistinguishable — to completion (`crash_at == 0`) or at any
    /// crash point, with and without PCIe faults flipping the backoff
    /// flag mid-span, with and without a timeline recorded — on the
    /// small GPU, where two blocks share its SMs.
    #[test]
    fn serial_and_fast_forward_runs_are_identical(
        crash_at in prop_oneof![Just(0u64), 100u64..20_000],
        pcie in any::<bool>(),
        timeline in any::<bool>(),
        model_ix in 0usize..3,
        system_ix in 0usize..2,
    ) {
        let model = ModelKind::ALL[model_ix];
        let system = [SystemDesign::PmNear, SystemDesign::PmFar][system_ix];
        if !valid(model, system) {
            return Ok(());
        }
        let cfg = GpuConfig { timeline, ..GpuConfig::small(model, system) };
        let kernel = wal_kernel(PM_BASE, PM_BASE + (1 << 20));
        let launch = LaunchConfig::new(2, 64);
        assert_matches_serial_reference(&cfg, &kernel, launch, pcie_or_crash_drive(pcie, crash_at))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A sparse launch on the 30-SM Table 1 GPU leaves most SMs idle,
    /// so the default scheduler skips most SM ticks and charges their
    /// stalls lazily: it must simulate and charge exactly what the
    /// every-SM path (the serial reference, which ticks and charges
    /// every SM at every cycle) does — to completion or at any crash
    /// point, with and without a timeline, and with PCIe faults whose
    /// backoff flips split the spans a skipped SM has not yet charged.
    #[test]
    fn skipping_idle_sms_matches_the_every_sm_path(
        crash_at in prop_oneof![Just(0u64), 100u64..20_000],
        blocks in 1u32..3,
        wide in any::<bool>(),
        sleep in 1u32..200,
        skew in prop_oneof![Just(0u32), 1u32..600],
        pcie in any::<bool>(),
        timeline in any::<bool>(),
        model_ix in 0usize..3,
        system_ix in 0usize..2,
    ) {
        let model = ModelKind::ALL[model_ix];
        let system = [SystemDesign::PmNear, SystemDesign::PmFar][system_ix];
        if !valid(model, system) {
            return Ok(());
        }
        let cfg = GpuConfig { timeline, ..GpuConfig::table1(model, system) };
        let kernel = skewed_kernel(PM_BASE, PM_BASE + (1 << 20), sleep, skew);
        // 32-warp blocks fill an SM each; 2-warp blocks share SM0.
        let launch = LaunchConfig::new(blocks, if wide { 1024 } else { 64 });
        assert_matches_serial_reference(&cfg, &kernel, launch, pcie_or_crash_drive(pcie, crash_at))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A multi-wave launch: on the small GPU a 1024-thread block fills
    /// an SM, so 5-12 blocks queue behind the first four and dispatch
    /// only as blocks retire, while SMs whose warps all sleep wait to be
    /// woken. The default scheduler, which visits only awake SMs and
    /// dispatches only after a block retires, must match the serial
    /// reference, which ticks every SM and dispatches at every step.
    #[test]
    fn queued_blocks_dispatch_as_the_serial_reference_dispatches_them(
        crash_at in prop_oneof![Just(0u64), 100u64..40_000],
        blocks in 5u32..13,
        sleep in 1u32..300,
        skew in prop_oneof![Just(0u32), 1u32..600],
        model_ix in 0usize..3,
        system_ix in 0usize..2,
    ) {
        let model = ModelKind::ALL[model_ix];
        let system = [SystemDesign::PmNear, SystemDesign::PmFar][system_ix];
        if !valid(model, system) {
            return Ok(());
        }
        let cfg = GpuConfig::small(model, system);
        let kernel = skewed_kernel(PM_BASE, PM_BASE + (1 << 20), sleep, skew);
        let launch = LaunchConfig::new(blocks, 1024);
        assert_matches_serial_reference(&cfg, &kernel, launch, crash_drive(crash_at))?;
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
    /// durability waits mid-block; the default scheduler must split each
    /// wait at the flip exactly as serial stepping does — also for an
    /// SM whose ticks are skipped when another SM's transfer sets the
    /// flag (sparse: two 18-warp blocks on the Table 1 GPU, one SM each).
    #[test]
    fn pcie_backoff_flips_attribute_identically(
        period in 1u64..13,
        burst in 1u32..4,
        backoff_base in 4u64..96,
        crash_at in prop_oneof![Just(0u64), 500u64..20_000],
        sparse in any::<bool>(),
        model_ix in 0usize..3,
    ) {
        let model = ModelKind::ALL[model_ix];
        let kernel = mixed_kernel(PM_BASE, PM_BASE + (1 << 20), 16);
        let (cfg, launch) = if sparse {
            (GpuConfig::table1(model, SystemDesign::PmFar), LaunchConfig::new(2, 576))
        } else {
            (GpuConfig::small(model, SystemDesign::PmFar), LaunchConfig::new(4, 128))
        };
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
        sparse in any::<bool>(),
        model_ix in 0usize..3,
    ) {
        let model = ModelKind::ALL[model_ix];
        // Sparse: two 18-warp blocks on the Table 1 GPU, one SM each,
        // the other 28 SMs idle throughout.
        let (cfg, launch) = if sparse {
            (GpuConfig::table1(model, SystemDesign::PmFar), LaunchConfig::new(2, 576))
        } else {
            (GpuConfig::small(model, SystemDesign::PmFar), LaunchConfig::new(4, 128))
        };
        let mut gpu = Gpu::new(&cfg);
        if pcie {
            gpu.set_fault_plan(FaultPlan::default().with_pcie(PcieFaultConfig {
                period: 4,
                burst: 1,
                max_retries: 8,
                backoff_base: 16,
            }));
        }
        gpu.launch(&mixed_kernel(PM_BASE, PM_BASE + (1 << 20), 16), launch);
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
                    if n == p {
                        continue;
                    }
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
    assert_matches_serial_reference(&cfg, &kernel, launch, Drive::Complete)
        .expect("the skipped SM is charged as the serial reference charges it");
    let run = observe(&cfg, &kernel, launch, false, Drive::Complete);
    let warp = run.warp_stalls[0][0];
    assert!(
        warp.wpq_backpressure > 500,
        "the round-trip is charged as backpressure: {warp:?}"
    );
    assert_eq!(
        warp.dfence, 1,
        "only the ack cycle is a drained dFence: {warp:?}"
    );
}
