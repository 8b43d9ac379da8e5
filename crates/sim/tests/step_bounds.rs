//! Regression tests for cycle-accurate fast-forwarding: crash points,
//! timeouts, and cycle-window fault triggers must land *exactly* on
//! their cycle, never overshot by an idle-time leap.
//!
//! These tests pin the bug where `step`'s fast-forward jumped to the
//! next memory event or SM wake-up even when that leapt over the
//! caller's bound — so `run_until(t)` could report a crash cycle past
//! `t` and a durable image containing events from the overshoot window.

use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::fault::{CrashTrigger, FaultPlan};
use sbrp_gpu_sim::{Gpu, RunOutcome, SimError};
use sbrp_isa::{Kernel, KernelBuilder, LaunchConfig, MemWidth, Special};

const LIMIT: u64 = 50_000_000;

/// Kernel: pArr[gtid] = gtid + 1 (distinct non-zero value per slot).
fn persist_fill_kernel(base: u64) -> Kernel {
    let mut b = KernelBuilder::new();
    b.set_params(vec![base]);
    let arr = b.param(0);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let addr = b.add(arr, off);
    let v = b.addi(tid, 1);
    b.st(addr, 0, v, MemWidth::W8);
    b.build("persist_fill")
}

/// Kernel: one long sleep, then a persist. While every warp sleeps the
/// simulator has nothing to do but fast-forward — the exact situation
/// where an unclamped leap overshoots a bound.
fn sleep_then_store_kernel(base: u64, sleep: u32) -> Kernel {
    let mut b = KernelBuilder::new();
    b.set_params(vec![base]);
    let arr = b.param(0);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let addr = b.add(arr, off);
    b.sleep(sleep);
    let v = b.addi(tid, 1);
    b.st(addr, 0, v, MemWidth::W8);
    b.build("sleep_then_store")
}

/// The durable cycle of every persisted address, from a traced
/// reference run of `persist_fill_kernel` to completion.
fn reference_durable_cycles(cfg: &GpuConfig, threads: u64) -> Vec<(u64, u64)> {
    let kernel = persist_fill_kernel(PM_BASE);
    let mut gpu = Gpu::new(cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, threads as u32 / 2));
    gpu.run(LIMIT).expect("reference run completes");
    let trace = gpu.take_trace().expect("tracing enabled");
    let durable_at: Vec<Option<u64>> = (0..trace.event_count())
        .map(|i| trace.durable_cycle(sbrp_core::formal::EventId::from_index(i)))
        .collect();
    let graph = trace.into_graph();
    let mut out = Vec::new();
    for id in graph.persists() {
        let cycle = durable_at[id.index()].expect("completed run: everything durable");
        if let sbrp_core::formal::EventKind::Persist { addr } = graph.event(id).kind {
            out.push((addr, cycle));
        }
    }
    assert_eq!(out.len() as u64, threads, "one persist per thread");
    out
}

/// THE regression test for the overshoot bug: place the crash strictly
/// *between* two scheduled memory events and check that (a) the run
/// lands exactly on the crash cycle and (b) the durable image equals
/// the event-prefix ≤ `crash_cycle` — nothing from the overshoot
/// window leaks in.
#[test]
fn crash_between_mem_events_yields_exact_event_prefix() {
    let mut cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    cfg.trace = true;
    let threads = 128u64;
    let durable_cycles = reference_durable_cycles(&cfg, threads);

    // Distinct cycles at which *some* event became durable, sorted.
    let mut cycles: Vec<u64> = durable_cycles.iter().map(|&(_, c)| c).collect();
    cycles.sort_unstable();
    cycles.dedup();
    assert!(cycles.len() >= 2, "need at least two durability instants");

    // A crash cycle strictly between two consecutive mem events.
    let (before, after) = cycles
        .windows(2)
        .map(|w| (w[0], w[1]))
        .find(|&(a, b)| b > a + 1)
        .expect("some pair of durability instants has a gap");
    let crash_at = before + (after - before) / 2;
    assert!(crash_at > before && crash_at < after);

    // Crash run: same deterministic configuration.
    let kernel = persist_fill_kernel(PM_BASE);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, threads as u32 / 2));
    let report = gpu.run_until(crash_at).expect("no deadlock");
    assert_eq!(report.outcome, RunOutcome::Crashed);
    assert_eq!(
        report.cycles, crash_at,
        "crash must land exactly on the requested cycle, not overshoot"
    );
    assert_eq!(gpu.cycle(), crash_at);

    // The durable image is exactly the event-prefix ≤ crash_at.
    let image = gpu.durable_image();
    for (addr, durable_cycle) in durable_cycles {
        let tid = (addr - PM_BASE) / 8;
        let expected = if durable_cycle <= crash_at {
            tid + 1
        } else {
            0
        };
        assert_eq!(
            image.read_u64(addr),
            expected,
            "addr {addr:#x} (durable at {durable_cycle}, crash at {crash_at})"
        );
    }
}

/// Sweeping many crash points: `run_until(t)` always reports exactly
/// `t` when the kernel is still live, across models and systems.
#[test]
fn run_until_always_lands_on_the_crash_cycle() {
    for model in ModelKind::ALL {
        for system in [SystemDesign::PmNear, SystemDesign::PmFar] {
            if model == ModelKind::Gpm && system == SystemDesign::PmNear {
                continue; // GPM only exists on PM-far (§7).
            }
            let cfg = GpuConfig::small(model, system);
            for crash_at in [117, 523, 1_001, 2_047, 4_099] {
                let kernel = persist_fill_kernel(PM_BASE);
                let mut gpu = Gpu::new(&cfg);
                gpu.launch(&kernel, LaunchConfig::new(4, 128));
                let report = gpu.run_until(crash_at).expect("no deadlock");
                if report.outcome == RunOutcome::Crashed {
                    assert_eq!(
                        report.cycles, crash_at,
                        "{model:?}/{system}: overshoot at crash_at={crash_at}"
                    );
                    assert_eq!(gpu.cycle(), crash_at);
                }
            }
        }
    }
}

/// `run`'s timeout must agree with the cycle counter: a kernel asleep
/// past the limit times out *at* the limit, not wherever the wake-up
/// leap happened to land.
#[test]
fn timeout_is_clamped_to_the_limit() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let kernel = sleep_then_store_kernel(PM_BASE, 10_000);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(1, 32));
    match gpu.run(5_000) {
        Err(SimError::Timeout { limit }) => {
            assert_eq!(limit, 5_000);
            assert_eq!(
                gpu.cycle(),
                5_000,
                "the cycle counter must agree with the reported limit"
            );
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
}

/// Same discipline with a fault plan installed whose crash cycle lies
/// past the limit: the limit, not the trigger, bounds the leap.
#[test]
fn faulted_run_timeout_is_clamped_to_the_limit() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let kernel = sleep_then_store_kernel(PM_BASE, 10_000);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(1, 32));
    gpu.set_fault_plan(FaultPlan::crash_at(CrashTrigger::AtCycle(8_000)));
    match gpu.run(5_000) {
        Err(SimError::Timeout { limit }) => {
            assert_eq!(limit, 5_000);
            assert_eq!(gpu.cycle(), 5_000);
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
}

/// An `AtCycle` fault trigger is a bound of its own: the crash must
/// fire at exactly that cycle even if every warp is asleep far past it.
#[test]
fn at_cycle_trigger_is_not_leapt_over() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let kernel = sleep_then_store_kernel(PM_BASE, 10_000);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(1, 32));
    gpu.set_fault_plan(FaultPlan::crash_at(CrashTrigger::AtCycle(3_000)));
    let report = gpu.run(LIMIT).expect("no deadlock");
    assert_eq!(report.outcome, RunOutcome::Crashed);
    assert_eq!(
        report.cycles, 3_000,
        "sleeping warps must not carry the crash past its trigger cycle"
    );
    assert_eq!(gpu.cycle(), 3_000);
}

/// `run_until` arms its `AtCycle` trigger for one call only. After a
/// kernel that completed before the crash cycle, a second kernel on the
/// same GPU runs past that cycle to completion, and a memory-side
/// trigger installed beforehand still fires.
#[test]
fn run_until_leaves_no_trigger_behind() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let fill = persist_fill_kernel(PM_BASE);
    let sleeper = sleep_then_store_kernel(PM_BASE + (1 << 20), 10_000);
    let launch = LaunchConfig::new(2, 64);

    let mut reference = Gpu::new(&cfg);
    reference.launch(&fill, launch);
    let done = reference.run(LIMIT).expect("completes").cycles;
    let accepts = reference.fault_event_counts().wpq_accepts;
    let crash_at = done + 1_000;

    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&fill, launch);
    let first = gpu.run_until(crash_at).expect("no deadlock");
    assert_eq!(first.outcome, RunOutcome::Completed);
    assert_eq!(first.cycles, done);
    gpu.launch(&sleeper, launch);
    let second = gpu.run(LIMIT).expect("no deadlock");
    assert_eq!(second.outcome, RunOutcome::Completed);
    assert!(
        second.cycles > crash_at,
        "the second kernel outlives the old crash cycle"
    );

    let mut gpu = Gpu::new(&cfg);
    gpu.set_fault_plan(FaultPlan::crash_at(CrashTrigger::WpqAccept(accepts + 1)));
    gpu.launch(&fill, launch);
    let first = gpu.run_until(crash_at).expect("no deadlock");
    assert_eq!(first.outcome, RunOutcome::Completed);
    gpu.launch(&sleeper, launch);
    let second = gpu.run(LIMIT).expect("no deadlock");
    assert_eq!(second.outcome, RunOutcome::Crashed);
    assert_eq!(gpu.fault_event_counts().wpq_accepts, accepts + 1);
}

/// Timeouts keep their meaning after a resumed run: a second `run`
/// call's limit is relative to the current cycle and the clamp still
/// holds.
#[test]
fn resumed_run_timeout_is_relative_and_exact() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let kernel = sleep_then_store_kernel(PM_BASE, 50_000);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(1, 32));
    match gpu.run(1_000) {
        Err(SimError::Timeout { limit }) => assert_eq!(limit, 1_000),
        other => panic!("expected a timeout, got {other:?}"),
    }
    match gpu.run(2_000) {
        Err(SimError::Timeout { limit }) => {
            assert_eq!(limit, 3_000, "limit is absolute: 1_000 + 2_000");
            assert_eq!(gpu.cycle(), 3_000);
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
}
