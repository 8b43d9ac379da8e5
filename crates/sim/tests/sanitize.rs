//! Online-sanitizer integration tests: `GpuConfig::sanitize` must stay
//! silent on correct executions (complete and crashed), flag machine
//! faults that break the persistency model, and flag §5.3 scoped
//! persistency bugs — all as `SimError::PmoViolation`.

use sbrp_core::scope::Scope;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::fault::{FaultPlan, NvmFault};
use sbrp_gpu_sim::{Gpu, RunOutcome, SimError};
use sbrp_isa::{KernelBuilder, LaunchConfig, MemWidth, Special};

const LIMIT: u64 = 50_000_000;

/// Kernel: log[gtid] = x, oFence, data[gtid] = x (the WAL idiom).
fn wal_kernel(log: u64, data: u64) -> sbrp_isa::Kernel {
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

/// Cross-block message passing with a chosen acquire/release scope.
fn message_pass_kernel(scope: Scope, flag: u64) -> sbrp_isa::Kernel {
    let mut b = KernelBuilder::new();
    b.set_params(vec![PM_BASE, flag]);
    let arr = b.param(0);
    let flag_r = b.param(1);
    let cta = b.special(Special::CtaId);
    let tid = b.special(Special::Tid);
    let first = b.eqi(tid, 0);
    let is_b0 = b.eqi(cta, 0);
    let off = b.muli(tid, 8);
    let addr = b.add(arr, off);
    b.if_then_else(
        is_b0,
        |b| {
            b.if_then(first, |b| {
                b.st(addr, 0, tid, MemWidth::W8);
                let one = b.movi(1);
                b.prel(flag_r, one, scope);
            });
        },
        |b| {
            b.if_then(first, |b| {
                b.while_loop(
                    |b| {
                        let v = b.pacq(flag_r, scope);
                        b.eqi(v, 0)
                    },
                    |_| {},
                );
                b.st(addr, 16384, tid, MemWidth::W8);
            });
        },
    );
    b.build("message_pass")
}

fn sanitize_cfg(model: ModelKind, system: SystemDesign) -> GpuConfig {
    let mut cfg = GpuConfig::small(model, system);
    cfg.sanitize = true;
    cfg
}

#[test]
fn correct_wal_sanitizes_clean_under_all_models_and_designs() {
    for model in [ModelKind::Sbrp, ModelKind::Epoch] {
        for system in [SystemDesign::PmFar, SystemDesign::PmNear] {
            let cfg = sanitize_cfg(model, system);
            let kernel = wal_kernel(PM_BASE, PM_BASE + 64 * 1024);
            let mut gpu = Gpu::new(&cfg);
            gpu.launch(&kernel, LaunchConfig::new(2, 64));
            let report = gpu
                .run(LIMIT)
                .unwrap_or_else(|e| panic!("{model:?}/{system}: {e}"));
            assert_eq!(report.outcome, RunOutcome::Completed);
        }
    }
}

#[test]
fn correct_wal_sanitizes_clean_at_crash_points() {
    for crash_at in [200, 500, 1000, 2000, 4000, 8000] {
        let cfg = sanitize_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
        let kernel = wal_kernel(PM_BASE, PM_BASE + 64 * 1024);
        let mut gpu = Gpu::new(&cfg);
        gpu.launch(&kernel, LaunchConfig::new(2, 64));
        gpu.run_until(crash_at)
            .unwrap_or_else(|e| panic!("crash@{crash_at}: {e}"));
    }
}

#[test]
fn sanitizer_catches_adr_violation() {
    // DropWpqEntry acknowledges a write whose bytes never reach the
    // durable image; everything fenced after it still becomes durable,
    // so the run-end crash cut is not downward-closed. The sanitizer
    // must turn that into a typed error.
    for model in [ModelKind::Sbrp, ModelKind::Epoch] {
        let cfg = sanitize_cfg(model, SystemDesign::PmNear);
        let kernel = wal_kernel(PM_BASE, PM_BASE + 64 * 1024);
        let mut gpu = Gpu::new(&cfg);
        gpu.set_fault_plan(FaultPlan::default().with_nvm(NvmFault::DropWpqEntry(1)));
        gpu.launch(&kernel, LaunchConfig::new(2, 64));
        match gpu.run(LIMIT) {
            Err(SimError::PmoViolation { violation, .. }) => {
                assert!(violation.before < violation.after);
            }
            other => panic!("{model:?}: expected PmoViolation, got {other:?}"),
        }
    }
}

#[test]
fn sanitizer_catches_torn_write() {
    let cfg = sanitize_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let kernel = wal_kernel(PM_BASE, PM_BASE + 64 * 1024);
    let mut gpu = Gpu::new(&cfg);
    gpu.set_fault_plan(FaultPlan::default().with_nvm(NvmFault::TornWrite {
        entry: 1,
        chunks: 1,
    }));
    gpu.launch(&kernel, LaunchConfig::new(2, 64));
    assert!(
        matches!(gpu.run(LIMIT), Err(SimError::PmoViolation { .. })),
        "a torn first commit must violate the crash cut"
    );
}

#[test]
fn sanitizer_catches_scope_bug_online() {
    // Block-scoped release/acquire across threadblocks: the value flows
    // (the consumer wakes up) but no PMO edge is created — the §5.3
    // scoped persistency bug, caught at run time.
    let cfg = sanitize_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let kernel = message_pass_kernel(Scope::Block, 0x70_000);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, 32));
    match gpu.run(LIMIT) {
        Err(SimError::PmoViolation { violation, .. }) => {
            assert!(violation.message.contains("scope"), "{violation}");
        }
        other => panic!("expected a scope-bug violation, got {other:?}"),
    }
}

#[test]
fn device_scope_message_pass_sanitizes_clean() {
    let cfg = sanitize_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let kernel = message_pass_kernel(Scope::Device, 0x78_000);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, 32));
    let report = gpu.run(LIMIT).expect("device scope is sufficient");
    assert_eq!(report.outcome, RunOutcome::Completed);
}

#[test]
fn sanitizer_checks_partial_trace_on_timeout() {
    // Regression: `Gpu::run` used to verify the trace only
    // on the completion path, so a cycle budget that expired mid-run
    // reported `Timeout` even when the events already captured proved a
    // PMO violation. The violation must outrank the timeout.
    let cfg = sanitize_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let kernel = wal_kernel(PM_BASE, PM_BASE + 64 * 1024);

    // Learn the clean runtime so the budget reliably times out.
    let mut clean = Gpu::new(&cfg);
    clean.launch(&kernel, LaunchConfig::new(2, 64));
    let total = clean.run(LIMIT).expect("clean run completes").cycles;

    let mut gpu = Gpu::new(&cfg);
    gpu.set_fault_plan(FaultPlan::default().with_nvm(NvmFault::DropWpqEntry(1)));
    gpu.launch(&kernel, LaunchConfig::new(2, 64));
    match gpu.run(total * 3 / 4) {
        Err(SimError::PmoViolation { violation, .. }) => {
            assert!(violation.before < violation.after);
        }
        other => panic!("expected the timeout path to surface the PMO violation, got {other:?}"),
    }

    // A *clean* run that times out still reports the timeout.
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, 64));
    match gpu.run(total / 2) {
        Err(SimError::Timeout { .. }) => {}
        other => panic!("expected Timeout for a clean partial run, got {other:?}"),
    }
}
