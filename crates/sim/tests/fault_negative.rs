//! Fault-injection tests, in two groups.
//!
//! *Positive*: event-triggered crash points (k-th WPQ accept / PB drain
//! / dFence wait) stop the machine at exactly the named event, and the
//! resulting crash states are clean — the durable image respects the
//! fence chain and the formal trace check passes.
//!
//! *Negative*: injected machine bugs (an ADR-violating WPQ drop, a torn
//! NVM write) MUST be detected — by the formal crash-cut checker and by
//! the semantic WAL invariant. A checker that stays green under these
//! faults is broken; these tests pin that down. Likewise a recovery
//! whose own run crashes must be reported as failed.

use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::crash::{self, RecoverError};
use sbrp_gpu_sim::fault::{CrashTrigger, FaultPlan, NvmFault, PcieFaultConfig};
use sbrp_gpu_sim::{Gpu, RunOutcome};
use sbrp_isa::{Kernel, KernelBuilder, LaunchConfig, MemWidth, Special};

const LOG: u64 = PM_BASE;
const DATA: u64 = PM_BASE + (1 << 20);
const COMMIT: u64 = PM_BASE + (2 << 20);
const THREADS: u64 = 128;
const MAX_CYCLES: u64 = 50_000_000;

/// log[t] = v; oFence; data[t] = v; oFence; commit[t] = 1
fn wal3_kernel() -> Kernel {
    let mut b = KernelBuilder::new();
    b.set_params(vec![LOG, DATA, COMMIT]);
    let log_r = b.param(0);
    let data_r = b.param(1);
    let commit_r = b.param(2);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let la = b.add(log_r, off);
    let da = b.add(data_r, off);
    let ca = b.add(commit_r, off);
    let v = b.addi(tid, 1_000);
    b.st(la, 0, v, MemWidth::W8);
    b.ofence();
    b.st(da, 0, v, MemWidth::W8);
    b.ofence();
    let one = b.movi(1);
    b.st(ca, 0, one, MemWidth::W8);
    b.build("wal3")
}

fn traced_cfg(model: ModelKind, system: SystemDesign) -> GpuConfig {
    let mut cfg = GpuConfig::small(model, system);
    cfg.trace = true;
    cfg
}

/// Runs the WAL kernel under `plan`; returns the GPU and the outcome.
fn run_planned(cfg: &GpuConfig, plan: FaultPlan) -> (Gpu, RunOutcome) {
    let mut gpu = Gpu::new(cfg);
    gpu.set_fault_plan(plan);
    gpu.launch(&wal3_kernel(), LaunchConfig::new(2, 64));
    let report = gpu.run(MAX_CYCLES).expect("no deadlock/timeout");
    (gpu, report.outcome)
}

/// The semantic WAL invariant over a durable image. Returns the first
/// violating thread, or `None` if the image is consistent.
fn wal_violation(gpu: &Gpu) -> Option<u64> {
    let image = gpu.durable_image();
    for t in 0..THREADS {
        let l = image.read_u64(LOG + t * 8);
        let d = image.read_u64(DATA + t * 8);
        let c = image.read_u64(COMMIT + t * 8);
        if c != 0 && d != t + 1_000 {
            return Some(t);
        }
        if d != 0 && l != d {
            return Some(t);
        }
    }
    None
}

// ---------------------------------------------------------------------
// Positive: event-triggered crash points are exact and clean.
// ---------------------------------------------------------------------

#[test]
fn wpq_accept_trigger_crashes_at_exact_event() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    for k in [1u64, 3, 8] {
        let (mut gpu, outcome) = run_planned(&cfg, FaultPlan::crash_at(CrashTrigger::WpqAccept(k)));
        assert_eq!(outcome, RunOutcome::Crashed, "k={k}");
        assert_eq!(
            gpu.fault_event_counts().wpq_accepts,
            k,
            "stops at the k-th accept"
        );
        assert_eq!(
            wal_violation(&gpu),
            None,
            "clean crashes are consistent (k={k})"
        );
        gpu.take_trace()
            .expect("traced")
            .check()
            .expect("formally consistent");
    }
}

#[test]
fn pb_drain_trigger_crashes_and_stays_consistent() {
    for model in ModelKind::ALL {
        let cfg = traced_cfg(model, SystemDesign::PmNear);
        let (mut gpu, outcome) = run_planned(&cfg, FaultPlan::crash_at(CrashTrigger::PbDrain(5)));
        assert_eq!(outcome, RunOutcome::Crashed, "{model:?}");
        assert!(gpu.fault_event_counts().pb_drains >= 5, "{model:?}");
        assert_eq!(wal_violation(&gpu), None, "{model:?}");
        gpu.take_trace()
            .expect("traced")
            .check()
            .unwrap_or_else(|v| panic!("{model:?}: {v}"));
    }
}

#[test]
fn dfence_wait_trigger_crashes_mid_wait() {
    // The WAL kernel's oFences become dFences/epoch barriers under the
    // stricter engines; every model produces durability waits.
    for model in ModelKind::ALL {
        let cfg = traced_cfg(model, SystemDesign::PmNear);

        // Learn how many waits a crash-free run has.
        let (gpu, outcome) = run_planned(&cfg, FaultPlan::default());
        assert_eq!(outcome, RunOutcome::Completed);
        let total = gpu.fault_event_counts().dfence_waits;
        if total == 0 {
            continue; // nothing ever blocked on durability in this config
        }

        let k = total.div_ceil(2);
        let (mut gpu, outcome) =
            run_planned(&cfg, FaultPlan::crash_at(CrashTrigger::DFenceWait(k)));
        assert_eq!(outcome, RunOutcome::Crashed, "{model:?} k={k}/{total}");
        assert_eq!(wal_violation(&gpu), None, "{model:?}");
        gpu.take_trace()
            .expect("traced")
            .check()
            .unwrap_or_else(|v| panic!("{model:?}: {v}"));
    }
}

#[test]
fn crash_free_plan_matches_plain_run() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let (gpu, outcome) = run_planned(&cfg, FaultPlan::default());
    assert_eq!(outcome, RunOutcome::Completed);
    assert_eq!(wal_violation(&gpu), None);
    let counts = gpu.fault_event_counts();
    assert!(
        counts.wpq_accepts > 0,
        "counters observe events even with no faults"
    );
    assert!(counts.pb_drains > 0);
}

// ---------------------------------------------------------------------
// Negative: seeded machine bugs must be detected.
// ---------------------------------------------------------------------

#[test]
fn dropped_wpq_entry_is_caught_by_formal_check() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    // Drop the very first accepted write and run to completion: every
    // later persist (ordered after it by the oFence chain) becomes
    // durable, so the crash-cut's downward-closure is provably broken.
    let plan = FaultPlan::default().with_nvm(NvmFault::DropWpqEntry(1));
    let (mut gpu, outcome) = run_planned(&cfg, plan);
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "the machine is lied to and proceeds"
    );
    let trace = gpu.take_trace().expect("traced");
    assert!(
        trace.check().is_err(),
        "formal checker must flag an ADR-violating dropped WPQ entry"
    );
}

#[test]
fn dropped_wpq_entry_is_caught_semantically() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    // Sweep a band of entries: whichever line the drop hits, at least
    // one dropped log/data line must break the WAL invariant once the
    // commits are durable (a dropped commit-line is the only benign
    // case, and it cannot absorb the whole band).
    let caught = (1..=12u64).any(|k| {
        let plan = FaultPlan::default().with_nvm(NvmFault::DropWpqEntry(k));
        let (gpu, outcome) = run_planned(&cfg, plan);
        assert_eq!(outcome, RunOutcome::Completed);
        wal_violation(&gpu).is_some()
    });
    assert!(
        caught,
        "no dropped entry produced a semantically broken durable image"
    );
}

#[test]
fn torn_write_is_caught() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let mut formal = 0u32;
    let mut semantic = 0u32;
    for k in 1..=12u64 {
        let plan = FaultPlan::default().with_nvm(NvmFault::TornWrite {
            entry: k,
            chunks: 1,
        });
        let (mut gpu, outcome) = run_planned(&cfg, plan);
        assert_eq!(outcome, RunOutcome::Completed);
        if gpu.take_trace().expect("traced").check().is_err() {
            formal += 1;
        }
        if wal_violation(&gpu).is_some() {
            semantic += 1;
        }
    }
    assert!(formal > 0, "formal checker never flagged a torn write");
    assert!(semantic > 0, "WAL invariant never caught a torn write");
}

#[test]
fn torn_write_with_full_budget_is_benign() {
    // A "torn" write allowed enough chunks for the whole line is just a
    // commit: nothing should be flagged.
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let plan = FaultPlan::default().with_nvm(NvmFault::TornWrite {
        entry: 3,
        chunks: 1_000,
    });
    let (gpu, outcome) = run_planned(&cfg, plan);
    assert_eq!(outcome, RunOutcome::Completed);
    assert_eq!(wal_violation(&gpu), None);
    // The ack is still conservatively unmarked in the trace (the fault
    // path cannot prove the commit was complete), so skip the formal
    // check here; the semantic image check is the oracle.
}

// ---------------------------------------------------------------------
// Transient PCIe link faults (PM-far).
// ---------------------------------------------------------------------

#[test]
fn pcie_transient_faults_retry_and_complete() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmFar);
    let (clean, outcome) = run_planned(&cfg, FaultPlan::default());
    assert_eq!(outcome, RunOutcome::Completed);

    let plan = FaultPlan::default().with_pcie(PcieFaultConfig {
        period: 4,
        burst: 2,
        max_retries: 8,
        backoff_base: 64,
    });
    let (faulty, outcome) = run_planned(&cfg, plan);
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "bounded retry rides through glitches"
    );
    assert!(!faulty.fault_link_dead());
    assert_eq!(wal_violation(&faulty), None);

    let s = faulty.stats();
    assert!(s.pcie_retries > 0, "retries were exercised");
    assert!(s.pcie_backoff_cycles > 0, "backoff was charged");
    assert!(
        s.cycles > clean.stats().cycles,
        "retries + backoff cost cycles ({} vs {})",
        s.cycles,
        clean.stats().cycles
    );
}

#[test]
fn pcie_retry_budget_exhaustion_kills_the_link() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmFar);
    let plan = FaultPlan::default().with_pcie(PcieFaultConfig {
        period: 3,
        burst: 5,
        max_retries: 2, // burst outlives the budget → link death
        backoff_base: 16,
    });
    let (mut gpu, outcome) = run_planned(&cfg, plan);
    assert_eq!(
        outcome,
        RunOutcome::Crashed,
        "a dead link is a power-cut-equivalent"
    );
    assert!(gpu.fault_link_dead());
    // Even this crash is clean: durability was never misreported.
    assert_eq!(wal_violation(&gpu), None);
    gpu.take_trace()
        .expect("traced")
        .check()
        .expect("link death is a clean crash");
}

#[test]
fn pcie_faults_are_inert_on_pm_near() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let plan = FaultPlan::default().with_pcie(PcieFaultConfig {
        period: 1,
        burst: 9,
        max_retries: 2,
        backoff_base: 16,
    });
    let (gpu, outcome) = run_planned(&cfg, plan);
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "PM-near never touches the PCIe link"
    );
    assert_eq!(gpu.stats().pcie_retries, 0);
}

// ---------------------------------------------------------------------
// Recovery: a recovery run that does not complete is a failure.
// ---------------------------------------------------------------------

#[test]
fn incomplete_recovery_is_an_error() {
    let cfg = traced_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
    let (gpu, outcome) = run_planned(&cfg, FaultPlan::crash_at(CrashTrigger::WpqAccept(2)));
    assert_eq!(outcome, RunOutcome::Crashed);
    // Recovery re-runs the WAL kernel, and power fails again at its
    // first WPQ accept.
    let kernel = wal3_kernel();
    let got = crash::recover(
        &cfg,
        &gpu.durable_image(),
        |g| g.set_fault_plan(FaultPlan::crash_at(CrashTrigger::WpqAccept(1))),
        &[(&kernel, LaunchConfig::new(2, 64))],
        MAX_CYCLES,
    );
    match got {
        Err(RecoverError::Incomplete {
            outcome: RunOutcome::Crashed,
            cycles,
        }) => assert!(cycles > 0),
        other => panic!("a recovery that crashed again must fail, got {other:?}"),
    }
}
