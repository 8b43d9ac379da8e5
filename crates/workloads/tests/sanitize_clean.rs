//! Acceptance: every stock workload runs clean under the online
//! persistency sanitizer — zero PMO violations across
//! {SBRP, Epoch} × {PM-far, PM-near} — and the negative control (an
//! injected ADR violation during real workload runs) is caught,
//! proving the detector is not vacuous at workload scale.

use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign};
use sbrp_gpu_sim::fault::{FaultPlan, NvmFault};
use sbrp_gpu_sim::{Gpu, RunOutcome, SimError};
use sbrp_workloads::{BuildOpts, Micro, WorkloadKind};

const CYCLE_LIMIT: u64 = 200_000_000;

fn sanitize_cfg(model: ModelKind, system: SystemDesign) -> GpuConfig {
    let mut cfg = GpuConfig::small(model, system);
    cfg.sanitize = true;
    cfg
}

fn run_sanitized(kind: WorkloadKind, opts: BuildOpts, system: SystemDesign) -> Result<(), String> {
    let cfg = sanitize_cfg(opts.model, system);
    let w = kind.instantiate(256, 42);
    let l = w.kernel(opts);
    let mut gpu = Gpu::new(&cfg);
    w.init(&mut gpu);
    gpu.launch(&l.kernel, l.launch);
    let report = gpu.run(CYCLE_LIMIT).map_err(|e| e.to_string())?;
    assert_eq!(report.outcome, RunOutcome::Completed);
    w.verify_complete(&gpu)
}

#[test]
fn applications_sanitize_clean_across_models_and_designs() {
    for kind in WorkloadKind::ALL {
        for model in [ModelKind::Sbrp, ModelKind::Epoch] {
            for system in [SystemDesign::PmFar, SystemDesign::PmNear] {
                run_sanitized(kind, BuildOpts::for_model(model), system)
                    .unwrap_or_else(|e| panic!("{kind} {model:?}/{system}: {e}"));
            }
        }
    }
}

#[test]
fn microbenchmarks_sanitize_clean_across_models_and_designs() {
    for micro in Micro::ALL {
        for model in [ModelKind::Sbrp, ModelKind::Epoch] {
            for system in [SystemDesign::PmFar, SystemDesign::PmNear] {
                let cfg = sanitize_cfg(model, system);
                let l = micro.kernel(BuildOpts::for_model(model), 8);
                let mut gpu = Gpu::new(&cfg);
                gpu.launch(&l.kernel, l.launch);
                gpu.run(CYCLE_LIMIT)
                    .unwrap_or_else(|e| panic!("{} {model:?}/{system}: {e}", micro.label()));
            }
        }
    }
}

#[test]
fn injected_adr_violations_are_caught_at_workload_scale() {
    // Negative control: drop the first WPQ accept of each workload run.
    // The machine still acks the write, so everything fenced after it
    // becomes durable while the dropped persist does not — the run-end
    // crash cut is not downward-closed, and the sanitizer must say so.
    // Kernels here are the *stock correct* ones; the bug is in the
    // machine, which is exactly what the static linter cannot see.
    let mut caught = 0usize;
    let mut silent = Vec::new();
    for kind in WorkloadKind::ALL {
        let cfg = sanitize_cfg(ModelKind::Sbrp, SystemDesign::PmNear);
        let w = kind.instantiate(256, 42);
        let l = w.kernel(BuildOpts::for_model(ModelKind::Sbrp));
        let mut gpu = Gpu::new(&cfg);
        gpu.set_fault_plan(FaultPlan::default().with_nvm(NvmFault::DropWpqEntry(1)));
        w.init(&mut gpu);
        gpu.launch(&l.kernel, l.launch);
        match gpu.run(CYCLE_LIMIT) {
            Err(SimError::PmoViolation { violation, .. }) => {
                assert!(violation.before < violation.after, "{violation}");
                caught += 1;
            }
            Ok(_) => silent.push(kind),
            Err(e) => panic!("{kind} faulted: unexpected error {e}"),
        }
    }
    assert!(
        caught > 0,
        "no workload tripped the sanitizer under an injected ADR fault \
         (silent: {silent:?}) — the online detector is vacuous"
    );
}
