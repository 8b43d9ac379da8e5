//! End-to-end workload tests: every application runs to completion and
//! verifies under every model × system design, and recovers correctly
//! from crashes at many points.

use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign};
use sbrp_gpu_sim::{crash, Gpu, RunOutcome};
use sbrp_workloads::{BuildOpts, WorkloadKind};

const LIMIT: u64 = 300_000_000;

fn configs() -> Vec<GpuConfig> {
    let mut v = Vec::new();
    for model in ModelKind::ALL {
        for system in [SystemDesign::PmFar, SystemDesign::PmNear] {
            if model == ModelKind::Gpm && system == SystemDesign::PmNear {
                continue;
            }
            v.push(GpuConfig::small(model, system));
        }
    }
    v
}

/// Runs a workload to completion and verifies the result.
fn run_complete(kind: WorkloadKind, scale: u64) {
    for cfg in configs() {
        let w = kind.instantiate(scale, 42);
        let l = w.kernel(BuildOpts::for_model(cfg.model));
        let mut gpu = Gpu::new(&cfg);
        w.init(&mut gpu);
        gpu.launch(&l.kernel, l.launch);
        let report = gpu
            .run(LIMIT)
            .unwrap_or_else(|e| panic!("{kind} {:?}/{}: {e}", cfg.model, cfg.system));
        assert_eq!(report.outcome, RunOutcome::Completed);
        w.verify_complete(&gpu)
            .unwrap_or_else(|e| panic!("{kind} {:?}/{}: {e}", cfg.model, cfg.system));
    }
}

/// Crashes a workload at several points, checks the durable image is
/// consistent, runs recovery, and verifies the final state.
fn run_crash_recover(kind: WorkloadKind, scale: u64, crash_points: &[u64]) {
    for model in ModelKind::ALL {
        let cfg = GpuConfig::small(model, SystemDesign::PmNear);
        for &crash_at in crash_points {
            let w = kind.instantiate(scale, 42);
            let opts = BuildOpts::for_model(model);
            let l = w.kernel(opts);
            let mut gpu = Gpu::new(&cfg);
            w.init(&mut gpu);
            gpu.launch(&l.kernel, l.launch);
            let report = gpu
                .run_until(crash_at)
                .unwrap_or_else(|e| panic!("{kind} {model:?} crash@{crash_at}: {e}"));
            let image = gpu.durable_image();
            w.verify_crash_consistent(&image)
                .unwrap_or_else(|e| panic!("{kind} {model:?} crash@{crash_at}: {e}"));
            if report.outcome == RunOutcome::Completed {
                continue; // finished before the crash point
            }

            // Boot a recovery GPU from the durable image: the recovery
            // kernel where the workload has one, then the main kernel
            // again (native workloads, and logging ones post-log-replay,
            // re-run it to finish the job).
            let recovery = w.recovery(opts);
            let mut kernels: Vec<_> = recovery.iter().map(|r| (&r.kernel, r.launch)).collect();
            kernels.push((&l.kernel, l.launch));
            let rgpu = crash::recover(&cfg, &image, |g| w.init_volatile(g), &kernels, LIMIT)
                .unwrap_or_else(|e| panic!("{kind} {model:?} recovery@{crash_at}: {e}"));
            w.verify_complete(&rgpu)
                .unwrap_or_else(|e| panic!("{kind} {model:?} post-recovery@{crash_at}: {e}"));
        }
    }
}

const CRASH_POINTS: [u64; 5] = [500, 2_000, 8_000, 30_000, 120_000];

#[test]
fn reduction_completes_everywhere() {
    run_complete(WorkloadKind::Reduction, 1024);
}

#[test]
fn reduction_recovers_from_crashes() {
    run_crash_recover(WorkloadKind::Reduction, 1024, &CRASH_POINTS);
}

#[test]
fn reduction_demoted_scopes_still_correct() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let w = WorkloadKind::Reduction.instantiate(1024, 42);
    let l = w.kernel(BuildOpts {
        model: ModelKind::Sbrp,
        demote_scopes: true,
    });
    let mut gpu = Gpu::new(&cfg);
    w.init(&mut gpu);
    gpu.launch(&l.kernel, l.launch);
    gpu.run(LIMIT).expect("completes");
    w.verify_complete(&gpu)
        .expect("demotion widens scopes: still correct");
}

#[test]
fn gpkvs_completes_everywhere() {
    run_complete(WorkloadKind::Gpkvs, 512);
}

#[test]
fn gpkvs_recovers_from_crashes() {
    run_crash_recover(WorkloadKind::Gpkvs, 512, &CRASH_POINTS);
}

#[test]
fn hashmap_completes_everywhere() {
    run_complete(WorkloadKind::Hashmap, 512);
}

#[test]
fn hashmap_recovers_from_crashes() {
    run_crash_recover(WorkloadKind::Hashmap, 512, &CRASH_POINTS);
}

#[test]
fn srad_completes_everywhere() {
    run_complete(WorkloadKind::Srad, 512);
}

#[test]
fn srad_recovers_from_crashes() {
    run_crash_recover(WorkloadKind::Srad, 512, &CRASH_POINTS);
}

#[test]
fn multiqueue_completes_everywhere() {
    run_complete(WorkloadKind::Multiqueue, 512);
}

#[test]
fn multiqueue_recovers_from_crashes() {
    run_crash_recover(WorkloadKind::Multiqueue, 512, &CRASH_POINTS);
}

#[test]
fn scan_completes_everywhere() {
    run_complete(WorkloadKind::Scan, 512);
}

#[test]
fn scan_recovers_from_crashes() {
    run_crash_recover(WorkloadKind::Scan, 512, &CRASH_POINTS);
}
