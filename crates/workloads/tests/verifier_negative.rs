//! Negative tests: the crash-consistency verifiers must reject corrupted
//! durable images. (A verifier that accepts everything would make the
//! crash sweeps in `end_to_end.rs` vacuous.)

use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign};
use sbrp_gpu_sim::mem::Backing;
use sbrp_gpu_sim::Gpu;
use sbrp_workloads::{BuildOpts, Workload, WorkloadKind};

/// Runs a workload partway and returns a consistent durable image.
fn consistent_image(kind: WorkloadKind, scale: u64, crash_at: u64) -> (Box<dyn Workload>, Backing) {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let w = kind.instantiate(scale, 42);
    let l = w.kernel(BuildOpts::for_model(ModelKind::Sbrp));
    let mut gpu = Gpu::new(&cfg);
    w.init(&mut gpu);
    gpu.launch(&l.kernel, l.launch);
    let _ = gpu.run_until(crash_at).expect("no deadlock");
    let img = gpu.durable_image();
    w.verify_crash_consistent(&img)
        .expect("baseline image is consistent");
    (w, img)
}

/// Flips bytes across a region until the verifier complains.
fn corrupt_until_caught(
    w: &dyn Workload,
    img: &Backing,
    region: std::ops::Range<u64>,
    stride: u64,
) -> bool {
    let mut addr = region.start;
    while addr < region.end {
        let mut copy = img.clone();
        let v = copy.read_u64(addr);
        copy.write_u64(addr, v ^ 0xdead_beef_0000_0001);
        if w.verify_crash_consistent(&copy).is_err() {
            return true;
        }
        addr += stride;
    }
    false
}

// The NVM layout starts at the same base for every workload (the
// deterministic Layout); scanning a generous window hits each one's
// persistent regions.
const NVM_START: u64 = sbrp_gpu_sim::config::PM_BASE + 0x1_0000;

#[test]
fn gpkvs_verifier_rejects_corruption() {
    let (w, img) = consistent_image(WorkloadKind::Gpkvs, 512, 20_000);
    assert!(
        corrupt_until_caught(&*w, &img, NVM_START..NVM_START + 64 * 1024, 64),
        "no corruption detected anywhere in the KVS region"
    );
}

#[test]
fn hashmap_verifier_rejects_corruption() {
    let (w, img) = consistent_image(WorkloadKind::Hashmap, 512, 20_000);
    assert!(corrupt_until_caught(
        &*w,
        &img,
        NVM_START..NVM_START + 64 * 1024,
        64
    ));
}

#[test]
fn srad_verifier_rejects_corruption() {
    let (w, img) = consistent_image(WorkloadKind::Srad, 512, 20_000);
    assert!(corrupt_until_caught(
        &*w,
        &img,
        NVM_START..NVM_START + 64 * 1024,
        64
    ));
}

#[test]
fn reduction_verifier_rejects_corruption() {
    let (w, img) = consistent_image(WorkloadKind::Reduction, 1024, 20_000);
    assert!(corrupt_until_caught(
        &*w,
        &img,
        NVM_START..NVM_START + 64 * 1024,
        64
    ));
}

#[test]
fn multiqueue_verifier_rejects_corruption() {
    let (w, img) = consistent_image(WorkloadKind::Multiqueue, 512, 20_000);
    assert!(corrupt_until_caught(
        &*w,
        &img,
        NVM_START..NVM_START + 64 * 1024,
        64
    ));
}

#[test]
fn scan_verifier_rejects_corruption() {
    let (w, img) = consistent_image(WorkloadKind::Scan, 512, 20_000);
    assert!(corrupt_until_caught(
        &*w,
        &img,
        NVM_START..NVM_START + 64 * 1024,
        64
    ));
}

/// Runs gpKVS on a machine with a seeded NVM fault, crashing shortly
/// after the faulted WPQ accept, and reports whether the formal trace
/// check or the workload's crash-consistency verifier objected.
fn seeded_fault_caught(nvm: sbrp_gpu_sim::fault::NvmFault) -> bool {
    use sbrp_gpu_sim::fault::FaultPlan;
    let mut cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    cfg.trace = true;
    let w = WorkloadKind::Gpkvs.instantiate(256, 42);
    let l = w.kernel(BuildOpts::for_model(ModelKind::Sbrp));
    let mut gpu = Gpu::new(&cfg);
    w.init(&mut gpu);
    // Run to completion: every persist ordered after the faulted entry
    // becomes genuinely durable, exposing the hole to both checkers.
    gpu.set_fault_plan(FaultPlan::default().with_nvm(nvm));
    gpu.launch(&l.kernel, l.launch);
    let _ = gpu.run(50_000_000).expect("no deadlock");
    let formal_bad = gpu.take_trace().expect("traced").check().is_err();
    let semantic_bad = w.verify_crash_consistent(&gpu.durable_image()).is_err();
    formal_bad || semantic_bad
}

#[test]
fn injected_wpq_drop_is_caught() {
    // A real fault-injected machine (not a synthetic byte flip): an
    // ADR-violating dropped WPQ entry must be flagged — by the formal
    // checker or the workload verifier — for at least one entry index.
    use sbrp_gpu_sim::fault::NvmFault;
    assert!(
        (1..=10u64).any(|k| seeded_fault_caught(NvmFault::DropWpqEntry(k))),
        "no dropped WPQ entry was detected"
    );
}

#[test]
fn injected_torn_write_is_caught() {
    use sbrp_gpu_sim::fault::NvmFault;
    assert!(
        (1..=10u64).any(|k| seeded_fault_caught(NvmFault::TornWrite {
            entry: k,
            chunks: 1
        })),
        "no torn write was detected"
    );
}

#[test]
fn complete_verifiers_reject_wrong_results() {
    // verify_complete must fail on an unrun GPU (initial state).
    for kind in WorkloadKind::ALL {
        let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
        let w = kind.instantiate(512, 42);
        let mut gpu = Gpu::new(&cfg);
        w.init(&mut gpu);
        assert!(
            w.verify_complete(&gpu).is_err(),
            "{kind}: initial state must not verify as complete"
        );
    }
}
