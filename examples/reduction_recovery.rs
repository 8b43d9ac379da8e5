//! Crash a persistent reduction mid-run and resume it: the paper's
//! running example (Fig. 2/3) with native recovery.
//!
//! Run with: `cargo run --release --example reduction_recovery`

use sbrp::core::ModelKind;
use sbrp::sim::config::{GpuConfig, SystemDesign};
use sbrp::sim::{crash, Gpu, RunOutcome};
use sbrp::workloads::{BuildOpts, WorkloadKind};

fn main() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let w = WorkloadKind::Reduction.instantiate(8192, 7);
    let opts = BuildOpts::for_model(ModelKind::Sbrp);

    // Crash-free baseline.
    let l = w.kernel(opts);
    let mut gpu = Gpu::new(&cfg);
    w.init(&mut gpu);
    gpu.launch(&l.kernel, l.launch);
    let full = gpu.run(1_000_000_000).expect("completes").cycles;
    w.verify_complete(&gpu).expect("correct sum");
    println!("crash-free reduction: {full} cycles");

    // Crash at ~40% of the run.
    let crash_at = full * 2 / 5;
    let l = w.kernel(opts);
    let mut gpu = Gpu::new(&cfg);
    w.init(&mut gpu);
    gpu.launch(&l.kernel, l.launch);
    let r = gpu.run_until(crash_at).expect("no deadlock");
    assert_eq!(r.outcome, RunOutcome::Crashed);
    let image = gpu.durable_image();
    w.verify_crash_consistent(&image)
        .expect("recoverable image");
    println!("crashed at cycle {crash_at}; durable image is consistent");

    // Native recovery: boot from the image, reload volatile inputs,
    // re-run the same kernel — it resumes from the persisted partials.
    let l = w.kernel(opts);
    let rgpu = crash::recover(
        &cfg,
        &image,
        |g| w.init_volatile(g),
        &[(&l.kernel, l.launch)],
        1_000_000_000,
    )
    .expect("completes");
    let resumed = rgpu.cycle();
    w.verify_complete(&rgpu)
        .expect("recovered to the correct sum");
    println!("resumed run finished in {resumed} cycles and verified ✓");
}
