//! gpKVS write-ahead undo logging under crash (Fig. 4): insert a batch,
//! kill the power, inspect the log states, replay the log, finish.
//!
//! Run with: `cargo run --release --example kvs_crash_demo`

use sbrp::core::ModelKind;
use sbrp::sim::config::{GpuConfig, SystemDesign};
use sbrp::sim::{crash, Gpu};
use sbrp::workloads::{BuildOpts, WorkloadKind};

fn main() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let w = WorkloadKind::Gpkvs.instantiate(2048, 3);
    let opts = BuildOpts::for_model(ModelKind::Sbrp);

    let l = w.kernel(opts);
    let mut gpu = Gpu::new(&cfg);
    w.init(&mut gpu);
    gpu.launch(&l.kernel, l.launch);
    let full = gpu.run(1_000_000_000).expect("completes").cycles;
    println!("crash-free batch insert: {full} cycles");

    // Crash in the thick of it.
    let l = w.kernel(opts);
    let mut gpu = Gpu::new(&cfg);
    w.init(&mut gpu);
    gpu.launch(&l.kernel, l.launch);
    let _ = gpu.run_until(full / 2).expect("no deadlock");
    let image = gpu.durable_image();
    w.verify_crash_consistent(&image)
        .expect("every slot is old, new, or undo-able — never garbage");
    println!("crashed at cycle {}; durable KVS is recoverable", full / 2);

    // Recovery kernel: replay the undo log (dFence before clearing it).
    let rec = w.recovery(opts).expect("gpKVS recovers via logging");
    let mut rgpu = crash::recover(
        &cfg,
        &image,
        |g| w.init_volatile(g),
        &[(&rec.kernel, rec.launch)],
        1_000_000_000,
    )
    .expect("completes");
    println!("log replay took {} cycles", rgpu.cycle());

    // Re-run the batch (idempotent): committed inserts are skipped.
    let l = w.kernel(opts);
    rgpu.launch(&l.kernel, l.launch);
    rgpu.run(1_000_000_000).expect("completes");
    w.verify_complete(&rgpu)
        .expect("all pairs inserted exactly once");
    println!("batch completed after recovery ✓");
}
