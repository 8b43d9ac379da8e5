//! GPU-level integration tests: whole kernels through the timing
//! simulator, under every persistency model and system design.

use sbrp_core::scope::Scope;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::{Gpu, RunOutcome};
use sbrp_isa::{KernelBuilder, LaunchConfig, MemWidth, Special};

const LIMIT: u64 = 50_000_000;

/// Kernel: pArr[gtid] = gtid + 1 (a pure persist storm).
fn persist_fill_kernel(base: u64) -> sbrp_isa::Kernel {
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

fn all_configs() -> Vec<GpuConfig> {
    let mut v = Vec::new();
    for model in ModelKind::ALL {
        for system in [SystemDesign::PmFar, SystemDesign::PmNear] {
            if model == ModelKind::Gpm && system == SystemDesign::PmNear {
                continue; // GPM only exists on PM-far (§7).
            }
            v.push(GpuConfig::small(model, system));
        }
    }
    v
}

#[test]
fn persist_fill_completes_and_is_durable_under_every_model() {
    for cfg in all_configs() {
        let kernel = persist_fill_kernel(PM_BASE);
        let mut gpu = Gpu::new(&cfg);
        gpu.launch(&kernel, LaunchConfig::new(4, 128));
        let report = gpu
            .run(LIMIT)
            .unwrap_or_else(|e| panic!("{:?}/{}: {e}", cfg.model, cfg.system));
        assert_eq!(report.outcome, RunOutcome::Completed);
        for t in 0..4 * 128u64 {
            assert_eq!(gpu.read_nvm_u64(PM_BASE + t * 8), t + 1, "functional");
            assert_eq!(
                gpu.read_durable_u64(PM_BASE + t * 8),
                t + 1,
                "{:?}/{}: everything durable after the final drain",
                cfg.model,
                cfg.system
            );
        }
    }
}

#[test]
fn wal_trace_respects_pmo_in_complete_runs() {
    for model in ModelKind::ALL {
        let mut cfg = GpuConfig::small(model, SystemDesign::PmNear);
        cfg.trace = true;
        let kernel = wal_kernel(PM_BASE, PM_BASE + 64 * 1024);
        let mut gpu = Gpu::new(&cfg);
        gpu.launch(&kernel, LaunchConfig::new(2, 64));
        gpu.run(LIMIT).expect("completes");
        let trace = gpu.take_trace().expect("tracing enabled");
        assert!(trace.persist_count() > 0);
        trace
            .check()
            .unwrap_or_else(|v| panic!("{model:?}: PMO violated: {v}"));
    }
}

#[test]
fn wal_crash_states_are_pmo_consistent_at_many_points() {
    // Crash the WAL kernel at a sweep of cycles; every durable image must
    // be downward-closed under PMO (the log entry persists first).
    for model in ModelKind::ALL {
        let mut cfg = GpuConfig::small(model, SystemDesign::PmNear);
        cfg.trace = true;
        for crash_at in [200, 500, 1000, 2000, 4000, 8000] {
            let kernel = wal_kernel(PM_BASE, PM_BASE + 64 * 1024);
            let mut gpu = Gpu::new(&cfg);
            gpu.launch(&kernel, LaunchConfig::new(2, 64));
            let _ = gpu.run_until(crash_at).expect("no deadlock");
            let trace = gpu.take_trace().expect("tracing enabled");
            trace
                .check()
                .unwrap_or_else(|v| panic!("{model:?} crash@{crash_at}: {v}"));
        }
    }
}

#[test]
fn wal_crash_never_shows_data_without_log() {
    // Semantic version of the crash-cut check, on the durable image
    // itself: data[t] != 0 implies log[t] == data[t].
    let log = PM_BASE;
    let data = PM_BASE + 64 * 1024;
    for model in ModelKind::ALL {
        let cfg = GpuConfig::small(model, SystemDesign::PmNear);
        for crash_at in [100, 300, 700, 1500, 3000, 6000, 12000] {
            let kernel = wal_kernel(log, data);
            let mut gpu = Gpu::new(&cfg);
            gpu.launch(&kernel, LaunchConfig::new(2, 64));
            let _ = gpu.run_until(crash_at).expect("no deadlock");
            let image = gpu.durable_image();
            for t in 0..128u64 {
                let d = image.read_u64(data + t * 8);
                let l = image.read_u64(log + t * 8);
                if d != 0 {
                    assert_eq!(
                        l, d,
                        "{model:?} crash@{crash_at}: data persisted before its log entry"
                    );
                }
            }
        }
    }
}

#[test]
fn block_scope_message_passing_orders_persists() {
    // Warp 0 persists then pRel_block; warp 1 spins on pAcq_block, then
    // persists. Checked via the trace.
    let flag = 0x10_000u64; // volatile flag
    let mut b = KernelBuilder::new();
    b.set_params(vec![PM_BASE, flag]);
    let arr = b.param(0);
    let flag_r = b.param(1);
    let tid = b.special(Special::Tid);
    let warp = b.special(Special::WarpId);
    let is_w0 = b.eqi(warp, 0);
    let is_t0 = b.eqi(tid, 0);
    let off = b.muli(tid, 8);
    let addr = b.add(arr, off);
    b.if_then_else(
        is_w0,
        |b| {
            b.st(addr, 0, tid, MemWidth::W8);
            // A single releasing thread keeps the formal model's
            // per-thread reads-from relation deterministic.
            b.if_then(is_t0, |b| {
                let one = b.movi(1);
                b.prel(flag_r, one, Scope::Block);
            });
        },
        |b| {
            b.while_loop(
                |b| {
                    let v = b.pacq(flag_r, Scope::Block);
                    b.eqi(v, 0)
                },
                |_| {},
            );
            b.st(addr, 4096, tid, MemWidth::W8);
        },
    );
    let kernel = b.build("mp_block");

    let mut cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    cfg.trace = true;
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(1, 64));
    gpu.run(LIMIT).expect("completes");
    let trace = gpu.take_trace().expect("trace");
    let graph = trace.into_graph();
    // Find a persist from warp 0 (addr < PM_BASE+4096) and one from
    // warp 1 (addr >= PM_BASE+4096): PMO must hold between them.
    let mut w0 = None;
    let mut w1 = None;
    for p in graph.persists() {
        if let sbrp_core::formal::EventKind::Persist { addr } = graph.event(p).kind {
            if addr == PM_BASE {
                // The releasing thread's own persist (tid 0).
                w0.get_or_insert(p);
            } else if addr >= PM_BASE + 4096 {
                w1.get_or_insert(p);
            }
        }
    }
    let (w0, w1) = (
        w0.expect("releaser persisted"),
        w1.expect("acquirer persisted"),
    );
    assert!(
        graph.pmo_holds(w0, w1),
        "release/acquire created inter-thread PMO"
    );
    assert!(!graph.pmo_holds(w1, w0));
}

#[test]
fn device_scope_release_is_visible_across_sms() {
    // Block 0 releases a flag at device scope; block 1 spins with a
    // device-scope acquire. Blocks land on different SMs.
    let flag = 0x20_000u64;
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
            b.st(addr, 0, tid, MemWidth::W8);
            b.if_then(first, |b| {
                let one = b.movi(1);
                b.prel(flag_r, one, Scope::Device);
            });
        },
        |b| {
            b.if_then(first, |b| {
                b.while_loop(
                    |b| {
                        let v = b.pacq(flag_r, Scope::Device);
                        b.eqi(v, 0)
                    },
                    |_| {},
                );
            });
            b.sync_block();
            b.st(addr, 8192, tid, MemWidth::W8);
        },
    );
    let kernel = b.build("mp_device");

    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, 32));
    let report = gpu
        .run(LIMIT)
        .expect("completes — the release must become visible");
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(gpu.read_nvm_u64(PM_BASE + 8192 + 8), 1);
}

#[test]
fn epoch_barrier_makes_prior_persists_durable() {
    let mut b = KernelBuilder::new();
    b.set_params(vec![PM_BASE]);
    let arr = b.param(0);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let addr = b.add(arr, off);
    b.st(addr, 0, tid, MemWidth::W8);
    b.epoch_barrier();
    // Spin forever after the barrier so the run cannot complete; the
    // durability we observe at the crash is the barrier's doing.
    b.while_loop(|b| b.movi(1), |b| b.sleep(100));
    let kernel = b.build("barrier_then_spin");

    for model in [ModelKind::Epoch, ModelKind::Gpm] {
        let cfg = GpuConfig::small(model, SystemDesign::PmFar);
        let mut gpu = Gpu::new(&cfg);
        gpu.launch(&kernel, LaunchConfig::new(1, 32));
        let report = gpu.run_until(2_000_000).expect("no deadlock");
        assert_eq!(report.outcome, RunOutcome::Crashed, "spin keeps it alive");
        for t in 0..32u64 {
            assert_eq!(
                gpu.read_durable_u64(PM_BASE + t * 8),
                t,
                "{model:?}: persist before the barrier must be durable"
            );
        }
    }
}

#[test]
fn sbrp_buffers_do_not_make_persists_durable_without_fences() {
    // Same shape, but under SBRP with *no* fence: at a mid-run crash the
    // persists may be buffered (window drains some, but the L1 may still
    // hold the rest). We only assert the run itself stays consistent —
    // and that the *functional* state is complete while durable may lag.
    let mut b = KernelBuilder::new();
    b.set_params(vec![PM_BASE]);
    let arr = b.param(0);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let addr = b.add(arr, off);
    let v = b.addi(tid, 1);
    b.st(addr, 0, v, MemWidth::W8);
    b.while_loop(|b| b.movi(1), |b| b.sleep(100));
    let kernel = b.build("store_then_spin");

    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(1, 32));
    let _ = gpu.run_until(200_000).expect("no deadlock");
    let functional: Vec<u64> = (0..32).map(|t| gpu.read_nvm_u64(PM_BASE + t * 8)).collect();
    assert!(functional
        .iter()
        .enumerate()
        .all(|(t, &v)| v == t as u64 + 1));
}

#[test]
fn dfence_guarantees_durability_before_proceeding() {
    let mut b = KernelBuilder::new();
    b.set_params(vec![PM_BASE]);
    let arr = b.param(0);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let addr = b.add(arr, off);
    let v = b.addi(tid, 7);
    b.st(addr, 0, v, MemWidth::W8);
    b.dfence();
    b.while_loop(|b| b.movi(1), |b| b.sleep(100));
    let kernel = b.build("dfence_then_spin");

    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(1, 32));
    let _ = gpu.run_until(2_000_000).expect("no deadlock");
    for t in 0..32u64 {
        assert_eq!(
            gpu.read_durable_u64(PM_BASE + t * 8),
            t + 7,
            "dFence completed, so the persists are durable"
        );
    }
}

#[test]
fn atomics_serialize_and_return_old_values() {
    // Every thread of 2 blocks atomically increments one counter; the
    // result is the thread count and old values are unique — verified
    // by summing them: 0+1+...+(n-1).
    let ctr = 0x30_000u64;
    let out = 0x40_000u64;
    let mut b = KernelBuilder::new();
    b.set_params(vec![ctr, out]);
    let ctr_r = b.param(0);
    let out_r = b.param(1);
    let one = b.movi(1);
    let old = b.atom_add(ctr_r, one, MemWidth::W8);
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let addr = b.add(out_r, off);
    b.st(addr, 0, old, MemWidth::W8);
    let kernel = b.build("atomics");

    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, 64));
    gpu.run(LIMIT).expect("completes");
    let n = 2 * 64u64;
    assert_eq!(gpu.read_u64(ctr), n);
    let sum: u64 = (0..n).map(|t| gpu.read_u64(out + t * 8)).sum();
    assert_eq!(sum, n * (n - 1) / 2, "old values are a permutation of 0..n");
}

#[test]
fn sync_block_joins_all_warps() {
    // Each warp writes its slot, syncs, then warp 0 sums all slots.
    let scratch = 0x50_000u64;
    let out = 0x60_000u64;
    let mut b = KernelBuilder::new();
    b.set_params(vec![scratch, out]);
    let scratch_r = b.param(0);
    let out_r = b.param(1);
    let tid = b.special(Special::Tid);
    let off = b.muli(tid, 8);
    let addr = b.add(scratch_r, off);
    let v = b.addi(tid, 1);
    b.st(addr, 0, v, MemWidth::W8);
    b.sync_block();
    let is_t0 = b.eqi(tid, 0);
    b.if_then(is_t0, |b| {
        let sum = b.movi(0);
        let i = b.movi(0);
        let ntid = b.special(Special::Ntid);
        b.while_loop(
            |b| b.lt(i, ntid),
            |b| {
                let ioff = b.muli(i, 8);
                let iaddr = b.add(scratch_r, ioff);
                let x = b.ld(iaddr, 0, MemWidth::W8);
                b.bin_to(sbrp_isa::BinOp::Add, sum, x);
                let one = b.movi(1);
                b.bin_to(sbrp_isa::BinOp::Add, i, one);
            },
        );
        b.st(out_r, 0, sum, MemWidth::W8);
    });
    let kernel = b.build("sync");

    let cfg = GpuConfig::small(ModelKind::Epoch, SystemDesign::PmNear);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(1, 128));
    gpu.run(LIMIT).expect("completes");
    assert_eq!(gpu.read_u64(out), (1..=128u64).sum::<u64>());
}

#[test]
fn more_blocks_than_sms_get_dispatched_in_waves() {
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear); // 4 SMs
    let kernel = persist_fill_kernel(PM_BASE);
    let mut gpu = Gpu::new(&cfg);
    // 16 blocks of 1024 threads: one per SM at a time, 4 waves.
    gpu.launch(&kernel, LaunchConfig::new(16, 1024));
    gpu.run(LIMIT).expect("completes");
    for t in (0..16 * 1024u64).step_by(997) {
        assert_eq!(gpu.read_durable_u64(PM_BASE + t * 8), t + 1);
    }
}

#[test]
fn pm_far_is_slower_than_pm_near() {
    let kernel = persist_fill_kernel(PM_BASE);
    let run = |system| {
        let cfg = GpuConfig::small(ModelKind::Sbrp, system);
        let mut gpu = Gpu::new(&cfg);
        gpu.launch(&kernel, LaunchConfig::new(8, 256));
        gpu.run(LIMIT).expect("completes").cycles
    };
    let near = run(SystemDesign::PmNear);
    let far = run(SystemDesign::PmFar);
    assert!(far > near, "PCIe must cost time: far={far} vs near={near}");
}

#[test]
fn recovery_boot_sees_only_durable_state() {
    let kernel = wal_kernel(PM_BASE, PM_BASE + 64 * 1024);
    let cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, 64));
    let _ = gpu.run_until(800).expect("no deadlock");
    let image = gpu.durable_image();
    let gpu2 = Gpu::from_image(&cfg, &image);
    for t in 0..128u64 {
        assert_eq!(
            gpu2.read_nvm_u64(PM_BASE + t * 8),
            image.read_u64(PM_BASE + t * 8),
            "recovered GPU boots from the durable image"
        );
    }
}

#[test]
fn scope_bug_block_ops_across_blocks_create_no_pmo() {
    // The §5.3 scoped persistency bug, observed through the hardware
    // trace: a block-scoped release/acquire pair used *across*
    // threadblocks synchronizes execution (the value flows through the
    // memory system) but creates no inter-thread persist memory order —
    // the formal graph must show the persists unordered.
    let flag = 0x70_000u64;
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
                // BUG: block scope, but the consumer is in another block.
                b.prel(flag_r, one, Scope::Block);
            });
        },
        |b| {
            b.if_then(first, |b| {
                b.while_loop(
                    |b| {
                        let v = b.pacq(flag_r, Scope::Block);
                        b.eqi(v, 0)
                    },
                    |_| {},
                );
                b.st(addr, 16384, tid, MemWidth::W8);
            });
        },
    );
    let kernel = b.build("scope_bug");

    let mut cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    cfg.trace = true;
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, 32));
    gpu.run(LIMIT).expect("completes");
    let graph = gpu.take_trace().expect("trace").into_graph();
    let mut w1 = None;
    let mut w2 = None;
    for p in graph.persists() {
        if let sbrp_core::formal::EventKind::Persist { addr } = graph.event(p).kind {
            if addr == PM_BASE {
                w1 = Some(p);
            } else if addr == PM_BASE + 16384 {
                w2 = Some(p);
            }
        }
    }
    let (w1, w2) = (
        w1.expect("producer persisted"),
        w2.expect("consumer persisted"),
    );
    assert!(
        !graph.pmo_holds(w1, w2),
        "block scope across blocks must NOT create PMO — this is the §5.3 bug"
    );
    // …and the detector names it.
    assert!(
        !graph.scope_bugs().is_empty(),
        "the scoped-persistency-bug detector must flag the pattern"
    );
    assert_eq!(graph.scope_bugs()[0].effective, Scope::Block);
}

#[test]
fn correct_device_scope_closes_the_bug() {
    // Same shape with device scope: the PMO edge exists.
    let flag = 0x78_000u64;
    let mut b = KernelBuilder::new();
    b.set_params(vec![PM_BASE + (1 << 24), flag]);
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
                b.prel(flag_r, one, Scope::Device);
            });
        },
        |b| {
            b.if_then(first, |b| {
                b.while_loop(
                    |b| {
                        let v = b.pacq(flag_r, Scope::Device);
                        b.eqi(v, 0)
                    },
                    |_| {},
                );
                b.st(addr, 16384, tid, MemWidth::W8);
            });
        },
    );
    let kernel = b.build("scope_fixed");

    let mut cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    cfg.trace = true;
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(&kernel, LaunchConfig::new(2, 32));
    gpu.run(LIMIT).expect("completes");
    let graph = gpu.take_trace().expect("trace").into_graph();
    let base = PM_BASE + (1 << 24);
    let mut w1 = None;
    let mut w2 = None;
    for p in graph.persists() {
        if let sbrp_core::formal::EventKind::Persist { addr } = graph.event(p).kind {
            if addr == base {
                w1 = Some(p);
            } else if addr == base + 16384 {
                w2 = Some(p);
            }
        }
    }
    let (w1, w2) = (w1.expect("producer"), w2.expect("consumer"));
    assert!(graph.pmo_holds(w1, w2), "device scope orders across blocks");
    assert!(
        graph.scope_bugs().is_empty(),
        "correct scope: nothing to flag"
    );
}

/// An SM with more warp slots than a persist buffer's warp bitmask can
/// name is rejected when the GPU is built, not mid-run.
#[test]
#[should_panic(expected = "max_warps_per_sm")]
fn too_many_warp_slots_is_rejected_up_front() {
    let cfg = GpuConfig {
        max_warps_per_sm: 48,
        ..GpuConfig::small(ModelKind::Epoch, SystemDesign::PmNear)
    };
    let _ = Gpu::new(&cfg);
}

/// A line wider than an SM's 128-bit written-byte mask is rejected when
/// the GPU is built: a 256-byte line would overflow the store path's
/// byte-mask shift.
#[test]
#[should_panic(expected = "line_bytes must be a power of two of at most 128 bytes")]
fn line_wider_than_the_byte_mask_is_rejected_up_front() {
    let cfg = GpuConfig {
        line_bytes: 256,
        ..GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear)
    };
    let _ = Gpu::new(&cfg);
}

/// A line size that is not a power of two is rejected too: line
/// alignment masks the address with `line_bytes - 1`.
#[test]
#[should_panic(expected = "line_bytes must be a power of two")]
fn non_power_of_two_line_is_rejected_up_front() {
    let cfg = GpuConfig {
        line_bytes: 96,
        ..GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear)
    };
    let _ = Gpu::new(&cfg);
}

/// Lines narrower than a line write persist correctly under every
/// model: each flush snapshots only its own line's bytes.
#[test]
fn narrow_lines_persist_every_store() {
    for model in ModelKind::ALL {
        let cfg = GpuConfig {
            line_bytes: 64,
            ..GpuConfig::small(model, SystemDesign::PmNear)
        };
        let mut gpu = Gpu::new(&cfg);
        gpu.launch(&persist_fill_kernel(PM_BASE), LaunchConfig::new(4, 128));
        let report = gpu.run(LIMIT).unwrap_or_else(|e| panic!("{model:?}: {e}"));
        assert_eq!(report.outcome, RunOutcome::Completed);
        for t in 0..4 * 128u64 {
            assert_eq!(gpu.read_durable_u64(PM_BASE + t * 8), t + 1, "{model:?}");
        }
    }
}

/// A persist buffered while its line's previous flush is still in
/// flight belongs to the next flush: a crash between the two
/// acknowledgements leaves exactly the first flush's persists durable.
#[test]
fn a_store_behind_an_in_flight_flush_is_attributed_to_the_next_flush() {
    // Lanes 0-15 store 1 and then 2 to their own words of one line, 60
    // cycles apart: the first store's line drains at once (it stays
    // resident, clean), so the second store opens a new entry while
    // that flush travels to PM-far's persistence domain.
    let mut b = KernelBuilder::new();
    b.set_params(vec![PM_BASE]);
    let base = b.param(0);
    let tid = b.special(Special::Tid);
    let low = b.lti(tid, 16);
    b.if_then(low, |b| {
        let off = b.muli(tid, 8);
        let addr = b.add(base, off);
        let one = b.movi(1);
        b.st(addr, 0, one, MemWidth::W8);
        b.sleep(60);
        let two = b.movi(2);
        b.st(addr, 0, two, MemWidth::W8);
    });
    let kernel = b.build("store_twice");
    let mut cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmFar);
    cfg.trace = true;
    // Per store, the set of its persists' durable cycles, and the
    // durable value of lane 0's word.
    let run = |crash_at: Option<u64>| {
        let mut gpu = Gpu::new(&cfg);
        gpu.launch(&kernel, LaunchConfig::new(1, 32));
        let report = match crash_at {
            Some(c) => gpu.run_until(c),
            None => gpu.run(LIMIT),
        }
        .expect("runs");
        let trace = gpu.take_trace().expect("traced");
        assert_eq!(trace.persist_count(), 32, "16 lanes store twice");
        let cycles = [0..16, 16..32].map(|ids| {
            ids.map(|i| trace.durable_cycle(sbrp_core::formal::EventId::from_index(i)))
                .collect::<std::collections::BTreeSet<_>>()
        });
        (
            report.outcome,
            cycles,
            gpu.durable_image().read_u64(PM_BASE),
        )
    };

    let (outcome, cycles, value) = run(None);
    assert_eq!((outcome, value), (RunOutcome::Completed, 2));
    let one_cycle = |set: &std::collections::BTreeSet<Option<u64>>| {
        assert_eq!(set.len(), 1, "one flush per store: {set:?}");
        set.first().copied().flatten().expect("durable")
    };
    let (first, second) = (one_cycle(&cycles[0]), one_cycle(&cycles[1]));
    // The second flush overlapped the first: its ack came back far
    // sooner after the first ack than a whole round trip.
    assert!(
        first < second && second - first < first / 2,
        "{first} {second}"
    );

    let (outcome, cycles, value) = run(Some(first));
    assert_eq!(outcome, RunOutcome::Crashed);
    assert_eq!(cycles, [[Some(first)].into(), [None].into()]);
    assert_eq!(value, 1);
}
