//! Simulator-trace membership: every execution the cycle-level
//! simulator produces for a small program is a member of the model
//! checker's enumerated execution set.
//!
//! The two engines share nothing above `sbrp_core::formal` — the
//! simulator timestamps a real pipeline and persist buffer, the checker
//! abstracts both into warp-atomic transitions — so agreement here is
//! evidence that the abstraction is faithful: the simulator never
//! exhibits a persist ordering, observation, or final durable image the
//! checker considers unreachable.
//!
//! Programs are kept schedule-oblivious (straight-line stores and
//! fences, plus an optional spinning message-passing handoff), which is
//! exactly the class for which [`sbrp_mc::McReport::signatures`] is a
//! complete enumeration.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbrp_core::formal::EventId;
use sbrp_core::ops::ModelKind;
use sbrp_core::scope::Scope;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::{Gpu, RunOutcome};
use sbrp_isa::{Kernel, KernelBuilder, LaunchConfig, MemWidth, Special};
use sbrp_mc::sig::ExecutionSig;
use sbrp_mc::{explore, McOpts, PersistDomain, Program, Spec};

const LIMIT: u64 = 50_000_000;
const FLAG: u64 = 0x8000; // volatile (below PM_BASE)

/// What one role of a generated kernel does: persist stores, each
/// optionally followed by a fence.
#[derive(Clone, Copy, PartialEq)]
#[allow(clippy::enum_variant_names)]
enum Fence {
    None,
    OFence,
    DFence,
}

struct RoleScript {
    stores: Vec<(u64, Fence)>,
}

fn emit_store_lane0(b: &mut KernelBuilder, addr: u64, val: u64) {
    let lane = b.special(Special::Lane);
    let is0 = b.eqi(lane, 0);
    b.if_then(is0, |b| {
        let a = b.movi(addr);
        let v = b.movi(val);
        b.st(a, 0, v, MemWidth::W8);
    });
}

fn emit_script(b: &mut KernelBuilder, script: &RoleScript) {
    for (i, &(addr, fence)) in script.stores.iter().enumerate() {
        emit_store_lane0(b, addr, 100 + i as u64);
        match fence {
            Fence::None => {}
            Fence::OFence => b.ofence(),
            Fence::DFence => b.dfence(),
        }
    }
}

/// Builds a two-role kernel: role 0 runs `producer` (then releases
/// `FLAG` when `sync`), role 1 spins on the flag when `sync`, then runs
/// `consumer`. Roles are split by block (`2×32`) or by warp (`1×64`).
fn build_kernel(
    name: &str,
    by_block: bool,
    sync: Option<Scope>,
    producer: &RoleScript,
    consumer: &RoleScript,
) -> (Kernel, LaunchConfig) {
    let mut b = KernelBuilder::new();
    let role = if by_block {
        b.special(Special::CtaId)
    } else {
        b.special(Special::WarpId)
    };
    let is_producer = b.eqi(role, 0);
    b.if_then_else(
        is_producer,
        |b| {
            emit_script(b, producer);
            if let Some(scope) = sync {
                let lane = b.special(Special::Lane);
                let is0 = b.eqi(lane, 0);
                b.if_then(is0, |b| {
                    let f = b.movi(FLAG);
                    let one = b.movi(1);
                    b.prel(f, one, scope);
                });
            }
        },
        |b| {
            if let Some(scope) = sync {
                let lane = b.special(Special::Lane);
                let is0 = b.eqi(lane, 0);
                b.if_then(is0, |b| {
                    let f = b.movi(FLAG);
                    b.while_loop(
                        |b| {
                            let v = b.pacq(f, scope);
                            b.eqi(v, 0)
                        },
                        |b| b.sleep(1),
                    );
                });
            }
            emit_script(b, consumer);
        },
    );
    let launch = if by_block {
        LaunchConfig::new(2, 32)
    } else {
        LaunchConfig::new(1, 64)
    };
    (b.build(name), launch)
}

fn gen_script(rng: &mut SmallRng, base: u64, max_stores: u64) -> RoleScript {
    let n = rng.random_range(1..=max_stores);
    let stores = (0..n)
        .map(|i| {
            let fence = match rng.random_range(0..3u32) {
                0 => Fence::None,
                1 => Fence::OFence,
                _ => Fence::DFence,
            };
            (base + i * 0x80, fence)
        })
        .collect();
    RoleScript { stores }
}

/// A random schedule-oblivious program: two roles, random store/fence
/// scripts, and (usually) a release/acquire handoff whose scope covers
/// both roles — so the simulator's sanitizer has nothing to complain
/// about and every mc execution is a valid behaviour.
fn gen_program(seed: u64) -> (Kernel, LaunchConfig) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let by_block = rng.random_bool(0.5);
    let sync = if rng.random_bool(0.7) {
        // The widest scope both threads share: Block within one block,
        // Device across blocks (never a §5.3 scope bug).
        Some(if by_block {
            Scope::Device
        } else {
            Scope::Block
        })
    } else {
        None
    };
    let producer = gen_script(&mut rng, PM_BASE, 3);
    let consumer = gen_script(&mut rng, PM_BASE + 0x1000, 2);
    let name = format!("member-{seed}");
    build_kernel(&name, by_block, sync, &producer, &consumer)
}

/// Runs `kernel` on the cycle-level simulator with full tracing and
/// returns the executed trace's signature.
fn simulate_signature(kernel: &Kernel, launch: LaunchConfig) -> ExecutionSig {
    let mut cfg = GpuConfig::small(ModelKind::Sbrp, SystemDesign::PmNear);
    cfg.trace = true;
    cfg.sanitize = true;
    let mut gpu = Gpu::new(&cfg);
    gpu.launch(kernel, launch);
    let report = gpu
        .run(LIMIT)
        .unwrap_or_else(|e| panic!("{}: sim failed: {e}", kernel.name()));
    assert_eq!(report.outcome, RunOutcome::Completed);
    let capture = gpu.take_trace().expect("tracing was enabled");
    let durable: Vec<bool> = (0..capture.event_count())
        .map(|i| capture.durable_cycle(EventId::from_index(i)).is_some())
        .collect();
    let graph = capture.into_graph();
    let durable_addrs: Vec<u64> = graph
        .persists()
        .filter(|id| durable[id.index()])
        .map(|id| match graph.event(id).kind {
            sbrp_core::formal::EventKind::Persist { addr } => addr,
            other => panic!("durable non-persist event {other:?}"),
        })
        .collect();
    ExecutionSig::from_graph(&graph, durable_addrs)
}

fn mc_program(kernel: &Kernel, launch: LaunchConfig) -> Program {
    Program {
        kernel: kernel.clone(),
        launch,
        model: ModelKind::Sbrp,
        domain: PersistDomain::Adr,
        pm_base: PM_BASE,
    }
}

fn assert_membership(kernel: &Kernel, launch: LaunchConfig) -> ExecutionSig {
    let sim_sig = simulate_signature(kernel, launch);
    assert!(
        !sim_sig.persists.is_empty() && !sim_sig.durable.is_empty(),
        "{}: vacuous simulated trace",
        kernel.name(),
    );
    let prog = mc_program(kernel, launch);
    let report = explore(&prog, &Spec::default(), &McOpts::default());
    assert!(
        report.verified(),
        "{}: mc found violations: {:?}",
        kernel.name(),
        report.violations.first(),
    );
    assert!(
        report.signatures.contains(&sim_sig),
        "{}: simulated execution is not in the mc-enumerated set\n\
         sim signature: {sim_sig:?}\n\
         {} mc signatures over {} complete final states",
        kernel.name(),
        report.signatures.len(),
        report.complete_executions,
    );
    sim_sig
}

#[test]
fn random_small_programs_simulate_inside_the_enumerated_set() {
    let mut observed = 0;
    for seed in 0..12 {
        let (kernel, launch) = gen_program(seed);
        if !assert_membership(&kernel, launch).observations.is_empty() {
            observed += 1;
        }
    }
    // The generator's 0.7 sync rate must actually materialize as
    // observation edges, or the interesting half of the signature was
    // never compared.
    assert!(observed >= 4, "only {observed}/12 programs synchronized");
}

/// Full-warp persists (32 lanes, two cache lines per region) rather than
/// lane-0-predicated ones: exercises warp-level line coalescing on both
/// sides.
#[test]
fn per_lane_wal_kernel_simulates_inside_the_enumerated_set() {
    let log = PM_BASE + 0x10000;
    let data = PM_BASE;
    let mut b = KernelBuilder::new();
    let tid = b.special(Special::GlobalTid);
    let off = b.muli(tid, 8);
    let log_r = b.movi(log);
    let data_r = b.movi(data);
    let laddr = b.add(log_r, off);
    let daddr = b.add(data_r, off);
    let v = b.addi(tid, 100);
    b.st(laddr, 0, v, MemWidth::W8);
    b.ofence();
    b.st(daddr, 0, v, MemWidth::W8);
    let kernel = b.build("member-wal");
    assert_membership(&kernel, LaunchConfig::new(1, 32));
}

/// The classic spinning message-passing handoff, deterministic seed.
#[test]
fn message_passing_simulates_inside_the_enumerated_set() {
    let producer = RoleScript {
        stores: vec![(PM_BASE, Fence::DFence), (PM_BASE + 0x80, Fence::None)],
    };
    let consumer = RoleScript {
        stores: vec![(PM_BASE + 0x1000, Fence::None)],
    };
    let (kernel, launch) =
        build_kernel("member-mp", true, Some(Scope::Device), &producer, &consumer);
    let sig = assert_membership(&kernel, launch);
    // The simulated run must have gone through the handoff: producer
    // lane 0 of block 0 released, consumer lane 0 of block 1 observed.
    assert_eq!(
        sig.observations.iter().collect::<Vec<_>>(),
        vec![&((0, 0), (1, 0), FLAG)],
    );
}
