//! Layer probes for the traced run: fixed, seeded op sequences driven
//! straight through the persist-buffer engine, the cache and memory
//! subsystem, and the formal crash-cut checker. They are proxies for the
//! parts of `sim.run_s` that spans outside the simulator cannot split.

use crate::host;
use crate::metrics::Counts;
use crate::trace::Tracer;
use sbrp_core::formal::{PmoGraph, TraceBuilder};
use sbrp_core::ops::PersistOpKind;
use sbrp_core::pbuffer::{DrainAction, LineIdx, PbConfig, PersistUnit};
use sbrp_core::scope::{Scope, ThreadPos, WarpSlot};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::mem::{Cache, MemSubsystem, PersistDest, ReqTag};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Duration;

/// `splitmix64`, the generator the rest of the workspace seeds with.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Replays `round` (which returns the operations it performed) for at
/// least `min` of work time; returns operations per second of it.
fn rate(min: Duration, mut round: impl FnMut() -> u64) -> f64 {
    let start = host::now();
    let mut ops = 0u64;
    while host::now() - start < min || ops == 0 {
        ops += black_box(round());
    }
    ops as f64 / (host::now() - start).as_secs_f64()
}

#[derive(Clone, Copy)]
enum PbKind {
    Store(u32),
    OFence,
    PRel,
    PAcq,
    DFence,
}

/// Flushes the unit's ready entries and acknowledges them at once;
/// returns the calls made.
fn tick_and_ack(unit: &mut PersistUnit) -> u64 {
    let mut calls = 1;
    for a in unit.tick(64) {
        let DrainAction::Flush { line, .. } = a;
        unit.ack_persist(line);
        calls += 1;
    }
    unit.take_resumable();
    calls
}

/// One round of the persist-buffer probe: the op sequence on a fresh
/// unit, then a full drain. Ops from a warp the unit has stalled are
/// skipped, as a real SM would not issue them.
fn pbuffer_round(ops: &[(WarpSlot, PbKind)]) -> u64 {
    let mut unit = PersistUnit::new(PbConfig::default());
    let mut calls = 0;
    for &(warp, kind) in ops {
        if !unit.is_blocked(warp) {
            match kind {
                PbKind::Store(line) => drop(unit.persist_store(warp, LineIdx(line))),
                PbKind::OFence => drop(unit.ofence(warp)),
                PbKind::PRel => drop(unit.prel(warp, Scope::Block)),
                PbKind::PAcq => drop(unit.pacq(warp, Scope::Block)),
                PbKind::DFence => drop(unit.dfence(warp)),
            }
            calls += 1;
        }
        calls += tick_and_ack(&mut unit);
    }
    unit.set_drain_all(true);
    let mut rounds = 0;
    while !unit.is_quiescent() {
        calls += tick_and_ack(&mut unit);
        rounds += 1;
        assert!(rounds < 1_000_000, "persist unit failed to drain");
    }
    calls
}

fn pbuffer_ops(rng: &mut Rng) -> Vec<(WarpSlot, PbKind)> {
    (0..4096)
        .map(|_| {
            let warp = WarpSlot::new(rng.below(32) as usize);
            let kind = match rng.below(32) {
                0..=19 => PbKind::Store(rng.below(128) as u32),
                20..=24 => PbKind::OFence,
                25..=27 => PbKind::PRel,
                28..=30 => PbKind::PAcq,
                _ => PbKind::DFence,
            };
            (warp, kind)
        })
        .collect()
}

fn cache_round(addrs: &[u64]) -> u64 {
    let mut cache = Cache::new(64 * 1024, 4, 128);
    for (i, &addr) in addrs.iter().enumerate() {
        if cache.lookup(addr).is_none() {
            let (way, _) = cache.choose_victim(addr);
            cache.install(way, addr, i % 3 == 0, false);
        }
    }
    black_box(cache.stats());
    addrs.len() as u64
}

fn flush_round(cfg: &GpuConfig, lines: &[u64]) -> u64 {
    let mut ms = MemSubsystem::new(cfg);
    for (i, &line) in lines.iter().enumerate() {
        let addr = PM_BASE + line * 128;
        ms.submit_persist_flush(
            i as u64,
            addr,
            vec![(addr, vec![0u8; 128])],
            PersistDest::Detached,
            vec![],
        );
    }
    let mut acks = 0;
    while let Some(at) = ms.next_event() {
        for cpl in ms.poll(at) {
            if let ReqTag::PersistAck { ack_id } = cpl.tag {
                ms.take_persist_dest(ack_id);
                acks += 1;
            }
        }
    }
    assert_eq!(
        acks,
        lines.len() as u64,
        "every persist flush is acknowledged"
    );
    acks
}

/// A release/acquire chain over `threads` threads, each persisting
/// `per_thread` seeded addresses with an oFence every four.
fn chain(rng: &mut Rng, threads: u32, per_thread: u32) -> PmoGraph {
    let mut tb = TraceBuilder::new();
    let mut last_rel = None;
    for t in 0..threads {
        let th = ThreadPos::new(0u32, t);
        let acq = tb.op(th, PersistOpKind::PAcq(Scope::Block), Some(0x80));
        if let Some(rel) = last_rel {
            tb.observe(acq, rel);
        }
        for i in 0..per_thread {
            tb.persist(th, 0x1000 + rng.below(4096) * 8);
            if i % 4 == 3 {
                tb.op(th, PersistOpKind::OFence, None);
            }
        }
        last_rel = Some(tb.op(th, PersistOpKind::PRel(Scope::Block), Some(0x80)));
    }
    tb.finish()
}

/// Runs the four probes for at least `min` each and returns their rates.
pub fn run(seed: u64, min: Duration, tr: &mut Tracer) -> Counts {
    let mut rng = Rng(seed);
    let mut out = Counts::new();

    let ops = pbuffer_ops(&mut rng);
    let r = tr.span("probe.pbuffer", 0, |_| rate(min, || pbuffer_round(&ops)));
    out.insert("pbuffer.probe_ops_per_s", r);

    let addrs: Vec<u64> = (0..4096).map(|_| rng.below(2048) * 128).collect();
    let r = tr.span("probe.cache", 1, |_| rate(min, || cache_round(&addrs)));
    out.insert("mem.probe_cache_ops_per_s", r);

    let cfg = GpuConfig::table1(ModelKind::Sbrp, SystemDesign::PmNear);
    let lines: Vec<u64> = (0..1024).map(|_| rng.below(4096)).collect();
    let r = tr.span("probe.flush", 2, |_| {
        rate(min, || flush_round(&cfg, &lines))
    });
    out.insert("mem.probe_flushes_per_s", r);

    let graph = chain(&mut rng, 64, 16);
    let persists: Vec<_> = graph.persists().collect();
    let cuts: Vec<HashSet<_>> = (0..16)
        .map(|_| {
            let k = rng.below(persists.len() as u64 + 1) as usize;
            persists[..k].iter().copied().collect()
        })
        .collect();
    let r = tr.span("probe.crash_cut", 3, |_| {
        rate(min, || {
            for cut in &cuts {
                black_box(graph.check_crash_cut(cut).is_ok());
            }
            cuts.len() as u64
        })
    });
    out.insert("formal.probe_crash_cuts_per_s", r);
    out
}
