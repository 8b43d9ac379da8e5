//! The canonical machine state and its transition relation.
//!
//! A [`State`] bundles every warp's architectural state (a cloned
//! [`WarpInterp`] parked at its next visible action), shared memory, the
//! model's persist-engine abstraction (pending per-line buffer entries
//! with drain dependencies), and the formal trace accumulated so far.
//! [`State::choices`] enumerates the enabled transitions and
//! [`State::apply`] fires one, running the built-in checks as side
//! effects.
//!
//! # The persist-engine abstraction
//!
//! The checker does not drive `core/src/pbuffer` cycle-by-cycle; it
//! models the *architectural* persist-buffer contract the paper's §6
//! hardware implements, at warp granularity:
//!
//! * a persistent store allocates (or coalesces into) a single-owner
//!   entry for its 128-byte line; a store that hits a sealed or foreign
//!   entry is simply not enabled until that entry drains (the hardware
//!   would stall the warp the same way);
//! * `oFence`/`dFence`/`pAcq`/`pRel` are *ordering points*: they seal
//!   the warp's open entries and record them as the warp's current
//!   drain dependencies — entries allocated later depend on them;
//! * an entry may drain only once its dependencies have drained;
//! * `dFence` completes only when the warp has no pending entry, and
//!   its completion is *verified*: every persist the warp issued must be
//!   durable, or the checker reports a model-soundness violation;
//! * a block-scoped `pRel` publishes its flag immediately (the buffer
//!   orders the drains in the background); device/system releases wait
//!   until the covered persists are durable, as the simulator does;
//! * a `pAcq` that observes a released value inherits the release's
//!   drain dependencies iff the pattern's effective scope includes both
//!   threads — precisely the rule whose absence is the §5.3 bug;
//! * under `Epoch`/`Gpm`, entries carry no dependencies and the epoch
//!   barrier is enabled only when the block's warps have drained;
//! * under the eADR domain no entry is ever allocated — stores are
//!   durable at acceptance.
//!
//! Granularity caveats (see DESIGN.md): interleaving is enumerated at
//! warp-action level (a 32-lane store is one atomic transition) and
//! warp-wide fences are recorded for every lane's thread.

use crate::spec::{Choice, Evidence, PersistDomain, Program, Violation, ViolationKind};
use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::formal::{EventId, EventSet, PmoGraph, TraceBuilder};
use sbrp_core::ops::{ModelKind, PersistOpKind};
use sbrp_core::scope::{Scope, ThreadPos, WARP_SIZE};
use sbrp_isa::{AccessKind, BlockIndex, Code, FenceAccess, LaneAccess, StepResult, WarpInterp};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cache-line size of the persist buffer (matches the simulator).
pub const LINE_BYTES: u64 = 128;

/// `(block, tid_in_block, nth)` — a schedule-independent persist name.
pub(crate) type Mark = (u32, u32, u32);

fn line_of(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

fn tkey(t: ThreadPos) -> (u32, u32) {
    (t.block.0, t.tid_in_block)
}

/// The `ThreadPos` of `lane` of global warp `widx`.
fn lane_thread(program: &Program, widx: u32, lane: u8) -> ThreadPos {
    let wpb = program.launch.warps_per_block();
    ThreadPos::new(
        widx / wpb,
        (widx % wpb) * WARP_SIZE as u32 + u32::from(lane),
    )
}

/// One warp of the subject program, parked at its next visible action.
#[derive(Clone)]
pub(crate) struct WarpState {
    pub interp: WarpInterp,
    /// The outstanding `Mem`/`Fence` action (`None` once done).
    pub parked: Option<StepResult>,
    /// Arrived at a `__syncthreads` and waiting for the block.
    pub arrived: bool,
    pub done: bool,
    /// Persists issued so far, per lane — the `nth` of the next mark.
    pub persist_counts: [u32; WARP_SIZE],
    pub ofences_fired: u32,
    pub dfences_fired: u32,
}

impl WarpState {
    fn park(&mut self) {
        if self.done || self.parked.is_some() {
            return;
        }
        loop {
            match self.interp.step() {
                StepResult::Alu | StepResult::Sleep(_) => {}
                StepResult::Done => {
                    self.done = true;
                    return;
                }
                action => {
                    self.parked = Some(action);
                    return;
                }
            }
        }
    }
}

/// A pending persist-buffer entry (one per 128-byte line).
#[derive(Clone)]
pub(crate) struct Entry {
    /// Global index of the owning warp.
    pub owner: u32,
    /// Sealed by an ordering point: no further coalescing.
    pub sealed: bool,
    /// Writes held by the entry (`addr -> value`).
    pub writes: BTreeMap<u64, u64>,
    /// Persist events buffered in the entry.
    pub events: Vec<(EventId, Mark)>,
    /// Lines that must drain before this entry may.
    pub deps: BTreeSet<u64>,
}

/// The published value of a release flag, with the drain dependencies an
/// observing acquire inherits.
#[derive(Clone)]
pub(crate) struct RelRecord {
    pub ev: EventId,
    pub thread: ThreadPos,
    pub scope: Scope,
    pub value: u64,
    pub deps: BTreeSet<u64>,
}

/// One state of the exploration. Cloning is the branching primitive.
#[derive(Clone)]
pub struct State {
    pub(crate) warps: Vec<WarpState>,
    /// Volatile-visible memory (stores become visible here immediately).
    pub(crate) mem: BTreeMap<u64, u64>,
    /// Pending persist-buffer entries, keyed by line address.
    pub(crate) pending: BTreeMap<u64, Entry>,
    /// Per-warp drain dependencies accumulated at ordering points.
    pub(crate) warp_deps: Vec<BTreeSet<u64>>,
    /// Last published release per flag address.
    pub(crate) flags: BTreeMap<u64, RelRecord>,
    /// The formal trace of this execution path.
    pub(crate) tb: TraceBuilder,
    /// Durable persists, as this path's trace event ids.
    pub(crate) durable_ids: EventSet,
    /// Durable persists, as canonical marks.
    pub(crate) durable_marks: BTreeSet<Mark>,
    /// Addresses with at least one durable write.
    pub(crate) durable_addrs: BTreeSet<u64>,
    /// Mark -> event id, for resolving [`crate::spec::PRef`]s.
    pub(crate) marks: BTreeMap<Mark, EventId>,
    /// Acquire-observes-release count along this path.
    pub(crate) observations: u32,
    /// §5.3 scope-bug observations along this path.
    pub(crate) scope_bugs: u32,
    /// The schedule from the initial state (counterexample material).
    pub(crate) schedule: Vec<Choice>,
}

impl State {
    /// The initial state of `program`: every warp parked at its first
    /// visible action, memory zero, no pending entries.
    #[must_use]
    pub fn initial(program: &Program) -> State {
        let wpb = program.launch.warps_per_block();
        let total = (program.launch.blocks * wpb) as usize;
        let mut warps = Vec::with_capacity(total);
        let code = Arc::new(Code::lower(&program.kernel));
        for b in 0..program.launch.blocks {
            for w in 0..wpb {
                let mut ws = WarpState {
                    interp: WarpInterp::with_code(&code, program.launch, b, w),
                    parked: None,
                    arrived: false,
                    done: false,
                    persist_counts: [0; WARP_SIZE],
                    ofences_fired: 0,
                    dfences_fired: 0,
                };
                ws.park();
                warps.push(ws);
            }
        }
        State {
            warp_deps: vec![BTreeSet::new(); warps.len()],
            warps,
            mem: BTreeMap::new(),
            pending: BTreeMap::new(),
            flags: BTreeMap::new(),
            tb: TraceBuilder::new(),
            durable_ids: EventSet::new(),
            durable_marks: BTreeSet::new(),
            durable_addrs: BTreeSet::new(),
            marks: BTreeMap::new(),
            observations: 0,
            scope_bugs: 0,
            schedule: Vec::new(),
        }
    }

    /// Whether every warp has retired the kernel.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.warps.iter().all(|w| w.done)
    }

    /// Whether the execution is complete: all warps done and every
    /// buffered persist drained.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.all_done() && self.pending.is_empty()
    }

    /// Addresses with a durable write.
    #[must_use]
    pub fn durable_addrs(&self) -> &BTreeSet<u64> {
        &self.durable_addrs
    }

    /// Whether the persist named by `(block, tid_in_block, nth)` —
    /// the thread's `nth` program-order persist — has drained. The
    /// mark naming matches the static linter's hazards, so a lint
    /// claim "`blkB:tT#N` durable while … lost" is directly checkable
    /// against a reachable state.
    #[must_use]
    pub fn mark_durable(&self, mark: (u32, u32, u32)) -> bool {
        self.durable_marks.contains(&mark)
    }

    /// The schedule that produced this state.
    #[must_use]
    pub fn schedule(&self) -> &[Choice] {
        &self.schedule
    }

    /// Number of acquire-observes-release events along this path.
    #[must_use]
    pub fn observations(&self) -> u32 {
        self.observations
    }

    /// Number of §5.3 scope-bug observations along this path.
    #[must_use]
    pub fn scope_bugs(&self) -> u32 {
        self.scope_bugs
    }

    /// Finalizes (a clone of) this path's trace into a [`PmoGraph`].
    #[must_use]
    pub fn graph(&self) -> PmoGraph {
        self.tb.clone().finish()
    }

    /// The event id of the `nth` persist `thread` issued along this path
    /// (program order, zero-based), if it was issued.
    #[must_use]
    pub fn persist_event(&self, thread: ThreadPos, nth: u32) -> Option<EventId> {
        self.marks
            .get(&(thread.block.0, thread.tid_in_block, nth))
            .copied()
    }

    fn own_pending(&self, widx: u32) -> bool {
        self.pending.values().any(|e| e.owner == widx)
    }

    fn block_pending(&self, program: &Program, widx: u32) -> bool {
        let wpb = program.launch.warps_per_block();
        let block = widx / wpb;
        self.pending.values().any(|e| e.owner / wpb == block)
    }

    /// Whether the parked action of warp `widx` may fire now.
    fn warp_enabled(&self, program: &Program, widx: u32) -> bool {
        let w = &self.warps[widx as usize];
        if w.done || w.arrived {
            return false;
        }
        let Some(action) = &w.parked else {
            return false;
        };
        match action {
            StepResult::Mem(acc) => match acc.kind {
                AccessKind::Load | AccessKind::LoadVolatile | AccessKind::AtomAdd => true,
                AccessKind::Store => {
                    if program.domain == PersistDomain::Eadr {
                        return true;
                    }
                    acc.lanes
                        .iter()
                        .filter(|l| l.addr >= program.pm_base)
                        .all(|l| match self.pending.get(&line_of(l.addr)) {
                            None => true,
                            Some(e) => e.owner == widx && !e.sealed,
                        })
                }
            },
            StepResult::Fence(f) => match f {
                FenceAccess::OFence | FenceAccess::PAcq { .. } | FenceAccess::SyncBlock => true,
                FenceAccess::DFence => !self.own_pending(widx),
                FenceAccess::PRel { scope, .. } => {
                    *scope == Scope::Block
                        || (self.warp_deps[widx as usize].is_empty() && !self.own_pending(widx))
                }
                FenceAccess::EpochBarrier => !self.block_pending(program, widx),
            },
            StepResult::Alu | StepResult::Sleep(_) | StepResult::Done => {
                unreachable!("park() never leaves an invisible action outstanding")
            }
        }
    }

    /// Enumerates the enabled transitions, in deterministic order (warps
    /// ascending, then drainable lines ascending).
    #[must_use]
    pub fn choices(&self, program: &Program) -> Vec<Choice> {
        let mut out = Vec::new();
        for widx in 0..self.warps.len() as u32 {
            if self.warp_enabled(program, widx) {
                out.push(Choice::Warp(widx));
            }
        }
        for (&line, e) in &self.pending {
            if e.deps.is_empty() {
                out.push(Choice::Drain(line));
            }
        }
        out
    }

    /// Seals warp `widx`'s open entries and records them as its drain
    /// dependencies (`oFence`/`dFence`/`pAcq`/`pRel` all do this).
    fn ordering_point(&mut self, widx: u32) -> u32 {
        let mut sealed_now = 0;
        let mut own_lines = Vec::new();
        for (&line, e) in &mut self.pending {
            if e.owner == widx {
                if !e.sealed {
                    e.sealed = true;
                    sealed_now += 1;
                }
                own_lines.push(line);
            }
        }
        self.warp_deps[widx as usize].extend(own_lines);
        sealed_now
    }

    fn record_persist(
        &mut self,
        program: &Program,
        widx: u32,
        lane: u8,
        addr: u64,
    ) -> (EventId, Mark) {
        let t = lane_thread(program, widx, lane);
        let ev = self.tb.persist(t, addr);
        let n = &mut self.warps[widx as usize].persist_counts[usize::from(lane)];
        let mark = (t.block.0, t.tid_in_block, *n);
        *n += 1;
        self.marks.insert(mark, ev);
        (ev, mark)
    }

    /// Records a warp-wide fence op for every lane's thread.
    fn record_warp_op(&mut self, program: &Program, widx: u32, op: PersistOpKind) {
        for lane in 0..WARP_SIZE as u8 {
            let t = lane_thread(program, widx, lane);
            self.tb.op(t, op, None);
        }
    }

    fn make_durable(&mut self, ev: EventId, mark: Mark, addr: u64) {
        self.durable_ids.insert(ev);
        self.durable_marks.insert(mark);
        self.durable_addrs.insert(addr);
    }

    /// Removes a drained (or never-buffered) line from every dependency
    /// set.
    fn prune_line(&mut self, line: u64) {
        for e in self.pending.values_mut() {
            e.deps.remove(&line);
        }
        for d in &mut self.warp_deps {
            d.remove(&line);
        }
        for r in self.flags.values_mut() {
            r.deps.remove(&line);
        }
    }

    /// Verifies the durable set is still downward-closed under the PMO of
    /// the trace so far — every reachable state is a crash cut.
    fn check_crash_cut(&self, out: &mut Vec<Violation>) {
        if let Err(v) = self.tb.check_crash_cut(|id| self.durable_ids.contains(id)) {
            out.push(Violation {
                kind: ViolationKind::CrashCut,
                message: v.to_string(),
                schedule: self.schedule.clone(),
            });
        }
    }

    fn fire_store(
        &mut self,
        program: &Program,
        widx: u32,
        acc: &sbrp_isa::MemAccess,
        out: &mut Vec<Violation>,
    ) {
        let mut touched_durable = false;
        let lanes = acc.lanes.clone();
        for l in &lanes {
            self.mem.insert(l.addr, l.value);
            if l.addr < program.pm_base {
                continue;
            }
            let (ev, mark) = self.record_persist(program, widx, l.lane, l.addr);
            if program.domain == PersistDomain::Eadr {
                // eADR: durable at acceptance — nothing is ever buffered.
                self.make_durable(ev, mark, l.addr);
                touched_durable = true;
                continue;
            }
            let line = line_of(l.addr);
            if let Some(e) = self.pending.get_mut(&line) {
                debug_assert!(e.owner == widx && !e.sealed, "store fired while stalled");
                e.writes.insert(l.addr, l.value);
                e.events.push((ev, mark));
            } else {
                let deps = if program.model.is_buffered() {
                    self.warp_deps[widx as usize].clone()
                } else {
                    BTreeSet::new()
                };
                let mut writes = BTreeMap::new();
                writes.insert(l.addr, l.value);
                self.pending.insert(
                    line,
                    Entry {
                        owner: widx,
                        sealed: false,
                        writes,
                        events: vec![(ev, mark)],
                        deps,
                    },
                );
            }
        }
        if touched_durable {
            self.check_crash_cut(out);
        }
        self.warps[widx as usize].interp.complete();
    }

    fn fire_fence(
        &mut self,
        program: &Program,
        widx: u32,
        fence: FenceAccess,
        evidence: &mut Evidence,
        out: &mut Vec<Violation>,
    ) {
        let sbrp = program.model == ModelKind::Sbrp;
        match fence {
            FenceAccess::OFence => {
                assert!(
                    sbrp,
                    "oFence under {:?}: the model does not order it",
                    program.model
                );
                let sealed_now = self.ordering_point(widx);
                let idx = self.warps[widx as usize].ofences_fired;
                self.warps[widx as usize].ofences_fired += 1;
                let site = evidence.ofence_sites.entry(widx).or_insert(0);
                *site = (*site).max(idx + 1);
                if sealed_now > 0 {
                    evidence.nonvacuous_ofences.insert((widx, idx));
                }
                self.record_warp_op(program, widx, PersistOpKind::OFence);
                self.warps[widx as usize].interp.complete();
            }
            FenceAccess::DFence => {
                assert!(
                    sbrp,
                    "dFence under {:?}: the model does not drain it",
                    program.model
                );
                self.ordering_point(widx);
                self.warps[widx as usize].dfences_fired += 1;
                self.record_warp_op(program, widx, PersistOpKind::DFence);
                // Immediate durability: every persist this warp issued
                // must be durable when the dFence completes.
                let w = &self.warps[widx as usize];
                for lane in 0..WARP_SIZE {
                    let t = lane_thread(program, widx, lane as u8);
                    for n in 0..w.persist_counts[lane] {
                        let mark = (t.block.0, t.tid_in_block, n);
                        if !self.durable_marks.contains(&mark) {
                            out.push(Violation {
                                kind: ViolationKind::DFenceIncomplete,
                                message: format!(
                                    "dFence of warp {widx} completed while persist #{n} of \
                                     thread {t} was not durable"
                                ),
                                schedule: self.schedule.clone(),
                            });
                        }
                    }
                }
                self.warps[widx as usize].interp.complete();
            }
            FenceAccess::EpochBarrier => {
                assert!(
                    !sbrp,
                    "epochBarrier under Sbrp: kernels choose one model's operations"
                );
                self.record_warp_op(program, widx, PersistOpKind::EpochBarrier);
                self.warps[widx as usize].interp.complete();
            }
            FenceAccess::SyncBlock => {
                self.warps[widx as usize].arrived = true;
                let wpb = program.launch.warps_per_block();
                let block = widx / wpb;
                let members: Vec<u32> = (block * wpb..(block + 1) * wpb).collect();
                if members
                    .iter()
                    .all(|&m| self.warps[m as usize].done || self.warps[m as usize].arrived)
                {
                    for &m in &members {
                        let w = &mut self.warps[m as usize];
                        if w.arrived {
                            w.arrived = false;
                            w.interp.complete();
                            w.parked = None;
                            w.park();
                        }
                    }
                }
                // The arriving warp's completion is handled above with
                // the rest of its block (or deferred until the last
                // arrival): nothing more to do for this arm.
            }
            FenceAccess::PAcq { scope, lanes } => {
                assert!(sbrp, "pAcq under {:?}", program.model);
                self.fire_pacq(program, widx, scope, &lanes, evidence);
            }
            FenceAccess::PRel { scope, lanes } => {
                assert!(sbrp, "pRel under {:?}", program.model);
                self.fire_prel(program, widx, scope, &lanes);
            }
        }
    }

    /// The `pAcq` arm of [`Self::fire_fence`]: acts as an ordering
    /// point, loads each lane's flag, and on observing a matching
    /// release inherits its persist dependencies — unless the effective
    /// scope excludes the acquirer, which is the §5.3 scoped
    /// persistency bug (value flows, order does not).
    fn fire_pacq(
        &mut self,
        program: &Program,
        widx: u32,
        scope: Scope,
        lanes: &[LaneAccess],
        evidence: &mut Evidence,
    ) {
        self.ordering_point(widx);
        let mut values = Vec::with_capacity(lanes.len());
        for l in lanes {
            let t = lane_thread(program, widx, l.lane);
            let value = self.mem.get(&l.addr).copied().unwrap_or(0);
            values.push(value);
            let acq = self.tb.op(t, PersistOpKind::PAcq(scope), Some(l.addr));
            let Some(rec) = self.flags.get(&l.addr) else {
                continue;
            };
            if rec.value != value {
                continue;
            }
            let (rec_ev, rec_thread, rec_scope) = (rec.ev, rec.thread, rec.scope);
            let inherited = rec.deps.clone();
            self.observations += 1;
            evidence.any_observation = true;
            self.tb.observe(acq, rec_ev);
            let effective = rec_scope.min(scope);
            if rec_thread.shares_scope(t, effective) {
                self.warp_deps[widx as usize].extend(inherited);
            } else {
                // §5.3: the value flowed but no persist order
                // was created — faithfully inherit nothing.
                self.scope_bugs += 1;
                evidence.any_scope_bug = true;
            }
        }
        self.warps[widx as usize].interp.complete_load(&values);
    }

    /// The `pRel` arm of [`Self::fire_fence`]: acts as an ordering
    /// point, then publishes each lane's flag value together with the
    /// warp's accumulated persist dependencies for a later `pAcq` to
    /// inherit.
    fn fire_prel(&mut self, program: &Program, widx: u32, scope: Scope, lanes: &[LaneAccess]) {
        self.ordering_point(widx);
        let covered = self.warp_deps[widx as usize].clone();
        for l in lanes {
            let t = lane_thread(program, widx, l.lane);
            let ev = self.tb.op(t, PersistOpKind::PRel(scope), Some(l.addr));
            self.mem.insert(l.addr, l.value);
            self.flags.insert(
                l.addr,
                RelRecord {
                    ev,
                    thread: t,
                    scope,
                    value: l.value,
                    deps: covered.clone(),
                },
            );
        }
        self.warps[widx as usize].interp.complete();
    }

    /// Fires `choice`, which must be enabled, appending any violations
    /// the built-in checks detect (crash-cut closure after durability
    /// changes, dFence completion durability) and evidence facts.
    pub(crate) fn apply(
        &mut self,
        program: &Program,
        choice: Choice,
        evidence: &mut Evidence,
        out: &mut Vec<Violation>,
    ) {
        self.schedule.push(choice);
        match choice {
            Choice::Warp(widx) => {
                let action = self.warps[widx as usize]
                    .parked
                    .take()
                    .expect("firing a warp with no parked action");
                match action {
                    StepResult::Mem(acc) => match acc.kind {
                        AccessKind::Store => self.fire_store(program, widx, &acc, out),
                        AccessKind::Load | AccessKind::LoadVolatile => {
                            let values: Vec<u64> = acc
                                .lanes
                                .iter()
                                .map(|l| self.mem.get(&l.addr).copied().unwrap_or(0))
                                .collect();
                            self.warps[widx as usize].interp.complete_load(&values);
                        }
                        AccessKind::AtomAdd => {
                            let values: Vec<u64> = acc
                                .lanes
                                .iter()
                                .map(|l| {
                                    let old = self.mem.get(&l.addr).copied().unwrap_or(0);
                                    self.mem.insert(l.addr, old.wrapping_add(l.value));
                                    old
                                })
                                .collect();
                            self.warps[widx as usize].interp.complete_load(&values);
                        }
                    },
                    StepResult::Fence(f) => {
                        self.fire_fence(program, widx, f, evidence, out);
                        if self.warps[widx as usize].arrived {
                            return; // still waiting at the barrier
                        }
                    }
                    other => unreachable!("parked invisible action {other:?}"),
                }
                self.warps[widx as usize].park();
            }
            Choice::Drain(line) => {
                let entry = self
                    .pending
                    .remove(&line)
                    .expect("draining a line with no entry");
                debug_assert!(entry.deps.is_empty(), "drained an ineligible entry");
                for (ev, mark) in &entry.events {
                    self.durable_ids.insert(*ev);
                    self.durable_marks.insert(*mark);
                }
                for &addr in entry.writes.keys() {
                    self.durable_addrs.insert(addr);
                }
                self.prune_line(line);
                self.check_crash_cut(out);
            }
        }
    }

    /// Canonical fingerprint of the state: equal fingerprints mean equal
    /// future behaviour for every check the explorer performs.
    ///
    /// The accumulated trace, event ids, and schedule are deliberately
    /// excluded: two states that agree on everything else differ only in
    /// pmo-transparent event history (e.g. extra failed spin acquires),
    /// so their futures verify identically — this exclusion is what lets
    /// spin loops terminate the exploration. See DESIGN.md for the
    /// soundness argument.
    #[must_use]
    pub fn fingerprint(&self, program: &Program, blocks: &BlockIndex) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(match program.model {
            ModelKind::Gpm => 0,
            ModelKind::Epoch => 1,
            ModelKind::Sbrp => 2,
        });
        fp.write_u64(match program.domain {
            PersistDomain::Adr => 0,
            PersistDomain::Eadr => 1,
        });
        for w in &self.warps {
            fp.write_str("warp");
            w.interp.fingerprint_into(blocks, &mut fp);
            fp.write_u64(u64::from(w.done));
            fp.write_u64(u64::from(w.arrived));
            for &c in &w.persist_counts {
                fp.write_u64(u64::from(c));
            }
            fp.write_u64(u64::from(w.ofences_fired));
            fp.write_u64(u64::from(w.dfences_fired));
        }
        fp.write_str("mem");
        for (&a, &v) in &self.mem {
            fp.write_u64(a);
            fp.write_u64(v);
        }
        fp.write_str("pb");
        for (&line, e) in &self.pending {
            fp.write_u64(line);
            fp.write_u64(u64::from(e.owner));
            fp.write_u64(u64::from(e.sealed));
            for (&a, &v) in &e.writes {
                fp.write_u64(a);
                fp.write_u64(v);
            }
            fp.write_u64(u64::MAX); // section guard
            for (_, (b, t, n)) in &e.events {
                fp.write_u64(u64::from(*b));
                fp.write_u64(u64::from(*t));
                fp.write_u64(u64::from(*n));
            }
            fp.write_u64(u64::MAX);
            for &d in &e.deps {
                fp.write_u64(d);
            }
        }
        fp.write_str("deps");
        for d in &self.warp_deps {
            fp.write_u64(u64::MAX);
            for &line in d {
                fp.write_u64(line);
            }
        }
        fp.write_str("flags");
        for (&a, r) in &self.flags {
            fp.write_u64(a);
            let (b, t) = tkey(r.thread);
            fp.write_u64(u64::from(b));
            fp.write_u64(u64::from(t));
            fp.write_u64(r.scope as u64);
            fp.write_u64(r.value);
            for &d in &r.deps {
                fp.write_u64(d);
            }
            fp.write_u64(u64::MAX);
        }
        fp.write_str("durable");
        for &(b, t, n) in &self.durable_marks {
            fp.write_u64(u64::from(b));
            fp.write_u64(u64::from(t));
            fp.write_u64(u64::from(n));
        }
        for &a in &self.durable_addrs {
            fp.write_u64(a);
        }
        fp.write_u64(u64::from(self.observations));
        fp.write_u64(u64::from(self.scope_bugs));
        fp.finish()
    }
}
