//! The streaming multiprocessor: warp scheduling, the L1, and the
//! persistency engine (SBRP persist unit or epoch engine).

use crate::config::{is_pm, GpuConfig};
use crate::mem::{LineWrite, MemSubsystem, PersistDest, ReqTag};
use crate::timeline::{SmTimeline, WarpState};
use crate::trace::TraceCapture;
use sbrp_core::epoch::{EpochAck, EpochEngine, FlushScope};
use sbrp_core::formal::EventId;
use sbrp_core::ops::PersistOpKind;
use sbrp_core::pbuffer::{
    BlockReason, DrainAction, EvictOutcome, LineIdx, OpOutcome, PersistUnit, StoreOutcome,
};
use sbrp_core::scope::{Scope, ThreadPos, WarpSlot};
use sbrp_core::stall::{StallBreakdown, StallCause};
use sbrp_core::ModelKind;
use sbrp_isa::{
    lanes_of, AccessKind, Code, FenceAccess, LaneAccess, LaunchConfig, MemWidth, StepResult,
    WarpInterp,
};
use std::sync::Arc;

/// The per-SM persistency hardware. One instance per SM, held inline:
/// the PersistUnit's size is fine unboxed and stays off the heap on
/// the per-cycle hot path.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Sbrp(PersistUnit),
    Epoch(EpochEngine),
}

/// One pending release's flag writes (applied when the release takes
/// effect per the model's rules).
struct RelBatch {
    lanes: Vec<(u64, u64, Option<EventId>)>,
}

/// A coalesced group of lanes touching one cache line.
struct Group {
    addr: u64,
    /// Bitmask of positions in [`MemOp::lanes`] (at most 32 lanes);
    /// iterate with [`lanes_of`], ascending as the lanes were issued.
    lanes: u32,
    /// Pre-allocated trace tokens for PM store groups.
    tokens: Vec<u64>,
}

enum OpKind {
    Load {
        pacq: Option<Scope>,
    },
    /// L1-bypassing load (flag spins; goes straight to the L2).
    LoadBypass,
    Store,
    Atomic {
        olds: Vec<u64>,
    },
}

/// An in-flight memory instruction, processed one group per issue slot.
struct MemOp {
    kind: OpKind,
    width: MemWidth,
    lanes: Vec<LaneAccess>,
    groups: Vec<Group>,
    next: usize,
    outstanding: u32,
}

enum WaitingOp {
    Mem(MemOp),
    /// Device-scope release awaiting `OpDone`; flags applied then.
    RelFlags(RelBatch),
    /// dFence / other engine-stalled fence awaiting `OpDone`.
    Fence,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Blocked {
    /// Waiting for outstanding fills/atomics.
    Mem,
    /// Waiting for the persist engine (resume via `take_resumable`).
    Engine,
    /// Waiting for an epoch barrier round.
    EpochWait,
    /// Waiting at a `__syncthreads`.
    Barrier,
    /// Asleep until the given cycle (compute or L1-hit latency).
    Sleep(u64),
}

struct WarpCtx {
    interp: WarpInterp,
    block_slot: usize,
    blocked: Option<Blocked>,
    op: Option<WaitingOp>,
    done: bool,
    /// The interpreter will re-present an already-counted instruction
    /// (engine-stall retry): don't count it again.
    retried: bool,
    /// Which fence put this warp into `Blocked::EpochWait`, for stall
    /// attribution.
    fence_cause: Option<StallCause>,
    /// `Sm::last_charge` when this warp's pending fixed-cause stall span
    /// began (see [`Sm::charge_stalls`]); meaningless while ready.
    since: u64,
}

/// A block's warp slots and barrier state. The entry is vacant while
/// `live == 0`; a vacant entry keeps its buffers for the next block
/// placed in it.
struct ResidentBlock {
    slots: Vec<usize>,
    live: u32,
    arrived: Vec<usize>,
}

/// Per-SM counters that are not part of the cache or engine stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmCounters {
    /// Warp instructions issued.
    pub instructions: u64,
    /// L1 read accesses (loads), all spaces.
    pub reads: u64,
    /// L1 read misses (loads), all spaces.
    pub read_misses: u64,
    /// L1 read accesses to PM data.
    pub pm_reads: u64,
    /// L1 read misses for PM data (Fig. 8).
    pub pm_read_misses: u64,
    /// Lines flushed into the persistence domain from this SM.
    pub persist_flushes: u64,
    /// Volatile writebacks (evictions + GPM barrier flushes).
    pub volatile_writebacks: u64,
    /// Warps that entered a durability wait: a dFence blocking on
    /// pending drains, or an epoch barrier ([`crate::fault`] counts
    /// these as crash-trigger events).
    pub dfence_waits: u64,
}

/// A streaming multiprocessor.
pub struct Sm {
    id: u32,
    l1: crate::mem::Cache,
    engine: Engine,
    warps: Vec<Option<WarpCtx>>,
    blocks: Vec<ResidentBlock>,
    /// Trace tokens of the persists accepted into each L1 line since its
    /// last flush, which takes them. Empty unless tracing is on. Under
    /// SBRP a line has at most one live persist-buffer entry, so a line's
    /// tokens are exactly its entry's persists.
    line_tokens: Vec<Vec<u64>>,
    /// Per L1 line: which bytes *this SM* wrote since the line's last
    /// flush (bit i = byte i of the line). Flushes commit only these
    /// bytes to the durable image, so falsely-shared lines cannot leak
    /// other SMs' unflushed writes.
    line_written: Vec<u128>,
    issue_width: u32,
    l1_hit_latency: u64,
    line_bytes: u32,
    /// Resident warps that can issue right now (`blocked == None`,
    /// `!done`). Maintained by [`Sm::set_blocked`]/[`Sm::clear_blocked`]
    /// and the warp lifecycle, so the per-cycle issue scan and the GPU's
    /// ready check are O(1) instead of O(warp slots).
    ready: u32,
    /// Bit per warp slot: set iff that slot holds a `Blocked::Engine`
    /// warp, the only kind whose stall cause `charge_stalls` samples.
    engine_mask: u32,
    /// The PCIe-backoff flag every charge since the pending fixed-cause
    /// spans' stamps was made under.
    pending_backoff: bool,
    /// Cached minimum of all `Blocked::Sleep(until)` targets
    /// (`u64::MAX` when no warp sleeps). Sleepers only wake in the tick
    /// scan, which recomputes the minimum, so the cache is exact.
    next_sleep_wake: u64,
    /// Vacant warp slots, so a failing `try_place_block` is a single
    /// compare instead of a slot scan plus an allocation.
    free_slots: u32,
    /// Reused lane-value buffer for load completions, so `finish_mem`
    /// does not allocate per completed memory op.
    scratch_vals: Vec<u64>,
    /// Reused drain-action and resumption buffers for `engine_tick`, so
    /// the persist unit's per-cycle output does not allocate.
    scratch_actions: Vec<DrainAction>,
    scratch_resumable: Vec<(WarpSlot, BlockReason)>,
    /// Lane lists and coalesced groups of finished memory instructions,
    /// handed back to the interpreter and to `coalesce` so the issue
    /// path does not allocate per access. Emptied when the SM has no
    /// resident warp.
    spare_lanes: Vec<Vec<LaneAccess>>,
    spare_groups: Vec<Vec<Group>>,
    /// The barrier-arrival list swapped out of a block while its warps
    /// are released.
    scratch_arrived: Vec<usize>,
    /// Blocks completed on this SM.
    pub completed_blocks: u64,
    counters: SmCounters,
    /// Stall cycles charged by cause, whole SM.
    stall: StallBreakdown,
    /// Stall cycles charged by cause, per warp slot.
    warp_stalls: Vec<StallBreakdown>,
    /// Last cycle stalls were charged up to (ticks can jump when the
    /// GPU fast-forwards; the gap is charged in one delta).
    last_charge: u64,
    /// Warp-state interval recorder (None unless tracing is on).
    timeline: Option<SmTimeline>,
    /// Whether the warp states may have changed since the last
    /// [`Sm::observe`]; also set by the GPU (completions, backoff flips).
    pub(crate) unobserved: bool,
}

impl Sm {
    /// Creates an SM per the configuration.
    #[must_use]
    pub fn new(id: u32, cfg: &GpuConfig) -> Self {
        let engine = match cfg.model {
            ModelKind::Sbrp => Engine::Sbrp(PersistUnit::new(cfg.pb)),
            ModelKind::Epoch => Engine::Epoch(EpochEngine::new(FlushScope::PmOnly)),
            ModelKind::Gpm => Engine::Epoch(EpochEngine::new(FlushScope::All)),
        };
        let slots = cfg.max_warps_per_sm as usize;
        let lines = cfg.l1_lines() as usize;
        let token_lines = if cfg.trace || cfg.sanitize { lines } else { 0 };
        Sm {
            id,
            l1: crate::mem::Cache::new(cfg.l1_kb * 1024, 4, cfg.line_bytes),
            engine,
            warps: (0..slots).map(|_| None).collect(),
            blocks: Vec::new(),
            line_tokens: vec![Vec::new(); token_lines],
            line_written: vec![0; lines],
            issue_width: cfg.issue_width,
            l1_hit_latency: u64::from(cfg.l1_hit_latency),
            line_bytes: cfg.line_bytes,
            ready: 0,
            engine_mask: 0,
            pending_backoff: false,
            next_sleep_wake: u64::MAX,
            free_slots: slots as u32,
            scratch_vals: Vec::new(),
            scratch_actions: Vec::new(),
            scratch_resumable: Vec::new(),
            spare_lanes: Vec::new(),
            spare_groups: Vec::new(),
            scratch_arrived: Vec::new(),
            completed_blocks: 0,
            counters: SmCounters::default(),
            stall: StallBreakdown::default(),
            warp_stalls: vec![StallBreakdown::default(); slots],
            last_charge: 0,
            timeline: cfg.timeline.then(|| SmTimeline::new(id, slots)),
            unobserved: false,
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> SmCounters {
        self.counters
    }

    /// SM-wide stall cycles by cause, up to the last charge.
    #[must_use]
    pub fn stall_breakdown(&self) -> StallBreakdown {
        let mut total = self.stall;
        for (_, cause, span) in self.pending_spans() {
            total.charge(cause, span);
        }
        total
    }

    /// Per-warp-slot stall cycles by cause, up to the last charge.
    #[must_use]
    pub fn warp_stall_breakdowns(&self) -> Vec<StallBreakdown> {
        let mut warps = self.warp_stalls.clone();
        for (slot, cause, span) in self.pending_spans() {
            warps[slot].charge(cause, span);
        }
        warps
    }

    /// Closes and drains the timeline recorder (empty if tracing off).
    pub fn take_timeline(&mut self, now: u64) -> Vec<crate::timeline::Slice> {
        self.timeline
            .as_mut()
            .map_or_else(Vec::new, |tl| tl.finish(now))
    }

    /// Persist-buffer stats (zero for epoch engines).
    #[must_use]
    pub fn pb_stats(&self) -> sbrp_core::pbuffer::PbStats {
        match &self.engine {
            Engine::Sbrp(u) => u.stats(),
            Engine::Epoch(_) => sbrp_core::pbuffer::PbStats::default(),
        }
    }

    /// Epoch barrier rounds executed (zero for SBRP).
    #[must_use]
    pub fn epoch_rounds(&self) -> u64 {
        match &self.engine {
            Engine::Sbrp(_) => 0,
            Engine::Epoch(e) => e.rounds(),
        }
    }

    /// Whether the persist engine has no buffered or in-flight persists.
    #[must_use]
    pub fn engine_quiescent(&self) -> bool {
        match &self.engine {
            Engine::Sbrp(u) => u.is_quiescent(),
            Engine::Epoch(e) => !e.round_active(),
        }
    }

    /// Begins the end-of-kernel drain: SBRP units ignore the window;
    /// epoch SMs flush their remaining dirty PM lines.
    pub fn begin_final_drain(&mut self, ms: &mut MemSubsystem, now: u64) {
        match &mut self.engine {
            Engine::Sbrp(u) => u.set_drain_all(true),
            Engine::Epoch(_) => {
                for line in self.l1.dirty_lines(true) {
                    self.flush_line(ms, now, line, PersistDest::Detached);
                    self.l1.invalidate(line);
                }
            }
        }
    }

    /// Ends the drain mode after a launch completes.
    pub fn end_final_drain(&mut self) {
        if let Engine::Sbrp(u) = &mut self.engine {
            u.set_drain_all(false);
        }
    }

    /// Places a block of a launch of the lowered kernel `code` on this
    /// SM if enough warp slots are free.
    pub fn try_place_block(
        &mut self,
        code: &Arc<Code>,
        launch: LaunchConfig,
        block_id: u32,
    ) -> bool {
        let need = launch.warps_per_block() as usize;
        // The maintained count makes the common failing case (every SM
        // probed each dispatch cycle while blocks queue) a bare compare,
        // with no slot scan and no allocation.
        if (self.free_slots as usize) < need {
            return false;
        }
        let block_slot = match self.blocks.iter().position(|b| b.live == 0) {
            Some(i) => i,
            None => {
                self.blocks.push(ResidentBlock {
                    slots: Vec::new(),
                    live: 0,
                    arrived: Vec::new(),
                });
                self.blocks.len() - 1
            }
        };
        let blk = &mut self.blocks[block_slot];
        debug_assert!(blk.arrived.is_empty());
        blk.slots.clear();
        blk.slots.extend(
            (0..self.warps.len())
                .filter(|&i| self.warps[i].is_none())
                .take(need),
        );
        debug_assert_eq!(blk.slots.len(), need);
        blk.live = need as u32;
        for (w, &slot) in blk.slots.iter().enumerate() {
            self.warps[slot] = Some(WarpCtx {
                interp: WarpInterp::with_code(code, launch, block_id, w as u32),
                block_slot,
                blocked: None,
                op: None,
                done: false,
                retried: false,
                fence_cause: None,
                since: 0,
            });
        }
        self.free_slots -= need as u32;
        self.ready += need as u32;
        self.unobserved = true;
        true
    }

    /// Flushes the bytes this SM wrote in `line` toward durability: one
    /// persist flush to `dest`, carrying the line's trace tokens (none
    /// when tracing is off) and a snapshot of the line's current
    /// functional NVM contents.
    fn flush_line(&mut self, ms: &mut MemSubsystem, now: u64, line: u32, dest: PersistDest) {
        let tokens = self
            .line_tokens
            .get_mut(line as usize)
            .map(std::mem::take)
            .unwrap_or_default();
        let addr = self.l1.addr_of(line);
        let mask = std::mem::take(&mut self.line_written[line as usize]);
        let write = LineWrite::snapshot(&ms.nvm_mem, addr, self.line_bytes as usize, mask);
        ms.submit_persist_flush(now, addr, write, dest, tokens);
        self.counters.persist_flushes += 1;
    }

    fn thread_pos(&self, slot: usize, lane: u8) -> ThreadPos {
        let ctx = self.warps[slot].as_ref().expect("warp present");
        ThreadPos::new(
            ctx.interp.block_id(),
            ctx.interp.warp_in_block() * 32 + u32::from(lane),
        )
    }

    fn coalesce(&mut self, lanes: &[LaneAccess]) -> Vec<Group> {
        // A warp touches at most 32 lines, so a linear scan beats a
        // HashMap here; insertion order (first-touch) is preserved.
        debug_assert!(lanes.len() <= 32, "a warp access has at most 32 lanes");
        let mut groups = self.spare_groups.pop().unwrap_or_default();
        for (i, la) in lanes.iter().enumerate() {
            let line = la.addr & !u64::from(self.line_bytes - 1);
            // Neighbouring lanes mostly share a line: try the newest
            // group before scanning (groups have distinct lines, so the
            // scan would find the same one).
            let found = if groups.last().is_some_and(|g| g.addr == line) {
                Some(groups.len() - 1)
            } else {
                groups.iter().position(|g| g.addr == line)
            };
            match found {
                Some(j) => groups[j].lanes |= 1 << i,
                None => groups.push(Group {
                    addr: line,
                    lanes: 1 << i,
                    tokens: Vec::new(),
                }),
            }
        }
        groups
    }

    /// Keeps a finished memory instruction's buffers for reuse. The
    /// groups are cleared now, so a pooled list holds no trace tokens.
    fn recycle(&mut self, mut op: MemOp) {
        op.groups.clear();
        self.spare_lanes.push(op.lanes);
        self.spare_groups.push(op.groups);
    }

    /// Makes `addr`'s line resident, handling the victim. `Err(())`
    /// means the issuing warp was stalled by the persist engine.
    fn ensure_line(
        &mut self,
        slot: usize,
        addr: u64,
        ms: &mut MemSubsystem,
        now: u64,
    ) -> Result<u32, ()> {
        if let Some(i) = self.l1.peek(addr) {
            return Ok(i);
        }
        let (way, victim) = self.l1.choose_victim(addr);
        if let Some(v) = victim {
            if v.pm && v.dirty {
                match &mut self.engine {
                    Engine::Sbrp(unit) => {
                        match unit.evict_request(WarpSlot::new(slot), LineIdx(v.line)) {
                            EvictOutcome::Flushed { .. } => {
                                let dest = PersistDest::Sbrp {
                                    sm: self.id,
                                    line: v.line,
                                };
                                self.flush_line(ms, now, v.line, dest);
                            }
                            EvictOutcome::NotBuffered => {
                                unreachable!("dirty PM line without a PB entry under SBRP");
                            }
                            EvictOutcome::Stall => return Err(()),
                        }
                    }
                    Engine::Epoch(_) => {
                        self.flush_line(ms, now, v.line, PersistDest::Detached);
                    }
                }
            } else if v.dirty {
                ms.submit_volatile_wb(now, v.addr, ReqTag::None);
                self.counters.volatile_writebacks += 1;
            }
        }
        self.l1.install(way, addr, false, is_pm(addr));
        Ok(way)
    }

    // ------------------------------------------------------------------
    // Completion routing (called by the GPU)
    // ------------------------------------------------------------------

    /// A line fill (or atomic response) for warp `slot` arrived.
    ///
    /// # Errors
    ///
    /// A fill routed to a warp with no in-flight memory op is a
    /// completion-protocol violation, reported instead of panicking so
    /// campaign runs can record the cell as failed and continue.
    pub fn on_fill(
        &mut self,
        slot: usize,
        tracer: &mut Option<TraceCapture>,
        ms: &MemSubsystem,
    ) -> Result<(), String> {
        let finish = {
            let Some(ctx) = self.warps[slot].as_mut() else {
                return Err(format!("fill for vacant warp slot {slot}"));
            };
            let Some(WaitingOp::Mem(op)) = ctx.op.as_mut() else {
                return Err(format!("fill for warp slot {slot} with no memory op"));
            };
            op.outstanding -= 1;
            op.outstanding == 0 && op.next == op.groups.len()
        };
        if finish {
            self.finish_mem(slot, tracer, ms);
        }
        Ok(())
    }

    /// The L2 accepted one of this SM's persist flushes (window credit).
    pub fn on_flush_accepted(&mut self) {
        if let Engine::Sbrp(unit) = &mut self.engine {
            unit.flush_accepted();
        }
    }

    /// A durability ack for an SBRP flush of `line`.
    ///
    /// # Errors
    ///
    /// Delivering an SBRP ack to an epoch SM, or an ack the persist
    /// unit cannot match to an in-flight flush, is a completion-protocol
    /// violation.
    pub fn on_persist_ack(&mut self, line: u32) -> Result<(), String> {
        match &mut self.engine {
            Engine::Sbrp(unit) => unit
                .try_ack_persist(LineIdx(line))
                .map_err(|e| format!("SM {}: {e}", self.id)),
            Engine::Epoch(_) => Err(format!("SBRP ack delivered to epoch SM {}", self.id)),
        }
    }

    /// An epoch barrier writeback (PM or volatile) completed.
    ///
    /// # Errors
    ///
    /// Delivering an epoch ack to an SBRP SM is a completion-protocol
    /// violation.
    pub fn on_epoch_ack(&mut self, ms: &mut MemSubsystem, now: u64) -> Result<(), String> {
        let ack = match &mut self.engine {
            Engine::Epoch(e) => e.ack(),
            Engine::Sbrp(_) => {
                return Err(format!("epoch ack delivered to SBRP SM {}", self.id));
            }
        };
        self.handle_epoch_ack(ack, ms, now);
        Ok(())
    }

    fn handle_epoch_ack(&mut self, ack: EpochAck, ms: &mut MemSubsystem, now: u64) {
        for w in ack.released.iter() {
            let slot = w.index();
            if self.warps[slot].is_some() {
                debug_assert_eq!(
                    self.warps[slot].as_ref().expect("warp").blocked,
                    Some(Blocked::EpochWait)
                );
                self.clear_blocked(slot);
                let ctx = self.warps[slot].as_mut().expect("warp");
                ctx.fence_cause = None;
                ctx.interp.complete();
            }
        }
        if ack.start_next {
            let count = self.epoch_flush_round(ms, now);
            let next = match &mut self.engine {
                Engine::Epoch(e) => e.begin_round(count),
                Engine::Sbrp(_) => unreachable!(),
            };
            self.handle_epoch_ack(next, ms, now);
        }
    }

    /// Snapshots and flushes dirty lines for an epoch barrier round.
    fn epoch_flush_round(&mut self, ms: &mut MemSubsystem, now: u64) -> u32 {
        let pm_only = match &self.engine {
            Engine::Epoch(e) => e.flush_scope() == FlushScope::PmOnly,
            Engine::Sbrp(_) => unreachable!(),
        };
        let mut count = 0u32;
        for line in self.l1.dirty_lines(false) {
            let addr = self.l1.addr_of(line);
            if self.l1.is_pm(line) {
                self.flush_line(ms, now, line, PersistDest::Epoch { sm: self.id });
                self.l1.invalidate(line);
                count += 1;
            } else if !pm_only {
                ms.submit_volatile_wb(now, addr, ReqTag::EpochVol { sm: self.id });
                self.counters.volatile_writebacks += 1;
                self.l1.invalidate(line);
                count += 1;
            }
        }
        count
    }

    // ------------------------------------------------------------------
    // The per-cycle tick
    // ------------------------------------------------------------------

    /// Blocks warp `slot`, maintaining the ready count, the engine mask,
    /// the cached sleep minimum and the warp's stall stamp. Callers only
    /// block currently-ready warps (a warp must have issued to hit a
    /// stall condition).
    fn set_blocked(&mut self, slot: usize, b: Blocked) {
        self.settle(slot);
        let ctx = self.warps[slot].as_mut().expect("warp");
        debug_assert!(!ctx.done, "blocking a finished warp");
        if ctx.blocked.is_none() {
            self.ready -= 1;
        }
        ctx.blocked = Some(b);
        ctx.since = self.last_charge;
        if b == Blocked::Engine {
            self.engine_mask |= 1 << slot;
        } else {
            self.engine_mask &= !(1 << slot);
        }
        if let Blocked::Sleep(until) = b {
            self.next_sleep_wake = self.next_sleep_wake.min(until);
        }
    }

    /// Unblocks warp `slot`, charging its pending stall span. Idempotent:
    /// completion paths can reach a warp the wake scan already released
    /// (an all-hit load finishing at its sleep deadline).
    fn clear_blocked(&mut self, slot: usize) {
        self.settle(slot);
        let ctx = self.warps[slot].as_mut().expect("warp");
        if ctx.blocked.take().is_some() {
            debug_assert!(!ctx.done, "a finished warp cannot be blocked");
            self.ready += 1;
            self.engine_mask &= !(1 << slot);
        }
    }

    /// Runs one cycle: engine drain, wakeups, and warp issue. Returns
    /// whether any externally visible progress happened. `step` is the
    /// GPU's scheduling-step count; the round-robin issue scan starts at
    /// slot `step % warp slots`; `backoff` is the PCIe-backoff flag.
    pub fn tick(
        &mut self,
        cycle: u64,
        step: u64,
        backoff: bool,
        ms: &mut MemSubsystem,
        tracer: &mut Option<TraceCapture>,
    ) -> bool {
        self.charge_stalls(cycle, backoff);
        self.observe(cycle, backoff);
        // What the tick changes is observed when the next step opens.
        self.unobserved = true;
        let mut progress = self.engine_tick(cycle, ms, tracer);

        // Wake sleepers — only when the cached minimum says one is due,
        // recomputing it over the sleepers that remain.
        if self.next_sleep_wake <= cycle {
            let mut next = u64::MAX;
            for slot in 0..self.warps.len() {
                let until = match self.warps[slot].as_ref().and_then(|c| c.blocked) {
                    Some(Blocked::Sleep(until)) => until,
                    _ => continue,
                };
                if until > cycle {
                    next = next.min(until);
                    continue;
                }
                self.clear_blocked(slot);
                // An all-hit load that was waiting out its L1 latency.
                let finished = matches!(
                    self.warps[slot].as_ref().and_then(|c| c.op.as_ref()),
                    Some(WaitingOp::Mem(op)) if op.next == op.groups.len() && op.outstanding == 0
                );
                if finished {
                    self.finish_mem(slot, tracer, ms);
                }
                progress = true;
            }
            self.next_sleep_wake = next;
        }

        // Issue warps round-robin. With no ready warp the scan is a
        // no-op (issuing is the only thing that could unblock one
        // mid-scan).
        let n = self.warps.len();
        let rr = (step % n as u64) as usize;
        let mut issued = 0;
        if self.ready > 0 {
            for k in 0..n {
                if issued >= self.issue_width {
                    break;
                }
                let slot = (rr + k) % n;
                let ready = matches!(
                    self.warps[slot].as_ref(),
                    Some(ctx) if ctx.blocked.is_none() && !ctx.done
                );
                if !ready {
                    continue;
                }
                self.issue(slot, cycle, ms, tracer);
                issued += 1;
            }
        }
        progress | (issued > 0)
    }

    /// Attributes every warp-stall cycle since the last charge to one
    /// [`StallCause`], per SM and per warp, under the PCIe-backoff flag
    /// `backoff`. Runs before wakeups and issue so an interval that ends
    /// this cycle is still charged up to it; `last_charge` makes
    /// fast-forward jumps and skipped ticks cost one delta.
    ///
    /// Charging is lazy. The GPU calls this up to `cycle - 1` just
    /// before it routes a completion to the SM, so a span the SM spent
    /// leapt over or skipped is attributed with the blocked state that
    /// actually held during it; [`Sm::tick`] then charges the final
    /// cycle with post-routing state. A completion is the only thing
    /// that changes a skipped SM's state, so an SM that takes none is
    /// charged its whole span at its next tick with that same state.
    /// The GPU passes in the flag and charges every SM at each flip, so
    /// each span charged here held one flag throughout.
    ///
    /// Only `Blocked::Engine` warps are sampled here: their cause is
    /// the persist unit's live state. Every other kind has a cause that
    /// cannot change while the warp stays blocked, except through the
    /// PCIe-backoff flag, so its whole span is charged at once by
    /// [`Sm::settle`] when the warp unblocks or is re-blocked. Before
    /// the flag flips, every pending span is settled up to the last
    /// charge, so each span is charged under the flag it accrued under.
    pub(crate) fn charge_stalls(&mut self, cycle: u64, backoff: bool) {
        if cycle > self.last_charge {
            if backoff != self.pending_backoff {
                for slot in 0..self.warps.len() {
                    self.settle(slot);
                }
                self.pending_backoff = backoff;
            }
            let delta = cycle - self.last_charge;
            let mut mask = self.engine_mask;
            while mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let ctx = self.warps[slot].as_ref().expect("masked slot has a warp");
                let cause = Self::stall_cause_of(&self.engine, ctx, Blocked::Engine, backoff, slot);
                self.stall.charge(cause, delta);
                self.warp_stalls[slot].charge(cause, delta);
            }
            self.last_charge = cycle;
        }
    }

    /// Records every slot's warp state on the timeline at `cycle` under
    /// the flag `backoff`, if the states may have changed since the last
    /// record (a no-op without a timeline).
    pub(crate) fn observe(&mut self, cycle: u64, backoff: bool) {
        let Some(tl) = self.timeline.as_mut() else {
            return;
        };
        if !std::mem::take(&mut self.unobserved) {
            return;
        }
        let engine = &self.engine;
        for (slot, warp) in self.warps.iter().enumerate() {
            let state = match warp {
                Some(ctx) if !ctx.done => Some(match ctx.blocked {
                    None => WarpState::Running,
                    Some(b) => {
                        WarpState::Stalled(Self::stall_cause_of(engine, ctx, b, backoff, slot))
                    }
                }),
                _ => None,
            };
            tl.observe(slot, state, cycle);
        }
    }

    /// Charges warp `slot`'s pending fixed-cause span and restamps it at
    /// the last charge. A no-op for ready and engine-blocked warps.
    fn settle(&mut self, slot: usize) {
        if let Some((cause, span)) = self.pending_span(slot) {
            self.stall.charge(cause, span);
            self.warp_stalls[slot].charge(cause, span);
            self.warps[slot]
                .as_mut()
                .expect("pending span has a warp")
                .since = self.last_charge;
        }
    }

    /// The cause and length of warp `slot`'s uncharged span, if it is
    /// blocked with a fixed cause and has accrued any cycles.
    fn pending_span(&self, slot: usize) -> Option<(StallCause, u64)> {
        let ctx = self.warps[slot].as_ref()?;
        let b = ctx.blocked.filter(|&b| b != Blocked::Engine)?;
        let span = self.last_charge - ctx.since;
        (span > 0).then(|| {
            let cause = Self::stall_cause_of(&self.engine, ctx, b, self.pending_backoff, slot);
            (cause, span)
        })
    }

    /// Every uncharged span: (slot, cause, cycles).
    fn pending_spans(&self) -> impl Iterator<Item = (usize, StallCause, u64)> + '_ {
        (0..self.warps.len()).filter_map(|slot| {
            self.pending_span(slot)
                .map(|(cause, span)| (slot, cause, span))
        })
    }

    /// Which cause a blocked warp is experiencing *right now*. Engine
    /// blocks refine dynamically: a durability wait whose buffer has
    /// fully drained is WPQ backpressure, and any durability or memory
    /// wait during PCIe fault-retry backoff is charged to the link.
    fn stall_cause_of(
        engine: &Engine,
        ctx: &WarpCtx,
        blocked: Blocked,
        backoff: bool,
        slot: usize,
    ) -> StallCause {
        match blocked {
            Blocked::Sleep(_) | Blocked::Barrier => StallCause::Scoreboard,
            Blocked::Mem => {
                if backoff {
                    StallCause::PcieBackoff
                } else {
                    StallCause::L1Miss
                }
            }
            Blocked::EpochWait => {
                let cause = ctx.fence_cause.unwrap_or(StallCause::DFence);
                if backoff {
                    StallCause::PcieBackoff
                } else {
                    cause
                }
            }
            Blocked::Engine => match engine {
                Engine::Sbrp(unit) => {
                    let cause = unit
                        .stall_cause(WarpSlot::new(slot))
                        .unwrap_or(StallCause::Scoreboard);
                    match cause {
                        StallCause::DFence | StallCause::PAcqRel => {
                            if backoff {
                                StallCause::PcieBackoff
                            } else if unit.buffered() == 0 && unit.outstanding() > 0 {
                                StallCause::WpqBackpressure
                            } else {
                                cause
                            }
                        }
                        other => other,
                    }
                }
                // Epoch engines never produce `Blocked::Engine`.
                Engine::Epoch(_) => StallCause::Scoreboard,
            },
        }
    }

    fn engine_tick(
        &mut self,
        cycle: u64,
        ms: &mut MemSubsystem,
        tracer: &mut Option<TraceCapture>,
    ) -> bool {
        let Engine::Sbrp(unit) = &mut self.engine else {
            return false;
        };
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let mut resumable = std::mem::take(&mut self.scratch_resumable);
        unit.tick_into(1, &mut actions);
        unit.take_resumable_into(&mut resumable);
        let progress = !actions.is_empty() || !resumable.is_empty();
        for action in actions.drain(..) {
            match action {
                DrainAction::Flush { line, .. } => {
                    let dest = PersistDest::Sbrp {
                        sm: self.id,
                        line: line.0,
                    };
                    self.flush_line(ms, cycle, line.0, dest);
                    // The drained line stays resident but clean: the data
                    // is now (about to be) durable, and keeping it cached
                    // is what lets intra-block consumers keep hitting in
                    // the L1 (§7.2, "writes under SBRP-near remain in L1
                    // cache"). A later store re-allocates a PB entry.
                    self.l1.clean(line.0);
                }
            }
        }
        for (w, reason) in resumable.drain(..) {
            let slot = w.index();
            debug_assert_eq!(
                self.warps[slot]
                    .as_ref()
                    .expect("blocked warp exists")
                    .blocked,
                Some(Blocked::Engine)
            );
            self.clear_blocked(slot);
            let ctx = self.warps[slot].as_mut().expect("blocked warp exists");
            match reason {
                BlockReason::RetryStore | BlockReason::RetryFull | BlockReason::RetryEvict => {
                    if ctx.op.is_none() {
                        // A fence refused for lack of space: re-issue it.
                        // The re-issue is the same dynamic instruction,
                        // so it must not be counted again.
                        ctx.interp.retry();
                        ctx.retried = true;
                    }
                    // Otherwise the in-flight MemOp resumes where it was.
                }
                BlockReason::OpDone => {
                    match ctx.op.take() {
                        Some(WaitingOp::RelFlags(batch)) => {
                            Self::apply_rel_batch(ms, tracer, &batch);
                        }
                        Some(WaitingOp::Fence) | None => {}
                        Some(WaitingOp::Mem(_)) => {
                            panic!("OpDone delivered to a warp with a memory op")
                        }
                    }
                    ctx.interp.complete();
                }
            }
        }
        self.scratch_actions = actions;
        self.scratch_resumable = resumable;
        progress
    }

    fn apply_rel_batch(ms: &mut MemSubsystem, tracer: &mut Option<TraceCapture>, batch: &RelBatch) {
        for &(addr, value, rel) in &batch.lanes {
            // Release flags are 32-bit, matching pAcq's load width.
            ms.write_mem(addr, value, 4);
            if let (Some(tc), Some(rel)) = (tracer.as_mut(), rel) {
                tc.flag_released(addr, rel);
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue path
    // ------------------------------------------------------------------

    fn issue(
        &mut self,
        slot: usize,
        cycle: u64,
        ms: &mut MemSubsystem,
        tracer: &mut Option<TraceCapture>,
    ) {
        if matches!(
            self.warps[slot].as_ref().and_then(|c| c.op.as_ref()),
            Some(WaitingOp::Mem(_))
        ) {
            // Continuation of an in-flight memory instruction (further
            // coalesced groups, or resumption after an engine stall):
            // the instruction was counted when it first issued.
            self.progress_mem(slot, cycle, ms, tracer);
            return;
        }
        // Count each dynamic instruction exactly once: a fence that the
        // engine refused and re-presents via `retry()` is the same
        // instruction, not a new one.
        let retried = {
            let ctx = self.warps[slot].as_mut().expect("warp");
            std::mem::take(&mut ctx.retried)
        };
        if !retried {
            self.counters.instructions += 1;
        }
        let result = self.warps[slot]
            .as_mut()
            .expect("warp")
            .interp
            .step_reusing(&mut self.spare_lanes);
        match result {
            StepResult::Alu => {}
            StepResult::Sleep(n) => {
                self.set_blocked(slot, Blocked::Sleep(cycle + u64::from(n)));
            }
            StepResult::Done => self.warp_done(slot),
            StepResult::Mem(access) => {
                let groups = self.coalesce(&access.lanes);
                let kind = match access.kind {
                    AccessKind::Load => OpKind::Load { pacq: None },
                    AccessKind::LoadVolatile => OpKind::LoadBypass,
                    AccessKind::Store => OpKind::Store,
                    AccessKind::AtomAdd => {
                        // Atomics execute functionally at issue, in lane
                        // order, capturing old values.
                        let width = access.width.bytes();
                        let olds = access
                            .lanes
                            .iter()
                            .map(|la| {
                                assert!(
                                    !is_pm(la.addr),
                                    "atomics on PM are unsupported (workloads use volatile \
                                     addresses for work distribution)"
                                );
                                let old = ms.read_mem(la.addr, width);
                                ms.write_mem(la.addr, old.wrapping_add(la.value), width);
                                old
                            })
                            .collect();
                        OpKind::Atomic { olds }
                    }
                };
                let op = MemOp {
                    kind,
                    width: access.width,
                    lanes: access.lanes,
                    groups,
                    next: 0,
                    outstanding: 0,
                };
                self.warps[slot].as_mut().expect("warp").op = Some(WaitingOp::Mem(op));
                self.progress_mem(slot, cycle, ms, tracer);
            }
            StepResult::Fence(f) => self.handle_fence(slot, f, cycle, ms, tracer),
        }
    }

    fn warp_done(&mut self, slot: usize) {
        let block_slot = {
            let ctx = self.warps[slot].as_mut().expect("warp");
            debug_assert!(ctx.blocked.is_none(), "a blocked warp cannot retire");
            ctx.done = true;
            ctx.block_slot
        };
        // The warp was issuing (hence ready); done warps are neither
        // ready nor blocked.
        self.ready -= 1;
        let blk = &mut self.blocks[block_slot];
        debug_assert!(blk.live > 0, "resident block");
        blk.live -= 1;
        if blk.live == 0 {
            self.free_slots += blk.slots.len() as u32;
            for &s in &blk.slots {
                debug_assert!(self.warps[s].as_ref().is_some_and(|c| c.done));
                self.warps[s] = None;
            }
            self.completed_blocks += 1;
            if self.free_slots as usize == self.warps.len() {
                // An idle SM returns its spare buffers: otherwise every
                // SM would hold its busiest moment's worth for the rest
                // of the run, which raised the crash benchmark's peak
                // RSS.
                self.spare_lanes = Vec::new();
                self.spare_groups = Vec::new();
            }
        } else if !blk.arrived.is_empty() && blk.arrived.len() as u32 == blk.live {
            self.release_barrier(block_slot);
        }
    }

    /// Releases every warp waiting at block `block_slot`'s barrier. The
    /// arrival list is swapped with a scratch list, so neither allocates
    /// after the first barrier.
    fn release_barrier(&mut self, block_slot: usize) {
        let mut arrived = std::mem::take(&mut self.scratch_arrived);
        std::mem::swap(&mut arrived, &mut self.blocks[block_slot].arrived);
        for &s in &arrived {
            debug_assert_eq!(
                self.warps[s].as_ref().expect("warp at barrier").blocked,
                Some(Blocked::Barrier)
            );
            self.clear_blocked(s);
            self.warps[s].as_mut().expect("warp").interp.complete();
        }
        arrived.clear();
        self.scratch_arrived = arrived;
    }

    // ------------------------------------------------------------------
    // Memory instructions
    // ------------------------------------------------------------------

    fn with_mem_op<R>(&mut self, slot: usize, f: impl FnOnce(&mut MemOp) -> R) -> R {
        let ctx = self.warps[slot].as_mut().expect("warp");
        match ctx.op.as_mut() {
            Some(WaitingOp::Mem(op)) => f(op),
            _ => panic!("warp has no memory op"),
        }
    }

    /// Processes the next group of the warp's memory op (one per issue
    /// slot, so scattered accesses cost proportional cycles).
    fn progress_mem(
        &mut self,
        slot: usize,
        cycle: u64,
        ms: &mut MemSubsystem,
        tracer: &mut Option<TraceCapture>,
    ) {
        enum Plan {
            LoadHit { addr: u64, pm: bool },
            LoadMiss { addr: u64, pm: bool },
            LoadBypass { addr: u64 },
            StorePm { addr: u64 },
            StoreVol { addr: u64 },
            Atomic { addr: u64 },
            Finished,
        }
        let plan = self.with_mem_op(slot, |op| {
            if op.next >= op.groups.len() {
                Plan::Finished
            } else {
                let addr = op.groups[op.next].addr;
                match op.kind {
                    OpKind::Load { .. } => Plan::LoadMiss {
                        addr,
                        pm: is_pm(addr),
                    },
                    OpKind::LoadBypass => Plan::LoadBypass { addr },
                    OpKind::Store if is_pm(addr) => Plan::StorePm { addr },
                    OpKind::Store => Plan::StoreVol { addr },
                    OpKind::Atomic { .. } => Plan::Atomic { addr },
                }
            }
        });
        let plan = match plan {
            Plan::LoadMiss { addr, pm } if self.l1.peek(addr).is_some() => {
                Plan::LoadHit { addr, pm }
            }
            other => other,
        };

        match plan {
            Plan::Finished => {}
            Plan::LoadHit { addr, pm } => {
                if pm {
                    self.counters.pm_reads += 1;
                }
                self.counters.reads += 1;
                let _ = self.l1.lookup(addr); // LRU touch
                self.with_mem_op(slot, |op| op.next += 1);
            }
            Plan::LoadMiss { addr, pm } => {
                match self.ensure_line(slot, addr, ms, cycle) {
                    Ok(_) => {
                        // Count only once the access is accepted, so
                        // engine-stall retries do not inflate the stats.
                        self.counters.reads += 1;
                        self.counters.read_misses += 1;
                        if pm {
                            self.counters.pm_reads += 1;
                            self.counters.pm_read_misses += 1;
                        }
                        ms.submit_load(
                            cycle,
                            addr,
                            ReqTag::LoadFill {
                                sm: self.id,
                                token: slot as u64,
                            },
                        );
                        self.with_mem_op(slot, |op| {
                            op.outstanding += 1;
                            op.next += 1;
                        });
                    }
                    Err(()) => {
                        self.set_blocked(slot, Blocked::Engine);
                        return;
                    }
                }
            }
            Plan::StorePm { addr } => {
                let line = match self.ensure_line(slot, addr, ms, cycle) {
                    Ok(l) => l,
                    Err(()) => {
                        self.set_blocked(slot, Blocked::Engine);
                        return;
                    }
                };
                // Pre-allocate trace tokens once per group so engine
                // retries do not duplicate persist events.
                if tracer.is_some() {
                    let lane_info: Vec<(u8, u64)> = self.with_mem_op(slot, |op| {
                        let g = &op.groups[op.next];
                        if g.tokens.is_empty() {
                            lanes_of(g.lanes)
                                .map(|i| (op.lanes[i].lane, op.lanes[i].addr))
                                .collect()
                        } else {
                            Vec::new()
                        }
                    });
                    if !lane_info.is_empty() {
                        let tokens: Vec<u64> = lane_info
                            .iter()
                            .map(|&(lane, a)| {
                                let pos = self.thread_pos(slot, lane);
                                tracer.as_mut().expect("tracer").persist(pos, a)
                            })
                            .collect();
                        self.with_mem_op(slot, |op| {
                            let next = op.next;
                            op.groups[next].tokens = tokens;
                        });
                    }
                }
                let accepted = match &mut self.engine {
                    Engine::Sbrp(unit) => matches!(
                        unit.persist_store(WarpSlot::new(slot), LineIdx(line)),
                        StoreOutcome::Coalesced | StoreOutcome::NewEntry
                    ),
                    Engine::Epoch(_) => true,
                };
                if !accepted {
                    // The store stalled on the line's earlier persist:
                    // flush it out of order right now if legal, so the
                    // warp resumes after one round-trip instead of a
                    // whole FIFO drain.
                    if let Engine::Sbrp(unit) = &mut self.engine {
                        if unit.try_early_flush(LineIdx(line)).is_some() {
                            let dest = PersistDest::Sbrp { sm: self.id, line };
                            self.flush_line(ms, cycle, line, dest);
                            self.l1.clean(line);
                        }
                    }
                    self.set_blocked(slot, Blocked::Engine);
                    return;
                }
                if tracer.is_some() {
                    let tokens =
                        self.with_mem_op(slot, |op| std::mem::take(&mut op.groups[op.next].tokens));
                    self.line_tokens[line as usize].extend(tokens);
                }
                self.l1.mark_dirty(line, true);
                // Fold the group's written-byte ranges into one mask so
                // the line_written entry is touched once per group.
                let off_mask = u64::from(self.line_bytes - 1);
                let line_bytes = u64::from(self.line_bytes);
                let mask = self.with_mem_op(slot, |op| {
                    let width = op.width.bytes();
                    let g = &op.groups[op.next];
                    let mut m = 0u128;
                    for i in lanes_of(g.lanes) {
                        let off = op.lanes[i].addr & off_mask;
                        debug_assert!(off + width <= line_bytes);
                        m |= ((1u128 << width) - 1) << off;
                    }
                    m
                });
                self.line_written[line as usize] |= mask;
                self.commit_store_group(slot, ms);
            }
            Plan::StoreVol { addr } => match self.ensure_line(slot, addr, ms, cycle) {
                Ok(line) => {
                    self.l1.mark_dirty(line, false);
                    self.commit_store_group(slot, ms);
                }
                Err(()) => {
                    self.set_blocked(slot, Blocked::Engine);
                    return;
                }
            },
            Plan::LoadBypass { addr } => {
                // Straight to the L2; no L1 residency or stats.
                ms.submit_load(
                    cycle,
                    addr,
                    ReqTag::LoadFill {
                        sm: self.id,
                        token: slot as u64,
                    },
                );
                self.with_mem_op(slot, |op| {
                    op.outstanding += 1;
                    op.next += 1;
                });
            }
            Plan::Atomic { addr } => {
                // Atomics bypass the L1.
                ms.submit_atomic(
                    cycle,
                    addr,
                    ReqTag::Atomic {
                        sm: self.id,
                        token: slot as u64,
                    },
                );
                self.with_mem_op(slot, |op| {
                    op.outstanding += 1;
                    op.next += 1;
                });
            }
        }

        // Completion checks.
        let (all_issued, outstanding, is_store) = self.with_mem_op(slot, |op| {
            (
                op.next >= op.groups.len(),
                op.outstanding,
                matches!(op.kind, OpKind::Store),
            )
        });
        if all_issued {
            if is_store {
                // Stores complete at L1 acceptance.
                let ctx = self.warps[slot].as_mut().expect("warp");
                let op = ctx.op.take();
                ctx.interp.complete();
                if let Some(WaitingOp::Mem(op)) = op {
                    self.recycle(op);
                }
            } else if outstanding > 0 {
                self.set_blocked(slot, Blocked::Mem);
            } else {
                // All-hit load: wait out the L1 hit latency.
                self.set_blocked(slot, Blocked::Sleep(cycle + self.l1_hit_latency));
            }
        }
    }

    /// Applies the functional writes of the store group just accepted.
    fn commit_store_group(&mut self, slot: usize, ms: &mut MemSubsystem) {
        let ctx = self.warps[slot].as_mut().expect("warp");
        let Some(WaitingOp::Mem(op)) = ctx.op.as_mut() else {
            panic!("commit_store_group without a memory op")
        };
        let width = op.width.bytes();
        let g = &op.groups[op.next];
        for i in lanes_of(g.lanes) {
            ms.write_mem(op.lanes[i].addr, op.lanes[i].value, width);
        }
        op.next += 1;
    }

    /// Finishes a load/pAcq/atomic: reads values and resumes the warp.
    fn finish_mem(&mut self, slot: usize, tracer: &mut Option<TraceCapture>, ms: &MemSubsystem) {
        self.clear_blocked(slot);
        let mut values = std::mem::take(&mut self.scratch_vals);
        values.clear();
        let ctx = self.warps[slot].as_mut().expect("warp");
        let Some(WaitingOp::Mem(op)) = ctx.op.take() else {
            panic!("finish_mem without a memory op")
        };
        match op.kind {
            OpKind::LoadBypass => {
                let width = op.width.bytes();
                values.extend(op.lanes.iter().map(|la| ms.read_mem(la.addr, width)));
                ctx.interp.complete_load(&values);
            }
            OpKind::Load { pacq } => {
                let width = op.width.bytes();
                values.extend(op.lanes.iter().map(|la| ms.read_mem(la.addr, width)));
                if let (Some(scope), Some(tc)) = (pacq, tracer.as_mut()) {
                    for la in &op.lanes {
                        let pos = ThreadPos::new(
                            ctx.interp.block_id(),
                            ctx.interp.warp_in_block() * 32 + u32::from(la.lane),
                        );
                        tc.pacq(pos, scope, la.addr);
                    }
                }
                ctx.interp.complete_load(&values);
            }
            OpKind::Atomic { ref olds } => ctx.interp.complete_load(olds),
            OpKind::Store => panic!("stores have no completion"),
        }
        self.scratch_vals = values;
        self.recycle(op);
    }

    // ------------------------------------------------------------------
    // Fences
    // ------------------------------------------------------------------

    fn trace_fence_all_lanes(
        &self,
        slot: usize,
        tracer: &mut Option<TraceCapture>,
        op: PersistOpKind,
    ) {
        if let Some(tc) = tracer.as_mut() {
            for lane in 0..32u8 {
                let pos = self.thread_pos(slot, lane);
                tc.fence(pos, op);
            }
        }
    }

    fn handle_fence(
        &mut self,
        slot: usize,
        fence: FenceAccess,
        cycle: u64,
        ms: &mut MemSubsystem,
        tracer: &mut Option<TraceCapture>,
    ) {
        match fence {
            FenceAccess::SyncBlock => self.sync_block(slot),
            FenceAccess::OFence => match &mut self.engine {
                Engine::Sbrp(unit) => {
                    let outcome = unit.ofence(WarpSlot::new(slot));
                    match outcome {
                        OpOutcome::Proceed => {
                            self.trace_fence_all_lanes(slot, tracer, PersistOpKind::OFence);
                            self.warps[slot].as_mut().expect("warp").interp.complete();
                        }
                        OpOutcome::StallRetry | OpOutcome::StallUntilDone => {
                            self.set_blocked(slot, Blocked::Engine);
                        }
                    }
                }
                Engine::Epoch(_) => self.epoch_barrier(slot, ms, tracer, cycle, StallCause::OFence),
            },
            FenceAccess::DFence => match &mut self.engine {
                Engine::Sbrp(unit) => match unit.dfence(WarpSlot::new(slot)) {
                    OpOutcome::Proceed => {
                        self.trace_fence_all_lanes(slot, tracer, PersistOpKind::DFence);
                        self.warps[slot].as_mut().expect("warp").interp.complete();
                    }
                    OpOutcome::StallUntilDone => {
                        self.trace_fence_all_lanes(slot, tracer, PersistOpKind::DFence);
                        self.counters.dfence_waits += 1;
                        self.warps[slot].as_mut().expect("warp").op = Some(WaitingOp::Fence);
                        self.set_blocked(slot, Blocked::Engine);
                    }
                    OpOutcome::StallRetry => {
                        self.set_blocked(slot, Blocked::Engine);
                    }
                },
                Engine::Epoch(_) => self.epoch_barrier(slot, ms, tracer, cycle, StallCause::DFence),
            },
            FenceAccess::EpochBarrier => match &self.engine {
                // Under SBRP an epoch barrier degrades to the strongest
                // primitive, a dFence.
                Engine::Sbrp(_) => self.handle_fence(slot, FenceAccess::DFence, cycle, ms, tracer),
                Engine::Epoch(_) => self.epoch_barrier(slot, ms, tracer, cycle, StallCause::DFence),
            },
            FenceAccess::PAcq { scope, lanes } => {
                if let Engine::Sbrp(unit) = &mut self.engine {
                    match unit.pacq(WarpSlot::new(slot), scope) {
                        OpOutcome::Proceed => {}
                        OpOutcome::StallRetry | OpOutcome::StallUntilDone => {
                            self.spare_lanes.push(lanes);
                            self.set_blocked(slot, Blocked::Engine);
                            return;
                        }
                    }
                }
                if matches!(scope, Scope::Device | Scope::System) {
                    // Device-scoped acquires must not read stale L1 data.
                    for la in &lanes {
                        if let Some(i) = self.l1.peek(la.addr) {
                            if !(self.l1.is_pm(i) && self.l1.is_dirty(i)) {
                                self.l1.invalidate(i);
                            }
                        }
                    }
                }
                let groups = self.coalesce(&lanes);
                let op = MemOp {
                    kind: OpKind::Load { pacq: Some(scope) },
                    width: MemWidth::W4,
                    lanes,
                    groups,
                    next: 0,
                    outstanding: 0,
                };
                self.warps[slot].as_mut().expect("warp").op = Some(WaitingOp::Mem(op));
                self.progress_mem(slot, cycle, ms, tracer);
            }
            FenceAccess::PRel { scope, lanes } => {
                let batch = RelBatch {
                    lanes: lanes
                        .iter()
                        .map(|la| {
                            let rel = tracer.as_mut().map(|tc| {
                                let pos = self.thread_pos(slot, la.lane);
                                tc.prel(pos, scope, la.addr)
                            });
                            (la.addr, la.value, rel)
                        })
                        .collect(),
                };
                self.spare_lanes.push(lanes);
                match &mut self.engine {
                    Engine::Sbrp(unit) => match unit.prel(WarpSlot::new(slot), scope) {
                        OpOutcome::Proceed => {
                            // Block scope: the flag publishes immediately
                            // (visible in this SM's L1); the PB enforces
                            // the durability ordering in the background.
                            Self::apply_rel_batch(ms, tracer, &batch);
                            self.warps[slot].as_mut().expect("warp").interp.complete();
                        }
                        OpOutcome::StallUntilDone => {
                            self.warps[slot].as_mut().expect("warp").op =
                                Some(WaitingOp::RelFlags(batch));
                            self.set_blocked(slot, Blocked::Engine);
                        }
                        OpOutcome::StallRetry => {
                            self.set_blocked(slot, Blocked::Engine);
                        }
                    },
                    Engine::Epoch(_) => {
                        // Baselines have no pRel; apply immediately.
                        Self::apply_rel_batch(ms, tracer, &batch);
                        self.warps[slot].as_mut().expect("warp").interp.complete();
                    }
                }
            }
        }
    }

    fn sync_block(&mut self, slot: usize) {
        let block_slot = self.warps[slot].as_ref().expect("warp").block_slot;
        self.set_blocked(slot, Blocked::Barrier);
        let blk = &mut self.blocks[block_slot];
        blk.arrived.push(slot);
        if blk.arrived.len() as u32 == blk.live {
            self.release_barrier(block_slot);
        }
    }

    fn epoch_barrier(
        &mut self,
        slot: usize,
        ms: &mut MemSubsystem,
        tracer: &mut Option<TraceCapture>,
        cycle: u64,
        cause: StallCause,
    ) {
        self.trace_fence_all_lanes(slot, tracer, PersistOpKind::EpochBarrier);
        self.counters.dfence_waits += 1;
        self.set_blocked(slot, Blocked::EpochWait);
        self.warps[slot].as_mut().expect("warp").fence_cause = Some(cause);
        let starts = match &mut self.engine {
            Engine::Epoch(e) => e.barrier(WarpSlot::new(slot)),
            Engine::Sbrp(_) => unreachable!("epoch barrier on an SBRP SM"),
        };
        if starts {
            let count = self.epoch_flush_round(ms, cycle);
            let ack = match &mut self.engine {
                Engine::Epoch(e) => e.begin_round(count),
                Engine::Sbrp(_) => unreachable!(),
            };
            self.handle_epoch_ack(ack, ms, cycle);
        }
    }

    /// The earliest cycle a sleeping warp wakes, for fast-forwarding.
    #[must_use]
    pub fn next_wake(&self) -> Option<u64> {
        (self.next_sleep_wake != u64::MAX).then_some(self.next_sleep_wake)
    }

    /// Whether any warp can issue right now.
    #[must_use]
    pub fn has_ready_warp(&self) -> bool {
        self.ready > 0
    }

    /// Whether a tick at `cycle` would change nothing but the stall
    /// accounts: no warp can issue, no sleeper is due, and the persist
    /// engine is an epoch engine (it acts only on completions) or an
    /// idle [`PersistUnit`]. The GPU skips such an SM's tick, except
    /// under the serial reference; its skipped stalls are charged later.
    #[must_use]
    pub fn is_idle_at(&self, cycle: u64) -> bool {
        self.ready == 0
            && self.next_sleep_wake > cycle
            && match &self.engine {
                Engine::Sbrp(unit) => unit.is_idle(),
                Engine::Epoch(_) => true,
            }
    }
}
