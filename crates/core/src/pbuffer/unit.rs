//! The per-SM SBRP engine: persist buffer + ODM/EDM/FSM + ACTR.
//!
//! [`PersistUnit`] is an event-driven state machine. The timing simulator
//! reports what warps do (persist stores, fences, acquires/releases,
//! evictions); the unit answers with proceed/stall decisions, emits lines
//! to flush from [`PersistUnit::tick_into`], consumes durability
//! acknowledgements via [`PersistUnit::try_ack_persist`], and hands back
//! warps to resume via [`PersistUnit::take_resumable_into`].

use super::buffer::PersistBuffer;
use super::entry::{EntryKind, LineIdx};
use super::masks::WarpMask;
use super::policy::DrainPolicy;
use crate::scope::{Scope, WarpSlot, MAX_WARPS_PER_SM};
use crate::stall::StallCause;
use std::collections::{HashMap, VecDeque};

/// Configuration of one SM's persist buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PbConfig {
    /// Maximum live PB entries. The paper's default covers half the L1's
    /// 512 lines (§6, "Storage overheads").
    pub capacity: usize,
    /// Drain policy (§6.2). Default: window of 6 outstanding persists.
    pub policy: DrainPolicy,
    /// Flush eligible persists out of order when the FIFO head is
    /// FSM-delayed (DESIGN.md refinement 6). Disable for ablation.
    pub ooo_drain: bool,
    /// Flush a stall-ordered line immediately when legal instead of
    /// waiting for the FIFO (DESIGN.md refinement 5). Disable for
    /// ablation.
    pub early_flush: bool,
    /// Track oFence prerequisites per warp instead of the paper's
    /// 1-bit FSM + global ACTR (DESIGN.md refinement 3). Disable for
    /// ablation: every FSM wait then requires the global generation.
    pub per_warp_fsm: bool,
}

impl Default for PbConfig {
    fn default() -> Self {
        PbConfig {
            capacity: 256,
            policy: DrainPolicy::default(),
            ooo_drain: true,
            early_flush: true,
            per_warp_fsm: true,
        }
    }
}

/// Outcome of a persist store presented to the unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The store coalesced into the line's existing PB entry.
    Coalesced,
    /// A fresh PB entry was allocated for the line.
    NewEntry,
    /// An ordering entry by the same warp follows the line's entry; the
    /// warp is stalled (EDM) until the line's earlier persist is durable,
    /// then must retry (§6.1, "Persist operation").
    StallOrdered,
    /// The PB is full; the warp must retry once space frees up.
    StallFull,
}

/// Outcome of a persistency operation presented to the unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// The operation completed (or was buffered); the warp continues.
    Proceed,
    /// The buffer was full; the warp is stalled and must *re-issue* the
    /// operation when it resumes (with [`BlockReason::RetryFull`]).
    StallRetry,
    /// The operation was buffered but the warp stalls until it takes
    /// effect (device `pRel`, `dFence`); it resumes with
    /// [`BlockReason::OpDone`] and the instruction is then complete.
    StallUntilDone,
}

/// Outcome of asking to evict a dirty PM line for cache replacement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvictOutcome {
    /// The line has no PB entry; the cache may do as it pleases.
    NotBuffered,
    /// The eviction is permitted; flush the line now. Carries the entry's
    /// warp mask and trace tokens for durability attribution.
    Flushed {
        /// Warps whose persists coalesced into the flushed entry.
        warps: WarpMask,
        /// Trace tokens of the coalesced persists.
        tokens: Vec<u64>,
    },
    /// An ordering entry precedes the line's entry (or unacknowledged
    /// flushed lines are ordered before it); the evicting warp stalls and
    /// must retry.
    Stall,
}

/// Why a warp was stalled by the unit, reported on resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// Retry the persist store (it was `StallOrdered`).
    RetryStore,
    /// Retry the store/op that found the PB full.
    RetryFull,
    /// Retry the eviction.
    RetryEvict,
    /// The stalling operation (device `pRel` / `dFence`) has completed;
    /// the warp continues past it.
    OpDone,
}

/// Actions the simulator must carry out after a [`PersistUnit::tick`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DrainAction {
    /// Write the L1 line back to the persistence domain and invalidate it
    /// ("A persist at the head of the PB is removed and the corresponding
    /// cache line is evicted"). Acknowledge later via
    /// [`PersistUnit::ack_persist`].
    Flush {
        /// The L1 line to write back.
        line: LineIdx,
        /// Warps whose persists are in the line (stats/tracing).
        warps: WarpMask,
        /// Trace tokens of the coalesced persists.
        tokens: Vec<u64>,
    },
}

/// Counters exposed for the evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PbStats {
    /// Persist stores *accepted* (coalesced or newly buffered). A
    /// stalled store is counted under its stall bucket instead and
    /// counts here only once its retry is accepted, so
    /// `stores == coalesced + entries` holds by construction.
    pub stores: u64,
    /// Stores that coalesced into an existing entry.
    pub coalesced: u64,
    /// Fresh persist entries allocated.
    pub entries: u64,
    /// Stores stalled on a same-warp ordering entry.
    pub stall_ordered: u64,
    /// Operations/stores stalled on a full buffer.
    pub stall_full: u64,
    /// Evictions stalled on ordering.
    pub stall_evict: u64,
    /// Lines flushed (drain + eviction).
    pub flushes: u64,
    /// Durability acknowledgements received.
    pub acks: u64,
    /// Ordering operations buffered, by kind.
    pub ofences: u64,
    /// dFences buffered.
    pub dfences: u64,
    /// pAcq operations buffered.
    pub pacqs: u64,
    /// pRel operations buffered.
    pub prels: u64,
}

/// The SBRP hardware of one SM (Fig. 5).
#[derive(Debug)]
pub struct PersistUnit {
    buf: PersistBuffer,
    policy: DrainPolicy,
    ooo_drain: bool,
    early_flush_enabled: bool,
    per_warp_fsm: bool,
    /// Order delay mask: warps stalled enforcing ordering (device pRel,
    /// dFence) whose PB entry has not yet drained.
    odm: WarpMask,
    /// Eviction delay mask: warps stalled on eviction/store-ordering or
    /// awaiting ACTR to reach zero after their entry drained.
    edm: WarpMask,
    /// Flush status mask: warps whose flushed persists are not all
    /// acknowledged yet.
    fsm: WarpMask,
    /// Per warp: the global acknowledgement generation that must be
    /// reached before the FSM bit clears (set by scoped acquire/release
    /// and dFence drains, whose prerequisites may span warps).
    fsm_need_global: [u64; MAX_WARPS_PER_SM],
    /// Per warp: the *own-flush* acknowledgement generation required (set
    /// by oFence drains — an oFence only orders the warp's own persists,
    /// so waiting on other warps' in-flight flushes would chain unrelated
    /// round-trips).
    fsm_need_own: [u64; MAX_WARPS_PER_SM],
    /// Total durability acknowledgements received.
    acks_done: u64,
    /// Per warp: durability acknowledgements of flushes the warp's
    /// persists were part of.
    acks_w: [u64; MAX_WARPS_PER_SM],
    /// Per warp: in-flight flushes carrying the warp's persists.
    outstanding_w: [u32; MAX_WARPS_PER_SM],
    /// Acknowledgement counter of flushed-but-not-durable lines.
    actr: u32,
    /// Flushes issued but not yet accepted downstream (L2/egress) — what
    /// the drain window actually paces. Durability (`actr`) lags far
    /// behind on PM-far, and pacing on it would cap throughput at
    /// window-per-round-trip; ordering correctness never depends on the
    /// window, only on `actr`/FSM.
    inflight: u32,
    blocked: [Option<BlockReason>; MAX_WARPS_PER_SM],
    /// Per blocked warp: the stall cause the timing simulator should
    /// charge its wait cycles to.
    stall_cause: [Option<StallCause>; MAX_WARPS_PER_SM],
    /// Warps awaiting ACTR==0 after their stalling entry drained.
    await_actr: WarpMask,
    /// Warps blocked with [`BlockReason::RetryEvict`]; every ack lets
    /// them retry.
    evict_waiters: WarpMask,
    /// Warps blocked until a specific line's flush is acknowledged.
    waiting_line: HashMap<LineIdx, WarpMask>,
    /// Warps of each outstanding (flushed, unacknowledged) write per
    /// line, FIFO per line.
    outstanding_line: HashMap<LineIdx, VecDeque<WarpMask>>,
    /// Empty queues of lines whose flushes were all acknowledged, reused
    /// for the next line flushed: flushing never allocates once as many
    /// lines have been in flight at once, and the unit holds queues only
    /// for that many lines, not for every line it ever flushed.
    spare_queues: Vec<VecDeque<WarpMask>>,
    /// Warps blocked until PB space frees.
    waiting_space: WarpMask,
    /// Drain aggressively (ignore the window) up to and including this
    /// sequence number: §6.1's "Once the bitmask is set, we flush the
    /// persists" for device-scoped releases and dFences.
    force_until: Option<u64>,
    /// When set, policy limits are ignored (kernel drain, barriers).
    drain_all: bool,
    resumable: Vec<(WarpSlot, BlockReason)>,
    /// `tick` is a pure function of unit state (it takes no clock), so
    /// once a tick produces no actions and queues no resumptions, every
    /// later tick is too until a mutating call arrives. This flag lets
    /// the per-cycle `tick` short-circuit; every public mutator clears
    /// it.
    idle: bool,
    stats: PbStats,
}

impl PersistUnit {
    /// Creates the unit.
    #[must_use]
    pub fn new(cfg: PbConfig) -> Self {
        PersistUnit {
            buf: PersistBuffer::new(cfg.capacity),
            policy: cfg.policy,
            ooo_drain: cfg.ooo_drain,
            early_flush_enabled: cfg.early_flush,
            per_warp_fsm: cfg.per_warp_fsm,
            odm: WarpMask::EMPTY,
            edm: WarpMask::EMPTY,
            fsm: WarpMask::EMPTY,
            fsm_need_global: [0; MAX_WARPS_PER_SM],
            fsm_need_own: [0; MAX_WARPS_PER_SM],
            acks_done: 0,
            acks_w: [0; MAX_WARPS_PER_SM],
            outstanding_w: [0; MAX_WARPS_PER_SM],
            actr: 0,
            inflight: 0,
            blocked: [None; MAX_WARPS_PER_SM],
            stall_cause: [None; MAX_WARPS_PER_SM],
            await_actr: WarpMask::EMPTY,
            evict_waiters: WarpMask::EMPTY,
            waiting_line: HashMap::new(),
            outstanding_line: HashMap::new(),
            spare_queues: Vec::new(),
            waiting_space: WarpMask::EMPTY,
            force_until: None,
            drain_all: false,
            resumable: Vec::new(),
            idle: false,
            stats: PbStats::default(),
        }
    }

    /// Current stats snapshot.
    #[must_use]
    pub fn stats(&self) -> PbStats {
        self.stats
    }

    /// Live PB entries.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Flushed-but-unacknowledged persists (the ACTR value).
    #[must_use]
    pub fn outstanding(&self) -> u32 {
        self.actr
    }

    /// Whether the unit holds no buffered or outstanding persists —
    /// i.e. everything presented so far is durable.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.buf.is_empty() && self.actr == 0
    }

    /// Whether a [`PersistUnit::tick`] now would do nothing: the last
    /// tick flushed nothing, no call has changed the unit since, and no
    /// resumption is waiting to be taken. The timing simulator skips the
    /// SMs whose unit is idle and whose warps cannot issue.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.idle && self.resumable.is_empty()
    }

    /// Whether `warp` is currently stalled by the unit.
    #[must_use]
    pub fn is_blocked(&self, warp: WarpSlot) -> bool {
        self.blocked[warp.index()].is_some()
    }

    /// Forces the drain loop to ignore policy limits (used at kernel
    /// completion to push everything to durability).
    pub fn set_drain_all(&mut self, on: bool) {
        self.idle = false;
        self.drain_all = on;
    }

    /// The ODM/EDM/FSM masks, for inspection.
    #[must_use]
    pub fn masks(&self) -> (WarpMask, WarpMask, WarpMask) {
        (self.odm, self.edm, self.fsm)
    }

    fn block(&mut self, warp: WarpSlot, reason: BlockReason, cause: StallCause) {
        debug_assert!(
            self.blocked[warp.index()].is_none(),
            "{warp} double-blocked"
        );
        self.blocked[warp.index()] = Some(reason);
        self.stall_cause[warp.index()] = Some(cause);
        match reason {
            BlockReason::OpDone => self.odm.set(warp),
            BlockReason::RetryEvict => {
                self.edm.set(warp);
                self.evict_waiters.set(warp);
            }
            BlockReason::RetryStore | BlockReason::RetryFull => self.edm.set(warp),
        }
    }

    fn resume(&mut self, warp: WarpSlot) {
        if let Some(reason) = self.blocked[warp.index()].take() {
            self.stall_cause[warp.index()] = None;
            self.odm.clear(warp);
            self.edm.clear(warp);
            self.evict_waiters.clear(warp);
            self.resumable.push((warp, reason));
        }
    }

    /// The stall cause of a warp this unit currently blocks (for
    /// per-cycle attribution by the timing simulator).
    #[must_use]
    pub fn stall_cause(&self, warp: WarpSlot) -> Option<StallCause> {
        self.stall_cause[warp.index()]
    }

    fn resume_mask(&mut self, mask: WarpMask) {
        for w in mask.iter() {
            self.resume(w);
        }
    }

    /// Warps the simulator should unblock, with the reason they were
    /// stalled (retry the instruction vs. instruction complete).
    pub fn take_resumable(&mut self) -> Vec<(WarpSlot, BlockReason)> {
        let mut out = Vec::new();
        self.take_resumable_into(&mut out);
        out
    }

    /// [`PersistUnit::take_resumable`] appended to a caller-owned
    /// buffer: the timing simulator reuses one per SM, so resuming warps
    /// never allocates.
    pub fn take_resumable_into(&mut self, out: &mut Vec<(WarpSlot, BlockReason)>) {
        out.append(&mut self.resumable);
    }

    /// Whether capacity pressure or a kernel-end drain requires ignoring
    /// the policy's drain limits. Stalled warps do *not* force draining:
    /// the window policy keeps persists flowing (flush → ack → next), so
    /// liveness holds, and forcing would flush-and-invalidate lines
    /// eagerly, forfeiting exactly the caching benefit buffering exists
    /// to provide (§6.2).
    fn forced(&self) -> bool {
        self.drain_all || self.buf.is_full()
    }

    /// Scans the FIFO (bounded depth) for persists that may legally
    /// flush out of order while the head is FSM-blocked, flushing each
    /// into `out` as it is found. Respects the drain policy's window.
    ///
    /// Flushing an entry mid-scan leaves the later entries' legality
    /// unchanged: it retires no ordering entry and touches no FSM state,
    /// and the window room is fixed before the scan.
    fn flush_ooo(&mut self, budget: usize, out: &mut Vec<DrainAction>) {
        const SCAN_DEPTH: usize = 128;
        let window_room = match self.policy {
            DrainPolicy::Eager => usize::MAX,
            DrainPolicy::Lazy => {
                if self.forced() {
                    usize::MAX
                } else {
                    0
                }
            }
            DrainPolicy::Window(n) => {
                if self.forced() {
                    usize::MAX
                } else {
                    (n as usize).saturating_sub(self.inflight as usize)
                }
            }
        };
        let limit = budget.min(window_room);
        // Walk the first SCAN_DEPTH live entries by seq, so checking the
        // FSM (which clears satisfied bits) and flushing do not hold a
        // borrow of the buffer.
        let (mut scanned, mut picked) = (0, 0);
        for seq in self.buf.seqs() {
            if scanned == SCAN_DEPTH || picked >= limit {
                break;
            }
            let e = self.buf.entry(seq).expect("seq within the FIFO");
            let (kind, warps) = (e.kind, e.warps);
            let EntryKind::Persist(line) = kind else {
                scanned += usize::from(kind != EntryKind::Tombstone);
                continue;
            };
            scanned += 1;
            if !self.buf.has_ordering_before_for(seq, warps) && self.fsm_clear_satisfied(warps) {
                let e = self.buf.tombstone(seq);
                self.note_flush(line, e.warps);
                out.push(DrainAction::Flush {
                    line,
                    warps: e.warps,
                    tokens: e.tokens,
                });
                picked += 1;
            }
        }
    }

    /// Marks `warps` in the FSM. `own_only` is set for oFence drains:
    /// an oFence orders only the warp's own persists, so its later
    /// persists need wait only for the warp's own in-flight flushes.
    /// Scoped acquire/release and dFence use the conservative global
    /// generation (their prerequisites may involve other warps).
    fn mark_fsm(&mut self, warps: WarpMask, own_only: bool) {
        let own_only = own_only && self.per_warp_fsm;
        for w in warps.iter() {
            if own_only {
                let out = self.outstanding_w[w.index()];
                if out > 0 {
                    self.fsm.set(w);
                    let need = self.acks_w[w.index()] + u64::from(out);
                    self.fsm_need_own[w.index()] = self.fsm_need_own[w.index()].max(need);
                }
            } else if self.actr > 0 {
                self.fsm.set(w);
                let need = self.acks_done + u64::from(self.actr);
                self.fsm_need_global[w.index()] = self.fsm_need_global[w.index()].max(need);
            }
        }
    }

    /// Clears satisfied FSM bits among `warps`; returns true if none of
    /// them remain marked (their ordering prerequisites are durable).
    fn fsm_clear_satisfied(&mut self, warps: WarpMask) -> bool {
        for w in (warps & self.fsm).iter() {
            if self.acks_done >= self.fsm_need_global[w.index()]
                && self.acks_w[w.index()] >= self.fsm_need_own[w.index()]
            {
                self.fsm.clear(w);
            }
        }
        !warps.intersects(self.fsm)
    }

    // ------------------------------------------------------------------
    // Warp-facing events
    // ------------------------------------------------------------------

    /// A warp wrote to the dirty PM line `line` in the L1. `tokens` are
    /// opaque trace ids for the lane stores (empty when tracing is off).
    pub fn persist_store(&mut self, warp: WarpSlot, line: LineIdx) -> StoreOutcome {
        self.idle = false;
        self.persist_store_traced(warp, line, &[])
    }

    /// [`PersistUnit::persist_store`] with trace tokens attached.
    pub fn persist_store_traced(
        &mut self,
        warp: WarpSlot,
        line: LineIdx,
        tokens: &[u64],
    ) -> StoreOutcome {
        self.idle = false;
        if let Some(seq) = self.buf.line_entry(line) {
            if self.buf.warp_has_ordering_after(warp, seq) {
                self.stats.stall_ordered += 1;
                self.block(warp, BlockReason::RetryStore, StallCause::PbOrdered);
                self.waiting_line.entry(line).or_default().set(warp);
                return StoreOutcome::StallOrdered;
            }
            self.buf.coalesce(seq, warp);
            if !tokens.is_empty() {
                self.buf
                    .entry_mut(seq)
                    .expect("coalesced entry present")
                    .tokens
                    .extend_from_slice(tokens);
            }
            self.stats.stores += 1;
            self.stats.coalesced += 1;
            StoreOutcome::Coalesced
        } else {
            match self.buf.push(EntryKind::Persist(line), warp) {
                Some(seq) => {
                    if !tokens.is_empty() {
                        self.buf
                            .entry_mut(seq)
                            .expect("new entry present")
                            .tokens
                            .extend_from_slice(tokens);
                    }
                    self.stats.stores += 1;
                    self.stats.entries += 1;
                    StoreOutcome::NewEntry
                }
                None => {
                    self.stats.stall_full += 1;
                    self.block(warp, BlockReason::RetryFull, StallCause::PbFull);
                    self.waiting_space.set(warp);
                    StoreOutcome::StallFull
                }
            }
        }
    }

    /// Pushes an ordering entry, coalescing into the tail when legal.
    /// Returns the entry's seq, or `None` if the buffer was full (the
    /// warp is then blocked for retry).
    fn push_op(&mut self, kind: EntryKind, warp: WarpSlot) -> Option<u64> {
        if let Some(back) = self.buf.back() {
            if back.kind == kind && back.kind != EntryKind::Tombstone {
                let seq = back.seq;
                self.buf.coalesce(seq, warp);
                return Some(seq);
            }
        }
        match self.buf.push(kind, warp) {
            Some(seq) => Some(seq),
            None => {
                self.stats.stall_full += 1;
                self.block(warp, BlockReason::RetryFull, StallCause::PbFull);
                self.waiting_space.set(warp);
                None
            }
        }
    }

    /// A warp issued an `oFence`. Never stalls (beyond a full buffer).
    pub fn ofence(&mut self, warp: WarpSlot) -> OpOutcome {
        self.idle = false;
        if self.push_op(EntryKind::OFence, warp).is_some() {
            self.stats.ofences += 1;
            OpOutcome::Proceed
        } else {
            OpOutcome::StallRetry
        }
    }

    /// A warp issued a scoped `pAcq`. The warp proceeds (the FSM enforces
    /// ordering when the entry drains); for device scope the *simulator*
    /// additionally invalidates the flag's L1 line before the load.
    pub fn pacq(&mut self, warp: WarpSlot, scope: Scope) -> OpOutcome {
        self.idle = false;
        if self.push_op(EntryKind::PAcq(scope), warp).is_some() {
            self.stats.pacqs += 1;
            OpOutcome::Proceed
        } else {
            OpOutcome::StallRetry
        }
    }

    /// A warp issued a scoped `pRel`.
    ///
    /// Block scope: the warp proceeds and the flag write is visible
    /// immediately (within the SM's L1) — synchronization runs at cache
    /// speed while the FIFO + FSM enforce the durability *ordering* in
    /// the background; this is what lets a threadblock's reduction stay
    /// inside the L1 (§7.2). Device scope: the warp stalls (ODM) until
    /// the entry drains and all flushed persists are acknowledged, then
    /// resumes with [`BlockReason::OpDone`] and publishes the flag.
    pub fn prel(&mut self, warp: WarpSlot, scope: Scope) -> OpOutcome {
        self.idle = false;
        let Some(seq) = self.push_op(EntryKind::PRel(scope), warp) else {
            return OpOutcome::StallRetry;
        };
        self.stats.prels += 1;
        match scope {
            Scope::Block => OpOutcome::Proceed,
            Scope::Device | Scope::System => {
                // "Once the bitmask is set, we flush the persists": drain
                // everything up to the release without window pacing.
                self.force_until = Some(self.force_until.map_or(seq, |f| f.max(seq)));
                self.block(warp, BlockReason::OpDone, StallCause::PAcqRel);
                OpOutcome::StallUntilDone
            }
        }
    }

    /// A warp issued a `dFence`: it stalls until all of its prior
    /// persists are durable.
    pub fn dfence(&mut self, warp: WarpSlot) -> OpOutcome {
        self.idle = false;
        let Some(seq) = self.push_op(EntryKind::DFence, warp) else {
            return OpOutcome::StallRetry;
        };
        self.stats.dfences += 1;
        self.force_until = Some(self.force_until.map_or(seq, |f| f.max(seq)));
        self.block(warp, BlockReason::OpDone, StallCause::DFence);
        OpOutcome::StallUntilDone
    }

    /// The cache wants to evict dirty PM line `line` (capacity/conflict
    /// replacement) on behalf of `warp`.
    pub fn evict_request(&mut self, warp: WarpSlot, line: LineIdx) -> EvictOutcome {
        self.idle = false;
        let Some(seq) = self.buf.line_entry(line) else {
            return EvictOutcome::NotBuffered;
        };
        let entry_warps = self.buf.entry(seq).expect("live entry").warps;
        if self.buf.has_ordering_before_for(seq, entry_warps)
            || !self.fsm_clear_satisfied(entry_warps)
        {
            self.stats.stall_evict += 1;
            self.block(warp, BlockReason::RetryEvict, StallCause::PbOrdered);
            // Accelerate the drain up to the blocked entry so the stalled
            // eviction's prerequisites (the ordering entries before it and
            // their persists) clear as fast as the path allows.
            self.force_until = Some(self.force_until.map_or(seq, |f| f.max(seq)));
            return EvictOutcome::Stall;
        }
        let e = self.buf.tombstone(seq);
        self.note_flush(line, e.warps);
        self.free_space();
        EvictOutcome::Flushed {
            warps: e.warps,
            tokens: e.tokens,
        }
    }

    /// Attempts an out-of-order flush of `line`'s buffered persist —
    /// used when a store stalled on it (§6.1: the warp waits "until PBk
    /// is persisted", so flushing PBk immediately when legal collapses
    /// the wait to one persist round-trip). Eligibility matches the
    /// eviction rule. On success the caller must write the line back and
    /// acknowledge via [`PersistUnit::ack_persist`]; the line stays in
    /// the cache (clean).
    pub fn try_early_flush(&mut self, line: LineIdx) -> Option<(WarpMask, Vec<u64>)> {
        self.idle = false;
        if !self.early_flush_enabled {
            return None;
        }
        let seq = self.buf.line_entry(line)?;
        let entry_warps = self.buf.entry(seq).expect("live entry").warps;
        if self.buf.has_ordering_before_for(seq, entry_warps)
            || !self.fsm_clear_satisfied(entry_warps)
        {
            return None;
        }
        let e = self.buf.tombstone(seq);
        self.note_flush(line, e.warps);
        self.free_space();
        Some((e.warps, e.tokens))
    }

    fn free_space(&mut self) {
        if !self.buf.is_full() && !self.waiting_space.is_empty() {
            let mask = std::mem::take(&mut self.waiting_space);
            self.resume_mask(mask);
        }
    }

    // ------------------------------------------------------------------
    // Drain + acknowledgement
    // ------------------------------------------------------------------

    /// Advances the drain pipeline, returning the actions (at most
    /// `max_flushes` line flushes) the simulator must perform.
    pub fn tick(&mut self, max_flushes: usize) -> Vec<DrainAction> {
        let mut actions = Vec::new();
        self.tick_into(max_flushes, &mut actions);
        actions
    }

    /// [`PersistUnit::tick`] appending its actions to a caller-owned
    /// buffer: the timing simulator reuses one per SM, so draining never
    /// allocates.
    pub fn tick_into(&mut self, max_flushes: usize, actions: &mut Vec<DrainAction>) {
        if self.idle {
            return;
        }
        let start = actions.len();
        let mut flushed = 0usize;
        while let Some(head) = self.buf.peek_head() {
            let head_kind = head.kind;
            let head_warps = head.warps;
            let head_seq = head.seq;
            match head_kind {
                EntryKind::Persist(line) => {
                    if !self.fsm_clear_satisfied(head_warps) {
                        if !self.ooo_drain {
                            break;
                        }
                        // The head persist must wait for acknowledgements
                        // (its warps are FSM-marked), but entries behind
                        // it whose warps have no pending ordering may
                        // flush out of order — the same legality rule as
                        // the eviction path. This keeps the persist path
                        // busy instead of serializing the whole SM on
                        // every fence (the FSM's purpose: don't stall
                        // unrelated warps).
                        let budget = max_flushes.saturating_sub(flushed);
                        self.flush_ooo(budget, actions);
                        self.free_space();
                        break;
                    }
                    let head_forced = self.force_until.is_some_and(|f| head_seq <= f);
                    let allowed = match self.policy {
                        DrainPolicy::Eager => true,
                        DrainPolicy::Lazy => {
                            self.forced() || head_forced || self.buf.ordering_len() > 0
                        }
                        DrainPolicy::Window(n) => self.forced() || head_forced || self.inflight < n,
                    };
                    if !allowed || flushed >= max_flushes {
                        break;
                    }
                    let e = self.buf.pop_head().expect("peeked head");
                    self.note_flush(line, e.warps);
                    flushed += 1;
                    actions.push(DrainAction::Flush {
                        line,
                        warps: e.warps,
                        tokens: e.tokens,
                    });
                }
                EntryKind::OFence => {
                    let e = self.buf.pop_head().expect("peeked head");
                    self.mark_fsm(e.warps, true);
                }
                EntryKind::PAcq(_) | EntryKind::PRel(Scope::Block) => {
                    let e = self.buf.pop_head().expect("peeked head");
                    self.mark_fsm(e.warps, false);
                }
                EntryKind::PRel(_) | EntryKind::DFence => {
                    let e = self.buf.pop_head().expect("peeked head");
                    if self.force_until == Some(e.seq) {
                        self.force_until = None;
                    }
                    self.mark_fsm(e.warps, false);
                    self.begin_await_actr(e.warps);
                }
                EntryKind::Tombstone => unreachable!("peek_head skips tombstones"),
            }
            self.free_space();
        }
        self.idle = actions.len() == start && self.resumable.is_empty();
    }

    /// Marks `warps` as waiting for ACTR==0 (their device-release/dFence
    /// entry has drained), resuming immediately if nothing is in flight.
    fn begin_await_actr(&mut self, warps: WarpMask) {
        // ODM bits are reset and the same bits are set in the EDM (§6.1).
        for w in warps.iter() {
            if self.blocked[w.index()] == Some(BlockReason::OpDone) {
                self.odm.clear(w);
                self.edm.set(w);
            }
        }
        self.await_actr |= warps;
        if self.actr == 0 {
            self.on_actr_zero();
        }
    }

    /// Books a flush: counters, per-line/per-warp outstanding tracking.
    fn note_flush(&mut self, line: LineIdx, warps: WarpMask) {
        self.actr += 1;
        self.inflight += 1;
        self.outstanding_line
            .entry(line)
            .or_insert_with(|| self.spare_queues.pop().unwrap_or_default())
            .push_back(warps);
        for w in warps.iter() {
            self.outstanding_w[w.index()] += 1;
        }
        self.stats.flushes += 1;
    }

    /// The downstream (L2/egress) accepted a flush: returns a window
    /// credit. Purely a pacing signal; ordering state is untouched.
    pub fn flush_accepted(&mut self) {
        self.idle = false;
        self.inflight = self.inflight.saturating_sub(1);
    }

    /// The persistence domain acknowledged the flush of `line`.
    ///
    /// # Errors
    /// An ack the unit cannot match is a completion-protocol violation:
    /// [`AckError::NoOutstandingFlush`] if no flush of `line` is in
    /// flight, [`AckError::ActrUnderflow`] if the ACTR is already zero.
    /// The unit is left unchanged.
    pub fn try_ack_persist(&mut self, line: LineIdx) -> Result<(), AckError> {
        let Some(q) = self.outstanding_line.get_mut(&line) else {
            return Err(AckError::NoOutstandingFlush(line));
        };
        if self.actr == 0 {
            return Err(AckError::ActrUnderflow(line));
        }
        self.idle = false;
        let warps = q
            .pop_front()
            .expect("a line's queue is dropped when it empties");
        let line_idle = q.is_empty();
        if line_idle {
            let q = self.outstanding_line.remove(&line).expect("queue present");
            self.spare_queues.push(q);
        }
        self.actr -= 1;
        self.acks_done += 1;
        for w in warps.iter() {
            self.outstanding_w[w.index()] -= 1;
            self.acks_w[w.index()] += 1;
        }
        self.stats.acks += 1;
        if line_idle {
            if let Some(mask) = self.waiting_line.remove(&line) {
                self.resume_mask(mask);
            }
        }
        // Let stalled evictions retry on every acknowledgement: the
        // blocking ordering entry may have drained by now. (Waiting for
        // ACTR to reach exactly zero can starve evictors indefinitely
        // under a steady drain stream.)
        self.resume_mask(self.evict_waiters);
        if self.actr == 0 {
            self.on_actr_zero();
        }
        Ok(())
    }

    /// [`PersistUnit::try_ack_persist`] for callers that only ack what
    /// the unit flushed (tests, probes).
    ///
    /// # Panics
    /// Panics on an ack the unit cannot match.
    pub fn ack_persist(&mut self, line: LineIdx) {
        if let Err(e) = self.try_ack_persist(line) {
            panic!("{e}");
        }
    }

    fn on_actr_zero(&mut self) {
        self.fsm.clear_all();
        let waiters = std::mem::take(&mut self.await_actr);
        self.resume_mask(waiters);
        // Stalled evictions retry when outstanding flushes complete.
        self.resume_mask(self.evict_waiters);
    }
}

/// An acknowledgement [`PersistUnit::try_ack_persist`] cannot match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckError {
    /// No flush of the line is in flight.
    NoOutstandingFlush(LineIdx),
    /// The line has a flush in flight but the ACTR is zero.
    ActrUnderflow(LineIdx),
}

impl std::fmt::Display for AckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AckError::NoOutstandingFlush(line) => {
                write!(f, "ack for line {line} with no outstanding flush")
            }
            AckError::ActrUnderflow(line) => write!(f, "ack for line {line} underflows the ACTR"),
        }
    }
}

impl std::error::Error for AckError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> PersistUnit {
        PersistUnit::new(PbConfig::default())
    }

    fn w(i: usize) -> WarpSlot {
        WarpSlot::new(i)
    }

    fn flush_lines(actions: &[DrainAction]) -> Vec<LineIdx> {
        actions
            .iter()
            .map(|a| match a {
                DrainAction::Flush { line, .. } => *line,
            })
            .collect()
    }

    #[test]
    fn stores_coalesce_without_ordering() {
        let mut u = unit();
        assert_eq!(u.persist_store(w(0), LineIdx(1)), StoreOutcome::NewEntry);
        assert_eq!(u.persist_store(w(0), LineIdx(1)), StoreOutcome::Coalesced);
        assert_eq!(u.persist_store(w(1), LineIdx(1)), StoreOutcome::Coalesced);
        assert_eq!(u.buffered(), 1);
    }

    #[test]
    fn ofence_blocks_same_warp_same_line_rewrite() {
        // §6.1's example: pX=a, pY=b, oFence, pX=c — the second store to
        // pX must wait until the first is durable.
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1)); // pX = a
        u.persist_store(w(0), LineIdx(2)); // pY = b
        assert_eq!(u.ofence(w(0)), OpOutcome::Proceed);
        assert_eq!(
            u.persist_store(w(0), LineIdx(1)),
            StoreOutcome::StallOrdered
        );
        assert!(u.is_blocked(w(0)));

        // Drain both persists, ack them: warp resumes with RetryStore.
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts), vec![LineIdx(1), LineIdx(2)]);
        u.ack_persist(LineIdx(2));
        assert!(u.take_resumable().is_empty(), "pX not yet durable");
        u.ack_persist(LineIdx(1));
        let resumed = u.take_resumable();
        assert_eq!(resumed, vec![(w(0), BlockReason::RetryStore)]);
        assert_eq!(u.persist_store(w(0), LineIdx(1)), StoreOutcome::NewEntry);
    }

    #[test]
    fn other_warp_may_coalesce_across_foreign_fence() {
        // The per-warp tracking avoids the false ordering of line-only
        // tracking (§6, "false ordering" discussion).
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1));
        u.ofence(w(1)); // a *different* warp's fence
        assert_eq!(u.persist_store(w(0), LineIdx(1)), StoreOutcome::Coalesced);
    }

    #[test]
    fn window_policy_limits_outstanding() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Window(2),
            ..PbConfig::default()
        });
        for i in 0..5 {
            u.persist_store(w(0), LineIdx(i));
        }
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts).len(), 2, "window of 2 outstanding");
        assert_eq!(u.outstanding(), 2);
        assert!(u.tick(8).is_empty(), "window exhausted");
        // Downstream-accept credits open the window again; durability
        // acks alone do not pace the drain.
        u.flush_accepted();
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts).len(), 1);
        u.ack_persist(LineIdx(0));
        assert_eq!(u.outstanding(), 2);
    }

    #[test]
    fn lazy_policy_flushes_only_with_ordering_pressure() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Lazy,
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        assert!(u.tick(8).is_empty(), "lazy: no drain without ordering");
        u.ofence(w(0));
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts), vec![LineIdx(1)]);
    }

    #[test]
    fn eager_policy_flushes_immediately() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Eager,
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        assert_eq!(flush_lines(&u.tick(8)), vec![LineIdx(1)]);
    }

    #[test]
    fn fsm_orders_post_fence_persists_behind_acks() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Eager,
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        u.ofence(w(0));
        u.persist_store(w(0), LineIdx(2));
        let acts = u.tick(8);
        // Only line 1 flushes; the oFence drained and set FSM for w0, so
        // line 2 (same warp) must wait for the ack.
        assert_eq!(flush_lines(&acts), vec![LineIdx(1)]);
        assert!(u.tick(8).is_empty());
        u.ack_persist(LineIdx(1));
        assert_eq!(flush_lines(&u.tick(8)), vec![LineIdx(2)]);
    }

    #[test]
    fn fsm_does_not_stall_unrelated_warps() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Eager,
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        u.ofence(w(0));
        u.persist_store(w(1), LineIdx(2)); // different warp
        let acts = u.tick(8);
        assert_eq!(
            flush_lines(&acts),
            vec![LineIdx(1), LineIdx(2)],
            "w1's persist is not ordered by w0's fence"
        );
    }

    #[test]
    fn dfence_stalls_until_all_acks() {
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1));
        u.persist_store(w(0), LineIdx(2));
        assert_eq!(u.dfence(w(0)), OpOutcome::StallUntilDone);
        assert!(u.is_blocked(w(0)));
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts), vec![LineIdx(1), LineIdx(2)]);
        u.ack_persist(LineIdx(1));
        assert!(u.take_resumable().is_empty());
        u.ack_persist(LineIdx(2));
        assert_eq!(u.take_resumable(), vec![(w(0), BlockReason::OpDone)]);
        assert!(u.is_quiescent());
    }

    #[test]
    fn dfence_with_nothing_outstanding_completes_at_drain() {
        let mut u = unit();
        assert_eq!(u.dfence(w(3)), OpOutcome::StallUntilDone);
        u.tick(8);
        assert_eq!(u.take_resumable(), vec![(w(3), BlockReason::OpDone)]);
    }

    #[test]
    fn block_release_does_not_stall_and_sets_fsm_on_drain() {
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1));
        assert_eq!(u.prel(w(0), Scope::Block), OpOutcome::Proceed);
        assert!(!u.is_blocked(w(0)), "block release is asynchronous");
        let acts = u.tick(8);
        assert_eq!(
            acts,
            vec![DrainAction::Flush {
                line: LineIdx(1),
                warps: WarpMask::single(w(0)),
                tokens: vec![]
            }]
        );
        let (_, _, fsm) = u.masks();
        assert!(fsm.contains(w(0)), "drained release marks FSM");
    }

    #[test]
    fn device_release_stalls_until_durable() {
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1));
        assert_eq!(u.prel(w(0), Scope::Device), OpOutcome::StallUntilDone);
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts), vec![LineIdx(1)]);
        assert!(u.take_resumable().is_empty());
        u.ack_persist(LineIdx(1));
        assert_eq!(u.take_resumable(), vec![(w(0), BlockReason::OpDone)]);
    }

    #[test]
    fn acquire_then_persist_waits_for_release_acks() {
        // Message passing inside one SM: w0 releases, w1 acquires, w1's
        // persist must not flush before w0's is acknowledged.
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Eager,
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        u.prel(w(0), Scope::Block);
        u.pacq(w(1), Scope::Block);
        u.persist_store(w(1), LineIdx(2));
        let acts = u.tick(8);
        assert_eq!(
            flush_lines(&acts),
            vec![LineIdx(1)],
            "w1's persist held by FSM"
        );
        u.ack_persist(LineIdx(1));
        assert_eq!(flush_lines(&u.tick(8)), vec![LineIdx(2)]);
    }

    #[test]
    fn spinning_acquires_coalesce_in_the_tail() {
        let mut u = unit();
        for _ in 0..100 {
            assert_eq!(u.pacq(w(2), Scope::Block), OpOutcome::Proceed);
        }
        assert_eq!(u.buffered(), 1, "spin loop must not flood the PB");
    }

    #[test]
    fn adjacent_releases_coalesce() {
        let mut u = unit();
        u.prel(w(0), Scope::Block);
        u.prel(w(0), Scope::Block);
        u.prel(w(1), Scope::Block);
        assert_eq!(u.buffered(), 1, "flags publish at issue; entries merge");
    }

    #[test]
    fn eviction_without_prior_ordering_flushes() {
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1));
        match u.evict_request(w(1), LineIdx(1)) {
            EvictOutcome::Flushed { warps, .. } => assert!(warps.contains(w(0))),
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(u.outstanding(), 1);
        // The PB no longer tracks the line.
        assert_eq!(u.evict_request(w(1), LineIdx(1)), EvictOutcome::NotBuffered);
    }

    #[test]
    fn eviction_behind_ordering_stalls_and_retries() {
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1));
        u.ofence(w(0));
        u.persist_store(w(0), LineIdx(2));
        assert_eq!(u.evict_request(w(1), LineIdx(2)), EvictOutcome::Stall);
        assert!(u.is_blocked(w(1)));
        // Blocked warps force the drain forward; acks resume the evictor.
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts), vec![LineIdx(1)]);
        u.ack_persist(LineIdx(1));
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts), vec![LineIdx(2)]);
        u.ack_persist(LineIdx(2));
        let resumed = u.take_resumable();
        assert!(resumed.contains(&(w(1), BlockReason::RetryEvict)));
    }

    #[test]
    fn full_buffer_stalls_store_and_resumes_on_space() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 2,
            policy: DrainPolicy::Lazy,
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        u.persist_store(w(0), LineIdx(2));
        assert_eq!(u.persist_store(w(1), LineIdx(3)), StoreOutcome::StallFull);
        // Full buffer forces draining even under the lazy policy.
        let acts = u.tick(1);
        assert_eq!(flush_lines(&acts), vec![LineIdx(1)]);
        let resumed = u.take_resumable();
        assert_eq!(resumed, vec![(w(1), BlockReason::RetryFull)]);
        assert_eq!(u.persist_store(w(1), LineIdx(3)), StoreOutcome::NewEntry);
    }

    #[test]
    fn drain_all_ignores_window() {
        let mut u = unit();
        for i in 0..20 {
            u.persist_store(w(0), LineIdx(i));
        }
        u.set_drain_all(true);
        assert_eq!(flush_lines(&u.tick(64)).len(), 20);
    }

    #[test]
    fn tokens_travel_with_flushes() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 8,
            policy: DrainPolicy::Eager,
            ..PbConfig::default()
        });
        u.persist_store_traced(w(0), LineIdx(1), &[10, 11]);
        u.persist_store_traced(w(1), LineIdx(1), &[12]);
        let DrainAction::Flush { tokens, .. } = &u.tick(8)[0];
        assert_eq!(tokens, &vec![10, 11, 12]);
    }

    #[test]
    fn quiescence_reflects_buffer_and_actr() {
        let mut u = unit();
        assert!(u.is_quiescent());
        u.persist_store(w(0), LineIdx(1));
        assert!(!u.is_quiescent());
        u.set_drain_all(true);
        u.tick(8);
        assert!(!u.is_quiescent(), "flushed but not acknowledged");
        u.ack_persist(LineIdx(1));
        assert!(u.is_quiescent());
    }

    #[test]
    fn early_flush_requires_no_prior_ordering() {
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1));
        u.ofence(w(0));
        u.persist_store(w(0), LineIdx(2));
        // Line 2 is behind w0's fence: not early-flushable.
        assert_eq!(u.try_early_flush(LineIdx(2)), None);
        // Line 1 has nothing ordered before it: flushable.
        let (warps, _) = u.try_early_flush(LineIdx(1)).expect("eligible");
        assert!(warps.contains(w(0)));
        assert_eq!(u.outstanding(), 1);
        // Now that line 1 left the buffer, the fence is in front of
        // nothing w0 owns; line 2 is still behind the fence though.
        assert_eq!(u.try_early_flush(LineIdx(2)), None);
    }

    #[test]
    fn early_flush_of_foreign_warp_line_ignores_unrelated_fences() {
        let mut u = unit();
        u.ofence(w(0));
        u.persist_store(w(1), LineIdx(5));
        // w0's fence does not order w1's persists.
        assert!(u.try_early_flush(LineIdx(5)).is_some());
    }

    #[test]
    fn ooo_drain_flushes_unrelated_persists_behind_blocked_head() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Eager,
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        u.ofence(w(0));
        u.persist_store(w(0), LineIdx(2)); // blocked by w0's fence
        u.persist_store(w(1), LineIdx(3)); // unrelated
        let first = u.tick(8);
        // Line 1 drains; the fence blocks line 2 (same warp); line 3
        // (unrelated warp) flushes out of order in the same sweep.
        assert_eq!(flush_lines(&first), vec![LineIdx(1), LineIdx(3)]);
        assert!(flush_lines(&u.tick(8)).is_empty(), "line 2 held by FSM");
        u.ack_persist(LineIdx(1));
        assert_eq!(flush_lines(&u.tick(8)), vec![LineIdx(2)]);
    }

    #[test]
    fn window_paces_on_accept_credits_not_durability() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Window(1),
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        u.persist_store(w(0), LineIdx(2));
        assert_eq!(flush_lines(&u.tick(8)).len(), 1);
        assert!(flush_lines(&u.tick(8)).is_empty(), "window closed");
        u.flush_accepted();
        assert_eq!(
            flush_lines(&u.tick(8)).len(),
            1,
            "credit reopens the window"
        );
    }

    #[test]
    fn ofence_waits_only_for_own_flushes() {
        // w1's fence must not wait on w0's in-flight persist.
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Eager,
            ..PbConfig::default()
        });
        u.persist_store(w(0), LineIdx(1));
        let acts = u.tick(8);
        assert_eq!(flush_lines(&acts), vec![LineIdx(1)]); // w0 in flight
        u.persist_store(w(1), LineIdx(2));
        u.ofence(w(1));
        u.persist_store(w(1), LineIdx(3));
        let acts = u.tick(8);
        // Line 2 flushes; the fence drains; line 3 must wait only for
        // line 2's ack — not w0's line 1.
        assert_eq!(flush_lines(&acts), vec![LineIdx(2)]);
        u.ack_persist(LineIdx(2));
        assert_eq!(
            flush_lines(&u.tick(8)),
            vec![LineIdx(3)],
            "line 1 (w0) still unacked, but w1's oFence does not care"
        );
    }

    #[test]
    fn device_release_forces_drain_past_the_window() {
        let mut u = PersistUnit::new(PbConfig {
            capacity: 64,
            policy: DrainPolicy::Window(1),
            ..PbConfig::default()
        });
        for i in 0..4 {
            u.persist_store(w(0), LineIdx(i));
        }
        u.prel(w(0), Scope::Device);
        // Without credits the window would allow one flush; the device
        // release forces everything before it out.
        assert_eq!(flush_lines(&u.tick(16)).len(), 4);
    }

    #[test]
    fn forged_ack_is_an_error_not_a_panic() {
        let mut u = unit();
        assert_eq!(
            u.try_ack_persist(LineIdx(7)),
            Err(AckError::NoOutstandingFlush(LineIdx(7)))
        );
        assert!(u.is_quiescent(), "a refused ack leaves the unit unchanged");
        assert_eq!(u.stats().acks, 0);
        // A second ack for a line whose one flush was acked already.
        u.persist_store(w(0), LineIdx(1));
        u.set_drain_all(true);
        u.tick(8);
        assert_eq!(u.try_ack_persist(LineIdx(1)), Ok(()));
        assert!(u.try_ack_persist(LineIdx(1)).is_err());
        assert_eq!(u.stats().acks, 1);
    }

    #[test]
    fn idle_until_a_call_changes_the_unit() {
        let mut u = unit();
        assert!(!u.is_idle(), "a fresh unit has not ticked yet");
        assert!(u.tick(8).is_empty());
        assert!(u.is_idle());
        u.persist_store(w(0), LineIdx(1));
        assert!(!u.is_idle());
        u.set_drain_all(true);
        assert_eq!(flush_lines(&u.tick(8)), vec![LineIdx(1)]);
        assert!(!u.is_idle(), "a tick that flushed is not idle");
        assert!(u.tick(8).is_empty());
        assert!(u.is_idle());
        u.ack_persist(LineIdx(1));
        assert!(!u.is_idle());
    }

    #[test]
    fn masks_report_stall_classes() {
        let mut u = unit();
        u.persist_store(w(0), LineIdx(1));
        u.prel(w(0), Scope::Device);
        let (odm, _, _) = u.masks();
        assert!(odm.contains(w(0)), "device release marks ODM");
        u.tick(8);
        let (odm, edm, _) = u.masks();
        assert!(!odm.contains(w(0)), "entry drained: ODM resets");
        assert!(edm.contains(w(0)), "…and moves to EDM until acks");
    }
}
