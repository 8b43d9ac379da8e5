//! Property tests: the persist-buffer engine against the formal model.
//!
//! Random per-warp programs of persists, fences, releases/acquires and
//! evictions are driven through [`PersistUnit`] with a randomly-paced
//! (but in-order, as the memory system guarantees) acknowledgement
//! stream. The recorded durability order must satisfy the formal PMO
//! checker, every persist must become durable exactly once, and the unit
//! must always quiesce.

use proptest::prelude::*;
use sbrp_core::formal::TraceBuilder;
use sbrp_core::ops::PersistOpKind;
use sbrp_core::pbuffer::{
    DrainAction, DrainPolicy, EvictOutcome, LineIdx, PbConfig, PersistUnit, StoreOutcome,
};
use sbrp_core::scope::{Scope, ThreadPos, WarpSlot};
use std::collections::{HashMap, HashSet, VecDeque};

#[derive(Clone, Debug)]
enum Op {
    Persist(u32),
    OFence,
    DFence,
    PRelBlock,
    PAcqBlock,
    /// Ask to evict the given line (models cache replacement pressure).
    Evict(u32),
}

fn op_strategy(lines: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..lines).prop_map(Op::Persist),
        2 => Just(Op::OFence),
        1 => Just(Op::DFence),
        1 => Just(Op::PRelBlock),
        1 => Just(Op::PAcqBlock),
        2 => (0..lines).prop_map(Op::Evict),
    ]
}

fn program_strategy() -> impl Strategy<Value = (Vec<Vec<Op>>, u64, usize)> {
    (
        proptest::collection::vec(proptest::collection::vec(op_strategy(24), 1..24), 1..5),
        1..40u64,   // ack gap
        4..64usize, // PB capacity
    )
}

struct Harness {
    unit: PersistUnit,
    tb: TraceBuilder,
    /// Acks delivered in submission order after a fixed gap.
    pending_acks: VecDeque<(u64, LineIdx, Vec<u64>)>,
    durable_at: HashMap<sbrp_core::formal::EventId, u64>,
    step: u64,
    ack_gap: u64,
    /// Trace tokens of each line's buffered persists, taken when the
    /// line flushes (the simulator's per-line ledger).
    line_tokens: HashMap<LineIdx, Vec<u64>>,
    flushed_tokens: Vec<u64>,
}

impl Harness {
    fn new(capacity: usize, ack_gap: u64) -> Self {
        Harness {
            unit: PersistUnit::new(PbConfig {
                capacity,
                policy: DrainPolicy::Window(4),
                ..PbConfig::default()
            }),
            tb: TraceBuilder::new(),
            pending_acks: VecDeque::new(),
            durable_at: HashMap::new(),
            step: 0,
            ack_gap,
            line_tokens: HashMap::new(),
            flushed_tokens: Vec::new(),
        }
    }

    fn thread(warp: usize) -> ThreadPos {
        ThreadPos::new(0u32, warp as u32 * 32)
    }

    fn tick(&mut self) {
        self.step += 1;
        for action in self.unit.tick(2) {
            let DrainAction::Flush { line, .. } = action;
            self.flush(line);
        }
        while matches!(self.pending_acks.front(), Some(&(t, _, _)) if t <= self.step) {
            let (_, line, tokens) = self.pending_acks.pop_front().expect("peeked");
            self.unit.ack_persist(line);
            for t in tokens {
                let prev = self.durable_at.insert(
                    sbrp_core::formal::EventId::from_index(t as usize),
                    self.step,
                );
                assert!(prev.is_none(), "token {t} durable twice");
            }
        }
        let _ = self.unit.take_resumable();
    }

    /// Takes `line`'s tokens into an in-flight flush.
    fn flush(&mut self, line: LineIdx) {
        let tokens = self.line_tokens.remove(&line).unwrap_or_default();
        self.flushed_tokens.extend_from_slice(&tokens);
        self.pending_acks
            .push_back((self.step + self.ack_gap, line, tokens));
        // Downstream accept (window credit) is immediate here; the
        // durability ack follows after the gap.
        self.unit.flush_accepted();
    }

    /// Runs one warp op; retries through ticks when the engine stalls.
    fn run_op(&mut self, warp: usize, op: &Op) {
        let slot = WarpSlot::new(warp);
        let th = Self::thread(warp);
        for _attempt in 0..10_000 {
            if self.unit.is_blocked(slot) {
                self.tick();
                continue;
            }
            match op {
                Op::Persist(line) => {
                    let token = self.tb.persist(th, u64::from(*line) * 128).index() as u64;
                    // The trace event stands across hardware retries; the
                    // token is attached only when the store is accepted.
                    for _retry in 0..10_000 {
                        match self.unit.persist_store(slot, LineIdx(*line)) {
                            StoreOutcome::Coalesced | StoreOutcome::NewEntry => {
                                self.line_tokens
                                    .entry(LineIdx(*line))
                                    .or_default()
                                    .push(token);
                                return;
                            }
                            StoreOutcome::StallOrdered | StoreOutcome::StallFull => {
                                self.wait_unblocked(slot);
                            }
                        }
                    }
                    panic!("store never accepted");
                }
                Op::OFence => {
                    self.tb.op(th, PersistOpKind::OFence, None);
                    let _ = self.unit.ofence(slot);
                    self.wait_unblocked(slot);
                    return;
                }
                Op::DFence => {
                    self.tb.op(th, PersistOpKind::DFence, None);
                    let _ = self.unit.dfence(slot);
                    self.wait_unblocked(slot);
                    return;
                }
                Op::PRelBlock => {
                    self.tb
                        .op(th, PersistOpKind::PRel(Scope::Block), Some(0x42));
                    let _ = self.unit.prel(slot, Scope::Block);
                    self.wait_unblocked(slot);
                    return;
                }
                Op::PAcqBlock => {
                    self.tb
                        .op(th, PersistOpKind::PAcq(Scope::Block), Some(0x42));
                    let _ = self.unit.pacq(slot, Scope::Block);
                    self.wait_unblocked(slot);
                    return;
                }
                Op::Evict(line) => {
                    match self.unit.evict_request(slot, LineIdx(*line)) {
                        EvictOutcome::NotBuffered => return,
                        EvictOutcome::Flushed { .. } => {
                            self.flush(LineIdx(*line));
                            return;
                        }
                        EvictOutcome::Stall => {
                            self.wait_unblocked(slot);
                            return; // give up the eviction after the stall
                        }
                    }
                }
            }
        }
        panic!("op never completed: {op:?}");
    }

    fn wait_unblocked(&mut self, slot: WarpSlot) {
        for _ in 0..10_000 {
            if !self.unit.is_blocked(slot) {
                return;
            }
            self.tick();
        }
        panic!("warp {slot} never resumed");
    }

    fn drain_to_quiescence(&mut self) {
        self.unit.set_drain_all(true);
        for _ in 0..100_000 {
            if self.unit.is_quiescent() && self.pending_acks.is_empty() {
                return;
            }
            self.tick();
        }
        panic!("unit never quiesced");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random multi-warp programs: the unit quiesces, every persist
    /// becomes durable exactly once, and the durability order satisfies
    /// the formal PMO model.
    #[test]
    fn random_programs_respect_pmo((programs, ack_gap, capacity) in program_strategy()) {
        let mut h = Harness::new(capacity, ack_gap);
        // Interleave warps round-robin.
        let max_len = programs.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..max_len {
            for (w, prog) in programs.iter().enumerate() {
                if let Some(op) = prog.get(i) {
                    h.run_op(w, op);
                }
                h.tick();
            }
        }
        h.drain_to_quiescence();

        let graph = std::mem::take(&mut h.tb).finish();
        let persists: Vec<_> = graph.persists().collect();
        // Every persist became durable exactly once.
        prop_assert_eq!(persists.len(), h.durable_at.len());
        let unique: HashSet<_> = h.flushed_tokens.iter().collect();
        prop_assert_eq!(unique.len(), h.flushed_tokens.len(), "token flushed twice");
        // Formal model: durability order respects PMO.
        graph
            .check_durability_order(&h.durable_at)
            .map_err(|v| TestCaseError::fail(format!("PMO violated: {v}")))?;
    }

    /// Crash version: stop at a random point (no final drain); the set of
    /// durable persists must be PMO-downward-closed.
    #[test]
    fn random_crash_cuts_are_consistent(
        (programs, ack_gap, capacity) in program_strategy(),
        stop_after in 0..400u32,
    ) {
        let mut h = Harness::new(capacity, ack_gap);
        let mut budget = stop_after;
        'outer: for i in 0..programs.iter().map(Vec::len).max().unwrap_or(0) {
            for (w, prog) in programs.iter().enumerate() {
                if budget == 0 {
                    break 'outer;
                }
                budget -= 1;
                if let Some(op) = prog.get(i) {
                    h.run_op(w, op);
                }
                h.tick();
            }
        }
        // Crash: whatever is durable now is the image.
        let durable: HashSet<_> = h.durable_at.keys().copied().collect();
        let graph = std::mem::take(&mut h.tb).finish();
        graph
            .check_crash_cut(&durable)
            .map_err(|v| TestCaseError::fail(format!("crash cut violated PMO: {v}")))?;
    }
}
