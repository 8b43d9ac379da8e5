//! PMO graph construction and the two durability checkers.

use super::event::{Event, EventId, EventKind};
use crate::ops::PersistOpKind;
use crate::scope::ThreadPos;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// A violation of the persistency model found by a checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PmoViolation {
    /// The PMO-earlier persist.
    pub before: EventId,
    /// The PMO-later persist that became durable without (or before) it.
    pub after: EventId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for PmoViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.before, self.after, self.message)
    }
}

impl std::error::Error for PmoViolation {}

/// A *scoped persistency bug* candidate (§5.3): an acquire observed a
/// release's value, but the pattern's effective scope does not include
/// both threads — the synchronization happened (the value flowed), yet
/// no persist memory order was created. Programs relying on such a pair
/// for recoverability are buggy; this is the persistency analogue of the
/// scoped races detected by ScoRD/iGUARD.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScopeBugWarning {
    /// The acquire that read the release's value.
    pub acquire: EventId,
    /// The release whose value it read.
    pub release: EventId,
    /// The pattern's effective (narrowest constituent) scope.
    pub effective: crate::scope::Scope,
}

impl fmt::Display for ScopeBugWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acquire {} observed release {} but the {}-scoped pattern does not \
             include both threads: no persist memory order was created",
            self.acquire, self.release, self.effective
        )
    }
}

/// A set of events of one trace, as a bitset over their dense
/// [`EventId`] positions: one memcpy to clone, one bit test to query.
///
/// ```
/// use sbrp_core::formal::{EventId, EventSet};
///
/// let mut set = EventSet::new();
/// set.insert(EventId::from_index(64));
/// assert!(set.contains(EventId::from_index(64)));
/// assert!(!set.contains(EventId::from_index(63)));
/// assert!(!set.contains(EventId::from_index(1 << 20)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventSet {
    words: Vec<u64>,
}

impl EventSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `id`, growing the set to cover it.
    pub fn insert(&mut self, id: EventId) {
        let (word, bit) = (id.index() / 64, id.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << bit;
    }

    /// Whether `id` is in the set; ids past the last word are not.
    #[must_use]
    pub fn contains(&self, id: EventId) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w >> (id.index() % 64) & 1 == 1)
    }
}

/// Per-thread state used while building the graph.
#[derive(Clone, Default)]
struct ThreadState {
    /// Persists issued since the last ordering node.
    segment: Vec<EventId>,
    /// The thread's most recent ordering node (fence / acquire / release).
    last_op: Option<EventId>,
}

/// Incrementally records an execution and derives its PMO graph.
///
/// Events must be appended in a *valid global order*: per-thread order is
/// program order, and an acquire must appear after the release it
/// observes. The simulator and the litmus tests both satisfy this
/// naturally (events are recorded at issue/observation time).
///
/// # Example
///
/// ```
/// use sbrp_core::formal::TraceBuilder;
/// use sbrp_core::ops::PersistOpKind;
/// use sbrp_core::scope::ThreadPos;
///
/// let t0 = ThreadPos::new(0u32, 0);
/// let mut tb = TraceBuilder::new();
/// let w1 = tb.persist(t0, 0x100);
/// tb.op(t0, PersistOpKind::OFence, None);
/// let w2 = tb.persist(t0, 0x200);
/// let g = tb.finish();
/// assert!(g.pmo_holds(w1, w2));
/// assert!(!g.pmo_holds(w2, w1));
/// ```
#[derive(Clone, Default)]
pub struct TraceBuilder {
    events: Vec<Event>,
    /// Forward adjacency (edges point PMO-forward).
    succ: Vec<Vec<EventId>>,
    threads: HashMap<ThreadPos, ThreadState>,
    scope_bugs: Vec<ScopeBugWarning>,
}

impl TraceBuilder {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, ev: Event) -> EventId {
        let id = EventId(u32::try_from(self.events.len()).expect("trace too large"));
        self.events.push(ev);
        self.succ.push(Vec::new());
        id
    }

    fn edge(&mut self, from: EventId, to: EventId) {
        debug_assert!(from < to, "edges must point forward in trace order");
        self.succ[from.index()].push(to);
    }

    /// Records a persist (write to PM) by `thread`.
    pub fn persist(&mut self, thread: ThreadPos, addr: u64) -> EventId {
        let id = self.push(Event {
            thread,
            kind: EventKind::Persist { addr },
        });
        let st = self.threads.entry(thread).or_default();
        st.segment.push(id);
        if let Some(op) = st.last_op {
            self.succ[op.index()].push(id);
        }
        id
    }

    /// Records a persistency operation by `thread`.
    ///
    /// For `pAcq`/`pRel`, `var` is the synchronization variable; link the
    /// acquire to the release it read with [`TraceBuilder::observe`].
    pub fn op(&mut self, thread: ThreadPos, op: PersistOpKind, var: Option<u64>) -> EventId {
        let id = self.push(Event {
            thread,
            kind: EventKind::Op { op, var },
        });
        let st = self.threads.entry(thread).or_default();
        let segment = std::mem::take(&mut st.segment);
        let prev = st.last_op.replace(id);
        for w in segment {
            self.edge(w, id);
        }
        if let Some(p) = prev {
            self.edge(p, id);
        }
        id
    }

    /// Records that acquire `acq` read the value released by `rel`.
    ///
    /// The inter-thread PMO edge is added only if both operations' scopes
    /// are sufficient to include both threads (Box 2: "All operations
    /// should be of a sufficient scope that include both threads") — this
    /// is precisely where the scoped persistency bugs of §5.3 manifest.
    ///
    /// # Panics
    ///
    /// Panics if `acq`/`rel` are not a `pAcq`/`pRel` pair on the same
    /// variable, or if `rel` does not precede `acq` in the trace.
    pub fn observe(&mut self, acq: EventId, rel: EventId) {
        assert!(rel < acq, "release must precede the acquire that reads it");
        let (rel_ev, acq_ev) = (self.events[rel.index()], self.events[acq.index()]);
        let (rel_scope, rel_var) = match rel_ev.kind {
            EventKind::Op {
                op: PersistOpKind::PRel(s),
                var,
            } => (s, var),
            other => panic!("observe: {rel} is not a pRel (found {other:?})"),
        };
        let (acq_scope, acq_var) = match acq_ev.kind {
            EventKind::Op {
                op: PersistOpKind::PAcq(s),
                var,
            } => (s, var),
            other => panic!("observe: {acq} is not a pAcq (found {other:?})"),
        };
        assert_eq!(rel_var, acq_var, "acquire/release variables must match");
        // The pattern's scope is the narrowest of its constituents (§2).
        let effective = rel_scope.min(acq_scope);
        if rel_ev.thread.shares_scope(acq_ev.thread, effective) {
            self.edge(rel, acq);
        } else {
            // §5.3: the value was communicated but the scope is too
            // narrow — record the scoped persistency bug.
            self.scope_bugs.push(ScopeBugWarning {
                acquire: acq,
                release: rel,
                effective,
            });
        }
    }

    /// Scoped persistency bugs observed so far (see
    /// [`PmoGraph::scope_bugs`]).
    #[must_use]
    pub fn scope_bugs(&self) -> &[ScopeBugWarning] {
        &self.scope_bugs
    }

    /// [`PmoGraph::check_crash_cut`] on the trace recorded so far,
    /// without finishing (or copying) it; `durable` says whether a
    /// persist is durable.
    ///
    /// # Errors
    ///
    /// Returns the first [`PmoViolation`] found.
    pub fn check_crash_cut(&self, durable: impl Fn(EventId) -> bool) -> Result<(), PmoViolation> {
        crash_cut(&self.events, &self.succ, durable)
    }

    /// [`PmoGraph::check_durability_order`] on the trace recorded so far,
    /// without finishing (or copying) it; `durable_at` gives the cycle a
    /// persist became durable, if it did.
    ///
    /// # Errors
    ///
    /// Returns the first [`PmoViolation`] found.
    pub fn check_durability_order(
        &self,
        durable_at: impl Fn(EventId) -> Option<u64>,
    ) -> Result<(), PmoViolation> {
        durability_order(&self.events, &self.succ, durable_at)
    }

    /// Finalizes the trace into an immutable [`PmoGraph`].
    #[must_use]
    pub fn finish(self) -> PmoGraph {
        PmoGraph {
            events: self.events,
            succ: self.succ,
            scope_bugs: self.scope_bugs,
        }
    }
}

/// The PMO relation of a finished trace, as a DAG.
pub struct PmoGraph {
    events: Vec<Event>,
    succ: Vec<Vec<EventId>>,
    scope_bugs: Vec<ScopeBugWarning>,
}

impl fmt::Debug for PmoGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmoGraph")
            .field("events", &self.events.len())
            .field("edges", &self.succ.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

impl PmoGraph {
    /// Number of events in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event at `id`.
    #[must_use]
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// Scoped persistency bugs detected while the trace was recorded
    /// (§5.3): acquire/release pairs that synchronized but whose scope
    /// excludes one of the threads.
    #[must_use]
    pub fn scope_bugs(&self) -> &[ScopeBugWarning] {
        &self.scope_bugs
    }

    /// All persist events in the trace.
    pub fn persists(&self) -> impl Iterator<Item = EventId> + '_ {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_persist())
            .map(|(i, _)| EventId(i as u32))
    }

    /// All edges of the PMO DAG as `(from, to)` pairs, in trace order of
    /// the source event.
    ///
    /// Cross-thread edges (a `pRel` to the `pAcq` that observed it) are
    /// exactly the observations [`TraceBuilder::observe`] admitted, which
    /// is what lets callers compare the *synchronization structure* of
    /// two traces without caring about event numbering.
    pub fn edges(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.succ.iter().enumerate().flat_map(|(i, outs)| {
            outs.iter()
                .map(move |&m| (EventId(u32::try_from(i).expect("trace too large")), m))
        })
    }

    /// Whether `w1 →pmo w2` — i.e. the model guarantees that if `w2` is
    /// durable then `w1` must be durable.
    ///
    /// # Panics
    /// Panics if either event is not a persist.
    #[must_use]
    pub fn pmo_holds(&self, w1: EventId, w2: EventId) -> bool {
        assert!(self.event(w1).is_persist(), "{w1} is not a persist");
        assert!(self.event(w2).is_persist(), "{w2} is not a persist");
        if w1 == w2 {
            return false;
        }
        // Edges only point forward in trace order, so a simple BFS
        // bounded by w2 suffices.
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([w1]);
        while let Some(n) = queue.pop_front() {
            for &m in &self.succ[n.index()] {
                if m == w2 {
                    return true;
                }
                if m < w2 && seen.insert(m) {
                    queue.push_back(m);
                }
            }
        }
        false
    }

    /// Checks that the observed durability times never invert PMO.
    ///
    /// `durable_at` maps each persist event to the cycle at which it became
    /// durable. Ties are allowed (persists coalesced into one cache line
    /// become durable atomically).
    ///
    /// # Errors
    ///
    /// Returns the first [`PmoViolation`] found: a pair `W1 →pmo W2` with
    /// `durable_at[W2] < durable_at[W1]`, or a PMO-ordered persist missing
    /// from the map while its successor is present.
    pub fn check_durability_order(
        &self,
        durable_at: &HashMap<EventId, u64>,
    ) -> Result<(), PmoViolation> {
        durability_order(&self.events, &self.succ, |id| durable_at.get(&id).copied())
    }

    /// Checks that the set of persists durable at a crash is
    /// downward-closed under PMO.
    ///
    /// This is the recoverability guarantee of the model: for every
    /// `W1 →pmo W2`, if `W2` is durable then `W1` must be durable.
    ///
    /// # Errors
    ///
    /// Returns the first [`PmoViolation`] found.
    pub fn check_crash_cut(&self, durable: &HashSet<EventId>) -> Result<(), PmoViolation> {
        crash_cut(&self.events, &self.succ, |id| durable.contains(&id))
    }
}

/// The crash-cut check over a trace's events and forward edges:
/// forward-propagates "some non-durable persist precedes this node" in
/// trace (hence topological) order and reports the first durable
/// persist it reaches.
fn crash_cut(
    events: &[Event],
    succ: &[Vec<EventId>],
    durable: impl Fn(EventId) -> bool,
) -> Result<(), PmoViolation> {
    let mut tainted: Vec<Option<EventId>> = vec![None; events.len()];
    for (i, ev) in events.iter().enumerate() {
        let id = EventId(i as u32);
        let mut taint = tainted[i];
        if ev.is_persist() {
            let is_durable = durable(id);
            if let (Some(w1), true) = (taint, is_durable) {
                return Err(PmoViolation {
                    before: w1,
                    after: id,
                    message: format!(
                        "crash state contains persist {id} but not its PMO-predecessor {w1}"
                    ),
                });
            }
            if taint.is_none() && !is_durable {
                taint = Some(id);
            }
        }
        if let Some(w1) = taint {
            for &m in &succ[i] {
                tainted[m.index()].get_or_insert(w1);
            }
        }
    }
    Ok(())
}

/// The durability-order check over a trace's events and forward edges:
/// propagates the latest durability time of any PMO-predecessor persist
/// in trace (hence topological) order and reports the first persist
/// durable before it, or never durable after it.
fn durability_order(
    events: &[Event],
    succ: &[Vec<EventId>],
    durable_at: impl Fn(EventId) -> Option<u64>,
) -> Result<(), PmoViolation> {
    let mut max_before: Vec<Option<(u64, EventId)>> = vec![None; events.len()];
    for (i, ev) in events.iter().enumerate() {
        let id = EventId(i as u32);
        let inherited = max_before[i];
        if ev.is_persist() {
            let here = durable_at(id);
            if let Some((t_pred, pred)) = inherited {
                match here {
                    Some(t) if t >= t_pred => {}
                    Some(t) => {
                        return Err(PmoViolation {
                            before: pred,
                            after: id,
                            message: format!(
                                "persist {id} durable at {t} before its PMO-predecessor \
                                 {pred} (durable at {t_pred})"
                            ),
                        });
                    }
                    None => {
                        return Err(PmoViolation {
                            before: pred,
                            after: id,
                            message: format!(
                                "persist {id} never became durable but PMO-orders after \
                                 {pred}; durability-order check requires complete runs"
                            ),
                        });
                    }
                }
            }
            let out = match (inherited, here) {
                (Some((tp, p)), Some(t)) => {
                    if t >= tp {
                        Some((t, id))
                    } else {
                        Some((tp, p))
                    }
                }
                (None, Some(t)) => Some((t, id)),
                (v, None) => v,
            };
            for &m in &succ[i] {
                merge_max(&mut max_before[m.index()], out);
            }
        } else {
            for &m in &succ[i] {
                merge_max(&mut max_before[m.index()], inherited);
            }
        }
    }
    Ok(())
}

fn merge_max(slot: &mut Option<(u64, EventId)>, incoming: Option<(u64, EventId)>) {
    if let Some((t, id)) = incoming {
        match slot {
            Some((cur, _)) if *cur >= t => {}
            _ => *slot = Some((t, id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;
    use proptest::prelude::*;

    fn t(block: u32, tid: u32) -> ThreadPos {
        ThreadPos::new(block, tid)
    }

    #[test]
    fn ofence_orders_intra_thread() {
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(t(0, 0), 0x100);
        tb.op(t(0, 0), PersistOpKind::OFence, None);
        let w2 = tb.persist(t(0, 0), 0x200);
        let g = tb.finish();
        assert!(g.pmo_holds(w1, w2));
        assert!(!g.pmo_holds(w2, w1));
    }

    #[test]
    fn no_fence_no_order() {
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(t(0, 0), 0x100);
        let w2 = tb.persist(t(0, 0), 0x200);
        let g = tb.finish();
        assert!(!g.pmo_holds(w1, w2));
        assert!(!g.pmo_holds(w2, w1));
    }

    #[test]
    fn fences_chain_transitively() {
        let mut tb = TraceBuilder::new();
        let th = t(0, 0);
        let w1 = tb.persist(th, 0x100);
        tb.op(th, PersistOpKind::OFence, None);
        tb.op(th, PersistOpKind::OFence, None);
        let w2 = tb.persist(th, 0x200);
        let g = tb.finish();
        assert!(g.pmo_holds(w1, w2));
    }

    #[test]
    fn release_acquire_same_block_orders() {
        let (t0, t32) = (t(0, 0), t(0, 32));
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(t0, 0x100);
        let rel = tb.op(t0, PersistOpKind::PRel(Scope::Block), Some(0x8));
        let acq = tb.op(t32, PersistOpKind::PAcq(Scope::Block), Some(0x8));
        let w2 = tb.persist(t32, 0x200);
        tb.observe(acq, rel);
        let g = tb.finish();
        assert!(g.pmo_holds(w1, w2));
        assert!(!g.pmo_holds(w2, w1));
    }

    #[test]
    fn block_scope_across_blocks_is_insufficient() {
        // The scoped persistency bug of §5.3: block-scoped ops used across
        // threadblocks create no PMO edge.
        let (a, b) = (t(0, 0), t(1, 0));
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(a, 0x100);
        let rel = tb.op(a, PersistOpKind::PRel(Scope::Block), Some(0x8));
        let acq = tb.op(b, PersistOpKind::PAcq(Scope::Block), Some(0x8));
        let w2 = tb.persist(b, 0x200);
        tb.observe(acq, rel);
        let g = tb.finish();
        assert!(!g.pmo_holds(w1, w2));
    }

    #[test]
    fn device_scope_across_blocks_orders() {
        let (a, b) = (t(0, 0), t(1, 0));
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(a, 0x100);
        let rel = tb.op(a, PersistOpKind::PRel(Scope::Device), Some(0x8));
        let acq = tb.op(b, PersistOpKind::PAcq(Scope::Device), Some(0x8));
        let w2 = tb.persist(b, 0x200);
        tb.observe(acq, rel);
        let g = tb.finish();
        assert!(g.pmo_holds(w1, w2));
    }

    #[test]
    fn mixed_scope_pattern_takes_the_narrowest() {
        // Device release but block acquire, across blocks: the pattern's
        // effective scope is block, which does not include both threads.
        let (a, b) = (t(0, 0), t(1, 0));
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(a, 0x100);
        let rel = tb.op(a, PersistOpKind::PRel(Scope::Device), Some(0x8));
        let acq = tb.op(b, PersistOpKind::PAcq(Scope::Block), Some(0x8));
        let w2 = tb.persist(b, 0x200);
        tb.observe(acq, rel);
        let g = tb.finish();
        assert!(!g.pmo_holds(w1, w2));
    }

    #[test]
    fn transitivity_through_three_threads() {
        let (a, b, c) = (t(0, 0), t(0, 32), t(0, 64));
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(a, 0x100);
        let rel1 = tb.op(a, PersistOpKind::PRel(Scope::Block), Some(0x8));
        let acq1 = tb.op(b, PersistOpKind::PAcq(Scope::Block), Some(0x8));
        let w2 = tb.persist(b, 0x200);
        let rel2 = tb.op(b, PersistOpKind::PRel(Scope::Block), Some(0x10));
        let acq2 = tb.op(c, PersistOpKind::PAcq(Scope::Block), Some(0x10));
        let w3 = tb.persist(c, 0x300);
        tb.observe(acq1, rel1);
        tb.observe(acq2, rel2);
        let g = tb.finish();
        assert!(g.pmo_holds(w1, w2));
        assert!(g.pmo_holds(w2, w3));
        assert!(g.pmo_holds(w1, w3), "PMO must be transitive");
    }

    #[test]
    fn release_covers_all_prior_persists_not_just_last_segment() {
        let th = t(0, 0);
        let other = t(0, 32);
        let mut tb = TraceBuilder::new();
        let w_old = tb.persist(th, 0x100);
        tb.op(th, PersistOpKind::OFence, None);
        tb.persist(th, 0x180);
        let rel = tb.op(th, PersistOpKind::PRel(Scope::Block), Some(0x8));
        let acq = tb.op(other, PersistOpKind::PAcq(Scope::Block), Some(0x8));
        let w2 = tb.persist(other, 0x200);
        tb.observe(acq, rel);
        let g = tb.finish();
        assert!(
            g.pmo_holds(w_old, w2),
            "persists before an earlier oFence are still released"
        );
    }

    #[test]
    fn durability_order_detects_inversion() {
        let th = t(0, 0);
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(th, 0x100);
        tb.op(th, PersistOpKind::OFence, None);
        let w2 = tb.persist(th, 0x200);
        let g = tb.finish();

        let ok: HashMap<_, _> = [(w1, 10), (w2, 20)].into();
        assert!(g.check_durability_order(&ok).is_ok());
        let tie: HashMap<_, _> = [(w1, 10), (w2, 10)].into();
        assert!(g.check_durability_order(&tie).is_ok());
        let bad: HashMap<_, _> = [(w1, 20), (w2, 10)].into();
        let err = g.check_durability_order(&bad).unwrap_err();
        assert_eq!(err.before, w1);
        assert_eq!(err.after, w2);
    }

    #[test]
    fn crash_cut_detects_missing_predecessor() {
        let th = t(0, 0);
        let mut tb = TraceBuilder::new();
        let w1 = tb.persist(th, 0x100);
        tb.op(th, PersistOpKind::OFence, None);
        let w2 = tb.persist(th, 0x200);
        let g = tb.finish();

        assert!(g.check_crash_cut(&HashSet::new()).is_ok());
        assert!(g.check_crash_cut(&HashSet::from([w1])).is_ok());
        assert!(g.check_crash_cut(&HashSet::from([w1, w2])).is_ok());
        let err = g.check_crash_cut(&HashSet::from([w2])).unwrap_err();
        assert_eq!(err.before, w1);
        assert_eq!(err.after, w2);
    }

    #[test]
    fn event_set_word_boundaries() {
        let id = EventId::from_index;
        let mut set = EventSet::new();
        assert!(!set.contains(id(0)));
        for i in [63, 64, 127] {
            set.insert(id(i));
        }
        for i in [63, 64, 127] {
            assert!(set.contains(id(i)), "e{i} inserted");
        }
        for i in [0, 62, 65, 126] {
            assert!(!set.contains(id(i)), "e{i} not inserted");
        }
        // Past the last word (two words cover ids 0..128).
        assert!(!set.contains(id(128)));
        assert!(!set.contains(id(10_000)));
    }

    /// One random trace step: `(kind, thread, scope, arg)`.
    type Step = (u8, u8, u8, u8);

    /// Builds a trace of persists, fences and acquire/release pairs over
    /// two warps in each of two blocks, so scopes both include and
    /// exclude the observing thread.
    fn random_trace(steps: &[Step]) -> TraceBuilder {
        let threads = [t(0, 0), t(0, 32), t(1, 0), t(1, 32)];
        let scopes = [Scope::Block, Scope::Device, Scope::System];
        let mut tb = TraceBuilder::new();
        let mut last_rel: [Option<EventId>; 2] = [None; 2];
        for &(kind, th, sc, arg) in steps {
            let th = threads[usize::from(th)];
            let scope = scopes[usize::from(sc)];
            let var = usize::from(arg % 2);
            match kind {
                0 | 1 => {
                    tb.persist(th, 0x100 * u64::from(arg));
                }
                2 => {
                    tb.op(th, PersistOpKind::OFence, None);
                }
                3 => {
                    tb.op(th, PersistOpKind::DFence, None);
                }
                4 => {
                    let rel = tb.op(th, PersistOpKind::PRel(scope), Some(var as u64));
                    last_rel[var] = Some(rel);
                }
                _ => {
                    let acq = tb.op(th, PersistOpKind::PAcq(scope), Some(var as u64));
                    if let (Some(rel), true) = (last_rel[var], arg & 2 != 0) {
                        tb.observe(acq, rel);
                    }
                }
            }
        }
        tb
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The builder's check on the borrowed trace and the finished
        /// graph's check agree, down to the reported pair.
        #[test]
        fn builder_and_graph_crash_cuts_agree(
            steps in collection::vec((0u8..6, 0u8..4, 0u8..3, any::<u8>()), 1..48),
            durable_bits in collection::vec(any::<u8>(), 48),
            threshold in any::<u8>(),
        ) {
            let tb = random_trace(&steps);
            let mut set = EventSet::new();
            let mut hash = HashSet::new();
            for (i, &b) in durable_bits.iter().enumerate().take(steps.len()) {
                if b < threshold {
                    set.insert(EventId::from_index(i));
                    hash.insert(EventId::from_index(i));
                }
            }
            let borrowed = tb.check_crash_cut(|id| set.contains(id));
            let finished = tb.clone().finish().check_crash_cut(&hash);
            prop_assert_eq!(borrowed, finished);
        }

        /// Likewise for the durability-order check, over durable cycles
        /// that may tie, invert PMO or be missing.
        #[test]
        fn builder_and_graph_durability_orders_agree(
            steps in collection::vec((0u8..6, 0u8..4, 0u8..3, any::<u8>()), 1..48),
            cycles in collection::vec(any::<u8>(), 48),
            threshold in any::<u8>(),
        ) {
            let tb = random_trace(&steps);
            let mut at = HashMap::new();
            for (i, &c) in cycles.iter().enumerate().take(steps.len()) {
                if c < threshold {
                    at.insert(EventId::from_index(i), u64::from(c % 8));
                }
            }
            let borrowed = tb.check_durability_order(|id| at.get(&id).copied());
            let finished = tb.clone().finish().check_durability_order(&at);
            prop_assert_eq!(borrowed, finished);
        }
    }

    #[test]
    fn crash_cut_allows_unordered_subsets() {
        let th = t(0, 0);
        let mut tb = TraceBuilder::new();
        let _w1 = tb.persist(th, 0x100);
        let w2 = tb.persist(th, 0x200);
        let g = tb.finish();
        // No fence: either persist may be durable without the other.
        assert!(g.check_crash_cut(&HashSet::from([w2])).is_ok());
    }

    #[test]
    fn persists_iterator_skips_ops() {
        let th = t(0, 0);
        let mut tb = TraceBuilder::new();
        tb.persist(th, 0x100);
        tb.op(th, PersistOpKind::OFence, None);
        tb.persist(th, 0x200);
        let g = tb.finish();
        assert_eq!(g.persists().count(), 2);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn insufficient_scope_is_reported_as_a_bug() {
        let (a, b) = (t(0, 0), t(1, 0));
        let mut tb = TraceBuilder::new();
        tb.persist(a, 0x100);
        let rel = tb.op(a, PersistOpKind::PRel(Scope::Block), Some(0x8));
        let acq = tb.op(b, PersistOpKind::PAcq(Scope::Block), Some(0x8));
        tb.observe(acq, rel);
        let g = tb.finish();
        assert_eq!(g.scope_bugs().len(), 1);
        let bug = &g.scope_bugs()[0];
        assert_eq!(bug.acquire, acq);
        assert_eq!(bug.release, rel);
        assert_eq!(bug.effective, Scope::Block);
        assert!(!bug.to_string().is_empty());
    }

    #[test]
    fn sufficient_scope_reports_no_bug() {
        let (a, b) = (t(0, 0), t(1, 0));
        let mut tb = TraceBuilder::new();
        tb.persist(a, 0x100);
        let rel = tb.op(a, PersistOpKind::PRel(Scope::Device), Some(0x8));
        let acq = tb.op(b, PersistOpKind::PAcq(Scope::Device), Some(0x8));
        tb.observe(acq, rel);
        assert!(tb.finish().scope_bugs().is_empty());
    }

    #[test]
    #[should_panic(expected = "not a pRel")]
    fn observe_rejects_non_release() {
        let th = t(0, 0);
        let mut tb = TraceBuilder::new();
        let f = tb.op(th, PersistOpKind::OFence, None);
        let acq = tb.op(th, PersistOpKind::PAcq(Scope::Block), Some(8));
        tb.observe(acq, f);
    }
}
