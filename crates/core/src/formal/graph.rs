//! The flat PMO trace and the two durability checkers.

use super::event::{Event, EventId, EventKind};
use crate::ops::PersistOpKind;
use crate::scope::ThreadPos;
use std::collections::{HashMap, HashSet};
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

/// Marks a [`Link`] with no observed release.
const NONE: u32 = u32::MAX;

/// What a trace keeps per event besides the event itself: the dense
/// index of its thread and, for an acquire, the release it observed
/// with a sufficient scope ([`NONE`] otherwise). Every PMO edge follows
/// from these two fields and trace order.
#[derive(Clone, Copy)]
struct Link {
    thread: u32,
    observed: u32,
}

/// Incrementally records an execution; its PMO edges stay implicit.
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
    links: Vec<Link>,
    /// Thread -> its dense index in [`Link::thread`].
    threads: HashMap<ThreadPos, u32>,
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

    fn push(&mut self, thread: ThreadPos, kind: EventKind) -> EventId {
        let id = EventId(u32::try_from(self.events.len()).expect("trace too large"));
        let next = self.threads.len() as u32;
        let thread_idx = *self.threads.entry(thread).or_insert(next);
        self.events.push(Event { thread, kind });
        self.links.push(Link {
            thread: thread_idx,
            observed: NONE,
        });
        id
    }

    /// Records a persist (write to PM) by `thread`.
    pub fn persist(&mut self, thread: ThreadPos, addr: u64) -> EventId {
        self.push(thread, EventKind::Persist { addr })
    }

    /// Records a persistency operation by `thread`.
    ///
    /// For `pAcq`/`pRel`, `var` is the synchronization variable; link the
    /// acquire to the release it read with [`TraceBuilder::observe`].
    pub fn op(&mut self, thread: ThreadPos, op: PersistOpKind, var: Option<u64>) -> EventId {
        self.push(thread, EventKind::Op { op, var })
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
    /// variable, if `rel` does not precede `acq` in the trace, or if
    /// `acq` already observed a release with a sufficient scope.
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
            let observed = &mut self.links[acq.index()].observed;
            assert!(
                *observed == NONE,
                "observe: {acq} already observed e{observed}; an acquire reads one release"
            );
            *observed = rel.0;
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
    /// The walk carries the first-reached non-durable PMO-predecessor
    /// persist and reports the first durable persist it reaches.
    ///
    /// # Errors
    ///
    /// Returns the first [`PmoViolation`] found.
    pub fn check_crash_cut(&self, durable: impl Fn(EventId) -> bool) -> Result<(), PmoViolation> {
        self.propagate(
            |_: &EventId, _| false,
            |id, missing| match (missing, durable(id)) {
                (Some(w1), true) => Err(PmoViolation {
                    before: w1,
                    after: id,
                    message: format!(
                        "crash state contains persist {id} but not its PMO-predecessor {w1}"
                    ),
                }),
                (Some(w1), false) => Ok(Some(w1)),
                (None, here) => Ok((!here).then_some(id)),
            },
        )
    }

    /// [`PmoGraph::check_durability_order`] on the trace recorded so far,
    /// without finishing (or copying) it; `durable_at` gives the cycle a
    /// persist became durable, if it did.
    ///
    /// The walk carries the latest durable cycle of any PMO-predecessor
    /// persist and reports the first persist durable before it, or never
    /// durable after it.
    ///
    /// # Errors
    ///
    /// Returns the first [`PmoViolation`] found.
    pub fn check_durability_order(
        &self,
        durable_at: impl Fn(EventId) -> Option<u64>,
    ) -> Result<(), PmoViolation> {
        self.propagate(
            |a: &(u64, EventId), b| a.0 > b.0,
            |id, latest| {
                let here = durable_at(id);
                match (latest, here) {
                    (Some((t_pred, pred)), Some(t)) if t < t_pred => Err(PmoViolation {
                        before: pred,
                        after: id,
                        message: format!(
                            "persist {id} durable at {t} before its PMO-predecessor \
                             {pred} (durable at {t_pred})"
                        ),
                    }),
                    (Some((_, pred)), None) => Err(PmoViolation {
                        before: pred,
                        after: id,
                        message: format!(
                            "persist {id} never became durable but PMO-orders after \
                             {pred}; durability-order check requires complete runs"
                        ),
                    }),
                    _ => Ok(here.map(|t| (t, id))),
                }
            },
        )
    }

    /// The one forward walk over the implicit PMO edges, in trace (hence
    /// topological) order. A persist's only predecessor is its thread's
    /// last op; an op's are that previous op, the persists since it and
    /// the release it observed. Each event takes the best value its
    /// predecessors pass on (`better` ranks them; between equally good
    /// ones the earliest source event wins); `at_persist` turns a
    /// persist's incoming value into its outgoing one, while an op passes
    /// its value on unchanged.
    fn propagate<V: Copy, E>(
        &self,
        better: impl Fn(&V, &V) -> bool,
        mut at_persist: impl FnMut(EventId, Option<V>) -> Result<Option<V>, E>,
    ) -> Result<(), E> {
        // Per thread, each value with the event it came from: the value
        // at its last op, and the best over the persists issued since.
        let mut open: Vec<[Option<(V, u32)>; 2]> = vec![[None; 2]; self.threads.len()];
        // Per event: the value an op passes on (read back by the
        // acquires that observe a release).
        let mut at_op: Vec<Option<V>> = vec![None; self.events.len()];
        for (i, (ev, link)) in self.events.iter().zip(&self.links).enumerate() {
            let [last_op, segment] = &mut open[link.thread as usize];
            let src = i as u32;
            if ev.is_persist() {
                // A later persist of the segment wins only if better.
                let out = at_persist(EventId(src), last_op.map(|(v, _)| v))?;
                if let Some(v) = out {
                    if segment.is_none_or(|(s, _)| better(&v, &s)) {
                        *segment = Some((v, src));
                    }
                }
                continue;
            }
            // The segment follows the last op, which so wins a tie.
            let mut incoming = match (*last_op, segment.take()) {
                (Some((l, _)), Some((s, s_src))) if better(&s, &l) => Some((s, s_src)),
                (None, seg) => seg,
                (last, _) => last,
            };
            let rel = link.observed;
            if let Some(r) = (rel != NONE).then(|| at_op[rel as usize]).flatten() {
                let wins = incoming
                    .is_none_or(|(v, v_src)| better(&r, &v) || (!better(&v, &r) && rel < v_src));
                if wins {
                    incoming = Some((r, rel));
                }
            }
            *last_op = incoming.map(|(v, _)| (v, src));
            at_op[i] = incoming.map(|(v, _)| v);
        }
        Ok(())
    }

    /// Finalizes the trace into an immutable [`PmoGraph`].
    #[must_use]
    pub fn finish(self) -> PmoGraph {
        PmoGraph(self)
    }
}

/// The PMO relation of a finished trace: the trace itself, whose edges
/// stay implicit in program order and the observations.
pub struct PmoGraph(TraceBuilder);

impl fmt::Debug for PmoGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmoGraph")
            .field("events", &self.len())
            .field("observations", &self.observations().count())
            .finish()
    }
}

impl PmoGraph {
    /// Number of events in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The event at `id`.
    #[must_use]
    pub fn event(&self, id: EventId) -> &Event {
        &self.0.events[id.index()]
    }

    /// Scoped persistency bugs detected while the trace was recorded
    /// (§5.3): acquire/release pairs that synchronized but whose scope
    /// excludes one of the threads.
    #[must_use]
    pub fn scope_bugs(&self) -> &[ScopeBugWarning] {
        self.0.scope_bugs()
    }

    /// All persist events in the trace.
    pub fn persists(&self) -> impl Iterator<Item = EventId> + '_ {
        self.0
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_persist())
            .map(|(i, _)| EventId(i as u32))
    }

    /// The observations that created a PMO edge, as `(release, acquire)`
    /// pairs in trace order of the acquire: exactly those
    /// [`TraceBuilder::observe`] admitted with a sufficient scope. They
    /// are the trace's only cross-thread edges, which is what lets
    /// callers compare the *synchronization structure* of two traces
    /// without caring about event numbering.
    pub fn observations(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.0
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.observed != NONE)
            .map(|(i, l)| (EventId(l.observed), EventId(i as u32)))
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
        // Reachability from `w1`, stopping at `w2`.
        let mut holds = false;
        let _ = self.0.propagate(
            |_: &(), _| false,
            |id, reached| {
                if id == w2 {
                    holds = reached.is_some();
                    return Err(());
                }
                Ok(if id == w1 { Some(()) } else { reached })
            },
        );
        holds
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
        self.0
            .check_durability_order(|id| durable_at.get(&id).copied())
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
        self.0.check_crash_cut(|id| durable.contains(&id))
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
    /// exclude the observing thread. Returns it with every
    /// `(release, acquire)` pair it observed, whatever the scope.
    fn random_trace(steps: &[Step]) -> (PmoGraph, Vec<(EventId, EventId)>) {
        let threads = [t(0, 0), t(0, 32), t(1, 0), t(1, 32)];
        let scopes = [Scope::Block, Scope::Device, Scope::System];
        let mut tb = TraceBuilder::new();
        let mut last_rel: [Option<EventId>; 2] = [None; 2];
        let mut observed = Vec::new();
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
                        observed.push((rel, acq));
                    }
                }
            }
        }
        (tb.finish(), observed)
    }

    /// Whether the observation `rel -> acq` orders its threads: the
    /// narrowest of the two scopes includes both.
    fn admitted(g: &PmoGraph, rel: EventId, acq: EventId) -> bool {
        let scope = |id: EventId| match g.event(id).kind {
            EventKind::Op {
                op: PersistOpKind::PRel(s) | PersistOpKind::PAcq(s),
                ..
            } => s,
            other => panic!("not an acquire or release: {other:?}"),
        };
        let effective = scope(rel).min(scope(acq));
        g.event(rel)
            .thread
            .shares_scope(g.event(acq).thread, effective)
    }

    /// The Box 2 relation over every event of `g`, by brute force:
    /// program order (except between two persists with no op of their
    /// thread between them), plus each admitted observation, closed
    /// transitively. `reach[a][b]` says `a` precedes `b`.
    fn closure(g: &PmoGraph, observed: &[(EventId, EventId)]) -> Vec<Vec<bool>> {
        let n = g.len();
        let ev = |i: usize| g.event(EventId::from_index(i));
        let po = |a: usize, b: usize| {
            a < b
                && ev(a).thread == ev(b).thread
                && (a..=b).any(|k| ev(k).thread == ev(a).thread && !ev(k).is_persist())
        };
        let mut reach: Vec<Vec<bool>> =
            (0..n).map(|a| (0..n).map(|b| po(a, b)).collect()).collect();
        for &(rel, acq) in observed {
            if admitted(g, rel, acq) {
                reach[rel.index()][acq.index()] = true;
            }
        }
        for k in 0..n {
            let via = reach[k].clone();
            for row in &mut reach {
                if row[k] {
                    row.iter_mut().zip(&via).for_each(|(r, &v)| *r |= v);
                }
            }
        }
        reach
    }

    /// Durable cycles drawn from `cycles`: event `i` is durable, at cycle
    /// `cycles[i] % 8`, when `cycles[i] < threshold`. Cycles may tie,
    /// invert PMO or be missing.
    fn durable_cycles(g: &PmoGraph, cycles: &[u8], threshold: u8) -> HashMap<EventId, u64> {
        cycles
            .iter()
            .enumerate()
            .take(g.len())
            .filter(|&(_, &c)| c < threshold)
            .map(|(i, &c)| (EventId::from_index(i), u64::from(c % 8)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The implicit-edge walk agrees with the brute-force closure:
        /// `pmo_holds` is the closure on persists, and `observations`
        /// lists exactly the admitted observations.
        #[test]
        fn walks_match_the_box2_closure(
            steps in collection::vec((0u8..6, 0u8..4, 0u8..3, any::<u8>()), 1..48),
        ) {
            let (g, observed) = random_trace(&steps);
            let reach = closure(&g, &observed);
            let persists: Vec<EventId> = g.persists().collect();
            for &a in &persists {
                for &b in &persists {
                    prop_assert_eq!(g.pmo_holds(a, b), reach[a.index()][b.index()], "pmo({}, {})", a, b);
                }
            }
            let linked: Vec<_> = observed.iter().copied().filter(|&(r, a)| admitted(&g, r, a)).collect();
            prop_assert_eq!(g.observations().collect::<Vec<_>>(), linked);
        }

        /// The builder's crash-cut check on the borrowed trace and the
        /// finished graph's agree, down to the reported pair, and both
        /// report exactly the first durable persist whose closure holds a
        /// non-durable predecessor, with such a predecessor as `before`.
        #[test]
        fn builder_and_graph_crash_cuts_agree(
            steps in collection::vec((0u8..6, 0u8..4, 0u8..3, any::<u8>()), 1..48),
            durable_bits in collection::vec(any::<u8>(), 48),
            threshold in any::<u8>(),
        ) {
            let (g, observed) = random_trace(&steps);
            let reach = closure(&g, &observed);
            let pmo = |a: EventId, b: EventId| reach[a.index()][b.index()];
            let persists: Vec<EventId> = g.persists().collect();
            let durable: HashSet<EventId> = durable_cycles(&g, &durable_bits, threshold).into_keys().collect();
            let mut set = EventSet::new();
            durable.iter().for_each(|&id| set.insert(id));

            let finished = g.check_crash_cut(&durable);
            prop_assert_eq!(g.0.check_crash_cut(|id| set.contains(id)), finished.clone());

            let broken = persists.iter().copied().find(|&b| {
                durable.contains(&b)
                    && persists.iter().any(|&a| pmo(a, b) && !durable.contains(&a))
            });
            match (finished, broken) {
                (Ok(()), None) => {}
                (Err(v), Some(b)) => {
                    prop_assert_eq!(v.after, b);
                    prop_assert!(pmo(v.before, b) && !durable.contains(&v.before), "{}", v);
                }
                (got, want) => prop_assert!(false, "crash cut {:?}, expected a break at {:?}", got, want),
            }
        }

        /// Likewise for the durability-order check: both report exactly
        /// the first persist durable before, or never durable after, the
        /// latest durable cycle among its closure predecessors, with a
        /// predecessor durable at that latest cycle as `before`.
        #[test]
        fn builder_and_graph_durability_orders_agree(
            steps in collection::vec((0u8..6, 0u8..4, 0u8..3, any::<u8>()), 1..48),
            cycles in collection::vec(any::<u8>(), 48),
            threshold in any::<u8>(),
        ) {
            let (g, observed) = random_trace(&steps);
            let reach = closure(&g, &observed);
            let pmo = |a: EventId, b: EventId| reach[a.index()][b.index()];
            let persists: Vec<EventId> = g.persists().collect();
            let at = durable_cycles(&g, &cycles, threshold);

            let finished = g.check_durability_order(&at);
            prop_assert_eq!(g.0.check_durability_order(|id| at.get(&id).copied()), finished.clone());

            let latest = |b: EventId| {
                persists.iter().filter(|&&a| pmo(a, b)).filter_map(|a| at.get(a)).max().copied()
            };
            let broken = persists.iter().copied().find(|&b| match (latest(b), at.get(&b)) {
                (Some(t_pred), Some(&t)) => t < t_pred,
                (Some(_), None) => true,
                (None, _) => false,
            });
            match (finished, broken) {
                (Ok(()), None) => {}
                (Err(v), Some(b)) => {
                    prop_assert_eq!(v.after, b);
                    prop_assert!(pmo(v.before, b), "{}", v);
                    prop_assert_eq!(at.get(&v.before).copied(), latest(b), "{}", v);
                }
                (got, want) => prop_assert!(false, "durability order {:?}, expected a break at {:?}", got, want),
            }
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

    #[test]
    #[should_panic(expected = "already observed")]
    fn observe_rejects_a_second_release() {
        let (a, b) = (t(0, 0), t(0, 32));
        let mut tb = TraceBuilder::new();
        let rel1 = tb.op(a, PersistOpKind::PRel(Scope::Block), Some(8));
        let rel2 = tb.op(a, PersistOpKind::PRel(Scope::Block), Some(8));
        let acq = tb.op(b, PersistOpKind::PAcq(Scope::Block), Some(8));
        tb.observe(acq, rel1);
        tb.observe(acq, rel2);
    }
}
