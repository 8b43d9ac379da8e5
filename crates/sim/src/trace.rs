//! Persist-event tracing: connects the timing simulator to the formal
//! PMO checker of `sbrp-core`.
//!
//! When [`crate::config::GpuConfig::trace`] is set, the GPU records every
//! persist, fence, and scoped acquire/release (per lane, i.e. per
//! *thread*, matching the formal model's granularity), plus the cycle at
//! which each persist first became durable. After the run — or after a
//! crash — [`TraceCapture::check`] checks the trace against the model
//! in place: crash-cut downward closure, then durability order once
//! every persist is durable.
//!
//! [`crate::config::GpuConfig::sanitize`] reuses the same capture as an
//! *online sanitizer*: [`crate::Gpu::sanitize_check`] reports any §5.3
//! scoped persistency bug ([`TraceCapture::scope_bugs`]) and then runs
//! the same check.

use sbrp_core::formal::{EventId, PmoGraph, PmoViolation, ScopeBugWarning, TraceBuilder};
use sbrp_core::ops::PersistOpKind;
use sbrp_core::scope::{Scope, ThreadPos};
use std::collections::HashMap;

/// Accumulates an execution trace during simulation.
#[derive(Default)]
pub struct TraceCapture {
    tb: TraceBuilder,
    /// Per event id: the cycle the persist first became durable.
    durable_at: Vec<Option<u64>>,
    /// Flag address → the latest release whose value is visible there.
    last_flag_rel: HashMap<u64, EventId>,
    persists: u64,
}

impl std::fmt::Debug for TraceCapture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCapture")
            .field("persists", &self.persists)
            .field("durable", &self.durable_count())
            .finish()
    }
}

impl TraceCapture {
    /// Creates an empty capture.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of persists recorded.
    #[must_use]
    pub fn persist_count(&self) -> u64 {
        self.persists
    }

    /// Number of events recorded: persists and ordering operations.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.tb.len()
    }

    /// The cycle at which persist `id` first became durable, or `None`
    /// if it has not (or `id` is not a persist).
    #[must_use]
    pub fn durable_cycle(&self, id: EventId) -> Option<u64> {
        self.durable_at.get(id.index()).copied().flatten()
    }

    /// Number of persists that have become durable.
    fn durable_count(&self) -> u64 {
        self.durable_at.iter().flatten().count() as u64
    }

    /// Scoped persistency bugs (§5.3) recorded so far: acquires that
    /// observed a release whose scope excludes one of the threads.
    #[must_use]
    pub fn scope_bugs(&self) -> &[ScopeBugWarning] {
        self.tb.scope_bugs()
    }

    /// Records a persist by `thread` to `addr`; returns the opaque token
    /// to hand back to [`TraceCapture::durable`] when it becomes durable.
    pub fn persist(&mut self, thread: ThreadPos, addr: u64) -> u64 {
        self.persists += 1;
        self.tb.persist(thread, addr).index() as u64
    }

    /// Records an `oFence`, `dFence`, or epoch barrier by `thread`.
    pub fn fence(&mut self, thread: ThreadPos, op: PersistOpKind) {
        self.tb.op(thread, op, None);
    }

    /// Records a `pRel` by `thread` on flag `var`; call
    /// [`TraceCapture::flag_released`] when its flag write is applied.
    pub fn prel(&mut self, thread: ThreadPos, scope: Scope, var: u64) -> EventId {
        self.tb.op(thread, PersistOpKind::PRel(scope), Some(var))
    }

    /// The release `rel`'s flag write to `var` became visible.
    pub fn flag_released(&mut self, var: u64, rel: EventId) {
        self.last_flag_rel.insert(var, rel);
    }

    /// Records a `pAcq` by `thread` on flag `var` *at load completion*,
    /// linking it to the release whose value it observed (if any).
    pub fn pacq(&mut self, thread: ThreadPos, scope: Scope, var: u64) {
        let acq = self.tb.op(thread, PersistOpKind::PAcq(scope), Some(var));
        if let Some(&rel) = self.last_flag_rel.get(&var) {
            self.tb.observe(acq, rel);
        }
    }

    /// Marks the persists behind `tokens` durable at `cycle`, unless they
    /// already were.
    pub fn durable(&mut self, tokens: &[u64], cycle: u64) {
        for &t in tokens {
            let i = t as usize;
            if i >= self.durable_at.len() {
                self.durable_at.resize(i + 1, None);
            }
            self.durable_at[i].get_or_insert(cycle);
        }
    }

    /// Checks the trace in place: the durable persists must be
    /// PMO-downward-closed (the crash-cut property), and once every
    /// persist is durable, durability completion order must respect PMO.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn check(&self) -> Result<(), PmoViolation> {
        let at = |id: EventId| self.durable_cycle(id);
        self.tb.check_crash_cut(|id| at(id).is_some())?;
        // Durability order is defined only over complete runs: in a
        // crash state some persists are legally never durable.
        if self.durable_count() == self.persists {
            self.tb.check_durability_order(at)?;
        }
        Ok(())
    }

    /// Consumes the capture, returning its PMO graph.
    #[must_use]
    pub fn into_graph(self) -> PmoGraph {
        self.tb.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn th(block: u32, tid: u32) -> ThreadPos {
        ThreadPos::new(block, tid)
    }

    #[test]
    fn capture_and_crash_check() {
        let mut tc = TraceCapture::new();
        let w1 = tc.persist(th(0, 0), 0x1000);
        tc.fence(th(0, 0), PersistOpKind::OFence);
        let _w2 = tc.persist(th(0, 0), 0x2000);
        tc.durable(&[w1], 100);
        assert!(tc.check().is_ok());
    }

    #[test]
    fn crash_check_catches_reordered_durability() {
        let mut tc = TraceCapture::new();
        let _w1 = tc.persist(th(0, 0), 0x1000);
        tc.fence(th(0, 0), PersistOpKind::OFence);
        let w2 = tc.persist(th(0, 0), 0x2000);
        tc.durable(&[w2], 100); // w2 durable, w1 not: violation
        let err = tc.check().expect_err("crash cut broken");
        assert!(err.message.contains("crash state"), "{err}");
    }

    /// The in-place check verifies the borrowed trace, so it can run
    /// again, and it agrees with the finished graph's checks; a persist
    /// committed twice keeps its first durable cycle.
    #[test]
    fn verify_is_non_consuming_and_matches_check() {
        let mut tc = TraceCapture::new();
        let w1 = tc.persist(th(0, 0), 0x1000);
        tc.fence(th(0, 0), PersistOpKind::OFence);
        let w2 = tc.persist(th(0, 0), 0x2000);
        tc.durable(&[w2], 100);
        tc.durable(&[w1], 200);
        tc.durable(&[w2], 300);
        let (w1, w2) = (
            EventId::from_index(w1 as usize),
            EventId::from_index(w2 as usize),
        );
        assert_eq!(tc.durable_cycle(w2), Some(100));
        let err = tc.check().expect_err("durability order inverted");
        assert_eq!((err.before, err.after), (w1, w2));
        assert_eq!(
            tc.check(),
            Err(err.clone()),
            "check leaves the capture intact"
        );
        let graph = tc.into_graph();
        let at = HashMap::from([(w1, 200), (w2, 100)]);
        assert_eq!(graph.check_crash_cut(&[w1, w2].into()), Ok(()));
        assert_eq!(graph.check_durability_order(&at), Err(err));
    }

    #[test]
    fn acquire_links_to_last_release() {
        let mut tc = TraceCapture::new();
        let w1 = tc.persist(th(0, 0), 0x1000);
        let rel = tc.prel(th(0, 0), Scope::Block, 0x80);
        tc.flag_released(0x80, rel);
        tc.pacq(th(0, 32), Scope::Block, 0x80);
        let w2 = tc.persist(th(0, 32), 0x2000);
        let g = tc.into_graph();
        let (w1, w2) = (
            EventId::from_index(w1 as usize),
            EventId::from_index(w2 as usize),
        );
        assert!(g.pmo_holds(w1, w2));
    }

    #[test]
    fn acquire_without_visible_release_links_nothing() {
        let mut tc = TraceCapture::new();
        let w1 = tc.persist(th(0, 0), 0x1000);
        let _rel = tc.prel(th(0, 0), Scope::Block, 0x80);
        // Flag write not yet applied: the acquire reads the initial value.
        tc.pacq(th(0, 32), Scope::Block, 0x80);
        let w2 = tc.persist(th(0, 32), 0x2000);
        let g = tc.into_graph();
        let (w1, w2) = (
            EventId::from_index(w1 as usize),
            EventId::from_index(w2 as usize),
        );
        assert!(!g.pmo_holds(w1, w2));
    }

    #[test]
    fn scope_bugs_are_recorded_apart_from_the_check() {
        let mut tc = TraceCapture::new();
        tc.persist(th(0, 0), 0x1000);
        // Block-scoped release/acquire across different blocks: the
        // value flows, but no PMO edge exists (§5.3).
        let rel = tc.prel(th(0, 0), Scope::Block, 0x80);
        tc.flag_released(0x80, rel);
        tc.pacq(th(1, 0), Scope::Block, 0x80);
        assert_eq!(tc.scope_bugs().len(), 1);
        assert!(tc.check().is_ok(), "no persist is durable out of order");
    }
}
