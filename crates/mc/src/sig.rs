//! Schedule-abstract execution signatures.
//!
//! An [`ExecutionSig`] names an execution by what the persistency model
//! cares about — per-thread persist projections, which release each
//! acquire observed, and the final durable address set — while erasing
//! everything schedule-dependent: event ids, interleaving order, and
//! non-observing synchronization ops (a consumer that spun 3 times and
//! one that spun 30 times have the same signature).
//!
//! Signatures are the bridge between the model checker and the timing
//! simulator: both produce a [`sbrp_core::formal::PmoGraph`] through the
//! same `TraceBuilder`, so a signature computed from a simulator trace
//! is directly comparable to the signatures of the checker's enumerated
//! complete executions. [`crate::McReport::signatures`] collects the
//! latter; the membership property test asserts the former is always
//! among them.

use sbrp_core::formal::{EventKind, PmoGraph};
use std::collections::{BTreeMap, BTreeSet};

/// A thread as `(block, tid_in_block)` — the ordered form of
/// [`sbrp_core::scope::ThreadPos`].
pub type SigThread = (u32, u32);

/// What an execution did, up to schedule equivalence.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct ExecutionSig {
    /// Per thread: the addresses it persisted, in program order.
    pub persists: BTreeMap<SigThread, Vec<u64>>,
    /// Each `(releaser, acquirer, var)` synchronization that actually
    /// observed a released value and created a PMO edge. Scope-bugged
    /// observations (§5.3) create no edge and therefore do not appear —
    /// identically on both the checker and simulator sides, since both
    /// record through the same `TraceBuilder`.
    pub observations: BTreeSet<(SigThread, SigThread, u64)>,
    /// Addresses with a durable persist when the execution ended.
    pub durable: BTreeSet<u64>,
}

fn sig_thread(t: sbrp_core::scope::ThreadPos) -> SigThread {
    (t.block.0, t.tid_in_block)
}

impl ExecutionSig {
    /// Computes the signature of the execution `graph` records, with
    /// `durable` as the addresses durable at its end.
    ///
    /// Observations are the graph's admitted `(release, acquire)`
    /// pairs ([`PmoGraph::observations`]), less any acquire that read
    /// its own thread's release.
    #[must_use]
    pub fn from_graph(graph: &PmoGraph, durable: impl IntoIterator<Item = u64>) -> Self {
        let mut sig = ExecutionSig {
            durable: durable.into_iter().collect(),
            ..ExecutionSig::default()
        };
        for i in 0..graph.len() {
            let ev = graph.event(sbrp_core::formal::EventId::from_index(i));
            if let EventKind::Persist { addr } = ev.kind {
                sig.persists
                    .entry(sig_thread(ev.thread))
                    .or_default()
                    .push(addr);
            }
        }
        for (rel, acq) in graph.observations() {
            let (r, a) = (graph.event(rel), graph.event(acq));
            let EventKind::Op { var: Some(var), .. } = r.kind else {
                continue;
            };
            if r.thread != a.thread {
                sig.observations
                    .insert((sig_thread(r.thread), sig_thread(a.thread), var));
            }
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{canonical_run, explore, McOpts};
    use crate::litmus;

    #[test]
    fn canonical_run_signature_is_enumerated() {
        let opts = McOpts {
            jobs: 1,
            ..McOpts::default()
        };
        for shape in litmus::all() {
            let st = canonical_run(&shape.program);
            let sig = ExecutionSig::from_graph(&st.graph(), st.durable_addrs().iter().copied());
            let report = explore(&shape.program, &shape.spec, &opts);
            assert!(
                report.signatures.contains(&sig),
                "{}: canonical signature missing from {} enumerated",
                shape.name,
                report.signatures.len(),
            );
        }
    }

    #[test]
    fn mp_shape_signature_records_the_observation() {
        let shape = litmus::message_passing_block();
        let st = canonical_run(&shape.program);
        let sig = ExecutionSig::from_graph(&st.graph(), st.durable_addrs().iter().copied());
        assert_eq!(
            sig.observations.iter().collect::<Vec<_>>(),
            vec![&((0, 0), (0, 32), 0x80)],
        );
        assert_eq!(sig.persists[&(0, 0)], vec![0x1000]);
        assert_eq!(sig.persists[&(0, 32)], vec![0x2000]);
        assert!(sig.durable.contains(&0x1000) && sig.durable.contains(&0x2000));
    }
}
