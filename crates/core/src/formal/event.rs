//! Trace events consumed by the formal model.

use crate::ops::PersistOpKind;
use crate::scope::ThreadPos;
use std::fmt;

/// Index of an event within a [`super::TraceBuilder`] trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u32);

impl EventId {
    /// The event's position in the global trace.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from [`EventId::index`] — for callers that
    /// round-trip ids through opaque integer tokens (e.g. the simulator's
    /// per-line trace tokens). Using an index that was not produced
    /// by the same trace yields nonsense results from the checkers.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        EventId(u32::try_from(index).expect("event index too large"))
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What happened at a trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A write to persistent memory (a *persist*).
    Persist {
        /// Byte address written (used only for reporting).
        addr: u64,
    },
    /// A persistency operation (`oFence`, `dFence`, `pAcq`, `pRel`,
    /// epoch barrier).
    Op {
        /// The operation.
        op: PersistOpKind,
        /// The synchronization variable for `pAcq`/`pRel`.
        var: Option<u64>,
    },
}

/// One event of an execution trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The thread that issued the event.
    pub thread: ThreadPos,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// Whether this event is a persist (write to PM).
    #[must_use]
    pub fn is_persist(&self) -> bool {
        matches!(self.kind, EventKind::Persist { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;

    #[test]
    fn persist_predicate() {
        let t = ThreadPos::new(0u32, 0);
        let p = Event {
            thread: t,
            kind: EventKind::Persist { addr: 0x100 },
        };
        let f = Event {
            thread: t,
            kind: EventKind::Op {
                op: PersistOpKind::PAcq(Scope::Block),
                var: Some(8),
            },
        };
        assert!(p.is_persist());
        assert!(!f.is_persist());
    }
}
