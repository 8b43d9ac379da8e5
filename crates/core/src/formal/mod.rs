//! Executable formal model of SBRP (Box 1 and Box 2 of the paper).
//!
//! The paper specifies SBRP in terms of three relations over a program
//! execution:
//!
//! * **program order** (`po`) — per-thread issue order;
//! * **volatile memory order** (`vmo`) — here materialized only where the
//!   persistency model consumes it: a `pAcq` *observing* the value written
//!   by a `pRel` on the same variable;
//! * **persist memory order** (`pmo`) — the order in which writes to PM
//!   must become durable.
//!
//! [`TraceBuilder`] records an execution (persists, fences, scoped
//! acquire/release pairs with their observations) and [`PmoGraph`] derives
//! the PMO relation as reachability over a DAG whose edges each correspond
//! to one rule of Box 2:
//!
//! * `W →po F →po W'` (same thread, `F` an intra-thread persist fence)
//!   implies `W →pmo W'`;
//! * `W →po pRel(X,S)` , `pAcq(X,S) reads-from pRel`, `pAcq →po W'`, with
//!   `S` sufficient to include both threads, implies `W →pmo W'`;
//! * transitivity (Box 1) is reachability.
//!
//! Two checkers consume the graph:
//!
//! * [`PmoGraph::check_durability_order`] — given the time each persist
//!   became durable, verify durability never inverts PMO;
//! * [`PmoGraph::check_crash_cut`] — given the set of persists durable at
//!   a crash, verify the set is downward-closed under PMO (no persist is
//!   durable while a PMO-predecessor is not). The model checker runs the
//!   same check on a trace still being recorded
//!   ([`TraceBuilder::check_crash_cut`], over an [`EventSet`]).
//!
//! [`litmus`] contains the paper's motivating shapes as ready-made traces,
//! including the scoped persistency bug of §5.3.

mod event;
mod graph;
pub mod litmus;

pub use event::{Event, EventId, EventKind};
pub use graph::{EventSet, PmoGraph, PmoViolation, ScopeBugWarning, TraceBuilder};
