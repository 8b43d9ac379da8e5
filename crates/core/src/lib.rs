//! # sbrp-core
//!
//! The core library of the SBRP reproduction: everything the paper
//! *"Scoped Buffered Persistency Model for GPUs"* (ASPLOS 2023) specifies,
//! independent of any particular timing simulator.
//!
//! The crate has three layers:
//!
//! 1. **Vocabulary** — [`scope`] and [`ops`] define the GPU execution
//!    hierarchy (threads, warps, threadblocks, grids), scopes
//!    (block/device/system), and the persistency operations the paper
//!    introduces (`oFence`, `dFence`, scoped `pAcq`/`pRel`, plus the epoch
//!    barrier used by the GPM/Epoch baselines).
//!
//! 2. **Formal model** — [`formal`] is an executable rendition of the
//!    paper's Box 1/Box 2: it builds the *persist memory order* (PMO)
//!    relation from an execution trace and checks that (a) observed
//!    durability order never inverts PMO and (b) any crash leaves a
//!    PMO-downward-closed set of durable persists. Litmus tests (including
//!    the scoped-persistency-bug of §5.3) live here too.
//!
//! 3. **Hardware engines** — [`pbuffer`] implements the per-SM persist
//!    buffer of §6 (FIFO PB entries with warp bitmasks, the ODM/EDM/FSM
//!    masks, the ACTR acknowledgement counter, and the eager/lazy/window
//!    drain policies of §6.2), and [`epoch`] implements the unbuffered
//!    epoch engines used by the GPM and Epoch baselines. Both are pure
//!    state machines driven by events; the timing simulator in
//!    `sbrp-gpu-sim` embeds them into SMs.
//!
//! ## Example
//!
//! ```
//! use sbrp_core::pbuffer::{PersistUnit, PbConfig, StoreOutcome};
//! use sbrp_core::scope::WarpSlot;
//!
//! let mut pb = PersistUnit::new(PbConfig::default());
//! let w0 = WarpSlot::new(0);
//! // A persist allocates a PB entry; a second store to the same line
//! // coalesces because no ordering operation intervened.
//! assert_eq!(pb.persist_store(w0, 7.into()), StoreOutcome::NewEntry);
//! assert_eq!(pb.persist_store(w0, 7.into()), StoreOutcome::Coalesced);
//! pb.ofence(w0);
//! // After the warp's oFence the same line may not be written in place.
//! assert_eq!(pb.persist_store(w0, 7.into()), StoreOutcome::StallOrdered);
//! ```

#![deny(missing_docs)]

pub mod epoch;
pub mod fingerprint;
pub mod formal;
pub mod json;
pub mod ops;
pub mod pbuffer;
pub mod scope;
pub mod stall;

pub use ops::{ModelKind, PersistOpKind};
pub use scope::{BlockId, LaneId, Scope, ThreadPos, WarpSlot};
pub use stall::{StallBreakdown, StallCause};
