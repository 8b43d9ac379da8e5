//! The SBRP persist buffer — §6 of the paper, as a pure state machine.
//!
//! Each SM gains (Fig. 5):
//!
//! * a FIFO **persist buffer** (PB) whose entries are either persists
//!   (pointing at a dirty L1 line) or ordering points
//!   (`oFence`/`dFence`/`pAcq`/`pRel`), each tagged with a 32-bit
//!   **Warp BM** recording which warps issued it;
//! * three 32-bit warp masks — the **order delay mask** (ODM), the
//!   **eviction delay mask** (EDM) and the **flush status mask** (FSM);
//! * an acknowledgement counter (**ACTR**) of flushed-but-not-yet-durable
//!   persists.
//!
//! [`PersistUnit`] packages all of it behind an event API: the timing
//! simulator reports persists, fences and evictions, calls
//! [`PersistUnit::tick`] each cycle to collect lines to flush, and calls
//! [`PersistUnit::try_ack_persist`] when the persistence domain acknowledges
//! a write. The unit answers with warp stall/resume decisions; it knows
//! nothing about cycles or bandwidth, which keeps it exhaustively
//! unit-testable.

mod buffer;
mod entry;
mod masks;
mod policy;
mod unit;

pub use buffer::PersistBuffer;
pub use entry::{EntryKind, LineIdx, PbEntry};
pub use masks::WarpMask;
pub use policy::DrainPolicy;
pub use unit::{
    AckError, BlockReason, DrainAction, EvictOutcome, OpOutcome, PbConfig, PbStats, PersistUnit,
    StoreOutcome,
};
