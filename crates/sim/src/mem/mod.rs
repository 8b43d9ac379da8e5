//! Memory hierarchy: backing stores, caches, device channels, and the
//! shared memory subsystem (L2 + memory controllers + PCIe).

mod backing;
mod cache;
mod channel;
mod subsystem;

pub use backing::Backing;
pub use cache::{Cache, CacheStats, Victim};
pub use channel::Channel;
pub use subsystem::{Completion, LineWrite, MemSubsystem, PersistDest, ReqTag};
