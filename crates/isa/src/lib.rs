//! # sbrp-isa
//!
//! A small, structured SIMT instruction set used to express the paper's
//! GPU kernels without a CUDA toolchain.
//!
//! The ISA is deliberately minimal but covers everything the six
//! workloads of the paper (Table 2) need:
//!
//! * 64-bit integer ALU operations over per-thread registers;
//! * special registers (`tid`, `ctaid`, `ntid`, `nctaid`, lane/warp ids);
//! * volatile and persistent loads/stores (persistence is an address
//!   range property, as in Intel's app-direct mode, §3);
//! * `atomAdd` (performed at the L2, volatile addresses only);
//! * block-wide `__syncthreads`;
//! * the persistency operations: `oFence`, `dFence`, scoped
//!   `pAcq`/`pRel`, and the GPM/Epoch `epochBarrier`.
//!
//! Control flow is *structured* (`if`/`while` statement trees rather than
//! a CFG). [`Code::lower`] flattens a kernel's tree into one op array in
//! which every block is a contiguous op range, so a block's end is its
//! lanes' reconvergence point — the immediate post-dominator comes from
//! the structure, with no CFG analysis.
//!
//! [`KernelBuilder`] is the ergonomic way to write kernels;
//! [`WarpInterp`] executes one warp of lowered code in lockstep on a
//! reconvergence stack, yielding memory/fence actions to the timing
//! simulator and resuming when they complete.
//!
//! ```
//! use sbrp_isa::{KernelBuilder, MemWidth, Special};
//!
//! // out[tid] = a[tid] + 1
//! let mut b = KernelBuilder::new();
//! let a = b.param(0);
//! let out = b.param(1);
//! let tid = b.special(Special::GlobalTid);
//! let off = b.muli(tid, 8);
//! let pa = b.add(a, off);
//! let v = b.ld(pa, 0, MemWidth::W8);
//! let v1 = b.addi(v, 1);
//! let po = b.add(out, off);
//! b.st(po, 0, v1, MemWidth::W8);
//! let kernel = b.build("axpy1");
//! assert_eq!(kernel.name(), "axpy1");
//! ```

#![deny(missing_docs)]

pub mod affine;
mod builder;
mod code;
pub mod geometry;
mod instr;
mod interp;
mod kernel;
mod reg;
mod stmt;

pub use affine::Affine;
pub use builder::KernelBuilder;
pub use code::Code;
pub use geometry::{rep_pairs, sample_threads, RepThread, ScopeLevel};
pub use instr::{BinOp, Instr, MemWidth, Special};
pub use interp::{
    lanes_of, AccessKind, FenceAccess, LaneAccess, MemAccess, StepResult, WarpInterp,
};
pub use kernel::{BlockIndex, Kernel, LaunchConfig};
pub use reg::{Reg, NUM_REGS};
pub use stmt::Stmt;
