//! The lockstep warp interpreter.
//!
//! A [`WarpInterp`] executes one warp of a kernel. Each [`WarpInterp::step`]
//! performs one instruction for all active lanes and returns what the
//! timing simulator must account for: a cycle of ALU work, a memory
//! access, or a fence. Memory and fence results are delivered back with
//! [`WarpInterp::complete_load`] / [`WarpInterp::complete`], after which
//! stepping resumes past the instruction.
//!
//! The warp runs the kernel's lowered [`Code`]: a flat op array in which
//! every statement block is a contiguous op range. Divergence is handled
//! by a reconvergence stack of `Copy` entries. A block entry runs an op
//! range under an active lane mask until the range's end, where its
//! lanes reconverge; a loop entry re-tests its condition each trip and
//! narrows its mask as lanes leave. ALU instructions dispatch their
//! operation once per warp instruction and then loop over the
//! 32-lane register rows.

use crate::code::{Code, Op};
use crate::instr::{BinOp, Instr, MemWidth, Special};
use crate::kernel::{Kernel, LaunchConfig};
use crate::reg::Reg;
use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::scope::{Scope, WARP_SIZE};
use std::sync::Arc;

/// The set bits of a lane mask, in ascending order: the lanes of a warp
/// mask, positions in a list of at most 32 lanes, or the warp slots of
/// one of an SM's warp-state masks.
pub fn lanes_of(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// One register across the warp's lanes.
type Row = [u64; WARP_SIZE];

/// Writes `f(lane)` into `dst` for the lanes of `mask`. A full mask is a
/// plain loop over every lane, which the compiler can vectorize; a
/// partial mask visits only active lanes, so `f` never runs (and never
/// panics, as a division by zero does) on an inactive one.
#[inline(always)]
fn write_row(dst: &mut Row, mask: u32, f: impl Fn(usize) -> u64) {
    if mask == u32::MAX {
        for (l, d) in dst.iter_mut().enumerate() {
            *d = f(l);
        }
    } else {
        for l in lanes_of(mask) {
            dst[l] = f(l);
        }
    }
}

/// `dst = op(a, b)` on the lanes of `mask`, matching `op` once.
#[inline(always)]
fn bin_row(op: BinOp, dst: &mut Row, mask: u32, a: &Row, b: impl Fn(usize) -> u64) {
    macro_rules! per_op {
        ($($v:ident),*) => {
            match op {
                $(BinOp::$v => write_row(dst, mask, |l| BinOp::$v.apply(a[l], b(l))),)*
            }
        };
    }
    per_op!(
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max, SetLt, SetLe, SetEq, SetNe,
        SetGt, SetGe
    );
}

/// What kind of plain memory access a warp issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load; complete with per-lane values.
    Load,
    /// An L1-bypassing (volatile) load; complete with per-lane values.
    LoadVolatile,
    /// A store; complete with [`WarpInterp::complete`].
    Store,
    /// An atomic add at the L2; complete with the per-lane old values.
    AtomAdd,
}

/// One lane's part of a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneAccess {
    /// Lane index within the warp.
    pub lane: u8,
    /// Byte address.
    pub addr: u64,
    /// Store/atomic operand value (0 for loads).
    pub value: u64,
}

/// A warp-level memory access (the LSU coalesces its lanes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Access kind.
    pub kind: AccessKind,
    /// Access width per lane.
    pub width: MemWidth,
    /// Active lanes' addresses/values.
    pub lanes: Vec<LaneAccess>,
}

/// A warp-level fence/synchronization action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FenceAccess {
    /// Intra-thread persist ordering fence.
    OFence,
    /// Durability fence.
    DFence,
    /// GPM/Epoch epoch barrier.
    EpochBarrier,
    /// Block-wide `__syncthreads`.
    SyncBlock,
    /// Scoped persist acquire: per-lane 32-bit flag loads; complete with
    /// values.
    PAcq {
        /// The operation's scope.
        scope: Scope,
        /// Active lanes' flag addresses.
        lanes: Vec<LaneAccess>,
    },
    /// Scoped persist release: per-lane 32-bit flag writes, to be
    /// published per the engine's rules.
    PRel {
        /// The operation's scope.
        scope: Scope,
        /// Active lanes' flag addresses and values.
        lanes: Vec<LaneAccess>,
    },
}

/// Result of stepping a warp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepResult {
    /// One ALU/branch instruction executed (one issue slot).
    Alu,
    /// The warp sleeps for the given number of cycles, then is ready.
    Sleep(u32),
    /// A memory access is outstanding.
    Mem(MemAccess),
    /// A fence/synchronization action is outstanding.
    Fence(FenceAccess),
    /// The warp has finished the kernel.
    Done,
}

/// One entry of a warp's reconvergence stack.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// Running `block`'s ops from `pc` under `mask`; at `end` the block
    /// is finished and its lanes reconverge into the entry below.
    Block {
        pc: u32,
        end: u32,
        mask: u32,
        block: u32,
    },
    /// A loop over the `While` op at `header` with its live lanes `mask`;
    /// `in_body` is set while the body block above it runs (otherwise
    /// the condition block runs, or is about to be tested).
    Loop {
        header: u32,
        mask: u32,
        in_body: bool,
    },
}

#[derive(Clone, Debug)]
enum Pending {
    /// Write completion values to `dst` for the lanes of `mask`, which
    /// are the issued access's lanes in ascending order.
    Values { dst: Reg, mask: u32 },
    /// Just advance past the instruction.
    Plain,
}

/// Interpreter state for one warp.
///
/// # The step/complete protocol
///
/// The interpreter is a coroutine over externally visible actions. The
/// driver (an SM, or a test) obeys three invariants:
///
/// 1. **One action outstanding at a time.** After [`WarpInterp::step`]
///    returns [`StepResult::Mem`] or [`StepResult::Fence`], exactly one
///    of [`complete_load`](WarpInterp::complete_load) (value-producing:
///    loads, `pAcq`, `atomAdd`), [`complete`](WarpInterp::complete)
///    (stores, non-value fences), or [`retry`](WarpInterp::retry) must
///    be called before the next `step`. Both `step`-while-outstanding
///    and `complete`-while-idle panic — the protocol is checked, not
///    assumed.
/// 2. **Fences are actions, not hints.** Every `OFence` / `DFence` /
///    `EpochBarrier` / `PAcq` / `PRel` / `SyncBlock` surfaces as a
///    [`FenceAccess`] and blocks the warp until completed; the
///    interpreter itself imposes no persist ordering — that is entirely
///    the persist engine's job, which is what lets one ISA serve every
///    persistency model.
/// 3. **Lockstep divergence.** All 32 lanes share one program counter;
///    `if`/`while` run both sides under lane masks, so a `step` sequence
///    is deterministic for a given kernel and launch — any two drivers
///    observe the same action stream.
///
/// ```
/// use sbrp_isa::{KernelBuilder, LaunchConfig, MemWidth};
/// use sbrp_isa::{AccessKind, FenceAccess, StepResult, WarpInterp};
///
/// let mut b = KernelBuilder::new();
/// let addr = b.movi(0x100);
/// let v = b.movi(7);
/// b.st(addr, 0, v, MemWidth::W8);
/// b.ofence();
/// let kernel = b.build("doc");
///
/// let mut w = WarpInterp::new(&kernel, LaunchConfig::new(1, 32), 0, 0);
/// let mut actions = Vec::new();
/// loop {
///     match w.step() {
///         StepResult::Alu | StepResult::Sleep(_) => {}
///         StepResult::Mem(m) => {
///             actions.push("store");
///             assert_eq!(m.kind, AccessKind::Store);
///             w.complete(); // a store produces no values
///         }
///         StepResult::Fence(f) => {
///             actions.push("ofence");
///             assert_eq!(f, FenceAccess::OFence);
///             w.complete(); // the engine decides when; here: instantly
///         }
///         StepResult::Done => break,
///     }
/// }
/// assert_eq!(actions, ["store", "ofence"]);
/// assert!(w.is_done());
/// ```
///
/// # Branching executions
///
/// `WarpInterp` is `Clone`, and cloning is cheap relative to a kernel
/// run: it copies the register file and the fixed-size stack of `Copy`
/// entries, and shares the lowered [`Code`] through `Arc`. A stateless
/// model checker exploits this to branch an execution at every
/// scheduling point: clone the interpreter, complete the outstanding
/// action differently in each branch, and continue. The companion
/// [`WarpInterp::fingerprint_into`] provides a canonical digest of the
/// architectural state so converging branches can be deduplicated.
#[derive(Clone)]
pub struct WarpInterp {
    code: Arc<Code>,
    regs: Box<[Row]>,
    /// The reconvergence stack, sized once to [`Code`]'s depth bound;
    /// `stack[..sp]` is live, the top last.
    stack: Box<[Entry]>,
    sp: usize,
    pending: Option<Pending>,
    block_id: u32,
    warp_in_block: u32,
    launch: LaunchConfig,
    /// Dynamic instructions retired (stats).
    retired: u64,
}

impl std::fmt::Debug for WarpInterp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpInterp")
            .field("block", &self.block_id)
            .field("warp", &self.warp_in_block)
            .field("stack", &self.sp)
            .field("done", &self.is_done())
            .finish()
    }
}

impl WarpInterp {
    /// Creates the interpreter for warp `warp_in_block` of block
    /// `block_id` of a kernel launch, lowering the kernel for it alone.
    /// A launch of many warps lowers once and uses
    /// [`WarpInterp::with_code`].
    #[must_use]
    pub fn new(kernel: &Kernel, launch: LaunchConfig, block_id: u32, warp_in_block: u32) -> Self {
        Self::with_code(
            &Arc::new(Code::lower(kernel)),
            launch,
            block_id,
            warp_in_block,
        )
    }

    /// Creates the interpreter for warp `warp_in_block` of block
    /// `block_id` of a launch of the lowered kernel `code`.
    #[must_use]
    pub fn with_code(
        code: &Arc<Code>,
        launch: LaunchConfig,
        block_id: u32,
        warp_in_block: u32,
    ) -> Self {
        assert!(warp_in_block < launch.warps_per_block());
        assert!(block_id < launch.blocks);
        let vacant = Entry::Loop {
            header: 0,
            mask: 0,
            in_body: false,
        };
        let mut w = WarpInterp {
            code: Arc::clone(code),
            regs: vec![[0u64; WARP_SIZE]; code.regs()].into_boxed_slice(),
            stack: vec![vacant; code.depth()].into_boxed_slice(),
            sp: 0,
            pending: None,
            block_id,
            warp_in_block,
            launch,
            retired: 0,
        };
        // Block 0 is the kernel's top-level block, run by every lane.
        w.push_block(0, u32::MAX);
        w
    }

    /// Whether the warp has retired its last instruction.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.sp == 0 && self.pending.is_none()
    }

    /// Dynamic instruction count retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The warp's block.
    #[must_use]
    pub fn block_id(&self) -> u32 {
        self.block_id
    }

    /// The warp's index within its block.
    #[must_use]
    pub fn warp_in_block(&self) -> u32 {
        self.warp_in_block
    }

    /// Reads a register lane (tests/debug). A register the kernel never
    /// names is architecturally zero.
    #[must_use]
    pub fn reg(&self, r: Reg, lane: usize) -> u64 {
        self.regs.get(r.index()).map_or(0, |lanes| lanes[lane])
    }

    /// The lanes whose `cond` is non-zero, as a mask.
    fn lanes_set(&self, cond: Reg) -> u32 {
        self.regs[cond.index()]
            .iter()
            .enumerate()
            .fold(0, |m, (l, &v)| m | u32::from(v != 0) << l)
    }

    fn push(&mut self, e: Entry) {
        self.stack[self.sp] = e;
        self.sp += 1;
    }

    /// Pushes an entry running block `b` under `mask`.
    fn push_block(&mut self, b: u32, mask: u32) {
        let blk = self.code.block(b);
        self.push(Entry::Block {
            pc: blk.start,
            end: blk.end,
            mask,
            block: b,
        });
    }

    /// Pushes block `b` under `mask` unless no lane takes it or it is
    /// empty.
    fn push_branch(&mut self, b: u32, mask: u32) {
        let blk = self.code.block(b);
        if mask != 0 && blk.start != blk.end {
            self.push_block(b, mask);
        }
    }

    /// Executes until an externally visible action occurs.
    ///
    /// ALU work is folded: each call retires at most one issue slot's
    /// worth of visible progress ([`StepResult::Alu`]), but a returned
    /// [`StepResult::Mem`]/[`StepResult::Fence`] leaves that action
    /// *outstanding* — the warp makes no further progress until the
    /// driver calls [`WarpInterp::complete_load`],
    /// [`WarpInterp::complete`], or [`WarpInterp::retry`]. Once
    /// [`StepResult::Done`] is returned, every later call returns
    /// `Done` again.
    ///
    /// # Panics
    /// Panics if called while a memory/fence action is outstanding.
    pub fn step(&mut self) -> StepResult {
        self.step_reusing(&mut Vec::new())
    }

    /// [`WarpInterp::step`], taking the lane list of a memory or fence
    /// action from `spare` when it holds one, so a driver that hands
    /// finished lane lists back does not allocate per access.
    ///
    /// # Panics
    /// Panics if called while a memory/fence action is outstanding.
    pub fn step_reusing(&mut self, spare: &mut Vec<Vec<LaneAccess>>) -> StepResult {
        assert!(
            self.pending.is_none(),
            "step while an action is outstanding"
        );
        loop {
            let Some(&top) = self.stack[..self.sp].last() else {
                return StepResult::Done;
            };
            match top {
                Entry::Loop {
                    header,
                    mask,
                    in_body,
                } => {
                    let Op::While { cond, cond_b, body } = self.code.op(header) else {
                        unreachable!("a loop entry heads a while op")
                    };
                    if in_body {
                        // Body finished: re-evaluate the condition.
                        self.stack[self.sp - 1] = Entry::Loop {
                            header,
                            mask,
                            in_body: false,
                        };
                        self.push_block(cond_b, mask);
                        continue;
                    }
                    // Condition block finished: test per lane.
                    let live = self.lanes_set(cond) & mask;
                    if live == 0 {
                        self.sp -= 1;
                        continue;
                    }
                    self.stack[self.sp - 1] = Entry::Loop {
                        header,
                        mask: live,
                        in_body: true,
                    };
                    self.push_block(body, live);
                }
                Entry::Block { pc, end, mask, .. } => {
                    if pc >= end {
                        // Popped lazily, here: a finished block stays on
                        // the stack (and in the fingerprint) until the
                        // next step.
                        self.sp -= 1;
                        continue;
                    }
                    match self.code.op(pc) {
                        Op::I(instr) => return self.exec(instr, mask, spare),
                        Op::If {
                            cond,
                            then_b,
                            else_b,
                        } => {
                            self.bump_pc();
                            let taken = self.lanes_set(cond) & mask;
                            // Push else first so the then-branch runs first.
                            self.push_branch(else_b, mask & !taken);
                            self.push_branch(then_b, taken);
                            self.retired += 1;
                            return StepResult::Alu;
                        }
                        Op::While { cond_b, .. } => {
                            self.bump_pc();
                            self.push(Entry::Loop {
                                header: pc,
                                mask,
                                in_body: false,
                            });
                            self.push_block(cond_b, mask);
                            self.retired += 1;
                            return StepResult::Alu;
                        }
                    }
                }
            }
        }
    }

    /// Moves the top block entry past its current op.
    fn bump_pc(&mut self) {
        match self.stack[..self.sp].last_mut() {
            Some(Entry::Block { pc, .. }) => *pc += 1,
            other => panic!("advance with top entry {other:?}"),
        }
    }

    fn advance(&mut self) {
        self.bump_pc();
        self.retired += 1;
    }

    fn gather(
        &self,
        spare: &mut Vec<Vec<LaneAccess>>,
        addr: Reg,
        off: i64,
        val: Option<Reg>,
        mask: u32,
    ) -> Vec<LaneAccess> {
        let mut lanes = spare.pop().unwrap_or_default();
        lanes.clear();
        lanes.reserve(mask.count_ones() as usize);
        let addrs = &self.regs[addr.index()];
        let vals = val.map(|v| &self.regs[v.index()]);
        let lane = |l: usize| LaneAccess {
            lane: l as u8,
            addr: addrs[l].wrapping_add_signed(off),
            value: vals.map_or(0, |v| v[l]),
        };
        if mask == u32::MAX {
            lanes.extend((0..WARP_SIZE).map(lane));
        } else {
            lanes.extend(lanes_of(mask).map(lane));
        }
        lanes
    }

    /// Runs an ALU instruction on the lanes of `mask`.
    fn alu(&mut self, instr: Instr, mask: u32) {
        match instr {
            Instr::MovI(d, v) => write_row(&mut self.regs[d.index()], mask, |_| v),
            Instr::Mov(d, s) => {
                let s = self.regs[s.index()];
                write_row(&mut self.regs[d.index()], mask, |l| s[l]);
            }
            Instr::Bin(op, d, a, b) => {
                let (a, b) = (self.regs[a.index()], self.regs[b.index()]);
                bin_row(op, &mut self.regs[d.index()], mask, &a, |l| b[l]);
            }
            Instr::BinI(op, d, a, imm) => {
                let a = self.regs[a.index()];
                bin_row(op, &mut self.regs[d.index()], mask, &a, |_| imm);
            }
            Instr::Spec(d, s) => {
                // Each special is `base + per_lane * lane`.
                let tid0 = u64::from(self.warp_in_block) * WARP_SIZE as u64;
                let tpb = u64::from(self.launch.threads_per_block);
                let (base, per_lane) = match s {
                    Special::Tid => (tid0, 1),
                    Special::Ntid => (tpb, 0),
                    Special::CtaId => (u64::from(self.block_id), 0),
                    Special::NCta => (u64::from(self.launch.blocks), 0),
                    Special::Lane => (0, 1),
                    Special::WarpId => (u64::from(self.warp_in_block), 0),
                    Special::GlobalTid => (u64::from(self.block_id) * tpb + tid0, 1),
                };
                write_row(&mut self.regs[d.index()], mask, |l| {
                    base + per_lane * l as u64
                });
            }
            Instr::Param(d, i) => {
                let v = *self
                    .code
                    .params()
                    .get(usize::from(i))
                    .unwrap_or_else(|| panic!("kernel param {i} missing"));
                write_row(&mut self.regs[d.index()], mask, |_| v);
            }
            Instr::Select(d, c, a, b) => {
                let (c, a, b) = (
                    self.regs[c.index()],
                    self.regs[a.index()],
                    self.regs[b.index()],
                );
                write_row(&mut self.regs[d.index()], mask, |l| {
                    if c[l] != 0 {
                        a[l]
                    } else {
                        b[l]
                    }
                });
            }
            other => unreachable!("{other} is not an ALU instruction"),
        }
    }

    fn exec(&mut self, instr: Instr, mask: u32, spare: &mut Vec<Vec<LaneAccess>>) -> StepResult {
        let (pending, result) = match instr {
            Instr::MovI(..)
            | Instr::Mov(..)
            | Instr::Bin(..)
            | Instr::BinI(..)
            | Instr::Spec(..)
            | Instr::Param(..)
            | Instr::Select(..) => {
                self.alu(instr, mask);
                self.advance();
                return StepResult::Alu;
            }
            Instr::Sleep(n) => {
                self.advance();
                return StepResult::Sleep(n);
            }
            Instr::Ld(d, a, off, w) | Instr::LdVol(d, a, off, w) => {
                let kind = if matches!(instr, Instr::Ld(..)) {
                    AccessKind::Load
                } else {
                    AccessKind::LoadVolatile
                };
                let lanes = self.gather(spare, a, off, None, mask);
                (
                    Pending::Values { dst: d, mask },
                    StepResult::Mem(MemAccess {
                        kind,
                        width: w,
                        lanes,
                    }),
                )
            }
            Instr::St(a, off, s, w) => (
                Pending::Plain,
                StepResult::Mem(MemAccess {
                    kind: AccessKind::Store,
                    width: w,
                    lanes: self.gather(spare, a, off, Some(s), mask),
                }),
            ),
            Instr::AtomAdd(d, a, v, w) => (
                Pending::Values { dst: d, mask },
                StepResult::Mem(MemAccess {
                    kind: AccessKind::AtomAdd,
                    width: w,
                    lanes: self.gather(spare, a, 0, Some(v), mask),
                }),
            ),
            Instr::PAcq(d, a, scope) => (
                Pending::Values { dst: d, mask },
                StepResult::Fence(FenceAccess::PAcq {
                    scope,
                    lanes: self.gather(spare, a, 0, None, mask),
                }),
            ),
            Instr::PRel(a, v, scope) => (
                Pending::Plain,
                StepResult::Fence(FenceAccess::PRel {
                    scope,
                    lanes: self.gather(spare, a, 0, Some(v), mask),
                }),
            ),
            Instr::OFence => (Pending::Plain, StepResult::Fence(FenceAccess::OFence)),
            Instr::DFence => (Pending::Plain, StepResult::Fence(FenceAccess::DFence)),
            Instr::SyncBlock => (Pending::Plain, StepResult::Fence(FenceAccess::SyncBlock)),
            Instr::EpochBarrier => (Pending::Plain, StepResult::Fence(FenceAccess::EpochBarrier)),
        };
        self.pending = Some(pending);
        result
    }

    /// Completes a value-producing action (load, `pAcq`, `atomAdd`);
    /// `values[i]` pairs with the i-th lane of the issued access.
    ///
    /// # Panics
    /// Panics if the outstanding action does not produce values or the
    /// value count mismatches.
    pub fn complete_load(&mut self, values: &[u64]) {
        match self.pending.take() {
            Some(Pending::Values { dst, mask }) => {
                assert_eq!(
                    mask.count_ones() as usize,
                    values.len(),
                    "lane/value count mismatch"
                );
                let row = &mut self.regs[dst.index()];
                if mask == u32::MAX {
                    row.copy_from_slice(values);
                } else {
                    for (lane, &v) in lanes_of(mask).zip(values) {
                        row[lane] = v;
                    }
                }
                self.advance();
            }
            other => panic!("complete_load with pending {other:?}"),
        }
    }

    /// Completes a store or a non-value fence.
    ///
    /// # Panics
    /// Panics if the outstanding action produces values.
    pub fn complete(&mut self) {
        match self.pending.take() {
            Some(Pending::Plain) => self.advance(),
            other => panic!("complete with pending {other:?}"),
        }
    }

    /// Abandons the outstanding action so the instruction is re-issued by
    /// the next [`WarpInterp::step`] (used when the persist engine asks
    /// the warp to retry a store or fence).
    ///
    /// # Panics
    /// Panics if nothing is outstanding.
    pub fn retry(&mut self) {
        assert!(
            self.pending.take().is_some(),
            "retry with nothing outstanding"
        );
    }

    /// Hashes the warp's architectural state into `fp`, canonically.
    ///
    /// Two interpreters with equal fingerprint inputs behave identically
    /// for every future `step`/`complete` sequence: the digest covers
    /// registers (sparsely: only non-zero lanes), the stack (blocks
    /// identified by their stable [`crate::BlockIndex`] id and the
    /// offset of the entry's op within its block, so the digest is
    /// reproducible across processes and equal to that of the statement
    /// tree the code was lowered from), and the pending action. The
    /// `retired` statistic is deliberately excluded — a spin-loop
    /// iteration that changes nothing architectural must not change the
    /// fingerprint, or a model checker could never prune repeated spins.
    ///
    /// # Panics
    /// Panics if `blocks` indexes a different number of blocks than the
    /// kernel this interpreter runs (it was built from another kernel).
    pub fn fingerprint_into(&self, blocks: &crate::kernel::BlockIndex, fp: &mut Fingerprint) {
        assert_eq!(
            blocks.len(),
            self.code.block_ids(),
            "block index of another kernel"
        );
        fp.write_u64(u64::from(self.block_id));
        fp.write_u64(u64::from(self.warp_in_block));
        for (r, lanes) in self.regs.iter().enumerate() {
            for (l, &v) in lanes.iter().enumerate() {
                if v != 0 {
                    fp.write_u64(((r as u64) << 8) | l as u64);
                    fp.write_u64(v);
                }
            }
        }
        fp.write_u64(self.sp as u64);
        for e in &self.stack[..self.sp] {
            match *e {
                Entry::Block {
                    pc, mask, block, ..
                } => {
                    let b = self.code.block(block);
                    fp.write_u64(1);
                    fp.write_u64(u64::from(b.id));
                    fp.write_u64(u64::from(pc - b.start));
                    fp.write_u64(u64::from(mask));
                }
                Entry::Loop {
                    header,
                    mask,
                    in_body,
                } => {
                    let Op::While { cond, cond_b, body } = self.code.op(header) else {
                        unreachable!("a loop entry heads a while op")
                    };
                    fp.write_u64(2);
                    fp.write_u64(u64::from(self.code.block(cond_b).id));
                    fp.write_u64(u64::from(self.code.block(body).id));
                    fp.write_u64(cond.index() as u64);
                    fp.write_u64(u64::from(mask));
                    fp.write_u64(u64::from(in_body));
                }
            }
        }
        match &self.pending {
            None => fp.write_u64(0),
            Some(Pending::Plain) => fp.write_u64(1),
            Some(Pending::Values { dst, mask }) => {
                fp.write_u64(2);
                fp.write_u64(dst.index() as u64);
                fp.write_u64(u64::from(mask.count_ones()));
                for l in lanes_of(*mask) {
                    fp.write_u64(l as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use std::collections::HashMap;

    fn lc() -> LaunchConfig {
        LaunchConfig::new(2, 64)
    }

    /// Runs a warp against a flat memory model, returning the memory.
    fn run(kernel: &Kernel, block: u32, warp: u32) -> (WarpInterp, HashMap<u64, u64>) {
        let mut mem: HashMap<u64, u64> = HashMap::new();
        let mut w = WarpInterp::new(kernel, lc(), block, warp);
        let mut steps = 0;
        loop {
            steps += 1;
            assert!(steps < 1_000_000, "runaway kernel");
            match w.step() {
                StepResult::Done => break,
                StepResult::Alu | StepResult::Sleep(_) => {}
                StepResult::Mem(acc) => match acc.kind {
                    AccessKind::Load | AccessKind::LoadVolatile => {
                        let vals: Vec<u64> = acc
                            .lanes
                            .iter()
                            .map(|l| *mem.get(&l.addr).unwrap_or(&0))
                            .collect();
                        w.complete_load(&vals);
                    }
                    AccessKind::Store => {
                        for l in &acc.lanes {
                            mem.insert(l.addr, l.value);
                        }
                        w.complete();
                    }
                    AccessKind::AtomAdd => {
                        let vals: Vec<u64> = acc
                            .lanes
                            .iter()
                            .map(|l| {
                                let old = *mem.get(&l.addr).unwrap_or(&0);
                                mem.insert(l.addr, old.wrapping_add(l.value));
                                old
                            })
                            .collect();
                        w.complete_load(&vals);
                    }
                },
                StepResult::Fence(f) => match f {
                    FenceAccess::PAcq { lanes, .. } => {
                        let vals: Vec<u64> = lanes
                            .iter()
                            .map(|l| *mem.get(&l.addr).unwrap_or(&0))
                            .collect();
                        w.complete_load(&vals);
                    }
                    FenceAccess::PRel { lanes, .. } => {
                        for l in &lanes {
                            mem.insert(l.addr, l.value);
                        }
                        w.complete();
                    }
                    _ => w.complete(),
                },
            }
        }
        (w, mem)
    }

    #[test]
    fn straight_line_stores_per_lane() {
        // mem[0x1000 + tid*8] = tid * 3
        let mut b = KernelBuilder::new();
        let tid = b.special(Special::Tid);
        let v = b.muli(tid, 3);
        let off = b.muli(tid, 8);
        let base = b.movi(0x1000);
        let addr = b.add(base, off);
        b.st(addr, 0, v, MemWidth::W8);
        let k = b.build("k");
        let (_, mem) = run(&k, 0, 0);
        for lane in 0..32u64 {
            assert_eq!(mem[&(0x1000 + lane * 8)], lane * 3);
        }
    }

    #[test]
    fn warp_one_sees_shifted_tids() {
        let mut b = KernelBuilder::new();
        let tid = b.special(Special::Tid);
        let off = b.muli(tid, 8);
        let base = b.movi(0);
        let addr = b.add(base, off);
        b.st(addr, 0, tid, MemWidth::W8);
        let k = b.build("k");
        let (_, mem) = run(&k, 0, 1);
        assert_eq!(mem[&(32 * 8)], 32);
        assert_eq!(mem[&(63 * 8)], 63);
        assert!(!mem.contains_key(&0));
    }

    #[test]
    fn global_tid_accounts_for_block() {
        let mut b = KernelBuilder::new();
        let g = b.special(Special::GlobalTid);
        let addr = b.movi(0x100);
        b.st(addr, 0, g, MemWidth::W8);
        let k = b.build("k");
        let (w, _) = run(&k, 1, 0);
        // block 1, 64 threads/block: lane 0's global tid is 64.
        assert_eq!(w.reg(Reg::new(0), 0), 64);
    }

    #[test]
    fn divergent_if_executes_both_paths() {
        // if (tid < 16) r = 1 else r = 2
        let mut b = KernelBuilder::new();
        let tid = b.special(Special::Tid);
        let c = b.lti(tid, 16);
        let out = b.reg();
        b.if_then_else(c, |b| b.movi_to(out, 1), |b| b.movi_to(out, 2));
        let k = b.build("k");
        let (w, _) = run(&k, 0, 0);
        assert_eq!(w.reg(out, 3), 1);
        assert_eq!(w.reg(out, 20), 2);
    }

    #[test]
    fn while_loop_iterates_per_lane() {
        // r = 0; while (r < tid) r += 1  — each lane loops tid times.
        let mut b = KernelBuilder::new();
        let tid = b.special(Special::Tid);
        let r = b.movi(0);
        b.while_loop(
            |b| b.lt(r, tid),
            |b| {
                let one = b.movi(1);
                b.bin_to(BinOp::Add, r, one);
            },
        );
        let k = b.build("k");
        let (w, _) = run(&k, 0, 0);
        for lane in 0..32 {
            assert_eq!(w.reg(r, lane), lane as u64, "lane {lane}");
        }
    }

    #[test]
    fn nested_divergence_reconverges() {
        // if (tid < 8) { if (tid < 4) r=1 else r=2 } else r=3; s = 9
        let mut b = KernelBuilder::new();
        let tid = b.special(Special::Tid);
        let c8 = b.lti(tid, 8);
        let c4 = b.lti(tid, 4);
        let r = b.reg();
        b.if_then_else(
            c8,
            |b| b.if_then_else(c4, |b| b.movi_to(r, 1), |b| b.movi_to(r, 2)),
            |b| b.movi_to(r, 3),
        );
        let s = b.movi(9);
        let k = b.build("k");
        let (w, _) = run(&k, 0, 0);
        assert_eq!(w.reg(r, 2), 1);
        assert_eq!(w.reg(r, 6), 2);
        assert_eq!(w.reg(r, 30), 3);
        for lane in 0..32 {
            assert_eq!(w.reg(s, lane), 9, "all lanes reconverge");
        }
    }

    #[test]
    fn loads_return_lane_values() {
        let mut b = KernelBuilder::new();
        let base = b.movi(0x2000);
        let tid = b.special(Special::Tid);
        let off = b.muli(tid, 8);
        let addr = b.add(base, off);
        b.st(addr, 0, tid, MemWidth::W8);
        let doubled = b.ld(addr, 0, MemWidth::W8);
        let sum = b.add(doubled, doubled);
        let out = b.addi(addr, 0x1000);
        b.st(out, 0, sum, MemWidth::W8);
        let k = b.build("k");
        let (_, mem) = run(&k, 0, 0);
        assert_eq!(mem[&(0x3000 + 5 * 8)], 10);
    }

    #[test]
    fn atom_add_returns_old_value() {
        let mut b = KernelBuilder::new();
        let addr = b.movi(0x4000);
        let one = b.movi(1);
        let old = b.atom_add(addr, one, MemWidth::W8);
        let tid = b.special(Special::Tid);
        let off = b.muli(tid, 8);
        let out = b.movi(0x5000);
        let oaddr = b.add(out, off);
        b.st(oaddr, 0, old, MemWidth::W8);
        let k = b.build("k");
        let (_, mem) = run(&k, 0, 0);
        // The mock applies lane order, so lane i sees old value i.
        assert_eq!(mem[&(0x4000)], 32);
        assert_eq!(mem[&(0x5000 + 31 * 8)], 31);
    }

    #[test]
    fn fences_yield_and_resume() {
        let mut b = KernelBuilder::new();
        b.ofence();
        b.dfence();
        b.sync_block();
        b.epoch_barrier();
        let k = b.build("k");
        let mut w = WarpInterp::new(&k, lc(), 0, 0);
        assert_eq!(w.step(), StepResult::Fence(FenceAccess::OFence));
        w.complete();
        assert_eq!(w.step(), StepResult::Fence(FenceAccess::DFence));
        w.complete();
        assert_eq!(w.step(), StepResult::Fence(FenceAccess::SyncBlock));
        w.complete();
        assert_eq!(w.step(), StepResult::Fence(FenceAccess::EpochBarrier));
        w.complete();
        assert_eq!(w.step(), StepResult::Done);
        assert!(w.is_done());
    }

    #[test]
    fn retry_reissues_the_same_instruction() {
        let mut b = KernelBuilder::new();
        let a = b.movi(0x100);
        let v = b.movi(7);
        b.st(a, 0, v, MemWidth::W8);
        let k = b.build("k");
        let mut w = WarpInterp::new(&k, lc(), 0, 0);
        assert_eq!(w.step(), StepResult::Alu);
        assert_eq!(w.step(), StepResult::Alu);
        let first = w.step();
        w.retry();
        let second = w.step();
        assert_eq!(first, second, "retried instruction is identical");
    }

    #[test]
    fn prel_carries_lane_flags() {
        let mut b = KernelBuilder::new();
        let tid = b.special(Special::Tid);
        let base = b.movi(0x100);
        let off = b.muli(tid, 4);
        let addr = b.add(base, off);
        let one = b.movi(1);
        b.prel(addr, one, Scope::Block);
        let k = b.build("k");
        let mut w = WarpInterp::new(&k, lc(), 0, 0);
        loop {
            match w.step() {
                StepResult::Fence(FenceAccess::PRel { scope, lanes }) => {
                    assert_eq!(scope, Scope::Block);
                    assert_eq!(lanes.len(), 32);
                    assert_eq!(lanes[3].addr, 0x100 + 12);
                    assert_eq!(lanes[3].value, 1);
                    break;
                }
                StepResult::Alu => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn sleep_advances() {
        let mut b = KernelBuilder::new();
        b.sleep(10);
        let k = b.build("k");
        let mut w = WarpInterp::new(&k, lc(), 0, 0);
        assert_eq!(w.step(), StepResult::Sleep(10));
        assert_eq!(w.step(), StepResult::Done);
    }

    #[test]
    fn empty_while_body_terminates() {
        let mut b = KernelBuilder::new();
        b.while_loop(|b| b.movi(0), |_| {});
        let k = b.build("k");
        let (w, _) = run(&k, 0, 0);
        assert!(w.is_done());
    }

    #[test]
    fn retired_counts_dynamic_instructions() {
        let mut b = KernelBuilder::new();
        let x = b.movi(1);
        let _y = b.addi(x, 1);
        let k = b.build("k");
        let (w, _) = run(&k, 0, 0);
        assert_eq!(w.retired(), 2);
    }

    /// Steps `w` (completing nothing) until it surfaces an action.
    fn step_to_action(w: &mut WarpInterp) -> StepResult {
        loop {
            match w.step() {
                StepResult::Alu | StepResult::Sleep(_) => {}
                other => return other,
            }
        }
    }

    /// The digest of a pending value-producing action names its lanes as
    /// a count followed by each lane index. The hashed `u64` stream was
    /// pinned when the pending lanes were still a `Vec<u8>` of lane ids,
    /// so a change of representation cannot silently re-key
    /// model-checker states. (The constants were re-derived for the
    /// folded-multiply `Fingerprint` from an unchanged interpreter, so
    /// they still pin that stream.)
    #[test]
    fn pending_value_fingerprints_are_pinned() {
        // A load under a partial mask (lanes 3..20 taken), then a pAcq
        // under the full mask.
        let mut b = KernelBuilder::new();
        let tid = b.special(Special::Tid);
        let lo = b.gei(tid, 3);
        let hi = b.lti(tid, 20);
        let c = b.mul(lo, hi);
        let off = b.muli(tid, 8);
        let addr = b.addi(off, 0x1000);
        b.if_then(c, |b| {
            let _ = b.ld(addr, 0, MemWidth::W8);
        });
        let _ = b.pacq(addr, Scope::Device);
        let k = b.build("fp");
        let blocks = k.block_index();
        let digest = |w: &WarpInterp| {
            let mut fp = Fingerprint::new();
            w.fingerprint_into(&blocks, &mut fp);
            fp.finish()
        };
        let mut w = WarpInterp::new(&k, lc(), 1, 0);
        let StepResult::Mem(ld) = step_to_action(&mut w) else {
            panic!("expected the load")
        };
        assert_eq!(ld.lanes.len(), 17);
        assert_eq!(
            digest(&w),
            0xffea_ba2e_f2ad_249e,
            "pending partial-mask load"
        );
        let vals: Vec<u64> = ld.lanes.iter().map(|la| la.addr ^ 0x55).collect();
        w.complete_load(&vals);
        let StepResult::Fence(FenceAccess::PAcq { lanes, .. }) = step_to_action(&mut w) else {
            panic!("expected the pAcq")
        };
        assert_eq!(lanes.len(), 32);
        assert_eq!(digest(&w), 0x7881_0487_6f54_29d2, "pending full-mask pAcq");
    }

    #[test]
    fn unnamed_registers_read_as_zero() {
        let mut b = KernelBuilder::new();
        let x = b.movi(5);
        let k = b.build("k");
        assert_eq!(k.regs(), 1);
        let (w, _) = run(&k, 0, 0);
        assert_eq!(w.reg(x, 7), 5);
        assert_eq!(w.reg(Reg::new(crate::NUM_REGS - 1), 7), 0);
    }

    use crate::instr::BinOp;
}
