//! Ergonomic kernel construction.

use crate::instr::{BinOp, Instr, MemWidth, Special};
use crate::kernel::Kernel;
use crate::reg::{Reg, NUM_REGS};
use crate::stmt::Stmt;
use sbrp_core::scope::Scope;
use std::sync::Arc;

/// Builds a [`Kernel`] as a tree of structured statements.
///
/// Value-producing methods allocate a fresh destination register and
/// return it, so kernels read like three-address code. Control flow takes
/// closures:
///
/// ```
/// use sbrp_isa::{KernelBuilder, MemWidth, Special};
///
/// let mut b = KernelBuilder::new();
/// let tid = b.special(Special::Tid);
/// let is_low = b.lti(tid, 4);
/// b.if_then(is_low, |b| {
///     b.ofence();
/// });
/// let k = b.build("demo");
/// assert_eq!(k.static_len(), 4); // spec, lti, if, ofence
/// ```
pub struct KernelBuilder {
    stack: Vec<Vec<Stmt>>,
    next_reg: usize,
    params: Vec<u64>,
}

impl Default for KernelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        KernelBuilder {
            stack: vec![Vec::new()],
            next_reg: 0,
            params: Vec::new(),
        }
    }

    fn emit(&mut self, s: Stmt) {
        self.stack.last_mut().expect("block stack").push(s);
    }

    /// Allocates a fresh register.
    ///
    /// # Panics
    /// Panics when the register file is exhausted.
    pub fn reg(&mut self) -> Reg {
        assert!(self.next_reg < NUM_REGS, "out of registers");
        let r = Reg::new(self.next_reg);
        self.next_reg += 1;
        r
    }

    // ---------------- values ----------------

    /// `dst = imm`.
    pub fn movi(&mut self, imm: u64) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::MovI(d, imm)));
        d
    }

    /// Copies `src` into an existing register `dst`.
    pub fn mov_to(&mut self, dst: Reg, src: Reg) {
        self.emit(Stmt::I(Instr::Mov(dst, src)));
    }

    /// Writes `imm` into an existing register `dst`.
    pub fn movi_to(&mut self, dst: Reg, imm: u64) {
        self.emit(Stmt::I(Instr::MovI(dst, imm)));
    }

    /// `dst = special`.
    pub fn special(&mut self, s: Special) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::Spec(d, s)));
        d
    }

    /// `dst = params[idx]` — registers the parameter slot.
    pub fn param(&mut self, idx: usize) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::Param(
            d,
            u8::try_from(idx).expect("param index"),
        )));
        d
    }

    /// `dst = cond != 0 ? a : b`.
    pub fn select(&mut self, cond: Reg, a: Reg, b: Reg) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::Select(d, cond, a, b)));
        d
    }

    fn bin(&mut self, op: BinOp, a: Reg, b: Reg) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::Bin(op, d, a, b)));
        d
    }

    fn bini(&mut self, op: BinOp, a: Reg, imm: u64) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::BinI(op, d, a, imm)));
        d
    }

    /// In-place `dst = op(dst, src)` without allocating.
    pub fn bin_to(&mut self, op: BinOp, dst: Reg, src: Reg) {
        self.emit(Stmt::I(Instr::Bin(op, dst, dst, src)));
    }

    /// `dst = a + b`.
    pub fn add(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Add, a, b)
    }
    /// `dst = a + imm`.
    pub fn addi(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::Add, a, imm)
    }
    /// `dst = a - b`.
    pub fn sub(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Sub, a, b)
    }
    /// `dst = a - imm`.
    pub fn subi(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::Sub, a, imm)
    }
    /// `dst = a * b`.
    pub fn mul(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Mul, a, b)
    }
    /// `dst = a * imm`.
    pub fn muli(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::Mul, a, imm)
    }
    /// `dst = a / b`.
    pub fn div(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Div, a, b)
    }
    /// `dst = a / imm`.
    pub fn divi(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::Div, a, imm)
    }
    /// `dst = a % b`.
    pub fn rem(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::Rem, a, b)
    }
    /// `dst = a % imm`.
    pub fn remi(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::Rem, a, imm)
    }
    /// `dst = a & imm`.
    pub fn andi(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::And, a, imm)
    }
    /// `dst = a << imm`.
    pub fn shli(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::Shl, a, imm)
    }
    /// `dst = a >> imm`.
    pub fn shri(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::Shr, a, imm)
    }
    /// `dst = a < b`.
    pub fn lt(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::SetLt, a, b)
    }
    /// `dst = a < imm`.
    pub fn lti(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::SetLt, a, imm)
    }
    /// `dst = a >= b`.
    pub fn ge(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::SetGe, a, b)
    }
    /// `dst = a >= imm`.
    pub fn gei(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::SetGe, a, imm)
    }
    /// `dst = a == b`.
    pub fn eq(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::SetEq, a, b)
    }
    /// `dst = a == imm`.
    pub fn eqi(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::SetEq, a, imm)
    }
    /// `dst = a != b`.
    pub fn ne(&mut self, a: Reg, b: Reg) -> Reg {
        self.bin(BinOp::SetNe, a, b)
    }
    /// `dst = a != imm`.
    pub fn nei(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::SetNe, a, imm)
    }
    /// `dst = a > imm`.
    pub fn gti(&mut self, a: Reg, imm: u64) -> Reg {
        self.bini(BinOp::SetGt, a, imm)
    }

    // ---------------- memory ----------------

    /// `dst = mem[addr + off]`.
    pub fn ld(&mut self, addr: Reg, off: i64, w: MemWidth) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::Ld(d, addr, off, w)));
        d
    }

    /// `dst = volatile mem[addr + off]` — bypasses the L1 (for flag
    /// spins under the non-coherent baselines).
    pub fn ld_volatile(&mut self, addr: Reg, off: i64, w: MemWidth) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::LdVol(d, addr, off, w)));
        d
    }

    /// `mem[addr + off] = val`.
    pub fn st(&mut self, addr: Reg, off: i64, val: Reg, w: MemWidth) {
        self.emit(Stmt::I(Instr::St(addr, off, val, w)));
    }

    /// `dst = atomicAdd(&mem[addr], val)`.
    pub fn atom_add(&mut self, addr: Reg, val: Reg, w: MemWidth) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::AtomAdd(d, addr, val, w)));
        d
    }

    // ---------------- persistency & sync ----------------

    /// Emits an `oFence`.
    pub fn ofence(&mut self) {
        self.emit(Stmt::I(Instr::OFence));
    }

    /// Emits a `dFence`.
    pub fn dfence(&mut self) {
        self.emit(Stmt::I(Instr::DFence));
    }

    /// `dst = pAcq_scope(addr)`.
    pub fn pacq(&mut self, addr: Reg, scope: Scope) -> Reg {
        let d = self.reg();
        self.emit(Stmt::I(Instr::PAcq(d, addr, scope)));
        d
    }

    /// `pRel_scope(addr, val)`.
    pub fn prel(&mut self, addr: Reg, val: Reg, scope: Scope) {
        self.emit(Stmt::I(Instr::PRel(addr, val, scope)));
    }

    /// Emits a `__syncthreads`.
    pub fn sync_block(&mut self) {
        self.emit(Stmt::I(Instr::SyncBlock));
    }

    /// Emits a GPM/Epoch epoch barrier.
    pub fn epoch_barrier(&mut self) {
        self.emit(Stmt::I(Instr::EpochBarrier));
    }

    /// Consumes `n` compute cycles.
    pub fn sleep(&mut self, n: u32) {
        self.emit(Stmt::I(Instr::Sleep(n)));
    }

    // ---------------- control flow ----------------

    /// `if (cond != 0) { f }`.
    pub fn if_then(&mut self, cond: Reg, f: impl FnOnce(&mut Self)) {
        self.stack.push(Vec::new());
        f(self);
        let then_b: Arc<[Stmt]> = self.stack.pop().expect("then block").into();
        self.emit(Stmt::If {
            cond,
            then_b,
            else_b: Vec::new().into(),
        });
    }

    /// `if (cond != 0) { f } else { g }`.
    pub fn if_then_else(
        &mut self,
        cond: Reg,
        f: impl FnOnce(&mut Self),
        g: impl FnOnce(&mut Self),
    ) {
        self.stack.push(Vec::new());
        f(self);
        let then_b: Arc<[Stmt]> = self.stack.pop().expect("then block").into();
        self.stack.push(Vec::new());
        g(self);
        let else_b: Arc<[Stmt]> = self.stack.pop().expect("else block").into();
        self.emit(Stmt::If {
            cond,
            then_b,
            else_b,
        });
    }

    /// `while ({cond_f} != 0) { body }` — `cond_f` returns the condition
    /// register and is re-evaluated before every iteration.
    pub fn while_loop(
        &mut self,
        cond_f: impl FnOnce(&mut Self) -> Reg,
        body: impl FnOnce(&mut Self),
    ) {
        self.stack.push(Vec::new());
        let cond = cond_f(self);
        let cond_b: Arc<[Stmt]> = self.stack.pop().expect("cond block").into();
        self.stack.push(Vec::new());
        body(self);
        let body_b: Arc<[Stmt]> = self.stack.pop().expect("body block").into();
        self.emit(Stmt::While {
            cond_b,
            cond,
            body: body_b,
        });
    }

    // ---------------- finalization ----------------

    /// Sets the kernel parameter block (addresses, sizes, …).
    pub fn set_params(&mut self, params: Vec<u64>) {
        self.params = params;
    }

    /// Finishes the kernel.
    ///
    /// # Panics
    /// Panics if called inside an unfinished control-flow block.
    #[must_use]
    pub fn build(mut self, name: impl Into<String>) -> Kernel {
        assert_eq!(self.stack.len(), 1, "unbalanced control-flow blocks");
        let top: Arc<[Stmt]> = self.stack.pop().expect("top block").into();
        debug_assert!(
            self.next_reg >= crate::stmt::block_regs(&top),
            "builder's register count is below the registers its tree names"
        );
        Kernel::with_regs(name, top, self.params, self.next_reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_building() {
        let mut b = KernelBuilder::new();
        let x = b.movi(4);
        let y = b.addi(x, 3);
        let p = b.param(0);
        let a = b.add(p, y);
        b.st(a, 0, y, MemWidth::W8);
        let k = b.build("k");
        assert_eq!(k.static_len(), 5);
        assert_eq!(k.name(), "k");
    }

    #[test]
    fn nested_control_flow() {
        let mut b = KernelBuilder::new();
        let c = b.movi(1);
        b.if_then_else(
            c,
            |b| {
                b.while_loop(
                    |b| b.movi(0),
                    |b| {
                        b.ofence();
                    },
                );
            },
            |b| {
                b.dfence();
            },
        );
        let k = b.build("cf");
        // movi + if + (while + movi + ofence) + dfence
        assert_eq!(k.static_len(), 6);
    }

    #[test]
    fn params_are_preserved() {
        let mut b = KernelBuilder::new();
        b.set_params(vec![0x1000, 42]);
        let k = b.build("p");
        assert_eq!(k.params().as_slice(), &[0x1000, 42]);
    }

    #[test]
    #[should_panic(expected = "out of registers")]
    fn register_exhaustion_panics() {
        let mut b = KernelBuilder::new();
        for _ in 0..=NUM_REGS {
            let _ = b.reg();
        }
    }
}
