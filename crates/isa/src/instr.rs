//! Instruction definitions.

use crate::reg::Reg;
use sbrp_core::scope::Scope;
use std::fmt;

/// Memory access width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 4 bytes (zero-extended on load, truncated on store).
    W4,
    /// 8 bytes.
    W8,
}

impl MemWidth {
    /// Width in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::W4 => 4,
            MemWidth::W8 => 8,
        }
    }
}

/// Binary ALU operations. Comparison ops produce 0/1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division.
    Div,
    /// Unsigned remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Unsigned minimum.
    Min,
    /// Unsigned maximum.
    Max,
    /// `a < b` (unsigned).
    SetLt,
    /// `a <= b` (unsigned).
    SetLe,
    /// `a == b`.
    SetEq,
    /// `a != b`.
    SetNe,
    /// `a > b` (unsigned).
    SetGt,
    /// `a >= b` (unsigned).
    SetGe,
}

impl BinOp {
    /// Applies the operation.
    ///
    /// # Panics
    /// Panics on division or remainder by zero (a kernel bug).
    #[must_use]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => a.checked_div(b).expect("division by zero in kernel"),
            BinOp::Rem => a.checked_rem(b).expect("remainder by zero in kernel"),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::Shr => a.wrapping_shr(b as u32),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::SetLt => u64::from(a < b),
            BinOp::SetLe => u64::from(a <= b),
            BinOp::SetEq => u64::from(a == b),
            BinOp::SetNe => u64::from(a != b),
            BinOp::SetGt => u64::from(a > b),
            BinOp::SetGe => u64::from(a >= b),
        }
    }
}

/// Special (read-only) registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within the block (`threadIdx.x`).
    Tid,
    /// Threads per block (`blockDim.x`).
    Ntid,
    /// Block index within the grid (`blockIdx.x`).
    CtaId,
    /// Blocks in the grid (`gridDim.x`).
    NCta,
    /// Lane index within the warp.
    Lane,
    /// Warp index within the block.
    WarpId,
    /// Global thread index (`blockIdx.x * blockDim.x + threadIdx.x`).
    GlobalTid,
}

/// A single instruction.
///
/// Loads and stores address *bytes*; whether an access is persistent is a
/// property of the address (the NVM range of the simulator's address
/// map), exactly as in the paper's software model (§3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Instr {
    /// `dst = imm`.
    MovI(Reg, u64),
    /// `dst = src`.
    Mov(Reg, Reg),
    /// `dst = op(a, b)`.
    Bin(BinOp, Reg, Reg, Reg),
    /// `dst = op(a, imm)`.
    BinI(BinOp, Reg, Reg, u64),
    /// `dst = special`.
    Spec(Reg, Special),
    /// `dst = params[idx]`.
    Param(Reg, u8),
    /// `dst = cond != 0 ? a : b`.
    Select(Reg, Reg, Reg, Reg),
    /// `dst = mem[addr + off]` (per lane).
    Ld(Reg, Reg, i64, MemWidth),
    /// `dst = mem[addr + off]` (per lane), bypassing the L1 (CUDA's
    /// `volatile`/`__ldcg`): required for flag spins on non-coherent
    /// L1s, as in GPM-style synchronization.
    LdVol(Reg, Reg, i64, MemWidth),
    /// `mem[addr + off] = src` (per lane).
    St(Reg, i64, Reg, MemWidth),
    /// `dst = atomicAdd(&mem[addr], val)` — performed at the L2;
    /// volatile addresses only.
    AtomAdd(Reg, Reg, Reg, MemWidth),
    /// Intra-thread persist ordering fence.
    OFence,
    /// Durability fence.
    DFence,
    /// `dst = pAcq_scope(addr)` — scoped persist acquire (32-bit load).
    PAcq(Reg, Reg, Scope),
    /// `pRel_scope(addr, val)` — scoped persist release (32-bit store).
    PRel(Reg, Reg, Scope),
    /// Block-wide barrier (`__syncthreads`).
    SyncBlock,
    /// Epoch barrier of the GPM/Epoch baselines.
    EpochBarrier,
    /// Consume `n` cycles of compute.
    Sleep(u32),
}

impl Instr {
    /// The highest index among the registers the instruction names, as
    /// destination or source; `None` when it names none.
    #[must_use]
    pub(crate) fn max_reg(&self) -> Option<usize> {
        let max = |regs: &[Reg]| regs.iter().map(|r| r.index()).max();
        match *self {
            Instr::MovI(d, _) | Instr::Spec(d, _) | Instr::Param(d, _) => max(&[d]),
            Instr::Mov(a, b)
            | Instr::BinI(_, a, b, _)
            | Instr::Ld(a, b, ..)
            | Instr::LdVol(a, b, ..)
            | Instr::St(a, _, b, _)
            | Instr::PAcq(a, b, _)
            | Instr::PRel(a, b, _) => max(&[a, b]),
            Instr::Bin(_, d, a, b) | Instr::AtomAdd(d, a, b, _) => max(&[d, a, b]),
            Instr::Select(d, c, a, b) => max(&[d, c, a, b]),
            Instr::OFence
            | Instr::DFence
            | Instr::SyncBlock
            | Instr::EpochBarrier
            | Instr::Sleep(_) => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::MovI(d, v) => write!(f, "{d} = {v}"),
            Instr::Mov(d, s) => write!(f, "{d} = {s}"),
            Instr::Bin(op, d, a, b) => write!(f, "{d} = {op:?}({a}, {b})"),
            Instr::BinI(op, d, a, i) => write!(f, "{d} = {op:?}({a}, {i})"),
            Instr::Spec(d, s) => write!(f, "{d} = %{s:?}"),
            Instr::Param(d, i) => write!(f, "{d} = param[{i}]"),
            Instr::Select(d, c, a, b) => write!(f, "{d} = {c} ? {a} : {b}"),
            Instr::Ld(d, a, o, w) => write!(f, "{d} = ld.{}[{a}{o:+}]", w.bytes()),
            Instr::LdVol(d, a, o, w) => write!(f, "{d} = ld.volatile.{}[{a}{o:+}]", w.bytes()),
            Instr::St(a, o, s, w) => write!(f, "st.{}[{a}{o:+}] = {s}", w.bytes()),
            Instr::AtomAdd(d, a, v, w) => write!(f, "{d} = atomAdd.{}[{a}], {v}", w.bytes()),
            Instr::OFence => f.write_str("oFence"),
            Instr::DFence => f.write_str("dFence"),
            Instr::PAcq(d, a, s) => write!(f, "{d} = pAcq_{s}[{a}]"),
            Instr::PRel(a, v, s) => write!(f, "pRel_{s}[{a}] = {v}"),
            Instr::SyncBlock => f.write_str("syncBlock"),
            Instr::EpochBarrier => f.write_str("epochBarrier"),
            Instr::Sleep(n) => write!(f, "sleep {n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_arithmetic() {
        assert_eq!(BinOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(BinOp::Sub.apply(3, 5), u64::MAX - 1);
        assert_eq!(BinOp::Mul.apply(7, 6), 42);
        assert_eq!(BinOp::Div.apply(42, 6), 7);
        assert_eq!(BinOp::Rem.apply(43, 6), 1);
        assert_eq!(BinOp::Min.apply(3, 9), 3);
        assert_eq!(BinOp::Max.apply(3, 9), 9);
    }

    #[test]
    fn binop_comparisons_produce_bool() {
        assert_eq!(BinOp::SetLt.apply(1, 2), 1);
        assert_eq!(BinOp::SetLt.apply(2, 1), 0);
        assert_eq!(BinOp::SetEq.apply(5, 5), 1);
        assert_eq!(BinOp::SetNe.apply(5, 5), 0);
        assert_eq!(BinOp::SetGe.apply(5, 5), 1);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = BinOp::Div.apply(1, 0);
    }

    #[test]
    fn width_bytes() {
        assert_eq!(MemWidth::W4.bytes(), 4);
        assert_eq!(MemWidth::W8.bytes(), 8);
    }

    #[test]
    fn instr_display_is_nonempty() {
        let i = Instr::Ld(Reg::new(1), Reg::new(2), 8, MemWidth::W4);
        assert!(!i.to_string().is_empty());
    }
}
