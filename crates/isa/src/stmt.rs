//! Structured control flow.

use crate::instr::Instr;
use crate::reg::Reg;
use std::sync::Arc;

/// A structured statement. Kernels are trees of statements, not CFGs;
/// SIMT divergence is modelled by narrowing the active lane mask inside
/// `If`/`While` bodies and restoring it on exit (reconvergence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// A straight-line instruction.
    I(Instr),
    /// `if (cond != 0) { then_b } else { else_b }`, tested per lane.
    If {
        /// Condition register (per-lane).
        cond: Reg,
        /// Taken branch.
        then_b: Arc<[Stmt]>,
        /// Not-taken branch (may be empty).
        else_b: Arc<[Stmt]>,
    },
    /// `while ({ cond_b; cond != 0 }) { body }`, tested per lane: lanes
    /// leave the loop individually and reconverge after it.
    While {
        /// Statements computing the condition, run before every test.
        cond_b: Arc<[Stmt]>,
        /// Condition register (per-lane).
        cond: Reg,
        /// Loop body.
        body: Arc<[Stmt]>,
    },
}

impl Stmt {
    /// Counts instructions in this statement tree (static size).
    #[must_use]
    pub fn static_len(&self) -> usize {
        match self {
            Stmt::I(_) => 1,
            Stmt::If { then_b, else_b, .. } => 1 + block_len(then_b) + block_len(else_b),
            Stmt::While { cond_b, body, .. } => 1 + block_len(cond_b) + block_len(body),
        }
    }
}

/// Registers a block needs: one more than the highest register index
/// named anywhere in its tree (conditions included), or 0 if none.
#[must_use]
pub(crate) fn block_regs(block: &[Stmt]) -> usize {
    block
        .iter()
        .map(|s| match s {
            Stmt::I(i) => i.max_reg().map_or(0, |r| r + 1),
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => (cond.index() + 1)
                .max(block_regs(then_b))
                .max(block_regs(else_b)),
            Stmt::While { cond_b, cond, body } => (cond.index() + 1)
                .max(block_regs(cond_b))
                .max(block_regs(body)),
        })
        .max()
        .unwrap_or(0)
}

/// Total static instruction count of a block.
#[must_use]
pub fn block_len(block: &[Stmt]) -> usize {
    block.iter().map(Stmt::static_len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    #[test]
    fn static_len_counts_nested_blocks() {
        let inner: Arc<[Stmt]> = vec![Stmt::I(Instr::OFence), Stmt::I(Instr::DFence)].into();
        let s = Stmt::If {
            cond: Reg::new(0),
            then_b: inner,
            else_b: Vec::new().into(),
        };
        assert_eq!(s.static_len(), 3);
        assert_eq!(block_len(&[s, Stmt::I(Instr::SyncBlock)]), 4);
    }
}
