//! Kernels lowered to a flat SIMT program.
//!
//! [`Code::lower`] turns a kernel's statement tree into one op array in
//! which every statement block is a contiguous op range. Control ops
//! name the ranges they enter, so the warp interpreter runs on a small
//! stack of `Copy` entries (op index, range end, active mask) instead of
//! walking the tree. The tree itself stays in [`Kernel`] for the builder,
//! the linter and [`Kernel::disassemble`].

use crate::instr::Instr;
use crate::kernel::Kernel;
use crate::reg::Reg;
use crate::stmt::Stmt;
use std::sync::Arc;

/// One op of a lowered program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// A straight-line instruction.
    I(Instr),
    /// `if (cond) { then_b } else { else_b }`; the branches are block
    /// numbers (indices into [`Code::blocks`]).
    If { cond: Reg, then_b: u32, else_b: u32 },
    /// `while ({ cond_b; cond }) { body }`; block numbers as for `If`.
    While { cond: Reg, cond_b: u32, body: u32 },
}

/// The op range of one statement block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Block {
    /// First op of the block.
    pub start: u32,
    /// One past the block's last op: where its lanes reconverge.
    pub end: u32,
    /// The block's [`Kernel::block_index`] id.
    pub id: u32,
}

/// A kernel lowered to a flat op array, built once per launch and
/// shared (through `Arc`) by every warp of that launch.
///
/// Blocks are numbered in pre-order (a block, then the blocks of its
/// statements in order: `then` before `else`, condition before body);
/// block 0 is the kernel's top-level block. Each block keeps the id
/// [`Kernel::block_index`] gives it, so a lowered warp's fingerprint
/// names blocks exactly as the statement tree does.
#[derive(Debug)]
pub struct Code {
    ops: Box<[Op]>,
    blocks: Box<[Block]>,
    /// An upper bound on the entries a warp's stack holds at once.
    depth: usize,
    regs: usize,
    params: Arc<Vec<u64>>,
    /// Distinct block ids (blocks shared by several statements count
    /// once).
    block_ids: usize,
}

impl Code {
    /// Lowers `kernel` to a flat program.
    #[must_use]
    pub fn lower(kernel: &Kernel) -> Code {
        let mut lowering = Lowering {
            index: kernel.block_index(),
            ops: Vec::with_capacity(kernel.static_len()),
            blocks: Vec::new(),
        };
        let (_, depth) = lowering.block(kernel.program());
        Code {
            block_ids: lowering.index.len(),
            ops: lowering.ops.into(),
            blocks: lowering.blocks.into(),
            depth,
            regs: kernel.regs(),
            params: Arc::clone(kernel.params()),
        }
    }

    pub(crate) fn op(&self, pc: u32) -> Op {
        self.ops[pc as usize]
    }

    pub(crate) fn block(&self, b: u32) -> Block {
        self.blocks[b as usize]
    }

    /// An upper bound on the entries a warp's stack holds at once.
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Registers per thread (see [`Kernel::regs`]).
    pub(crate) fn regs(&self) -> usize {
        self.regs
    }

    pub(crate) fn params(&self) -> &[u64] {
        &self.params
    }

    /// The number of distinct block ids.
    pub(crate) fn block_ids(&self) -> usize {
        self.block_ids
    }
}

struct Lowering {
    index: crate::kernel::BlockIndex,
    ops: Vec<Op>,
    blocks: Vec<Block>,
}

impl Lowering {
    /// Lowers `stmts` and the blocks nested in it; returns the block's
    /// number and the stack depth running it can reach (its own entry
    /// included).
    fn block(&mut self, stmts: &Arc<[Stmt]>) -> (u32, usize) {
        let number = self.blocks.len() as u32;
        let start = self.ops.len();
        let end = start + stmts.len();
        self.blocks.push(Block {
            start: start as u32,
            end: end as u32,
            id: self.index.id_of(stmts),
        });
        // Reserve the block's own range; nested blocks go after it.
        self.ops.resize(end, Op::I(Instr::OFence));
        let mut nested = 0;
        for (i, s) in stmts.iter().enumerate() {
            self.ops[start + i] = match s {
                Stmt::I(instr) => Op::I(*instr),
                // An else entry below the running then block; a loop
                // entry below the running cond or body block.
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let (then_b, d_then) = self.block(then_b);
                    let (else_b, d_else) = self.block(else_b);
                    nested = nested.max(1 + d_then.max(d_else));
                    Op::If {
                        cond: *cond,
                        then_b,
                        else_b,
                    }
                }
                Stmt::While { cond_b, cond, body } => {
                    let (cond_b, d_cond) = self.block(cond_b);
                    let (body, d_body) = self.block(body);
                    nested = nested.max(1 + d_cond.max(d_body));
                    Op::While {
                        cond: *cond,
                        cond_b,
                        body,
                    }
                }
            };
        }
        (number, 1 + nested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::instr::BinOp;

    /// Walks the tree in the lowering's pre-order, yielding each block.
    fn preorder<'a>(stmts: &'a Arc<[Stmt]>, out: &mut Vec<&'a Arc<[Stmt]>>) {
        out.push(stmts);
        for s in stmts.iter() {
            match s {
                Stmt::I(_) => {}
                Stmt::If { then_b, else_b, .. } => {
                    preorder(then_b, out);
                    preorder(else_b, out);
                }
                Stmt::While { cond_b, body, .. } => {
                    preorder(cond_b, out);
                    preorder(body, out);
                }
            }
        }
    }

    fn nested_kernel() -> Kernel {
        let mut b = KernelBuilder::new();
        let lane = b.special(crate::Special::Lane);
        let i = b.movi(0);
        b.while_loop(
            |b| {
                let c = b.lti(i, 3);
                b.if_then(c, |b| b.ofence());
                c
            },
            |b| {
                b.if_then_else(lane, |b| b.dfence(), |_| {});
                let one = b.movi(1);
                b.bin_to(BinOp::Add, i, one);
            },
        );
        b.if_then(lane, |b| b.while_loop(|b| b.movi(0), |_| {}));
        b.build("nested")
    }

    /// A hand-built tree that uses one `Arc` block as both branches of
    /// an `If`: the two ranges are lowered separately but share an id.
    fn shared_kernel() -> Kernel {
        let shared: Arc<[Stmt]> = vec![Stmt::I(Instr::OFence)].into();
        let program: Arc<[Stmt]> = vec![Stmt::If {
            cond: Reg::new(0),
            then_b: Arc::clone(&shared),
            else_b: shared,
        }]
        .into();
        Kernel::new("shared", program, vec![9])
    }

    #[test]
    fn every_range_maps_back_to_its_block() {
        for k in [nested_kernel(), shared_kernel()] {
            let code = Code::lower(&k);
            let index = k.block_index();
            let mut tree = Vec::new();
            preorder(k.program(), &mut tree);
            assert_eq!(code.blocks.len(), tree.len());
            for (b, stmts) in code.blocks.iter().zip(&tree) {
                assert_eq!(b.id, index.id_of(stmts), "block id");
                assert_eq!((b.end - b.start) as usize, stmts.len(), "block length");
                for (pc, s) in (b.start..b.end).zip(stmts.iter()) {
                    match (code.op(pc), s) {
                        (Op::I(i), Stmt::I(j)) => assert_eq!(&i, j),
                        (
                            Op::If {
                                cond,
                                then_b,
                                else_b,
                            },
                            Stmt::If {
                                cond: c,
                                then_b: t,
                                else_b: e,
                            },
                        ) => {
                            assert_eq!(cond, *c);
                            assert_eq!(code.block(then_b).id, index.id_of(t));
                            assert_eq!(code.block(else_b).id, index.id_of(e));
                        }
                        (
                            Op::While { cond, cond_b, body },
                            Stmt::While {
                                cond: c,
                                cond_b: cb,
                                body: bb,
                            },
                        ) => {
                            assert_eq!(cond, *c);
                            assert_eq!(code.block(cond_b).id, index.id_of(cb));
                            assert_eq!(code.block(body).id, index.id_of(bb));
                        }
                        (op, s) => panic!("op {op:?} lowered from {s:?}"),
                    }
                }
            }
            // One op per statement, control statements included.
            assert_eq!(code.ops.len(), k.static_len());
            assert_eq!(code.block_ids(), index.len());
            assert_eq!(code.params(), k.params().as_slice());
        }
    }

    #[test]
    fn depth_bounds_the_nesting() {
        let mut b = KernelBuilder::new();
        b.ofence();
        assert_eq!(Code::lower(&b.build("flat")).depth(), 1);
        // The top block, the loop entry, the body block, an else entry
        // and the then block: the bound counts an else entry under every
        // then branch, empty or not.
        let k = nested_kernel();
        let code = Code::lower(&k);
        assert_eq!(code.depth(), 5);
        assert_eq!(code.regs(), k.regs());
    }
}
