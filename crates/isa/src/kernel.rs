//! Kernels and launch configurations.

use crate::stmt::{block_len, block_regs, Stmt};
use std::fmt;
use std::sync::Arc;

/// Grid geometry for a kernel launch (1-D, as in all the paper's
/// workloads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Threadblocks in the grid.
    pub blocks: u32,
    /// Threads per block (must be a multiple of the warp size).
    pub threads_per_block: u32,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    ///
    /// # Panics
    /// Panics if `threads_per_block` is zero, not a multiple of 32, or
    /// above 1024, or if `blocks` is zero.
    #[must_use]
    pub fn new(blocks: u32, threads_per_block: u32) -> Self {
        assert!(blocks > 0, "grid needs at least one block");
        assert!(
            threads_per_block > 0 && threads_per_block <= 1024,
            "threads/block must be in 1..=1024"
        );
        assert_eq!(
            threads_per_block % 32,
            0,
            "threads/block must be a multiple of the warp size"
        );
        LaunchConfig {
            blocks,
            threads_per_block,
        }
    }

    /// Warps per block.
    #[must_use]
    pub fn warps_per_block(self) -> u32 {
        self.threads_per_block / 32
    }

    /// Total threads in the grid.
    #[must_use]
    pub fn total_threads(self) -> u64 {
        u64::from(self.blocks) * u64::from(self.threads_per_block)
    }
}

impl fmt::Display for LaunchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<<<{}, {}>>>", self.blocks, self.threads_per_block)
    }
}

/// A compiled kernel: a name, a statement tree, and parameters.
///
/// Parameters play the role of CUDA kernel arguments (typically base
/// addresses and sizes) and are read with [`Instr::Param`].
///
/// [`Instr::Param`]: crate::Instr::Param
#[derive(Clone)]
pub struct Kernel {
    name: String,
    program: Arc<[Stmt]>,
    params: Arc<Vec<u64>>,
    regs: usize,
}

impl Kernel {
    /// Creates a kernel from a finished statement block, deriving its
    /// register count from the tree.
    #[must_use]
    pub fn new(name: impl Into<String>, program: Arc<[Stmt]>, params: Vec<u64>) -> Self {
        let regs = block_regs(&program);
        Self::with_regs(name, program, params, regs)
    }

    /// Creates a kernel whose register count the caller already knows
    /// (the builder's allocation count), skipping the tree walk.
    pub(crate) fn with_regs(
        name: impl Into<String>,
        program: Arc<[Stmt]>,
        params: Vec<u64>,
        regs: usize,
    ) -> Self {
        Kernel {
            name: name.into(),
            program,
            params: Arc::new(params),
            regs,
        }
    }

    /// The kernel's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The statement tree.
    #[must_use]
    pub fn program(&self) -> &Arc<[Stmt]> {
        &self.program
    }

    /// The parameter block.
    #[must_use]
    pub fn params(&self) -> &Arc<Vec<u64>> {
        &self.params
    }

    /// Registers per thread the kernel needs: the max named register
    /// index + 1, or 0 for a kernel that names none. A kernel from
    /// [`KernelBuilder`](crate::KernelBuilder) counts every register the
    /// builder allocated, which can exceed that if some go unused. A
    /// warp's register file holds exactly this many.
    #[must_use]
    pub fn regs(&self) -> usize {
        self.regs
    }

    /// Returns a copy of the kernel with different parameters.
    #[must_use]
    pub fn with_params(&self, params: Vec<u64>) -> Kernel {
        Kernel {
            name: self.name.clone(),
            program: Arc::clone(&self.program),
            params: Arc::new(params),
            regs: self.regs,
        }
    }

    /// Static instruction count.
    #[must_use]
    pub fn static_len(&self) -> usize {
        block_len(&self.program)
    }

    /// Assigns a stable, process-independent id to every statement block
    /// in the program tree (the top-level block, `if` branches, `while`
    /// condition and body blocks), in deterministic pre-order.
    ///
    /// [`crate::WarpInterp::fingerprint_into`] uses these ids to name
    /// the blocks on the interpreter's frame stack, so two processes
    /// exploring the same kernel compute identical state fingerprints.
    #[must_use]
    pub fn block_index(&self) -> BlockIndex {
        let mut ids = std::collections::HashMap::new();
        let mut next = 0u32;
        let mut stack: Vec<&Arc<[Stmt]>> = vec![&self.program];
        while let Some(block) = stack.pop() {
            ids.entry(Arc::as_ptr(block) as *const Stmt as usize)
                .or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
            // Children pushed in reverse so pre-order ids read forward.
            for s in block.iter().rev() {
                match s {
                    Stmt::I(_) => {}
                    Stmt::If { then_b, else_b, .. } => {
                        stack.push(else_b);
                        stack.push(then_b);
                    }
                    Stmt::While { cond_b, body, .. } => {
                        stack.push(body);
                        stack.push(cond_b);
                    }
                }
            }
        }
        BlockIndex { ids }
    }

    /// Pretty-prints the kernel as indented pseudo-assembly — handy when
    /// debugging workload builders.
    #[must_use]
    pub fn disassemble(&self) -> String {
        fn walk(out: &mut String, block: &[Stmt], depth: usize) {
            let pad = "  ".repeat(depth);
            for s in block {
                match s {
                    Stmt::I(i) => {
                        out.push_str(&pad);
                        out.push_str(&i.to_string());
                        out.push('\n');
                    }
                    Stmt::If {
                        cond,
                        then_b,
                        else_b,
                    } => {
                        out.push_str(&format!("{pad}if {cond} {{\n"));
                        walk(out, then_b, depth + 1);
                        if !else_b.is_empty() {
                            out.push_str(&format!("{pad}}} else {{\n"));
                            walk(out, else_b, depth + 1);
                        }
                        out.push_str(&format!("{pad}}}\n"));
                    }
                    Stmt::While { cond_b, cond, body } => {
                        out.push_str(&format!("{pad}while {{\n"));
                        walk(out, cond_b, depth + 1);
                        out.push_str(&format!("{pad}}} {cond} {{\n"));
                        walk(out, body, depth + 1);
                        out.push_str(&format!("{pad}}}\n"));
                    }
                }
            }
        }
        let mut out = format!(".kernel {} (params: {:?})\n", self.name, self.params);
        walk(&mut out, &self.program, 1);
        out
    }
}

/// Stable ids for the statement blocks of one kernel's program tree,
/// built by [`Kernel::block_index`].
///
/// Ids are assigned by a deterministic pre-order walk, so they are equal
/// across processes for the same kernel — unlike the `Arc` pointers that
/// identify blocks in memory.
#[derive(Clone, Debug)]
pub struct BlockIndex {
    ids: std::collections::HashMap<usize, u32>,
}

impl BlockIndex {
    /// The stable id of `block`.
    ///
    /// # Panics
    /// Panics if `block` does not belong to the kernel this index was
    /// built from.
    #[must_use]
    pub fn id_of(&self, block: &Arc<[Stmt]>) -> u32 {
        *self
            .ids
            .get(&(Arc::as_ptr(block) as *const Stmt as usize))
            .expect("block not part of the indexed kernel")
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("static_len", &self.static_len())
            .field("params", &self.params.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    #[test]
    fn disassembly_shows_structure() {
        let mut b = crate::builder::KernelBuilder::new();
        let c = b.movi(1);
        b.if_then(c, |b| {
            b.ofence();
            b.while_loop(|b| b.movi(0), |b| b.dfence());
        });
        let asm = b.build("demo").disassemble();
        assert!(asm.contains(".kernel demo"));
        assert!(asm.contains("if r0 {"));
        assert!(asm.contains("oFence"));
        assert!(asm.contains("while {"));
        assert!(asm.lines().count() > 6);
    }

    #[test]
    fn launch_config_derived_values() {
        let lc = LaunchConfig::new(4, 128);
        assert_eq!(lc.warps_per_block(), 4);
        assert_eq!(lc.total_threads(), 512);
        assert_eq!(lc.to_string(), "<<<4, 128>>>");
    }

    #[test]
    #[should_panic(expected = "multiple of the warp size")]
    fn launch_config_rejects_ragged_blocks() {
        let _ = LaunchConfig::new(1, 33);
    }

    #[test]
    fn kernel_with_params_shares_program() {
        let prog: Arc<[Stmt]> = vec![Stmt::I(Instr::OFence)].into();
        let k = Kernel::new("k", prog, vec![1, 2]);
        let k2 = k.with_params(vec![3]);
        assert_eq!(k2.params().as_slice(), &[3]);
        assert_eq!(k.params().as_slice(), &[1, 2]);
        assert_eq!(k2.static_len(), 1);
    }
}
