//! Thread registers.

use std::fmt;

/// Number of 64-bit registers a thread may name. A warp's register file
/// holds only the [`Kernel::regs`](crate::Kernel::regs) its kernel needs.
pub const NUM_REGS: usize = 128;

/// A per-thread 64-bit register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Creates a register reference.
    ///
    /// # Panics
    /// Panics if `idx >= NUM_REGS`.
    #[must_use]
    pub fn new(idx: usize) -> Self {
        assert!(idx < NUM_REGS, "register r{idx} out of range");
        Reg(idx as u8)
    }

    /// The register index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        let r = Reg::new(5);
        assert_eq!(r.index(), 5);
        assert_eq!(r.to_string(), "r5");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = Reg::new(NUM_REGS);
    }
}
