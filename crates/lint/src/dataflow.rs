//! Abstract values for the linter's register dataflow.
//!
//! Kernel parameters are known at build time (they are baked into the
//! [`Kernel`]), so PM-ness of pointers is statically decidable: the
//! analysis tracks, per register, a possibly-concrete value, a symbolic
//! base object + offset, how the value varies across the launch grid,
//! and the set of "interesting" definitions (memory reads) it was
//! computed from.
//!
//! [`Kernel`]: sbrp_isa::Kernel

use sbrp_isa::{BinOp, Special};
use std::collections::BTreeSet;

/// `special == value`, the only branch-condition shape the linter reasons
/// about. Workload kernels gate leader work behind `tid == 0`-style
/// tests, and the correlations between them (`tid == 0` implies
/// `lane == 0`) matter for epoch inference across sibling branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pred {
    /// The special register being compared.
    pub special: Special,
    /// The constant it is compared against.
    pub value: u64,
}

impl Pred {
    /// Does `self` holding imply `other` holds? Uses the grid identities
    /// `lane = tid % 32`, `warp = tid / 32`, and (for thread 0 only)
    /// `globaltid == 0 ⇒ ctaid == 0 ∧ tid == 0`.
    #[must_use]
    pub fn implies(self, other: Pred) -> bool {
        if self == other {
            return true;
        }
        match (self.special, other.special) {
            (Special::Tid, Special::Lane) => other.value == self.value % 32,
            (Special::Tid, Special::WarpId) => other.value == self.value / 32,
            (Special::GlobalTid, Special::Tid | Special::Lane | Special::WarpId)
                if self.value == 0 =>
            {
                other.value == 0
            }
            (Special::GlobalTid, Special::CtaId) if self.value == 0 => other.value == 0,
            _ => false,
        }
    }
}

/// Is a conjunction of literals `(pred, polarity)` satisfiable under the
/// implication table? Used to discard analysis paths no thread can take
/// (e.g. `lane == 0` false but `tid == 0` true).
#[must_use]
pub fn satisfiable(lits: &[(Pred, bool)]) -> bool {
    for &(p, pv) in lits {
        if !pv {
            continue;
        }
        for &(q, qv) in lits {
            if !qv && p.implies(q) {
                return false;
            }
            // Two positive equalities on the same special must agree.
            if qv && p.special == q.special && p.value != q.value {
                return false;
            }
        }
    }
    true
}

/// The base object a pointer-ish value points into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Base {
    /// Derived from the concrete base address carried here (parameter
    /// values are baked into the kernel, so most pointers resolve to a
    /// known base object at lint time).
    Addr(u64),
    /// Not a tracked object.
    Unknown,
}

/// Abstract value of one register at one program point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Fully-known concrete value, when derivable.
    pub concrete: Option<u64>,
    /// May this value point into persistent memory?
    pub pm: bool,
    /// Base object identity for pointer values.
    pub base: Base,
    /// Known byte offset from `base`, when derivable.
    pub offset: Option<u64>,
    /// Varies with `blockIdx` (different blocks see different values).
    pub block_varying: bool,
    /// Varies with the thread index inside a block.
    pub thread_varying: bool,
    /// Interesting definitions (loads, acquires) this value depends on;
    /// ids are allocated by the walker.
    pub slice: BTreeSet<u32>,
    /// Set when the value is exactly a special register.
    pub sym: Option<Special>,
    /// Set when the value is the 0/1 result of `special == const`.
    pub pred: Option<Pred>,
}

impl Default for AbsVal {
    fn default() -> Self {
        AbsVal::unknown()
    }
}

impl AbsVal {
    /// The completely-unknown value.
    #[must_use]
    pub fn unknown() -> Self {
        AbsVal {
            concrete: None,
            pm: false,
            base: Base::Unknown,
            offset: None,
            block_varying: false,
            thread_varying: false,
            slice: BTreeSet::new(),
            sym: None,
            pred: None,
        }
    }

    /// A fully-concrete constant (e.g. `MovI`, `Param`).
    #[must_use]
    pub fn constant(v: u64, pm_base: u64) -> Self {
        AbsVal {
            concrete: Some(v),
            pm: v >= pm_base,
            base: Base::Addr(v),
            offset: Some(0),
            block_varying: false,
            thread_varying: false,
            slice: BTreeSet::new(),
            sym: None,
            pred: None,
        }
    }

    /// A fresh memory-read result (load, volatile load, atomic, acquire):
    /// unknown value carrying a fresh interesting-definition id plus the
    /// provenance of its address.
    #[must_use]
    pub fn mem_read(def: u32, addr: &AbsVal) -> Self {
        let mut slice = addr.slice.clone();
        slice.insert(def);
        AbsVal {
            concrete: None,
            pm: false,
            base: Base::Unknown,
            offset: None,
            block_varying: addr.block_varying,
            thread_varying: addr.thread_varying,
            slice,
            sym: None,
            pred: None,
        }
    }

    /// A special-register read. With the launch geometry in hand the
    /// uniform ones (`Ntid`, `NCta`) become concrete.
    #[must_use]
    pub fn special(s: Special, launch: Option<(u32, u32)>) -> Self {
        let (block_varying, thread_varying) = match s {
            Special::CtaId => (true, false),
            Special::Tid | Special::Lane | Special::WarpId => (false, true),
            Special::GlobalTid => (true, true),
            Special::Ntid | Special::NCta => (false, false),
        };
        let concrete = match (s, launch) {
            (Special::Ntid, Some((_, tpb))) => Some(u64::from(tpb)),
            (Special::NCta, Some((blocks, _))) => Some(u64::from(blocks)),
            _ => None,
        };
        AbsVal {
            concrete,
            pm: false,
            base: concrete.map_or(Base::Unknown, Base::Addr),
            offset: concrete.map(|_| 0),
            block_varying,
            thread_varying,
            slice: BTreeSet::new(),
            sym: Some(s),
            pred: None,
        }
    }

    /// Transfer function for a binary ALU op.
    #[must_use]
    pub fn bin(op: BinOp, a: &AbsVal, b: &AbsVal, pm_base: u64) -> Self {
        let concrete = match (a.concrete, b.concrete) {
            // Division/remainder by zero is a kernel bug the interpreter
            // panics on; the linter just gives up on the value.
            (Some(x), Some(y)) => match op {
                BinOp::Div | BinOp::Rem if y == 0 => None,
                _ => Some(op.apply(x, y)),
            },
            _ => None,
        };
        // Pointer arithmetic: only additive ops preserve object identity.
        let (base, offset, pm) = match op {
            BinOp::Add => match (a.base, b.base) {
                _ if a.pm && !b.pm => (a.base, add_off(a.offset, b.concrete, false), true),
                _ if b.pm && !a.pm => (b.base, add_off(b.offset, a.concrete, false), true),
                _ => (Base::Unknown, None, a.pm || b.pm),
            },
            BinOp::Sub if a.pm && !b.pm => (a.base, add_off(a.offset, b.concrete, true), true),
            // Comparisons yield booleans, never addresses.
            BinOp::SetLt
            | BinOp::SetLe
            | BinOp::SetEq
            | BinOp::SetNe
            | BinOp::SetGt
            | BinOp::SetGe => (Base::Unknown, None, false),
            _ => (Base::Unknown, None, a.pm || b.pm),
        };
        let base = match (base, concrete) {
            // A concrete result is its own perfectly-known object.
            (Base::Unknown, Some(v)) => Base::Addr(v),
            (b, _) => b,
        };
        let offset = match (base, concrete, offset) {
            (Base::Addr(_), Some(_), None) => Some(0),
            (_, _, o) => o,
        };
        let pred = if op == BinOp::SetEq {
            match ((a.sym, b.concrete), (b.sym, a.concrete)) {
                ((Some(s), Some(v)), _) | (_, (Some(s), Some(v))) => Some(Pred {
                    special: s,
                    value: v,
                }),
                _ => None,
            }
        } else {
            None
        };
        AbsVal {
            concrete,
            pm,
            base,
            offset,
            block_varying: a.block_varying || b.block_varying,
            thread_varying: a.thread_varying || b.thread_varying,
            slice: a.slice.union(&b.slice).copied().collect(),
            sym: None,
            pred,
        }
        .repair_pm(pm_base)
    }

    /// Per-lane select: the result may be either arm and leaks the
    /// condition's provenance.
    #[must_use]
    pub fn select(c: &AbsVal, a: &AbsVal, b: &AbsVal) -> Self {
        let mut v = AbsVal::join(a, b);
        v.thread_varying |= c.thread_varying;
        v.block_varying |= c.block_varying;
        v.slice = v.slice.union(&c.slice).copied().collect();
        v
    }

    /// Control-flow join of two abstract values.
    #[must_use]
    pub fn join(a: &AbsVal, b: &AbsVal) -> Self {
        if a == b {
            return a.clone();
        }
        AbsVal {
            concrete: if a.concrete == b.concrete {
                a.concrete
            } else {
                None
            },
            pm: a.pm || b.pm,
            base: if a.base == b.base {
                a.base
            } else {
                Base::Unknown
            },
            offset: if a.base == b.base && a.offset == b.offset {
                a.offset
            } else {
                None
            },
            block_varying: a.block_varying || b.block_varying,
            thread_varying: a.thread_varying || b.thread_varying,
            slice: a.slice.union(&b.slice).copied().collect(),
            sym: if a.sym == b.sym { a.sym } else { None },
            pred: if a.pred == b.pred { a.pred } else { None },
        }
    }

    /// Re-derives `pm` from a concrete value if one is known (keeps the
    /// flag exact through arithmetic that lands back in either range).
    fn repair_pm(mut self, pm_base: u64) -> Self {
        if let Some(v) = self.concrete {
            self.pm = v >= pm_base;
        }
        self
    }

    /// Object identity of a pointer: the address of the base object it
    /// was derived from (displacements do not change identity).
    #[must_use]
    pub fn object(&self) -> Option<u64> {
        match self.base {
            Base::Addr(a) => Some(a),
            Base::Unknown => None,
        }
    }
}

fn add_off(a: Option<u64>, b: Option<u64>, negate: bool) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if negate {
            x.wrapping_sub(y)
        } else {
            x.wrapping_add(y)
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PM: u64 = 1 << 40;

    #[test]
    fn constants_know_their_range() {
        assert!(AbsVal::constant(PM + 64, PM).pm);
        assert!(!AbsVal::constant(0x1000, PM).pm);
    }

    #[test]
    fn pointer_arithmetic_keeps_base() {
        let p = AbsVal::constant(PM + 0x100, PM);
        let idx = AbsVal::special(Special::Tid, None);
        let q = AbsVal::bin(BinOp::Add, &p, &idx, PM);
        assert!(q.pm);
        assert_eq!(q.base, Base::Addr(PM + 0x100));
        assert!(q.thread_varying);
        assert_eq!(q.offset, None); // tid not concrete
        let r = AbsVal::bin(BinOp::Add, &p, &AbsVal::constant(8, PM), PM);
        assert_eq!(r.concrete, Some(PM + 0x108));
        assert_eq!(r.object(), Some(PM + 0x100));
    }

    #[test]
    fn comparisons_are_never_pm() {
        let p = AbsVal::constant(PM, PM);
        let c = AbsVal::bin(BinOp::SetLt, &p, &p, PM);
        assert!(!c.pm);
        assert_eq!(c.concrete, Some(0));
    }

    #[test]
    fn mem_read_is_fresh_and_inherits_addr_provenance() {
        let mut addr = AbsVal::constant(PM, PM);
        addr.slice.insert(7);
        let v = AbsVal::mem_read(3, &addr);
        assert!(v.slice.contains(&3) && v.slice.contains(&7));
        assert_eq!(v.concrete, None);
    }

    #[test]
    fn join_widens() {
        let a = AbsVal::constant(1, PM);
        let b = AbsVal::constant(2, PM);
        let j = AbsVal::join(&a, &b);
        assert_eq!(j.concrete, None);
        assert_eq!(j.base, Base::Unknown);
        let same = AbsVal::join(&a, &a);
        assert_eq!(same.concrete, Some(1));
    }

    #[test]
    fn specials_become_concrete_with_launch() {
        let n = AbsVal::special(Special::Ntid, Some((4, 128)));
        assert_eq!(n.concrete, Some(128));
        let g = AbsVal::special(Special::GlobalTid, Some((4, 128)));
        assert!(g.block_varying && g.thread_varying);
    }
}
