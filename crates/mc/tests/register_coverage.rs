//! A warp's register file holds exactly `Kernel::regs()` registers, so
//! that count must exceed every register index the kernel's statement
//! tree names. This checks it for every kernel the repository builds:
//! the stock workloads (main, recovery and micro, every model, the
//! Fig. 7 demoted variants), the lint mutants and their auto-fixed
//! forms, the litmus shapes, and 500 generated kernels.
//!
//! The named registers are read off the kernel's disassembly rather
//! than through the ISA's own register walk, so a wrong count from
//! either the builder or `Kernel::new` shows up here.

use sbrp_core::ModelKind;
use sbrp_isa::Kernel;
use sbrp_lint::{apply_fix, lint_all, LintConfig};
use sbrp_mc::evidence::PM_BASE;
use sbrp_workloads::{BuildOpts, Micro, WorkloadKind};

const MODELS: [ModelKind; 3] = [ModelKind::Sbrp, ModelKind::Epoch, ModelKind::Gpm];

/// The highest register index (`rN`) in the kernel's disassembly,
/// skipping the header line (name and parameters).
fn max_named_reg(k: &Kernel) -> Option<usize> {
    let asm = k.disassemble();
    let mut max = None;
    for line in asm.lines().skip(1) {
        let b = line.as_bytes();
        for i in 0..b.len() {
            let starts_token = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
            if b[i] != b'r' || !starts_token {
                continue;
            }
            let digits = b[i + 1..].iter().take_while(|c| c.is_ascii_digit()).count();
            let end = i + 1 + digits;
            if digits == 0 || b.get(end).is_some_and(u8::is_ascii_alphanumeric) {
                continue;
            }
            let r: usize = line[i + 1..end].parse().expect("digits");
            max = max.max(Some(r));
        }
    }
    max
}

/// Asserts `k.regs()` covers the kernel; returns whether it names any
/// register at all.
fn assert_covered(k: &Kernel, ctx: &str) -> bool {
    let Some(max) = max_named_reg(k) else {
        return false;
    };
    assert!(
        k.regs() > max,
        "{ctx} ({}): regs() = {} but the tree names r{max}",
        k.name(),
        k.regs()
    );
    true
}

#[test]
fn disassembly_scan_finds_registers() {
    let mut b = sbrp_isa::KernelBuilder::new();
    let tid = b.special(sbrp_isa::Special::Tid);
    let c = b.lti(tid, 4);
    b.if_then(c, |b| {
        let x = b.reg();
        b.movi_to(x, 7);
        b.epoch_barrier();
    });
    let k = b.build("r9_kernel");
    assert_eq!(max_named_reg(&k), Some(2));
    assert_eq!(k.regs(), 3);
}

#[test]
fn stock_workload_kernels_are_covered() {
    let mut named = 0;
    for kind in WorkloadKind::ALL {
        let w = kind.instantiate(256, 42);
        for model in MODELS {
            for demote_scopes in [false, true] {
                let opts = BuildOpts {
                    model,
                    demote_scopes,
                };
                let ctx = format!("{kind} {model:?} demote={demote_scopes}");
                named += usize::from(assert_covered(&w.kernel(opts).kernel, &ctx));
                if let Some(rec) = w.recovery(opts) {
                    named += usize::from(assert_covered(&rec.kernel, &format!("{ctx} recovery")));
                }
            }
        }
    }
    for micro in Micro::ALL {
        for model in MODELS {
            let l = micro.kernel(BuildOpts::for_model(model), 8);
            named += usize::from(assert_covered(
                &l.kernel,
                &format!("{} {model:?}", micro.label()),
            ));
        }
    }
    assert!(named > 0, "the scan found no registers at all");
}

#[test]
fn lint_mutants_and_their_fixes_are_covered() {
    let mut fixed = 0;
    for m in sbrp_lint::mutants::suite(PM_BASE) {
        assert_covered(&m.kernel, m.name);
        let mut cfg = LintConfig::with_launch(m.launch);
        cfg.pm_base = PM_BASE;
        // Apply fixes one at a time until none remain, as `lint --fix`
        // does; every intermediate kernel is built by `Kernel::new`.
        let mut k = m.kernel.clone();
        for _ in 0..16 {
            let r = lint_all(&k, &cfg);
            let Some(fix) = r.diags.iter().find_map(|d| d.fix.as_ref()) else {
                break;
            };
            k = apply_fix(&k, fix);
            assert_covered(&k, &format!("{} fixed", m.name));
            fixed += 1;
        }
    }
    assert!(fixed > 0, "no mutant produced a fix");
}

#[test]
fn litmus_shapes_are_covered() {
    for t in sbrp_mc::litmus::all() {
        assert_covered(&t.program.kernel, t.name);
    }
}

#[test]
fn generated_kernels_are_covered() {
    for seed in 0..500 {
        let case = sbrp_mc::generate::generate(seed, PM_BASE);
        assert_covered(&case.kernel, &format!("seed {seed}: {}", case.describe));
    }
}
