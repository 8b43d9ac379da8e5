//! `mc`: the verification engines — exhaustive exploration of the
//! litmus shapes, the lint-mutant cross-validation, and the generative
//! soundness check (lint, then explore, seeded message-passing kernels).

use crate::metrics::{Failure, Pass};
use crate::trace::Tracer;
use sbrp_lint::{lint_all, LintConfig};
use sbrp_mc::evidence::{cross_validate, PM_BASE};
use sbrp_mc::generate::generate;
use sbrp_mc::litmus::{self, McLitmus};
use sbrp_mc::{explore, McOpts, McReport, Program, Spec, ViolationKind};

const OPTS: McOpts = McOpts {
    jobs: 1,
    max_states: 10_000_000,
};

struct Generated {
    seed: u64,
    describe: String,
    program: Program,
    spec: Spec,
    lint: LintConfig,
}

pub struct Mc {
    shapes: Vec<McLitmus>,
    cross_validate: bool,
    generated: Vec<Generated>,
}

pub fn setup(smoke: bool, seed: u64, tr: &mut Tracer) -> Mc {
    let mut shapes = tr.span("workloads.build", 0, |_| litmus::all());
    let count = if smoke {
        shapes.truncate(4);
        20
    } else {
        1000
    };
    let generated = (0..count)
        .map(|i| {
            let s = seed.wrapping_add(i);
            tr.span("workloads.build", i + 1, |_| {
                let case = generate(s, PM_BASE);
                let (program, spec) = case.program_and_spec(PM_BASE);
                Generated {
                    seed: s,
                    lint: LintConfig {
                        pm_base: PM_BASE,
                        launch: Some(case.launch),
                    },
                    describe: case.describe,
                    program,
                    spec,
                }
            })
        })
        .collect();
    Mc {
        shapes,
        cross_validate: !smoke,
        generated,
    }
}

fn record_report(pass: &mut Pass, r: &McReport) {
    pass.add("mc.states", r.states as f64);
    pass.add("mc.transitions", r.transitions as f64);
    pass.add("mc.dedup_hits", r.dedup_hits as f64);
    pass.add("mc.complete_executions", r.complete_executions as f64);
}

impl Mc {
    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut req = 0u64;
        for shape in &self.shapes {
            pass.attempted += 1;
            let report = tr.span("mc.program", req, |tr| {
                tr.span("mc.explore", req, |_| {
                    explore(&shape.program, &shape.spec, &OPTS)
                })
            });
            record_report(&mut pass, &report);
            if !report.verified() {
                let detail = format!("{} violations", report.violations.len());
                pass.failures
                    .push(Failure::new(format!("litmus {}", shape.name), detail));
            }
            req += 1;
        }
        if self.cross_validate {
            let evidence = tr.span("mc.program", req, |tr| {
                tr.span("mc.cross_validate", req, |_| cross_validate(&OPTS))
            });
            for ev in evidence {
                pass.attempted += 1;
                if !ev.agrees {
                    pass.failures
                        .push(Failure::new(format!("mutant {}", ev.name), ev.finding));
                }
            }
            req += 1;
        }
        for g in &self.generated {
            pass.attempted += 1;
            let (lint, report) = tr.span("mc.program", req, |tr| {
                let lint = tr.span("lint.lint", req, |_| lint_all(&g.program.kernel, &g.lint));
                let report = tr.span("mc.explore", req, |_| explore(&g.program, &g.spec, &OPTS));
                (lint, report)
            });
            record_report(&mut pass, &report);
            pass.add("lint.kernels", 1.0);
            pass.add("lint.errors", lint.errors() as f64);
            let violated = report
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::AddrImplies);
            let others = report
                .violations
                .iter()
                .filter(|v| v.kind != ViolationKind::AddrImplies)
                .count();
            let op = || format!("generated seed {} ({})", g.seed, g.describe);
            if lint.errors() == 0 && violated {
                pass.add("lint.false_negatives", 1.0);
                pass.failures.push(Failure::new(
                    op(),
                    "lint-clean kernel has a violating execution",
                ));
            } else if others > 0 {
                pass.failures.push(Failure::new(
                    op(),
                    format!("{others} non-invariant violations"),
                ));
            }
            req += 1;
        }
        pass.add_ratio("mc.dedup_ratio", "mc.dedup_hits", "mc.transitions");
        pass
    }
}
