//! Static persistency linter driver.
//!
//! Lints every stock kernel in the repository — the six applications
//! (main and recovery flavours) and the five microbenchmarks, under
//! every persistency model — with `sbrp-lint`, and fails the process if
//! any kernel produces an error-severity diagnostic.
//!
//! ```text
//! cargo run --release -p sbrp-bench --bin lint
//! ```
//!
//! * `--json`        — emit one JSON report per kernel (a JSON array)
//!   instead of text;
//! * `--sarif`       — emit a single SARIF 2.1.0 log for all linted
//!   kernels instead of text (for code-scanning upload; not with
//!   `--json`);
//! * `--interthread` — run the whole-kernel inter-thread analysis
//!   (P007–P012) on top of the intra-thread rules;
//! * `--fix`         — apply every machine-applicable fix and re-lint
//!   the rewritten kernel; exits non-zero if a fix fails to clear its
//!   diagnostic or introduces a new error;
//! * `--all`         — print clean reports too (default prints only
//!   kernels with diagnostics);
//! * `--demoted`     — also lint the SBRP scope-demotion variants
//!   (the §5.3 experiment kernels);
//! * `--mutants`     — lint the seeded mutant suite instead of the
//!   stock kernels and verify every broken mutant is flagged (exits
//!   non-zero if any seeded bug is missed or a correct mutant is
//!   dirty). The mutant suite always runs the inter-thread analysis:
//!   its P007–P012 entries are invisible to the intra-thread rules.

use sbrp_bench::{parse_env, Flags, UsageError, Value};
use sbrp_core::json::Json;
use sbrp_core::ModelKind;
use sbrp_isa::Kernel;
use sbrp_lint::{apply_fix, lint_all, lint_kernel, LintConfig, LintReport, Severity};
use sbrp_workloads::{BuildOpts, Launchable, Micro, WorkloadKind};

const MODELS: [ModelKind; 3] = [ModelKind::Sbrp, ModelKind::Epoch, ModelKind::Gpm];

#[derive(Default)]
struct Args {
    json: bool,
    sarif: bool,
    interthread: bool,
    fix: bool,
    all: bool,
    demoted: bool,
    mutants: bool,
}

impl Flags for Args {
    fn usage() -> String {
        "[--json|--sarif] [--interthread] [--fix] [--all] [--demoted] [--mutants]".into()
    }

    fn flag(&mut self, flag: &str, _: Value<'_>) -> Result<bool, UsageError> {
        match flag {
            "--json" if self.sarif => return Err(UsageError::Conflict("--sarif", "--json")),
            "--sarif" if self.json => return Err(UsageError::Conflict("--json", "--sarif")),
            "--json" => self.json = true,
            "--sarif" => self.sarif = true,
            "--interthread" => self.interthread = true,
            "--fix" => self.fix = true,
            "--all" => self.all = true,
            "--demoted" => self.demoted = true,
            "--mutants" => self.mutants = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn lint_launchable(l: &Launchable, interthread: bool) -> LintReport {
    let cfg = LintConfig::with_launch(l.launch);
    if interthread {
        lint_all(&l.kernel, &cfg)
    } else {
        lint_kernel(&l.kernel, &cfg)
    }
}

/// Every stock kernel: (context label, kernel, config, report).
fn stock_reports(args: &Args) -> Vec<(String, Kernel, LintConfig, LintReport)> {
    let mut out = Vec::new();
    let mut push = |ctx: String, l: &Launchable| {
        let cfg = LintConfig::with_launch(l.launch);
        out.push((
            ctx,
            l.kernel.clone(),
            cfg,
            lint_launchable(l, args.interthread),
        ));
    };
    for kind in WorkloadKind::ALL {
        let w = kind.instantiate(256, 42);
        for model in MODELS {
            let opts = BuildOpts::for_model(model);
            push(format!("{kind}/{model:?}/main"), &w.kernel(opts));
            if let Some(rec) = w.recovery(opts) {
                push(format!("{kind}/{model:?}/recovery"), &rec);
            }
        }
        if args.demoted {
            let opts = BuildOpts {
                model: ModelKind::Sbrp,
                demote_scopes: true,
            };
            push(format!("{kind}/Sbrp/demoted"), &w.kernel(opts));
        }
    }
    for micro in Micro::ALL {
        for model in MODELS {
            push(
                format!("micro-{}/{model:?}", micro.label()),
                &micro.kernel(BuildOpts::for_model(model), 8),
            );
        }
    }
    out
}

/// Repeatedly applies the first machine fix the linter offers and
/// re-lints, until no fixable diagnostic remains (each application can
/// shift locations and legitimately surface a successor finding, e.g.
/// the second of two stacked dominated fences). Returns failure labels
/// when the chain does not converge or the converged kernel has more
/// errors than the original.
fn check_fixes(kernel: &Kernel, cfg: &LintConfig, report: &LintReport) -> Vec<String> {
    if report.diags.iter().all(|d| d.fix.is_none()) {
        return Vec::new();
    }
    let base_errors = report.errors();
    let mut k = kernel.clone();
    for _ in 0..16 {
        let r = lint_all(&k, cfg);
        let Some(d) = r.diags.iter().find(|d| d.fix.is_some()) else {
            return if r.errors() > base_errors {
                vec![format!(
                    "{}: fixes converged but raised the error count ({} -> {})",
                    report.kernel,
                    base_errors,
                    r.errors()
                )]
            } else {
                Vec::new()
            };
        };
        k = apply_fix(&k, d.fix.as_ref().expect("filtered on fix"));
    }
    vec![format!("{}: fix chain did not converge", report.kernel)]
}

fn run_stock(args: &Args) -> i32 {
    let reports = stock_reports(args);
    let mut errors = 0usize;
    let mut diags = 0usize;
    let mut fix_failures = Vec::new();
    if args.sarif {
        let bare: Vec<LintReport> = reports.iter().map(|(_, _, _, r)| r.clone()).collect();
        println!("{}", sbrp_lint::sarif(&bare));
    } else if args.json {
        let body = reports.iter().map(|(_, _, _, r)| r.to_json_value());
        println!("{}", Json::Arr(body.collect()).render());
    }
    for (ctx, kernel, cfg, r) in &reports {
        errors += r.count(Severity::Error);
        diags += r.diags.len();
        if !args.json && !args.sarif && (args.all || !r.diags.is_empty()) {
            print!("== {ctx}\n{}", r.to_text());
        }
        if args.fix {
            fix_failures.extend(check_fixes(kernel, cfg, r));
        }
    }
    eprintln!(
        "lint: {} kernels, {} diagnostics, {} errors",
        reports.len(),
        diags,
        errors
    );
    for f in &fix_failures {
        eprintln!("FIX FAILED: {f}");
    }
    i32::from(errors > 0 || !fix_failures.is_empty())
}

fn run_mutants(args: &Args) -> i32 {
    let suite = sbrp_lint::mutants::suite(sbrp_gpu_sim::config::PM_BASE);
    let mut missed = Vec::new();
    let mut dirty = Vec::new();
    let mut fix_failures = Vec::new();
    let mut body = Vec::new();
    let mut sarif_reports = Vec::new();
    for m in &suite {
        let mut cfg = LintConfig::with_launch(m.launch);
        cfg.pm_base = sbrp_gpu_sim::config::PM_BASE;
        let r = lint_all(&m.kernel, &cfg);
        if args.sarif {
            sarif_reports.push(r.clone());
        } else if args.json {
            body.push(r.to_json_value());
        } else {
            print!("== {} ({})\n{}", m.name, m.what, r.to_text());
        }
        if m.is_broken() {
            if !m.expect.iter().all(|&c| r.has(c)) {
                missed.push(m.name);
            }
        } else if r.errors() > 0 {
            dirty.push(m.name);
        }
        if args.fix {
            fix_failures.extend(check_fixes(&m.kernel, &cfg, &r));
        }
    }
    if args.sarif {
        println!("{}", sbrp_lint::sarif(&sarif_reports));
    } else if args.json {
        println!("{}", Json::Arr(body).render());
    }
    eprintln!(
        "lint: {} mutants, {} seeded bugs missed, {} correct kernels dirty",
        suite.len(),
        missed.len(),
        dirty.len()
    );
    for n in &missed {
        eprintln!("MISSED: {n}");
    }
    for n in &dirty {
        eprintln!("FALSE POSITIVE: {n}");
    }
    for f in &fix_failures {
        eprintln!("FIX FAILED: {f}");
    }
    i32::from(!missed.is_empty() || !dirty.is_empty() || !fix_failures.is_empty())
}

fn main() {
    let args: Args = parse_env();
    let code = if args.mutants {
        run_mutants(&args)
    } else {
        run_stock(&args)
    };
    std::process::exit(code);
}
