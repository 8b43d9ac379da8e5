//! Stateless model-checker driver.
//!
//! Exhaustively verifies every litmus shape of `sbrp-mc::litmus` and
//! prints the exploration statistics — states, transitions, and the
//! work the canonical-state deduper saved — or, with `--mutants`,
//! cross-validates the static linter by model-checking every seeded
//! mutant and reporting the dynamic evidence backing each verdict.
//!
//! ```text
//! cargo run --release -p sbrp-bench --bin mc [-- FLAGS]
//! ```
//!
//! * `--mutants`  — check the lint mutant suite instead of the litmuses;
//! * `--smoke`    — fast subset of both (CI gate): a handful of shapes
//!   plus one broken/correct mutant pair;
//! * `--raw`      — tab-separated output (no table chrome);
//! * `--jobs N`   — worker threads for the parallel frontier
//!   (default: all hardware threads; the report is identical at any
//!   value).
//!
//! Exits non-zero if any litmus fails to verify or any mutant's dynamic
//! evidence disagrees with the lint verdict.

use sbrp_bench::{parse_env, Flags, UsageError, Value};
use sbrp_harness::report::Table;
use sbrp_mc::evidence::cross_validate;
use sbrp_mc::{explore, litmus, McOpts};

#[derive(Default)]
struct Args {
    mutants: bool,
    smoke: bool,
    raw: bool,
    jobs: usize,
}

impl Flags for Args {
    fn usage() -> String {
        "[--mutants] [--smoke] [--raw] [--jobs N]".into()
    }

    fn flag(&mut self, flag: &str, value: Value<'_>) -> Result<bool, UsageError> {
        match flag {
            "--mutants" => self.mutants = true,
            "--smoke" => self.smoke = true,
            "--raw" => self.raw = true,
            "--jobs" => self.jobs = value.positive()?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

fn run_litmus(args: &Args, opts: &McOpts) -> i32 {
    let mut shapes = litmus::all();
    if args.smoke {
        shapes.truncate(5);
    }
    let headers = [
        "shape",
        "model",
        "states",
        "transitions",
        "dedup hits",
        "complete",
        "sigs",
        "verdict",
    ];
    let mut table = Table::new("Model-checked litmus shapes (exhaustive)", &headers);
    let mut failures = 0;
    for shape in &shapes {
        let report = explore(&shape.program, &shape.spec, opts);
        let verdict = if report.verified() {
            "verified".to_string()
        } else {
            failures += 1;
            format!("{} violations", report.violations.len())
        };
        let cells = vec![
            shape.name.to_string(),
            format!("{:?}/{}", shape.program.model, shape.program.domain),
            report.states.to_string(),
            report.transitions.to_string(),
            report.dedup_hits.to_string(),
            report.complete_executions.to_string(),
            report.signatures.len().to_string(),
            verdict,
        ];
        if args.raw {
            println!("{}", cells.join("\t"));
        } else {
            table.row(cells);
        }
    }
    if !args.raw {
        print!("{}", table.to_text());
    }
    eprintln!(
        "mc: {} shapes, {} failed verification",
        shapes.len(),
        failures
    );
    i32::from(failures > 0)
}

fn run_mutants(args: &Args, opts: &McOpts) -> i32 {
    let mut evidence = cross_validate(opts);
    if args.smoke {
        evidence.retain(|e| e.name.starts_with("wal"));
    }
    let headers = ["mutant", "lint", "states", "witness", "agrees", "finding"];
    let mut table = Table::new("Lint verdicts cross-validated by model checking", &headers);
    let mut disagreements = 0;
    for ev in &evidence {
        if !ev.agrees {
            disagreements += 1;
        }
        let cells = vec![
            ev.name.to_string(),
            if ev.lint_broken { "broken" } else { "clean" }.to_string(),
            ev.report.states.to_string(),
            ev.witness
                .as_ref()
                .map_or_else(|| "-".to_string(), |w| format!("{} steps", w.len())),
            if ev.agrees { "yes" } else { "NO" }.to_string(),
            ev.finding.clone(),
        ];
        if args.raw {
            println!("{}", cells.join("\t"));
        } else {
            table.row(cells);
        }
    }
    if !args.raw {
        print!("{}", table.to_text());
    }
    eprintln!(
        "mc: {} mutants, {} disagreements",
        evidence.len(),
        disagreements
    );
    i32::from(disagreements > 0)
}

fn main() {
    let args: Args = parse_env();
    let opts = McOpts {
        jobs: args.jobs,
        ..McOpts::default()
    };
    let code = if args.smoke && !args.mutants {
        // The CI gate covers both halves.
        run_litmus(&args, &opts) | run_mutants(&args, &opts)
    } else if args.mutants {
        run_mutants(&args, &opts)
    } else {
        run_litmus(&args, &opts)
    };
    std::process::exit(code);
}
