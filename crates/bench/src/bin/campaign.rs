//! Crash-recovery campaign driver.
//!
//! Sweeps event-triggered crash points across a (workload × model ×
//! system) matrix, recovering and verifying at every point, and fails
//! the process if any point finds a consistency violation.
//!
//! ```text
//! cargo run --release -p sbrp-bench --bin campaign -- --quick
//! ```
//!
//! * `--quick`    — acceptance sweep: gpKVS/HM/MQ × all models × both
//!   systems on the small GPU at scale 256 (minutes);
//! * `--points N` — minimum crash points per cell (default 20);
//! * `--seed N`   — input seed (default 42);
//!
//! plus the standard sweep flags of `sbrp_bench` (`--small` alone
//! selects the 4-SM GPU without the rest of `--quick`).
//!
//! Without `--quick`, the full six-workload matrix runs at the default
//! figure scales on the Table 1 machine — an overnight-class sweep.
//! Finished cells land in the result cache as they complete, so a
//! killed campaign resumes by running the same command again.

use sbrp_bench::{parse_env, Cli, Flags, UsageError, Value};
use sbrp_harness::campaign::{self, CampaignSpec, CellReport};
use sbrp_harness::sweep::SweepOpts;

#[derive(Default)]
struct Args {
    cli: Cli,
    quick: bool,
    points: Option<usize>,
    seed: Option<u64>,
}

impl Flags for Args {
    fn usage() -> String {
        format!("[--quick] [--points N] [--seed N] {}", Cli::usage())
    }

    fn flag(&mut self, flag: &str, value: Value<'_>) -> Result<bool, UsageError> {
        match flag {
            "--quick" => self.quick = true,
            "--points" => self.points = Some(value.value(|_| true)?),
            "--seed" => self.seed = Some(value.value(|_| true)?),
            _ => return self.cli.flag(flag, value),
        }
        Ok(true)
    }
}

impl Args {
    fn sweep_opts(&self) -> SweepOpts {
        let mut opts = self.cli.sweep_opts();
        // The per-cell status lines below carry more detail than the
        // engine's generic progress output.
        opts.progress = false;
        opts
    }
}

fn main() {
    let args: Args = parse_env();
    let mut spec = if args.quick {
        CampaignSpec::quick()
    } else {
        CampaignSpec::default()
    };
    if let Some(p) = args.points {
        spec.points_per_cell = p;
    }
    if let Some(s) = args.cli.scale {
        spec.scale = Some(s);
    }
    if let Some(s) = args.seed {
        spec.seed = s;
    }
    if args.cli.small {
        spec.small_gpu = true;
    }
    let opts = args.sweep_opts();

    let cells = spec.workloads.len() * spec.models.len() * spec.systems.len();
    eprintln!(
        "campaign: {cells} cells ({} workloads x {} models x {} systems), >= {} points/cell, {} jobs",
        spec.workloads.len(),
        spec.models.len(),
        spec.systems.len(),
        spec.points_per_cell,
        opts.effective_jobs()
    );

    let mut done = 0usize;
    let (report, summary) = campaign::run_with_summary(&spec, &opts, |cell: &CellReport| {
        done += 1;
        let status = if let Some(e) = &cell.baseline_error {
            // Covers both baseline failures and engine-contained ones
            // (panic / deadline), which surface through the same field.
            format!("FAILED: {e}")
        } else if cell.violations() == 0 {
            format!(
                "{} points, all pass (pmo {}/{}, recovered {}/{})",
                cell.points.len(),
                cell.pmo_clean(),
                cell.points.len(),
                cell.recovered(),
                cell.points.len()
            )
        } else {
            format!(
                "{} points, {} VIOLATIONS (pmo {}/{}, recovered {}/{})",
                cell.points.len(),
                cell.violations(),
                cell.pmo_clean(),
                cell.points.len(),
                cell.recovered(),
                cell.points.len()
            )
        };
        eprintln!(
            "[{done}/{cells}] {} {:?} {:?}: {status}",
            cell.workload, cell.model, cell.system
        );
    });

    args.cli.emit(&report.table());

    // Spell out every violation with its shrunk minimal crash point.
    for cell in &report.cells {
        for s in &cell.shrunk {
            eprintln!(
                "violation: {} {:?} {:?} {} minimal failing event k={} -> {:?}",
                cell.workload,
                cell.model,
                cell.system,
                s.family.label(),
                s.min_k,
                s.outcome
            );
        }
    }
    println!(
        "campaign: {} points, {} violations",
        report.total_points(),
        report.total_violations()
    );
    eprintln!("{}", summary.summary_line());
    if !report.ok() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_flags_select_a_figure_binarys_sweep_opts_without_progress() {
        let sweep = [
            "--jobs",
            "2",
            "--no-cache",
            "--cell-timeout",
            "1.5",
            "--retries",
            "3",
        ];
        let strings = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        for sweep in [&sweep[..], &[]] {
            let extras = ["--quick", "--points", "3", "--seed", "9"];
            let args: Args = sbrp_bench::parse(strings(&[&extras[..], sweep].concat()))
                .expect("valid")
                .expect("not --help");
            let cli: Cli = sbrp_bench::parse(strings(sweep)).unwrap().unwrap();
            let mut figure = cli.sweep_opts();
            assert!(figure.progress && !args.sweep_opts().progress);
            figure.progress = false;
            assert_eq!(format!("{:?}", args.sweep_opts()), format!("{figure:?}"));
            assert_eq!(
                (args.quick, args.points, args.seed),
                (true, Some(3), Some(9))
            );
        }
    }
}
