//! # sbrp-bench
//!
//! The paper-evaluation harness: one binary per table/figure of §7
//! (`table1`, `table2`, `figure6` … `figure11`), plus the `benchmark`
//! binary that `BENCHMARK.json` declares.
//!
//! Every figure binary accepts:
//!
//! * `--scale N` — override the per-workload default size;
//! * `--small` — simulate a scaled-down 4-SM GPU instead of the paper's
//!   30-SM Table 1 machine (faster, same qualitative shapes);
//! * `--csv` — emit CSV instead of an aligned text table;
//! * `--json` — emit JSON instead of an aligned text table;
//! * `--trace-out FILE` — also write a Chrome-trace JSON timeline
//!   (load it in Perfetto / `chrome://tracing`) for a representative
//!   cell; binaries that don't trace ignore it;
//! * `--jobs N` — worker threads for the sweep (default: all hardware
//!   threads; `--jobs 1` reproduces the historical serial behaviour,
//!   byte-identically);
//! * `--no-cache` — ignore and don't write the `outputs/.cache` result
//!   cache;
//! * `--cell-timeout SECS` — wall-clock budget per sweep cell; a cell
//!   that overruns it becomes an explicit deadline failure instead of
//!   hanging the sweep;
//! * `--retries N` — re-run a failed cell (panic, deadline, simulation
//!   error) up to N extra times with a deterministic seeded backoff;
//! * `--retry-seed N` — seed of that backoff schedule (default 42);
//! * `--resume` — reload completed cells from the crash-safe resume
//!   journal and execute only the missing ones;
//! * `--journal-dir DIR` — resume-journal root (default
//!   `outputs/.cache/journal`; `--no-cache` also disables journaling
//!   unless this flag names a directory explicitly).
//!
//! Run one with e.g. `cargo run -p sbrp-bench --release --bin figure6`.

use sbrp_harness::report::Table;
use sbrp_harness::sweep::{FaultPolicy, SweepOpts};
use std::time::Duration;

/// Options shared by all figure binaries.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// Override the per-workload default scale.
    pub scale: Option<u64>,
    /// Use the scaled-down 4-SM GPU instead of the default Table 1
    /// machine (faster, less faithful).
    pub small: bool,
    /// Emit CSV instead of text.
    pub csv: bool,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Write a Chrome-trace timeline of one representative cell here.
    pub trace_out: Option<String>,
    /// Sweep worker threads; `None` (default) uses all hardware
    /// threads, `Some(1)` is serial.
    pub jobs: Option<usize>,
    /// Bypass the on-disk result cache.
    pub no_cache: bool,
    /// Per-cell wall-clock budget in seconds.
    pub cell_timeout: Option<f64>,
    /// Extra attempts for failed cells.
    pub retries: u32,
    /// Seed of the deterministic retry backoff schedule.
    pub retry_seed: u64,
    /// Reload completed cells from the resume journal.
    pub resume: bool,
    /// Resume-journal root; overrides the default and survives
    /// `--no-cache`.
    pub journal_dir: Option<String>,
}

impl Cli {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    /// Panics (with usage help) on unknown flags or a malformed
    /// `--scale`.
    #[must_use]
    pub fn parse() -> Self {
        let mut cli = Cli {
            retry_seed: 42,
            ..Cli::default()
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    let v = args.next().expect("--scale needs a value");
                    cli.scale = Some(v.parse().expect("--scale must be an integer"));
                }
                "--small" => cli.small = true,
                "--csv" => cli.csv = true,
                "--json" => cli.json = true,
                "--trace-out" => {
                    cli.trace_out = Some(args.next().expect("--trace-out needs a file path"));
                }
                "--jobs" => {
                    let v = args.next().expect("--jobs needs a value");
                    let n: usize = v.parse().expect("--jobs must be a positive integer");
                    assert!(n > 0, "--jobs must be at least 1");
                    cli.jobs = Some(n);
                }
                "--no-cache" => cli.no_cache = true,
                "--cell-timeout" => {
                    let v = args.next().expect("--cell-timeout needs a value");
                    let secs: f64 = v.parse().expect("--cell-timeout must be seconds");
                    assert!(
                        secs.is_finite() && secs > 0.0,
                        "--cell-timeout must be positive"
                    );
                    cli.cell_timeout = Some(secs);
                }
                "--retries" => {
                    let v = args.next().expect("--retries needs a value");
                    cli.retries = v.parse().expect("--retries must be an integer");
                }
                "--retry-seed" => {
                    let v = args.next().expect("--retry-seed needs a value");
                    cli.retry_seed = v.parse().expect("--retry-seed must be an integer");
                }
                "--resume" => cli.resume = true,
                "--journal-dir" => {
                    cli.journal_dir = Some(args.next().expect("--journal-dir needs a directory"));
                }
                "--help" | "-h" => {
                    println!(
                        "usage: <figure-bin> [--scale N] [--small] [--csv] [--json] \
                         [--trace-out FILE] [--jobs N] [--no-cache] [--cell-timeout SECS] \
                         [--retries N] [--retry-seed N] [--resume] [--journal-dir DIR]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        cli
    }

    /// The sweep-engine configuration these flags select.
    #[must_use]
    pub fn sweep_opts(&self) -> SweepOpts {
        SweepOpts {
            jobs: self.jobs.unwrap_or(0),
            cache_dir: if self.no_cache {
                None
            } else {
                Some(SweepOpts::default_cache_dir())
            },
            progress: true,
            fault: FaultPolicy {
                cell_timeout: self.cell_timeout.map(Duration::from_secs_f64),
                retries: self.retries,
                retry_seed: self.retry_seed,
            },
            journal_root: match &self.journal_dir {
                Some(dir) => Some(dir.into()),
                None if self.no_cache => None,
                None => Some(SweepOpts::default_journal_root()),
            },
            resume: self.resume,
        }
    }

    /// The scale to use for a workload.
    #[must_use]
    pub fn scale_for(&self, kind: sbrp_workloads::WorkloadKind) -> u64 {
        self.scale
            .unwrap_or_else(|| sbrp_harness::default_scale(kind))
    }

    /// Prints a finished table in the selected format.
    pub fn emit(&self, table: &Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else if self.json {
            print!("{}", table.to_json());
        } else {
            print!("{}", table.to_text());
        }
    }

    /// Writes a timeline as Chrome-trace JSON to `--trace-out`, if set.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn write_trace(&self, timeline: &sbrp_gpu_sim::Timeline) {
        if let Some(path) = &self.trace_out {
            std::fs::write(path, timeline.to_chrome_json())
                .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
            eprintln!("wrote Chrome-trace timeline to {path} (open in Perfetto)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cli_uses_workload_scales() {
        let cli = Cli::default();
        assert_eq!(
            cli.scale_for(sbrp_workloads::WorkloadKind::Gpkvs),
            sbrp_harness::default_scale(sbrp_workloads::WorkloadKind::Gpkvs)
        );
        let cli2 = Cli {
            scale: Some(64),
            ..Cli::default()
        };
        assert_eq!(cli2.scale_for(sbrp_workloads::WorkloadKind::Scan), 64);
    }

    #[test]
    fn fault_flags_map_onto_sweep_opts() {
        let cli = Cli {
            cell_timeout: Some(1.5),
            retries: 3,
            retry_seed: 7,
            resume: true,
            journal_dir: Some("/tmp/j".into()),
            no_cache: true,
            ..Cli::default()
        };
        let opts = cli.sweep_opts();
        assert_eq!(opts.fault.cell_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(opts.fault.retries, 3);
        assert_eq!(opts.fault.retry_seed, 7);
        assert!(opts.resume);
        assert_eq!(opts.cache_dir, None, "--no-cache disables the cache");
        assert_eq!(
            opts.journal_root.as_deref(),
            Some(std::path::Path::new("/tmp/j")),
            "an explicit --journal-dir survives --no-cache"
        );
        // Without an explicit dir, --no-cache disables journaling too.
        let opts = Cli {
            no_cache: true,
            ..Cli::default()
        }
        .sweep_opts();
        assert_eq!(opts.journal_root, None);
    }
}
