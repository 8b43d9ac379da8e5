//! # sbrp-bench
//!
//! The paper-evaluation harness: one binary per table/figure of §7
//! (`table1`, `table2`, `figure6` … `figure11`), the `serve`,
//! `campaign`, `mc` and `lint` engines, plus the `benchmark` binary that
//! `BENCHMARK.json` declares.
//!
//! Every figure binary, `serve` and `campaign` accepts the standard
//! sweep flags of [`Cli`]:
//!
//! * `--scale N` — override the per-workload default size;
//! * `--small` — simulate a scaled-down 4-SM GPU instead of the paper's
//!   30-SM Table 1 machine (faster, same qualitative shapes);
//! * `--csv` or `--json` — emit CSV or JSON instead of an aligned text
//!   table (not both); a binary with several tables prints them as one
//!   JSON array;
//! * `--trace-out FILE` — also write a Chrome-trace JSON timeline
//!   (load it in Perfetto / `chrome://tracing`) for a representative
//!   cell; binaries that don't trace ignore it;
//! * `--jobs N` — worker threads for the sweep (default: all hardware
//!   threads; `--jobs 1` reproduces the historical serial behaviour,
//!   byte-identically);
//! * `--no-cache` — ignore and don't write the `outputs/.cache` result
//!   cache. The cache is also what makes a killed sweep resumable: the
//!   same command, run again, re-executes only the cells missing from
//!   it, so a `--no-cache` run restarts from scratch;
//! * `--cell-timeout SECS` — wall-clock budget per sweep cell; a cell
//!   that overruns it becomes an explicit deadline failure instead of
//!   hanging the sweep.
//!
//! Figures 6, 8, 9, 10a–c and the ablation share one shape — a row per
//! application, each column one cell's value over a baseline cell of
//! its row — and each declares its table as a [`RatioTable`] that
//! [`Cli::ratio_tables`] runs and prints.
//!
//! Every binary but `benchmark` parses its command line with
//! [`parse_env`]: `--help` prints the usage line and exits 0, and a
//! malformed command line prints `error: …` and the usage line to
//! stderr and exits 2.
//!
//! Run one with e.g. `cargo run -p sbrp-bench --release --bin figure6`.

use sbrp_core::json::Json;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::{run_cells_expect, SweepOpts};
use sbrp_harness::{geomean, RunOutput, RunSpec};
use sbrp_workloads::WorkloadKind;
use std::fmt;
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

/// A malformed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UsageError {
    /// A flag the binary does not know.
    UnknownFlag(String),
    /// A flag that takes a value was the last argument.
    MissingValue(String),
    /// A value that does not parse or is out of range.
    InvalidValue { flag: String, value: String },
    /// Two flags that exclude each other.
    Conflict(&'static str, &'static str),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            UsageError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            UsageError::InvalidValue { flag, value } => {
                write!(f, "invalid value {value:?} for {flag}")
            }
            UsageError::Conflict(a, b) => write!(f, "{a} and {b} exclude each other"),
        }
    }
}

impl std::error::Error for UsageError {}

/// The value of the flag being applied: the next argument, consumed
/// only by a flag that takes one.
pub struct Value<'a> {
    flag: &'a str,
    args: &'a mut dyn Iterator<Item = String>,
}

impl Value<'_> {
    /// The value as given.
    ///
    /// # Errors
    /// [`UsageError::MissingValue`] if the flag was the last argument.
    pub fn string(self) -> Result<String, UsageError> {
        let flag = self.flag;
        self.args
            .next()
            .ok_or_else(|| UsageError::MissingValue(flag.into()))
    }

    /// The value converted by `parse`, which returns `None` for an
    /// invalid one.
    ///
    /// # Errors
    /// A missing or invalid value.
    pub fn parse_with<T>(self, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, UsageError> {
        let flag = self.flag;
        let value = self.string()?;
        parse(&value).ok_or_else(|| UsageError::InvalidValue {
            flag: flag.into(),
            value,
        })
    }

    /// The value parsed as a `T` for which `check` holds.
    ///
    /// # Errors
    /// A missing value, one that does not parse, or one `check` rejects.
    pub fn value<T: FromStr>(self, check: impl FnOnce(&T) -> bool) -> Result<T, UsageError> {
        self.parse_with(|s| s.parse().ok().filter(check))
    }

    /// The value parsed as a number greater than zero.
    ///
    /// # Errors
    /// A missing value, one that does not parse, or one not above zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(self) -> Result<T, UsageError> {
        self.value(|n| *n > T::default())
    }
}

/// A binary's flags: [`Default`] holds the values of absent flags.
pub trait Flags: Default {
    /// The usage line after the binary's name.
    fn usage() -> String;

    /// Applies `flag`, taking its value, if it has one, from `value`.
    /// Returns `Ok(false)` for a flag that is not one of these.
    ///
    /// # Errors
    /// A missing or invalid value, or a flag that conflicts with one
    /// applied before it.
    fn flag(&mut self, flag: &str, value: Value<'_>) -> Result<bool, UsageError>;
}

/// Parses a command line without the program name; `Ok(None)` asks for
/// the usage line (`--help` or `-h`).
///
/// # Errors
/// The first malformed flag or value.
pub fn parse<F: Flags>(args: impl IntoIterator<Item = String>) -> Result<Option<F>, UsageError> {
    let mut flags = F::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = Value {
            flag: &flag,
            args: &mut args,
        };
        if !flags.flag(&flag, value)? {
            return Err(UsageError::UnknownFlag(flag));
        }
    }
    Ok(Some(flags))
}

/// Parses the process's command line. `--help` prints the usage line to
/// stdout and exits 0; a usage error prints `error: …` and the usage
/// line to stderr and exits 2.
#[must_use]
pub fn parse_env<F: Flags>() -> F {
    let mut args = std::env::args();
    let argv0 = args.next().unwrap_or_default();
    let bin = Path::new(&argv0).file_stem().unwrap_or_default();
    let usage = format!("usage: {} {}", bin.to_string_lossy(), F::usage());
    match parse(args) {
        Ok(Some(flags)) => flags,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// The standard sweep flags, shared by the figure binaries, `serve` and
/// `campaign`.
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
    /// Sweep worker threads; 0 (default) uses all hardware threads, 1
    /// is serial.
    pub jobs: usize,
    /// Bypass the on-disk result cache.
    pub no_cache: bool,
    /// Wall-clock budget per sweep cell.
    pub cell_timeout: Option<Duration>,
}

impl Flags for Cli {
    fn usage() -> String {
        "[--scale N] [--small] [--csv|--json] [--trace-out FILE] [--jobs N] [--no-cache] \
         [--cell-timeout SECS]"
            .into()
    }

    fn flag(&mut self, flag: &str, value: Value<'_>) -> Result<bool, UsageError> {
        match flag {
            "--scale" => self.scale = Some(value.value(|_| true)?),
            "--small" => self.small = true,
            "--csv" if self.json => return Err(UsageError::Conflict("--json", "--csv")),
            "--json" if self.csv => return Err(UsageError::Conflict("--csv", "--json")),
            "--csv" => self.csv = true,
            "--json" => self.json = true,
            "--trace-out" => self.trace_out = Some(value.string()?),
            "--jobs" => self.jobs = value.positive()?,
            "--no-cache" => self.no_cache = true,
            "--cell-timeout" => {
                self.cell_timeout = Some(value.parse_with(|s| {
                    let secs = s.parse().ok().filter(|&secs: &f64| secs > 0.0)?;
                    Duration::try_from_secs_f64(secs).ok()
                })?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

impl Cli {
    /// Parses the process's command line with [`parse_env`].
    #[must_use]
    pub fn parse() -> Self {
        parse_env()
    }

    /// The sweep-engine configuration these flags select.
    #[must_use]
    pub fn sweep_opts(&self) -> SweepOpts {
        SweepOpts {
            jobs: self.jobs,
            cache_dir: if self.no_cache {
                None
            } else {
                Some(SweepOpts::default_cache_dir())
            },
            progress: true,
            cell_timeout: self.cell_timeout,
        }
    }

    /// The scale to use for a workload.
    #[must_use]
    pub fn scale_for(&self, kind: WorkloadKind) -> u64 {
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

    /// Prints several tables: with `--json` as one JSON array of them,
    /// otherwise each as [`Cli::emit`] does, followed by a blank line.
    pub fn emit_all(&self, tables: &[Table]) {
        if self.json {
            let tables = tables.iter().map(Table::to_json_value).collect();
            print!("{}", Json::Arr(tables).pretty());
        } else {
            for table in tables {
                self.emit(table);
                println!();
            }
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

    /// Runs every row of `tables` in one sweep (table by table, each in
    /// [`WorkloadKind::ALL`] order) and prints the tables: one as
    /// [`Cli::emit`] does, several as [`Cli::emit_all`] does.
    ///
    /// # Panics
    /// Panics if a run fails verification.
    pub fn ratio_tables(&self, tables: &[RatioTable]) {
        let specs: Vec<RunSpec> = tables
            .iter()
            .flat_map(|t| {
                WorkloadKind::ALL.into_iter().flat_map(move |kind| {
                    t.cells.iter().map(move |cell| RunSpec {
                        workload: kind,
                        scale: self.scale_for(kind),
                        small_gpu: self.small,
                        ..cell.clone()
                    })
                })
            })
            .collect();
        let (outs, summary) = run_cells_expect(&self.sweep_opts(), &specs);
        for (spec, out) in specs.iter().zip(&outs) {
            assert!(out.verified, "{} failed verification", spec.cell_name());
        }
        let mut rows = &outs[..];
        let mut rendered = Vec::new();
        for t in tables {
            let headers: Vec<&str> = std::iter::once("app")
                .chain(t.columns.iter().map(|c| c.0))
                .collect();
            let mut table = Table::new(t.title.clone(), &headers);
            let mut per_column = vec![Vec::new(); t.columns.len()];
            for kind in WorkloadKind::ALL {
                let (row, rest) = rows.split_at(t.cells.len());
                rows = rest;
                let values: Vec<f64> = t
                    .columns
                    .iter()
                    .map(|&(_, base, cell)| (t.value)(&row[base], &row[cell]))
                    .collect();
                for (column, &v) in per_column.iter_mut().zip(&values) {
                    column.push(v);
                }
                table.row_f64(kind.label(), &values);
            }
            if let Some(label) = t.mean {
                let means: Vec<f64> = per_column.iter().map(|c| geomean(c)).collect();
                table.row_f64(label, &means);
            }
            rendered.push(table);
        }
        match &rendered[..] {
            [table] => self.emit(table),
            tables => self.emit_all(tables),
        }
        eprintln!("{}", summary.summary_line());
    }
}

/// The speedup of a run over its baseline: the baseline's cycles over
/// the run's.
#[must_use]
pub fn speedup(base: &RunOutput, cell: &RunOutput) -> f64 {
    base.cycles as f64 / cell.cycles as f64
}

/// One table of the shape most §7 figures share: a row per
/// application, every row running the same cells, and each column one
/// cell's value relative to a baseline cell of its row.
pub struct RatioTable {
    /// The table's title.
    pub title: String,
    /// Each row's cells, in run order. The row sets their workload, its
    /// scale and the GPU size.
    pub cells: Vec<RunSpec>,
    /// Each column's label, baseline cell and cell, as indices into
    /// `cells`.
    pub columns: Vec<(&'static str, usize, usize)>,
    /// A column's value, from its baseline's run and its cell's run.
    pub value: fn(&RunOutput, &RunOutput) -> f64,
    /// The label of a closing geometric-mean row, if there is one.
    pub mean: Option<&'static str>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Option<Cli>, UsageError> {
        parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn default_cli_uses_workload_scales() {
        let cli = Cli::default();
        assert_eq!(
            cli.scale_for(WorkloadKind::Gpkvs),
            sbrp_harness::default_scale(WorkloadKind::Gpkvs)
        );
        let cli2 = Cli {
            scale: Some(64),
            ..Cli::default()
        };
        assert_eq!(cli2.scale_for(WorkloadKind::Scan), 64);
    }

    #[test]
    fn fault_flags_map_onto_sweep_opts() {
        let opts = cli(&["--cell-timeout", "1.5", "--no-cache"])
            .expect("valid")
            .expect("not --help")
            .sweep_opts();
        assert_eq!(opts.cell_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(opts.cache_dir, None, "--no-cache disables the cache");
        // With no flags: the conventional cache and no deadline.
        let opts = cli(&[]).unwrap().unwrap().sweep_opts();
        assert_eq!(opts.cell_timeout, None);
        assert_eq!(opts.cache_dir, Some(SweepOpts::default_cache_dir()));
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        let invalid = |flag: &str, value: &str| UsageError::InvalidValue {
            flag: flag.into(),
            value: value.into(),
        };
        for (args, want) in [
            (&["--jobs"][..], UsageError::MissingValue("--jobs".into())),
            (&["--jobs", "0"], invalid("--jobs", "0")),
            (&["--scale", "x"], invalid("--scale", "x")),
            (&["--cell-timeout", "nan"], invalid("--cell-timeout", "nan")),
            (&["--cell-timeout", "0"], invalid("--cell-timeout", "0")),
            (
                &["--cell-timeout", "1e300"],
                invalid("--cell-timeout", "1e300"),
            ),
            (
                &["--csv", "--json"],
                UsageError::Conflict("--csv", "--json"),
            ),
            (
                &["--json", "--csv"],
                UsageError::Conflict("--json", "--csv"),
            ),
            (
                &["--small", "--bogus"],
                UsageError::UnknownFlag("--bogus".into()),
            ),
            (
                &["--retries", "1"],
                UsageError::UnknownFlag("--retries".into()),
            ),
        ] {
            assert_eq!(cli(args).unwrap_err(), want, "{args:?}");
        }
        assert_eq!(
            UsageError::UnknownFlag("--bogus".into()).to_string(),
            "unknown flag --bogus"
        );
        assert!(cli(&["--small", "--help", "--bogus"]).unwrap().is_none());
        let ok = cli(&["--json", "--json", "--jobs", "2"]).unwrap().unwrap();
        assert!(ok.json && !ok.csv);
        assert_eq!(ok.jobs, 2);
    }
}
