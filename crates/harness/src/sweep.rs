//! The parallel sweep engine: every paper experiment is a matrix of
//! independent, deterministic simulations, and this module is the one
//! place that executes such matrices.
//!
//! A sweep is a flat list of **cells** (the [`SweepCell`] trait:
//! `RunSpec` runs, crash/recovery measurements, campaign cells, custom
//! micro cells). The engine
//!
//! * executes cells on a worker pool sized by [`SweepOpts::jobs`]
//!   (default: available hardware parallelism; `1` runs inline on the
//!   calling thread exactly like the historical serial loops);
//! * aggregates outputs **in cell order** regardless of completion
//!   order, so parallel and serial sweeps produce byte-identical
//!   tables and JSON — each cell is a self-contained `Gpu` simulation
//!   with no shared mutable state, making the per-cell result
//!   trivially independent of scheduling;
//! * memoizes finished cells in an on-disk cache keyed by a stable
//!   fingerprint of everything that determines the result (see
//!   [`SweepCell::fingerprint`]), so re-runs skip unchanged cells;
//! * reports progress (`[done/total] cell (ms)`) and collects per-cell
//!   wall-clock into a [`SweepSummary`] for reproduction-budget
//!   bookkeeping.
//!
//! # Fault tolerance
//!
//! Multi-hour campaigns must degrade, not die, so every cell executes
//! inside a fault boundary and resolves to a typed [`CellOutcome`]:
//!
//! * **Panic isolation** — `run` executes under `catch_unwind`; a
//!   panicking cell becomes [`CellOutcome::Panicked`] (an explicit
//!   error row downstream) instead of poisoning the flush mutex and
//!   aborting the whole matrix.
//! * **Cell deadlines** — with [`FaultPolicy::cell_timeout`] set, a
//!   watchdog runs the cell on its own thread and abandons it at the
//!   wall-clock limit, turning hangs into
//!   [`CellOutcome::DeadlineExceeded`].
//! * **Bounded retries** — [`FaultPolicy::retries`] re-runs
//!   transiently-failed cells (panics, deadlines, and outputs the
//!   cell's [`SweepCell::failure`] classifies as failures) with a
//!   seeded backoff schedule ([`retry_backoff_millis`]) that is a pure
//!   function of `(fingerprint, attempt)` — jobs-1 and jobs-N
//!   sweeps stay byte-identical.
//! * **Crash-safe reruns** — the result cache is the resume mechanism.
//!   Every successful cell is published to it by atomic temp-file +
//!   rename the moment it finishes, so after a `kill -9` the same
//!   command re-executes only the cells missing from the cache: the
//!   kill loses at most the in-flight cells. A run without a cache
//!   (`--no-cache`) keeps nothing on disk and restarts from scratch.
//!
//! Cells whose output is a `Result<T, HarnessError>` go through
//! [`run_cells`] (engine failures become typed errors) or
//! [`run_cells_expect`] (any failure aborts the binary with a table of
//! every failing cell).
//!
//! ```no_run
//! use sbrp_harness::sweep::{run_cells, SweepOpts};
//! use sbrp_harness::RunSpec;
//!
//! // Two cells, default parallelism, default cache directory.
//! let specs = vec![RunSpec::default(), RunSpec { seed: 7, ..RunSpec::default() }];
//! let (results, summary) = run_cells(&SweepOpts::default(), &specs);
//! assert_eq!(results.len(), 2);
//! eprintln!("{}", summary.summary_line());
//! ```

use crate::{
    run_recovery, run_workload, HarnessError, RecoveryOutput, RunOutput, RunSpec, CYCLE_LIMIT,
};
use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::json::Json;
use sbrp_gpu_sim::stats::SimStats;
use sbrp_workloads::Launchable;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Bumped whenever the cache serialization or the simulator's observable
/// behaviour changes incompatibly. Every cache record carries it in its
/// envelope and the spec cells fold it into their fingerprints, so stale
/// caches miss instead of serving wrong results.
pub const CACHE_SCHEMA: u64 = 3;

/// Per-cell fault handling: deadlines and retries. Part of
/// [`SweepOpts`]; the defaults (no deadline, no retries) reproduce the
/// historical fail-fast execution except that failures are *contained*
/// rather than fatal.
#[derive(Clone, Debug, Default)]
pub struct FaultPolicy {
    /// Wall-clock budget per cell attempt; `None` means unbounded. When
    /// set, each attempt runs on a watchdog-supervised thread that is
    /// abandoned (left to finish in the background) once the budget is
    /// spent, and the cell resolves to
    /// [`CellOutcome::DeadlineExceeded`].
    pub cell_timeout: Option<Duration>,
    /// Maximum number of *re*-runs after a failed attempt (so a cell
    /// executes at most `retries + 1` times). Applies to panics,
    /// deadline overruns, and outputs classified as failures by
    /// [`SweepCell::failure`].
    pub retries: u32,
}

/// How a sweep executes.
#[derive(Clone, Debug)]
pub struct SweepOpts {
    /// Worker threads; `0` means available hardware parallelism, `1`
    /// runs cells inline on the calling thread (the historical serial
    /// behaviour).
    pub jobs: usize,
    /// Result-cache directory; `None` disables memoization.
    pub cache_dir: Option<PathBuf>,
    /// Print `[done/total] cell (ms)` progress lines to stderr.
    pub progress: bool,
    /// Per-cell deadline and retry policy.
    pub fault: FaultPolicy,
}

impl Default for SweepOpts {
    /// Default parallelism, caching under [`SweepOpts::default_cache_dir`],
    /// progress on.
    fn default() -> Self {
        SweepOpts {
            jobs: 0,
            cache_dir: Some(Self::default_cache_dir()),
            progress: true,
            fault: FaultPolicy::default(),
        }
    }
}

impl SweepOpts {
    /// Serial, cache-less, silent — bit-for-bit the pre-engine
    /// behaviour; what library callers and tests that measure the
    /// simulator itself should use.
    #[must_use]
    pub fn serial() -> Self {
        SweepOpts {
            jobs: 1,
            cache_dir: None,
            progress: false,
            fault: FaultPolicy::default(),
        }
    }

    /// The conventional cache location, `outputs/.cache` under the
    /// current directory.
    #[must_use]
    pub fn default_cache_dir() -> PathBuf {
        PathBuf::from("outputs").join(".cache")
    }

    /// The worker count this configuration resolves to.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.jobs
        }
    }
}

/// One unit of sweep work: independent, deterministic, and (optionally)
/// cacheable.
///
/// Implementations must uphold the engine's two contracts:
///
/// 1. **Determinism** — `run` depends only on the cell's own fields, so
///    executing on any thread, in any order, yields the same output.
/// 2. **Fingerprint completeness** — every input that can change the
///    output is folded into `fingerprint` (the engine uses it as the
///    cache file name and checks it, with [`CACHE_SCHEMA`], in the
///    record's envelope). An under-hashed cell silently serves stale
///    results; when in doubt, hash more.
///
/// The `Clone + Send + 'static` supertraits exist for the deadline
/// watchdog: a timed attempt runs a clone of the cell on a thread the
/// engine may have to abandon, which the borrow checker (rightly)
/// refuses for borrowed cells.
pub trait SweepCell: Sync + Send + Clone + 'static {
    /// The cell's result. `Send + 'static` because workers (and the
    /// deadline watchdog's channel) hand it back across threads.
    type Out: Send + 'static;

    /// Human-readable cell name for progress lines and summaries.
    fn name(&self) -> String;

    /// Stable digest of everything determining the output (config,
    /// kernel, inputs, schema version).
    fn fingerprint(&self) -> u64;

    /// Executes the cell.
    fn run(&self) -> Self::Out;

    /// Classifies a completed output as a failure (returning its
    /// message) or a success (`None`, the default). Failures are
    /// retried under [`FaultPolicy::retries`] and resolve to
    /// [`CellOutcome::Err`] once the budget is spent.
    fn failure(&self, _out: &Self::Out) -> Option<String> {
        None
    }

    /// Serializes an output as the payload of its cache record; `None`
    /// skips caching (the default, and the right choice for errors,
    /// which should re-run). The engine wraps the payload in the
    /// record's envelope.
    fn to_cache(&self, _out: &Self::Out) -> Option<Json> {
        None
    }

    /// Deserializes a cached payload; `None` on any mismatch falls back
    /// to running the cell.
    fn parse_cached(&self, _payload: &Json) -> Option<Self::Out> {
        None
    }
}

/// How one cell of a sweep resolved. `Ok` is the only variant produced
/// by pre-fault-tolerance sweeps; the other three are the contained
/// forms of what used to kill the whole process.
#[derive(Clone, Debug)]
pub enum CellOutcome<T> {
    /// The cell completed and its output classified as a success.
    Ok(T),
    /// The cell completed every attempt, but the final output still
    /// classified as a failure ([`SweepCell::failure`]). The typed
    /// output is preserved alongside the failure message.
    Err {
        /// The final attempt's output.
        out: T,
        /// The failure message of the final attempt.
        message: String,
        /// Total attempts executed (1 + retries spent).
        attempts: u32,
    },
    /// Every attempt panicked; the last panic payload is captured.
    Panicked {
        /// The final panic message.
        message: String,
        /// Total attempts executed.
        attempts: u32,
    },
    /// Every attempt overran the per-cell wall-clock deadline.
    DeadlineExceeded {
        /// The configured budget, in milliseconds.
        limit_millis: u64,
        /// Total attempts executed.
        attempts: u32,
    },
}

impl<T> CellOutcome<T> {
    /// Whether the cell succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }

    /// The typed output, if one exists (`Ok` and `Err` carry one;
    /// panicked and timed-out cells have none).
    #[must_use]
    pub fn output(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok(out) | CellOutcome::Err { out, .. } => Some(out),
            _ => None,
        }
    }

    /// The failure description, if the cell failed.
    #[must_use]
    pub fn error(&self) -> Option<String> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Err {
                message, attempts, ..
            } => Some(format!("failed after {attempts} attempt(s): {message}")),
            CellOutcome::Panicked { message, attempts } => {
                Some(format!("panicked after {attempts} attempt(s): {message}"))
            }
            CellOutcome::DeadlineExceeded {
                limit_millis,
                attempts,
            } => Some(format!(
                "exceeded the {limit_millis} ms cell deadline ({attempts} attempt(s))"
            )),
        }
    }
}

/// The deterministic retry backoff, in milliseconds: a pure function of
/// the cell fingerprint and the (1-based) retry attempt. Exponential
/// base (10 ms doubling per attempt, capped) plus a seeded jitter in
/// `[0, base)`; the total never exceeds 4096 ms. Because the schedule
/// depends on nothing runtime-varying, jobs-1 and jobs-N sweeps retry
/// identically and stay byte-identical.
#[must_use]
pub fn retry_backoff_millis(fingerprint: u64, attempt: u32) -> u64 {
    const SEED: u64 = 42;
    let base = 10u64 << attempt.saturating_sub(1).min(7);
    let jitter = splitmix64(SEED ^ fingerprint.rotate_left(17) ^ u64::from(attempt)) % base;
    (base + jitter).min(4096)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wall-clock record of one executed cell.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// The cell's display name.
    pub name: String,
    /// Execution (or cache-load) time in milliseconds.
    pub millis: u64,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Attempts executed (0 for cache loads).
    pub attempts: u32,
    /// Whether the cell resolved to a non-`Ok` outcome.
    pub failed: bool,
}

/// What a sweep did: totals and per-cell timings, in cell order.
#[derive(Clone, Debug)]
pub struct SweepSummary {
    /// Worker threads actually used.
    pub jobs: usize,
    /// Total wall-clock of the whole sweep in milliseconds.
    pub wall_millis: u64,
    /// Per-cell timings, in cell order.
    pub timings: Vec<CellTiming>,
}

impl SweepSummary {
    /// Number of cells executed or loaded.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.timings.len()
    }

    /// Number of cells served from the cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.timings.iter().filter(|t| t.cached).count()
    }

    /// Number of cells that resolved to a non-`Ok` outcome.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.timings.iter().filter(|t| t.failed).count()
    }

    /// One-line human summary: cells, cache hits, wall-clock, jobs, and
    /// the slowest cell — the line CI prints for trend-watching.
    /// The failed count appears only when nonzero, keeping the
    /// happy-path line stable.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let slowest = self
            .timings
            .iter()
            .filter(|t| !t.cached)
            .max_by_key(|t| t.millis);
        let slowest = match slowest {
            Some(t) => format!("; slowest {} {} ms", t.name, t.millis),
            None => String::new(),
        };
        let failed = match self.failed() {
            0 => String::new(),
            n => format!("; {n} FAILED"),
        };
        format!(
            "sweep: {} cells ({} cached) in {} ms on {} jobs{failed}{slowest}",
            self.cells(),
            self.cache_hits(),
            self.wall_millis,
            self.jobs
        )
    }
}

/// Executes `cells`, returning outcomes in cell order plus the timing
/// summary. See the module docs for the execution and fault model.
pub fn sweep<C: SweepCell>(
    opts: &SweepOpts,
    cells: &[C],
) -> (Vec<CellOutcome<C::Out>>, SweepSummary) {
    sweep_with(opts, cells, |_, _| {})
}

/// Like [`sweep`], but invokes `on_done(index, &outcome)` for every cell
/// **in cell order** as the completed prefix grows — the hook campaign
/// drivers use for streaming per-cell status lines. The hook never runs
/// concurrently with itself and observes cells exactly once each.
pub fn sweep_with<C: SweepCell>(
    opts: &SweepOpts,
    cells: &[C],
    on_done: impl FnMut(usize, &CellOutcome<C::Out>) + Send,
) -> (Vec<CellOutcome<C::Out>>, SweepSummary) {
    let t0 = Instant::now();
    let jobs = opts.effective_jobs().min(cells.len()).max(1);
    let cache = opts.cache_dir.as_deref().inspect(|dir| {
        // Creation failure degrades to cache misses, not sweep failure.
        let _ = std::fs::create_dir_all(dir);
    });

    let mut slots: Vec<Option<(CellOutcome<C::Out>, CellTiming)>> = Vec::new();
    slots.resize_with(cells.len(), || None);

    if jobs <= 1 {
        let mut on_done = on_done;
        for (i, (cell, slot)) in cells.iter().zip(&mut slots).enumerate() {
            let done = run_one(cache, &opts.fault, cell);
            on_done(i, &done.0);
            if opts.progress {
                progress_line(i + 1, cells.len(), &done.1);
            }
            *slot = Some(done);
        }
    } else {
        let next = AtomicUsize::new(0);
        let flush = Mutex::new(FlushState {
            slots: &mut slots,
            flushed: 0,
            on_done,
        });
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let done = run_one(cache, &opts.fault, &cells[i]);
                    // Cell panics are contained by run_one, but recover
                    // from poisoning anyway (e.g. an on_done hook that
                    // panicked on another worker) — one bad observer
                    // must not wedge result aggregation.
                    let mut guard = flush.lock().unwrap_or_else(PoisonError::into_inner);
                    let FlushState {
                        slots,
                        flushed,
                        on_done,
                    } = &mut *guard;
                    slots[i] = Some(done);
                    // Flush the completed prefix in cell order so the
                    // on_done hook and progress lines are deterministic
                    // in content and order (only their timing varies).
                    while let Some((out, timing)) = slots.get(*flushed).and_then(Option::as_ref) {
                        on_done(*flushed, out);
                        *flushed += 1;
                        if opts.progress {
                            progress_line(*flushed, cells.len(), timing);
                        }
                    }
                });
            }
        });
    }

    let mut outs = Vec::with_capacity(cells.len());
    let mut timings = Vec::with_capacity(cells.len());
    for slot in slots {
        let (out, timing) = slot.expect("every cell ran");
        outs.push(out);
        timings.push(timing);
    }
    let summary = SweepSummary {
        jobs,
        wall_millis: t0.elapsed().as_millis() as u64,
        timings,
    };
    (outs, summary)
}

struct FlushState<'a, Out, F> {
    slots: &'a mut Vec<Option<(CellOutcome<Out>, CellTiming)>>,
    flushed: usize,
    on_done: F,
}

fn progress_line(done: usize, total: usize, t: &CellTiming) {
    let source = if t.cached { " (cached)" } else { "" };
    let attempts = if t.attempts > 1 {
        format!(" ({} attempts)", t.attempts)
    } else {
        String::new()
    };
    let failed = if t.failed { " FAILED" } else { "" };
    eprintln!(
        "[{done}/{total}] {} {} ms{source}{attempts}{failed}",
        t.name, t.millis
    );
}

/// One attempt's raw result, before retry accounting.
enum Attempt<T> {
    Finished(T),
    Panicked(String),
    TimedOut(u64),
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one attempt of `cell` inside the fault boundary. Without a
/// deadline the attempt runs inline under `catch_unwind`; with one, it
/// runs a clone of the cell on a watchdog thread that is abandoned
/// (detached, left to wind down on its own) if the budget expires — a
/// hung simulation costs its thread, never the sweep.
fn attempt_run<C: SweepCell>(cell: &C, timeout: Option<Duration>) -> Attempt<C::Out> {
    match timeout {
        None => match catch_unwind(AssertUnwindSafe(|| cell.run())) {
            Ok(out) => Attempt::Finished(out),
            Err(payload) => Attempt::Panicked(panic_message(payload.as_ref())),
        },
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            let runner = cell.clone();
            let spawned = std::thread::Builder::new()
                .name("sbrp-sweep-cell".into())
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| runner.run()));
                    // The receiver may have given up; a dead channel
                    // just discards the late result.
                    let _ = tx.send(result.map_err(|p| panic_message(p.as_ref())));
                });
            match spawned {
                Err(e) => Attempt::Panicked(format!("could not spawn cell thread: {e}")),
                Ok(_) => match rx.recv_timeout(limit) {
                    Ok(Ok(out)) => Attempt::Finished(out),
                    Ok(Err(message)) => Attempt::Panicked(message),
                    Err(_) => Attempt::TimedOut(limit.as_millis() as u64),
                },
            }
        }
    }
}

/// Reads the cached payload of the cell with fingerprint `key`: the
/// record must parse and its envelope must carry [`CACHE_SCHEMA`] and
/// `key`, or the cell is a miss.
fn read_record(path: &Path, key: &str) -> Option<Json> {
    let record = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    if record.get("schema")?.as_u64()? != CACHE_SCHEMA || record.get("fp")?.as_str()? != key {
        return None;
    }
    record.get("payload").cloned()
}

/// Writes `contents` to `path` atomically: first to a unique `.tmp`
/// sibling on the same filesystem, then published with a `rename`. A
/// crash (or `kill -9`) at any point leaves either the old file or the
/// new one — never a torn record — which is what makes the result cache
/// safe to trust, and to resume from, after an interrupted sweep.
///
/// # Errors
/// The underlying I/O error if the temp write or rename fails; the
/// stray temp file is cleaned up on a failed rename.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    // pid + counter make the temp name unique across processes and
    // across threads of one process writing siblings concurrently.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("write_atomic: path has no file name"))?;
    let tmp = path.with_file_name(format!(
        "{}.{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn run_one<C: SweepCell>(
    cache: Option<&Path>,
    fault: &FaultPolicy,
    cell: &C,
) -> (CellOutcome<C::Out>, CellTiming) {
    let t0 = Instant::now();
    let fp = cell.fingerprint();
    let key = Fingerprint::hex(fp);
    let timing = |cached: bool, attempts: u32, failed: bool| CellTiming {
        name: cell.name(),
        millis: t0.elapsed().as_millis() as u64,
        cached,
        attempts,
        failed,
    };

    // 1. The result cache: a record is a finished run of this very cell.
    let cache_path = cache.map(|dir| dir.join(format!("{key}.json")));
    if let Some(out) = cache_path
        .as_deref()
        .and_then(|path| read_record(path, &key))
        .and_then(|payload| cell.parse_cached(&payload))
    {
        return (CellOutcome::Ok(out), timing(true, 0, false));
    }

    // 2. Execute, with bounded retries behind the fault boundary.
    let mut attempts = 0u32;
    let outcome = loop {
        attempts += 1;
        let exhausted = attempts > fault.retries;
        match attempt_run(cell, fault.cell_timeout) {
            Attempt::Finished(out) => match cell.failure(&out) {
                None => break CellOutcome::Ok(out),
                Some(message) if exhausted => {
                    break CellOutcome::Err {
                        out,
                        message,
                        attempts,
                    }
                }
                Some(_) => {}
            },
            Attempt::Panicked(message) => {
                if exhausted {
                    break CellOutcome::Panicked { message, attempts };
                }
            }
            Attempt::TimedOut(limit_millis) => {
                if exhausted {
                    break CellOutcome::DeadlineExceeded {
                        limit_millis,
                        attempts,
                    };
                }
            }
        }
        std::thread::sleep(Duration::from_millis(retry_backoff_millis(fp, attempts)));
    };

    // 3. Publish a successful outcome by atomic temp-file + rename, so
    //    a kill mid-write can never leave a torn record. A failed write
    //    only costs the memoization, never the sweep.
    if let (CellOutcome::Ok(out), Some(path)) = (&outcome, &cache_path) {
        if let Some(payload) = cell.to_cache(out) {
            let record = Json::Obj(vec![
                ("schema".into(), Json::U64(CACHE_SCHEMA)),
                ("fp".into(), Json::Str(key)),
                ("payload".into(), payload),
            ]);
            let _ = write_atomic(path, &record.render());
        }
    }
    let failed = !outcome.is_ok();
    (outcome, timing(false, attempts, failed))
}

// ---------------------------------------------------------------------
// RunSpec cells (the figure/table sweeps)
// ---------------------------------------------------------------------

/// Folds everything a [`RunSpec`] simulation depends on into `fp`: the
/// schema version, the full resolved `GpuConfig`, the spec's workload
/// inputs, and the built kernels (main and recovery) with their launch
/// geometry. The kernel disassembly makes workload-builder changes
/// invalidate caches automatically.
fn fingerprint_spec(fp: &mut Fingerprint, spec: &RunSpec) {
    fp.write_u64(CACHE_SCHEMA);
    fp.write_str(&format!("{:?}", spec.config()));
    fp.write_str(&format!("{:?}", spec.workload));
    fp.write_u64(spec.scale);
    fp.write_u64(spec.seed);
    fp.write_u64(u64::from(spec.demote_scopes));
    let w = spec.workload.instantiate(spec.scale, spec.seed);
    let opts = sbrp_workloads::BuildOpts {
        model: spec.model,
        demote_scopes: spec.demote_scopes,
    };
    for l in std::iter::once(w.kernel(opts)).chain(w.recovery(opts)) {
        fingerprint_launch(fp, &l);
    }
}

/// Folds one built kernel into `fp`: its name, its complete
/// disassembly, its parameters and its launch geometry.
pub(crate) fn fingerprint_launch(fp: &mut Fingerprint, l: &Launchable) {
    fp.write_str(l.kernel.name());
    fp.write_str(&l.kernel.disassemble());
    for &p in l.kernel.params().iter() {
        fp.write_u64(p);
    }
    fp.write_u64(u64::from(l.launch.blocks));
    fp.write_u64(u64::from(l.launch.threads_per_block));
}

/// The cache fingerprint of a crash-free [`RunSpec`] cell, exposed for
/// cache-management tooling and tests.
#[must_use]
pub fn spec_fingerprint(spec: &RunSpec) -> u64 {
    let mut fp = Fingerprint::new();
    fp.write_str("run");
    fingerprint_spec(&mut fp, spec);
    fp.finish()
}

impl SweepCell for RunSpec {
    type Out = Result<RunOutput, HarnessError>;

    fn name(&self) -> String {
        self.cell_name()
    }

    fn fingerprint(&self) -> u64 {
        spec_fingerprint(self)
    }

    fn run(&self) -> Self::Out {
        run_workload(self)
    }

    fn failure(&self, out: &Self::Out) -> Option<String> {
        out.as_ref().err().map(ToString::to_string)
    }

    fn to_cache(&self, out: &Self::Out) -> Option<Json> {
        let out = out.as_ref().ok()?;
        Some(Json::Obj(vec![
            ("run_cycles".into(), Json::U64(out.cycles)),
            ("verified".into(), Json::Bool(out.verified)),
            ("stats".into(), out.stats.to_json_value()),
        ]))
    }

    fn parse_cached(&self, v: &Json) -> Option<Self::Out> {
        let stats = SimStats::from_json(v.get("stats")?).ok()?;
        Some(Ok(RunOutput {
            cycles: v.get("run_cycles")?.as_u64()?,
            stats,
            verified: v.get("verified")?.as_bool()?,
        }))
    }
}

/// A crash-at-`fraction` + recovery measurement cell (Fig. 11).
#[derive(Clone, Debug)]
pub struct RecoveryCell {
    /// The cell to crash and recover.
    pub spec: RunSpec,
    /// Crash point as a fraction of the crash-free runtime.
    pub fraction: f64,
}

impl SweepCell for RecoveryCell {
    type Out = Result<RecoveryOutput, HarnessError>;

    fn name(&self) -> String {
        format!("{} recovery@{}", self.spec.cell_name(), self.fraction)
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str("recovery");
        fp.write_f64(self.fraction);
        fp.write_u64(CYCLE_LIMIT);
        fingerprint_spec(&mut fp, &self.spec);
        fp.finish()
    }

    fn run(&self) -> Self::Out {
        run_recovery(&self.spec, self.fraction)
    }

    fn failure(&self, out: &Self::Out) -> Option<String> {
        out.as_ref().err().map(ToString::to_string)
    }

    fn to_cache(&self, out: &Self::Out) -> Option<Json> {
        let out = out.as_ref().ok()?;
        Some(Json::Obj(vec![
            ("crash_cycle".into(), Json::U64(out.crash_cycle)),
            ("recovery_cycles".into(), Json::U64(out.recovery_cycles)),
            ("crash_free_cycles".into(), Json::U64(out.crash_free_cycles)),
            ("verified".into(), Json::Bool(out.verified)),
        ]))
    }

    fn parse_cached(&self, v: &Json) -> Option<Self::Out> {
        Some(Ok(RecoveryOutput {
            crash_cycle: v.get("crash_cycle")?.as_u64()?,
            recovery_cycles: v.get("recovery_cycles")?.as_u64()?,
            crash_free_cycles: v.get("crash_free_cycles")?.as_u64()?,
            verified: v.get("verified")?.as_bool()?,
        }))
    }
}

/// Sweeps cells whose output is a `Result`, flattening each outcome
/// into the harness's single error channel: a failed run keeps its own
/// error, and engine-level failures (panics, deadlines) become
/// [`HarnessError::Panicked`] / [`HarnessError::Deadline`] rows.
pub fn run_cells<C, T>(
    opts: &SweepOpts,
    cells: &[C],
) -> (Vec<Result<T, HarnessError>>, SweepSummary)
where
    C: SweepCell<Out = Result<T, HarnessError>>,
{
    let (outcomes, summary) = sweep(opts, cells);
    let results = cells
        .iter()
        .zip(outcomes)
        .map(|(cell, outcome)| match outcome {
            CellOutcome::Ok(r) | CellOutcome::Err { out: r, .. } => r,
            CellOutcome::Panicked { message, .. } => Err(HarnessError::Panicked {
                cell: cell.name(),
                message,
            }),
            CellOutcome::DeadlineExceeded { limit_millis, .. } => Err(HarnessError::Deadline {
                cell: cell.name(),
                limit_millis,
            }),
        })
        .collect();
    (results, summary)
}

/// Like [`run_cells`] but for binaries: either every cell succeeded, or
/// this prints a table naming **every** failing cell to stderr and exits
/// the process with a nonzero status.
#[must_use]
pub fn run_cells_expect<C, T>(opts: &SweepOpts, cells: &[C]) -> (Vec<T>, SweepSummary)
where
    C: SweepCell<Out = Result<T, HarnessError>>,
{
    let (results, summary) = run_cells(opts, cells);
    let mut failures = Vec::new();
    let outs = cells
        .iter()
        .zip(results)
        .filter_map(|(cell, r)| r.map_err(|e| failures.push((cell.name(), e.detail()))).ok())
        .collect();
    if failures.is_empty() {
        return (outs, summary);
    }
    eprint!("{}", crate::report::failures_table(&failures).to_text());
    eprintln!("sweep: {} cell(s) failed; aborting", failures.len());
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct SquareCell(u64);

    impl SweepCell for SquareCell {
        type Out = u64;
        fn name(&self) -> String {
            format!("sq{}", self.0)
        }
        fn fingerprint(&self) -> u64 {
            self.0
        }
        fn run(&self) -> u64 {
            self.0 * self.0
        }
    }

    fn opts(jobs: usize) -> SweepOpts {
        SweepOpts {
            jobs,
            ..SweepOpts::serial()
        }
    }

    fn values(outcomes: Vec<CellOutcome<u64>>) -> Vec<u64> {
        outcomes
            .into_iter()
            .map(|o| match o {
                CellOutcome::Ok(v) => v,
                other => panic!("unexpected outcome {other:?}"),
            })
            .collect()
    }

    #[test]
    fn outputs_follow_cell_order_at_any_parallelism() {
        let cells: Vec<SquareCell> = (0..50).map(SquareCell).collect();
        let expected: Vec<u64> = (0..50u64).map(|i| i * i).collect();
        for jobs in [1, 2, 4, 16] {
            let (outs, summary) = sweep(&opts(jobs), &cells);
            assert_eq!(values(outs), expected, "jobs={jobs}");
            assert_eq!(summary.cells(), 50);
            assert_eq!(summary.cache_hits(), 0);
            assert_eq!(summary.failed(), 0);
            assert_eq!(summary.jobs, jobs.min(50));
        }
    }

    #[test]
    fn on_done_hook_sees_cells_in_order_exactly_once() {
        let cells: Vec<SquareCell> = (0..40).map(SquareCell).collect();
        for jobs in [1, 8] {
            let mut seen = Vec::new();
            sweep_with(&opts(jobs), &cells, |i, out| match out {
                CellOutcome::Ok(v) => seen.push((i, *v)),
                other => panic!("unexpected outcome {other:?}"),
            });
            let expected: Vec<(usize, u64)> =
                (0..40).map(|i| (i, (i as u64) * (i as u64))).collect();
            assert_eq!(seen, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        let (outs, summary) = sweep::<SquareCell>(&opts(4), &[]);
        assert!(outs.is_empty());
        assert_eq!(summary.cells(), 0);
        assert!(summary.summary_line().contains("0 cells"));
    }

    #[test]
    fn backoff_is_pure_and_bounded() {
        for fp in [1u64, u64::MAX, 0x1234_5678] {
            for attempt in 1..=12u32 {
                let a = retry_backoff_millis(fp, attempt);
                let b = retry_backoff_millis(fp, attempt);
                assert_eq!(a, b, "schedule must be pure");
                assert!(a <= 4096, "backoff capped at 4096 ms, got {a}");
                assert!(a >= 10, "backoff at least the 10 ms base, got {a}");
            }
        }
        // Distinct fingerprints must actually steer the jitter somewhere.
        let any_differs =
            (1..=8u32).any(|k| retry_backoff_millis(99, k) != retry_backoff_millis(100, k));
        assert!(any_differs, "fingerprint must influence the schedule");
    }

    #[test]
    fn write_atomic_publishes_whole_files_and_leaves_no_temps() {
        let dir = std::env::temp_dir().join(format!("sbrp-write-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.json");
        write_atomic(&path, "{\"a\":1}").unwrap();
        write_atomic(&path, "{\"a\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\":2}");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path() != path)
            .collect();
        assert!(
            stray.is_empty(),
            "temp siblings must not survive: {stray:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_fingerprint_distinguishes_inputs() {
        let a = RunSpec::default();
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&a.clone()));
        for mutated in [
            RunSpec {
                seed: 43,
                ..a.clone()
            },
            RunSpec {
                scale: a.scale + 1,
                ..a.clone()
            },
            RunSpec {
                small_gpu: true,
                ..a.clone()
            },
            RunSpec {
                model: sbrp_core::ModelKind::Epoch,
                ..a.clone()
            },
            RunSpec {
                nvm_bw_scale: 2.0,
                ..a.clone()
            },
            RunSpec {
                demote_scopes: true,
                ..a.clone()
            },
        ] {
            assert_ne!(
                spec_fingerprint(&a),
                spec_fingerprint(&mutated),
                "{mutated:?} must change the fingerprint"
            );
        }
    }
}
