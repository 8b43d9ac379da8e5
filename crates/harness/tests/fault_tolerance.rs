//! Torture tests for the sweep engine's fault-tolerance layer:
//! injected panics, hangs, and transient failures must degrade to
//! typed [`CellOutcome`]s — never kill the sweep — while succeeding
//! cells keep producing byte-identical output at any `--jobs`, and a
//! rerun on the result cache recovers a killed sweep without re-running
//! finished cells.

use sbrp_core::json::Json;
use sbrp_harness::sweep::{
    retry_backoff_millis, run_cells, sweep, CellOutcome, SweepCell, SweepOpts,
};
use sbrp_harness::HarnessError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a torture cell does when executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Return `id * 10` successfully.
    Ok,
    /// Panic on every attempt.
    PanicAlways,
    /// Panic on the first `n` attempts, then succeed.
    PanicFirst(u32),
    /// Return a failure-classified output on the first `n` attempts.
    ErrFirst(u32),
    /// Sleep far past any test deadline (bounded so an engine bug can't
    /// wedge the test binary forever).
    Hang,
}

/// A fault-injection cell. `runs` counts executions across attempts and
/// clones (the deadline watchdog runs a clone), shared via `Arc` so
/// every copy reports into the same counter.
#[derive(Clone)]
struct TortureCell {
    id: u64,
    mode: Mode,
    runs: Arc<AtomicU32>,
}

impl TortureCell {
    fn new(id: u64, mode: Mode) -> Self {
        TortureCell {
            id,
            mode,
            runs: Arc::new(AtomicU32::new(0)),
        }
    }
}

impl SweepCell for TortureCell {
    type Out = Result<u64, HarnessError>;

    fn name(&self) -> String {
        format!("torture-{}", self.id)
    }

    fn fingerprint(&self) -> u64 {
        // Intentionally ignores `mode`: a "fixed" cell (different mode,
        // same id) is served from the cache a failing run wrote,
        // mirroring a re-invocation of the same sweep.
        0xBAD_F00D ^ self.id
    }

    fn run(&self) -> Self::Out {
        let attempt = self.runs.fetch_add(1, Ordering::SeqCst) + 1;
        match self.mode {
            Mode::Ok => Ok(self.id * 10),
            Mode::PanicAlways => panic!("injected panic in cell {}", self.id),
            Mode::PanicFirst(n) if attempt <= n => {
                panic!("transient panic {attempt} in cell {}", self.id)
            }
            Mode::PanicFirst(_) => Ok(self.id * 10),
            Mode::ErrFirst(n) if attempt <= n => Err(HarnessError::Outcome {
                cell: self.name(),
                detail: format!("transient error {attempt}"),
            }),
            Mode::ErrFirst(_) => Ok(self.id * 10),
            Mode::Hang => {
                std::thread::sleep(Duration::from_secs(60));
                Ok(self.id * 10)
            }
        }
    }

    fn failure(&self, out: &Self::Out) -> Option<String> {
        out.as_ref().err().map(HarnessError::detail)
    }

    fn to_cache(&self, out: &Self::Out) -> Option<Json> {
        Some(Json::U64(*out.as_ref().ok()?))
    }

    fn parse_cached(&self, payload: &Json) -> Option<Self::Out> {
        Some(Ok(payload.as_u64()?))
    }
}

/// Serial opts with no cache — fault policy added by each test as
/// needed.
fn opts(jobs: usize) -> SweepOpts {
    SweepOpts {
        jobs,
        ..SweepOpts::serial()
    }
}

/// A unique throwaway directory; removed by the returned guard.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sbrp-fault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Renders outcomes to the bytes a report would carry — the comparison
/// key for determinism checks.
fn render(outcomes: &[CellOutcome<Result<u64, HarnessError>>]) -> String {
    outcomes
        .iter()
        .map(|o| match o {
            CellOutcome::Ok(v) => format!("ok={v:?}\n"),
            other => format!("err={}\n", other.error().unwrap()),
        })
        .collect()
}

#[test]
fn injected_panic_degrades_to_a_typed_outcome_not_a_dead_sweep() {
    let cells = vec![
        TortureCell::new(1, Mode::Ok),
        TortureCell::new(2, Mode::PanicAlways),
        TortureCell::new(3, Mode::Ok),
    ];
    let (outcomes, summary) = sweep(&opts(2), &cells);
    assert!(matches!(&outcomes[0], CellOutcome::Ok(Ok(10))));
    match &outcomes[1] {
        CellOutcome::Panicked { message, attempts } => {
            assert!(message.contains("injected panic in cell 2"), "{message}");
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    assert!(matches!(&outcomes[2], CellOutcome::Ok(Ok(30))));
    assert_eq!(summary.failed(), 1);
    assert!(summary.summary_line().contains("1 FAILED"));

    // The flattened results name the failing cell and keep the rest.
    let (results, _) = run_cells(&opts(2), &cells);
    assert!(matches!(&results[0], Ok(10)) && matches!(&results[2], Ok(30)));
    match &results[1] {
        Err(HarnessError::Panicked { cell, message }) => {
            assert_eq!(cell, "torture-2");
            assert!(message.contains("injected panic in cell 2"), "{message}");
        }
        other => panic!("expected a Panicked error, got {other:?}"),
    }
}

#[test]
fn hanging_cell_is_caught_by_the_deadline_watchdog() {
    let cells = vec![
        TortureCell::new(1, Mode::Ok),
        TortureCell::new(2, Mode::Hang),
    ];
    let mut o = opts(1);
    o.fault.cell_timeout = Some(Duration::from_millis(100));
    let (outcomes, _) = sweep(&o, &cells);
    assert!(matches!(&outcomes[0], CellOutcome::Ok(Ok(10))));
    match &outcomes[1] {
        CellOutcome::DeadlineExceeded {
            limit_millis,
            attempts,
        } => {
            assert_eq!(*limit_millis, 100);
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn retries_recover_transient_failures_and_count_attempts() {
    // Panic twice then succeed: retries=2 means 3 attempts, success.
    let flaky = TortureCell::new(7, Mode::PanicFirst(2));
    let runs = flaky.runs.clone();
    let mut o = opts(1);
    o.fault.retries = 2;
    let (outcomes, _) = sweep(&o, &[flaky]);
    assert!(matches!(&outcomes[0], CellOutcome::Ok(Ok(70))));
    assert_eq!(runs.load(Ordering::SeqCst), 3, "2 panics + 1 success");

    // Error-classified outputs retry the same way.
    let flaky = TortureCell::new(8, Mode::ErrFirst(1));
    let (outcomes, _) = sweep(&o, &[flaky]);
    assert!(matches!(&outcomes[0], CellOutcome::Ok(Ok(80))));

    // An insufficient budget resolves to Err with the attempt count.
    let stubborn = TortureCell::new(9, Mode::ErrFirst(10));
    let (outcomes, _) = sweep(&o, &[stubborn]);
    match &outcomes[0] {
        CellOutcome::Err {
            out,
            message,
            attempts,
        } => {
            assert_eq!(out.as_ref().unwrap_err().detail(), "transient error 3");
            assert_eq!(message, "transient error 3");
            assert_eq!(*attempts, 3);
        }
        other => panic!("expected Err, got {other:?}"),
    }
}

#[test]
fn backoff_schedule_is_a_pure_function_of_seed_fingerprint_attempt() {
    // Purity: same inputs, same schedule, across arbitrary call orders.
    let mut schedule = Vec::new();
    for attempt in 1..=10 {
        schedule.push(retry_backoff_millis(0xFEED, attempt));
    }
    for attempt in (1..=10u32).rev() {
        let i = (attempt - 1) as usize;
        assert_eq!(schedule[i], retry_backoff_millis(0xFEED, attempt));
    }
    // Bounded: never above the cap, never below the base.
    for n in 0..50u64 {
        for attempt in 1..=20 {
            let ms = retry_backoff_millis(n.wrapping_mul(0x9E37), attempt);
            assert!((10..=4096).contains(&ms), "fp {n} attempt {attempt}: {ms}");
        }
    }
    // The fingerprint steers the (constant-seeded) jitter.
    assert!((1..=6).any(|a| retry_backoff_millis(5, a) != retry_backoff_millis(6, a)));
}

#[test]
fn parallel_sweeps_with_injected_failures_stay_byte_identical() {
    let build = || {
        vec![
            TortureCell::new(1, Mode::Ok),
            TortureCell::new(2, Mode::PanicAlways),
            TortureCell::new(3, Mode::Ok),
            TortureCell::new(4, Mode::ErrFirst(100)),
            TortureCell::new(5, Mode::Ok),
            TortureCell::new(6, Mode::PanicFirst(1)),
            TortureCell::new(7, Mode::Ok),
            TortureCell::new(8, Mode::Ok),
        ]
    };
    let mut serial = opts(1);
    serial.fault.retries = 1;
    let mut parallel = opts(4);
    parallel.fault.retries = 1;
    let (a, _) = sweep(&serial, &build());
    let (b, _) = sweep(&parallel, &build());
    assert_eq!(
        render(&a),
        render(&b),
        "jobs=4 with injected failures must reproduce jobs=1 byte-for-byte"
    );
    // And the hook observes identical ordered content under both modes.
    let observe = |o: &SweepOpts| {
        let mut seen = Vec::new();
        sbrp_harness::sweep::sweep_with(o, &build(), |i, out| {
            seen.push(format!("{i}:{}", out.error().unwrap_or_default()));
        });
        seen
    };
    assert_eq!(observe(&serial), observe(&parallel));
}

#[test]
fn cache_rerun_skips_completed_cells_and_reproduces_clean_output() {
    let cache = TempDir::new("rerun");
    let mk = |modes: &[Mode]| -> Vec<TortureCell> {
        modes
            .iter()
            .enumerate()
            .map(|(i, &m)| TortureCell::new(i as u64 + 1, m))
            .collect()
    };
    let mut o = opts(2);
    o.cache_dir = Some(cache.0.clone());

    // Phase A: cells 2 and 4 fail; the other three succeed and are cached.
    let crashing = [
        Mode::Ok,
        Mode::PanicAlways,
        Mode::Ok,
        Mode::PanicAlways,
        Mode::Ok,
    ];
    let (outcomes, summary) = sweep(&o, &mk(&crashing));
    assert_eq!(summary.failed(), 2);
    assert_eq!(outcomes.iter().filter(|c| c.is_ok()).count(), 3);

    // Phase B: the flake is "fixed" (same ids/fingerprints, all Ok) and
    // the same sweep runs again: only the two failed cells execute.
    let fixed = mk(&[Mode::Ok; 5]);
    let counters: Vec<_> = fixed.iter().map(|c| c.runs.clone()).collect();
    let (rerun, summary) = sweep(&o, &fixed);
    assert_eq!(summary.cache_hits(), 3, "three cells come from the cache");
    let executed: Vec<u32> = counters.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    assert_eq!(executed, vec![0, 1, 0, 1, 0], "only missing cells re-run");

    // The rerun's output is byte-identical to an uninterrupted run.
    let (clean, _) = sweep(&opts(1), &mk(&[Mode::Ok; 5]));
    assert_eq!(render(&rerun), render(&clean));
}
