//! Torture tests for the sweep engine's fault-tolerance layer:
//! injected panics, hangs, and failed outputs must degrade to
//! typed [`CellOutcome`]s — never kill the sweep — while succeeding
//! cells keep producing byte-identical output at any `--jobs`, and a
//! rerun on the result cache recovers a killed sweep without re-running
//! finished cells.

use sbrp_core::json::Json;
use sbrp_harness::sweep::{run_cells, sweep, CellOutcome, SweepCell, SweepOpts};
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
    /// Panic.
    Panic,
    /// Return a failure-classified output.
    Err,
    /// Sleep far past any test deadline (bounded so an engine bug can't
    /// wedge the test binary forever).
    Hang,
}

/// A fault-injection cell. `runs` counts executions across clones (the
/// deadline watchdog runs a clone), shared via `Arc` so every copy
/// reports into the same counter.
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
        self.runs.fetch_add(1, Ordering::SeqCst);
        match self.mode {
            Mode::Ok => Ok(self.id * 10),
            Mode::Panic => panic!("injected panic in cell {}", self.id),
            Mode::Err => Err(HarnessError::Outcome {
                cell: self.name(),
                detail: "injected error".into(),
            }),
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

/// Serial opts with no cache — a deadline added by each test as
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
        TortureCell::new(2, Mode::Panic),
        TortureCell::new(3, Mode::Ok),
    ];
    let (outcomes, summary) = sweep(&opts(2), &cells);
    assert!(matches!(&outcomes[0], CellOutcome::Ok(Ok(10))));
    match &outcomes[1] {
        CellOutcome::Panicked { message } => {
            assert!(message.contains("injected panic in cell 2"), "{message}");
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
    o.cell_timeout = Some(Duration::from_millis(100));
    let (outcomes, _) = sweep(&o, &cells);
    assert!(matches!(&outcomes[0], CellOutcome::Ok(Ok(10))));
    match &outcomes[1] {
        CellOutcome::DeadlineExceeded { limit_millis } => assert_eq!(*limit_millis, 100),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn parallel_sweeps_with_injected_failures_stay_byte_identical() {
    let build = || {
        vec![
            TortureCell::new(1, Mode::Ok),
            TortureCell::new(2, Mode::Panic),
            TortureCell::new(3, Mode::Ok),
            TortureCell::new(4, Mode::Err),
            TortureCell::new(5, Mode::Ok),
            TortureCell::new(6, Mode::Panic),
            TortureCell::new(7, Mode::Ok),
            TortureCell::new(8, Mode::Ok),
        ]
    };
    let serial = opts(1);
    let parallel = opts(4);
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
    let crashing = [Mode::Ok, Mode::Panic, Mode::Ok, Mode::Panic, Mode::Ok];
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
