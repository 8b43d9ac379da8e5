//! End-to-end crash-and-rerun test of the `campaign` binary: a sweep
//! is SIGKILLed mid-flight and the same command is run again. The rerun
//! must take the cells the killed run finished from the result cache,
//! and its stdout must be byte-identical to an uninterrupted run — the
//! harness-side analogue of the paper's recoverability guarantee.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
/// A unique throwaway directory; removed by the returned guard.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sbrp-kill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The campaign command, run in `dir`: its result cache is
/// `dir/outputs/.cache`.
fn campaign_cmd(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args([
        "--quick", "--scale", "128", "--points", "3", "--small", "--jobs", "2",
    ])
    .current_dir(dir)
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    cmd
}

/// Counts the published records in `dir`'s result cache (a record being
/// written is a `.tmp` file until its atomic rename).
fn cache_records(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir.join("outputs").join(".cache")) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count()
}

/// The cached-cell count of the `sweep: N cells (K cached) …` summary
/// line on a campaign's stderr.
fn cached_cells(stderr: &[u8]) -> usize {
    let stderr = String::from_utf8_lossy(stderr);
    stderr
        .lines()
        .find_map(|l| l.strip_prefix("sweep: "))
        .and_then(|l| l.split_once(" (")?.1.split_once(" cached)")?.0.parse().ok())
        .unwrap_or_else(|| panic!("no sweep summary line in: {stderr}"))
}

#[test]
fn sigkill_mid_sweep_then_resume_matches_uninterrupted_output() {
    // Reference: one uninterrupted run.
    let clean_dir = TempDir::new("clean");
    let clean = campaign_cmd(&clean_dir.0)
        .output()
        .expect("clean campaign run");
    assert!(
        clean.status.success(),
        "clean campaign must pass: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
    assert_eq!(
        cached_cells(&clean.stderr),
        0,
        "a fresh cache is all misses"
    );
    assert!(
        cache_records(&clean_dir.0) >= 2,
        "quick campaign caches its cells"
    );

    // Victim: SIGKILL as soon as some (not all) cells are cached.
    let dir = TempDir::new("victim");
    let mut victim = campaign_cmd(&dir.0)
        .stderr(Stdio::null())
        .spawn()
        .expect("victim campaign spawns");
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        if cache_records(&dir.0) >= 1 {
            // SIGKILL, not SIGTERM: no destructors, no atexit — the
            // cache alone must carry the recovery.
            victim.kill().expect("SIGKILL victim");
            break;
        }
        if victim.try_wait().expect("poll victim").is_some() {
            // The whole sweep finished before we saw a record — rare,
            // but the rerun below still runs from a full cache.
            break;
        }
        assert!(Instant::now() < deadline, "victim made no progress");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = victim.wait();

    // Rerun the same command: only missing cells run; stdout must match
    // the clean run.
    let rerun = campaign_cmd(&dir.0).output().expect("rerun campaign");
    assert!(rerun.status.success(), "rerun campaign must pass");
    assert!(
        cached_cells(&rerun.stderr) >= 1,
        "the rerun must take the killed run's cells from the cache"
    );
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&rerun.stdout),
        "rerun output must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn failed_cells_produce_error_rows_and_a_nonzero_exit() {
    // A 1 ms deadline no simulation can meet: every cell becomes an
    // explicit engine-failure row and the binary must exit nonzero.
    let dir = TempDir::new("deadline");
    let out = campaign_cmd(&dir.0)
        .args(["--no-cache", "--cell-timeout", "0.001"])
        .output()
        .expect("deadline campaign run");
    assert!(
        !out.status.success(),
        "a campaign whose cells all failed must exit nonzero"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("deadline"),
        "the report must carry explicit deadline error rows: {stdout}"
    );
}
