//! The serving engine's load-bearing guarantees, end to end:
//!
//! 1. **Determinism under parallelism** — a serve sweep's table and
//!    histogram JSON are byte-identical at `--jobs 1` and `--jobs 4`.
//! 2. **Seed sensitivity** — the arrival process actually depends on the
//!    seed (different seeds measure different tails), while the same
//!    seed reproduces the full output exactly.
//! 3. **Pinned percentiles** — the exact p50/p95/p99/p999 of fixed
//!    cells are snapshotted under `tests/golden/` and checked
//!    bit-for-bit; regenerate intended changes with
//!    `SBRP_UPDATE_GOLDEN=1 cargo test -p sbrp-harness --test serve_determinism`.
//! 4. **Crash replay exactness** — a crash mid-stream replays exactly
//!    the requests that were admitted but not durably acked at the
//!    crash instant, and the post-recovery store still verifies.

use sbrp_harness::serve::{
    hist_json, run_service, run_service_detailed, serve_table, ServeCell, ServeModel, ServeOutput,
    ServeSpec,
};
use sbrp_harness::sweep::{run_cells, SweepOpts};
use std::path::PathBuf;

/// A cheap spec: small GPU, short trace, still long enough to form
/// several batches and produce distinct percentiles.
fn tiny(model: ServeModel) -> ServeSpec {
    ServeSpec {
        model,
        requests: 64,
        scale: 128,
        batch: 16,
        rate_milli: 10_000,
        linger: 500,
        queue_bound: 64,
        small_gpu: true,
        ..ServeSpec::default()
    }
}

fn opts(jobs: usize) -> SweepOpts {
    SweepOpts {
        jobs,
        ..SweepOpts::serial()
    }
}

/// Runs a sweep and renders it to the bytes the `serve` binary emits:
/// the text table plus the histogram JSON artifact.
fn render(jobs: usize, cells: &[ServeCell]) -> String {
    let (results, summary) = run_cells(&opts(jobs), cells);
    assert_eq!(summary.jobs, jobs.min(cells.len()));
    let outs: Vec<ServeOutput> = results
        .into_iter()
        .map(|r| r.expect("serve cell completes"))
        .collect();
    assert!(outs.iter().all(|o| o.verified), "every cell must verify");
    format!(
        "{}\n{}",
        serve_table(cells, &outs).to_text(),
        hist_json(cells, &outs)
    )
}

#[test]
fn parallel_serve_sweep_is_byte_identical_to_serial() {
    let cells: Vec<ServeCell> = [ServeModel::Sbrp, ServeModel::Gpm]
        .into_iter()
        .flat_map(|model| {
            [4_000u64, 40_000]
                .into_iter()
                .map(move |rate_milli| ServeCell {
                    spec: ServeSpec {
                        rate_milli,
                        ..tiny(model)
                    },
                })
        })
        .collect();
    assert_eq!(
        render(1, &cells),
        render(4, &cells),
        "jobs=4 must reproduce jobs=1 byte-for-byte"
    );
}

#[test]
fn arrival_seed_changes_the_measured_tail() {
    let base = tiny(ServeModel::Sbrp);
    let a = run_service(&base).expect("seed 42 run");
    let a_again = run_service(&base).expect("seed 42 rerun");
    let b = run_service(&ServeSpec { seed: 43, ..base }).expect("seed 43 run");
    assert!(a.verified && b.verified);
    assert_eq!(a, a_again, "same seed must reproduce the full output");
    assert_ne!(
        a.hist, b.hist,
        "a different seed must produce a different arrival process \
         and therefore different measured latencies"
    );
}

#[test]
fn percentiles_match_golden_snapshot() {
    // One cell below the saturation knee and one above it, so the
    // snapshot pins both a quiet-tail and an overloaded-tail shape.
    let cells = vec![
        ServeCell {
            spec: tiny(ServeModel::Sbrp),
        },
        ServeCell {
            spec: ServeSpec {
                rate_milli: 80_000,
                ..tiny(ServeModel::Gpm)
            },
        },
    ];
    let (results, _) = run_cells(&SweepOpts::serial(), &cells);
    let outs: Vec<ServeOutput> = results
        .into_iter()
        .map(|r| r.expect("cell completes"))
        .collect();
    for out in &outs {
        assert!(out.verified);
        let h = &out.hist;
        assert!(h.min <= h.p50 && h.p50 <= h.p95 && h.p95 <= h.p99);
        assert!(
            h.p99 <= h.p999 && h.p999 <= h.max,
            "percentiles must be ordered"
        );
        assert_eq!(h.count, out.completed);
    }
    let json = hist_json(&cells, &outs);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join("serve_tiny_hist.json");
    if std::env::var_os("SBRP_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("golden dir");
        std::fs::write(&path, &json).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}; regenerate with SBRP_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        json, expected,
        "serving percentiles drifted from the golden snapshot; if the \
         change is intended, regenerate with SBRP_UPDATE_GOLDEN=1 and \
         commit the diff"
    );
}

#[test]
fn crash_mid_stream_replays_exactly_the_unacked_requests() {
    let spec = ServeSpec {
        crash_at: Some(3_000),
        ..tiny(ServeModel::Sbrp)
    };
    let (out, detail) = run_service_detailed(&spec).expect("crash run completes");
    let crash = out.crash_cycle.expect("the injected crash must fire");
    assert!(
        crash >= 3_000,
        "crash fires at the first batch boundary past --crash-at"
    );
    assert!(out.verified, "post-recovery final state must verify");
    assert!(
        detail.rollback_ok,
        "recovery must roll the store back to the acked prefix"
    );
    assert!(out.recovery_cycles > 0, "recovery runs a real kernel");

    // The replay set must be exactly the requests that had arrived by
    // the crash instant, were admitted (not rejected), and were not yet
    // durably acked — no lost requests, no double-acked requests.
    let expected: Vec<usize> = detail
        .trace
        .iter()
        .enumerate()
        .filter(|(i, req)| {
            req.arrival <= crash
                && !detail.rejected[*i]
                && detail.acked[*i].is_none_or(|ack| ack > crash)
        })
        .map(|(i, _)| i)
        .collect();
    assert!(
        !expected.is_empty(),
        "a mid-stream crash must strand some requests"
    );
    assert_eq!(
        detail.replay_set, expected,
        "replay set must be exactly the admitted-but-unacked requests, in arrival order"
    );
    assert_eq!(out.replayed, expected.len() as u64);

    // After replay, every admitted request ends durably acked.
    for (i, acked) in detail.acked.iter().enumerate() {
        if detail.rejected[i] {
            assert!(acked.is_none(), "rejected request {i} must never be acked");
        } else {
            assert!(
                acked.is_some(),
                "admitted request {i} must be acked by the end"
            );
        }
    }
}

#[test]
fn overload_rejects_at_the_queue_bound_but_stays_consistent() {
    let spec = ServeSpec {
        rate_milli: 200_000,
        queue_bound: 24,
        ..tiny(ServeModel::Gpm)
    };
    let out = run_service(&spec).expect("overloaded run completes");
    assert!(out.verified, "rejected requests must not corrupt the store");
    assert!(
        out.rejected > 0,
        "an offered rate far past capacity must shed load"
    );
    assert_eq!(out.completed + out.rejected, spec.requests);
}
