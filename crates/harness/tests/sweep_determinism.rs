//! The sweep engine's two load-bearing guarantees, end to end:
//!
//! 1. **Determinism under parallelism** — a sweep's aggregated output is
//!    byte-identical at `--jobs 1` and `--jobs 4`, for both plain
//!    `RunSpec` matrices and the crash-recovery campaign.
//! 2. **Cache correctness** — a warm cache serves every cell without
//!    changing a byte of output; corrupt or mismatched entries fall back
//!    to a live run; distinct specs never share an entry.

use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::campaign::{self, CampaignSpec};
use sbrp_harness::sweep::{run_cells, spec_fingerprint, SweepOpts, CACHE_SCHEMA};
use sbrp_harness::RunSpec;
use sbrp_workloads::WorkloadKind;
use std::path::PathBuf;

fn tiny_specs() -> Vec<RunSpec> {
    let base = RunSpec {
        scale: 128,
        small_gpu: true,
        ..RunSpec::default()
    };
    [
        (WorkloadKind::Gpkvs, ModelKind::Sbrp, SystemDesign::PmNear),
        (WorkloadKind::Gpkvs, ModelKind::Epoch, SystemDesign::PmNear),
        (WorkloadKind::Scan, ModelKind::Sbrp, SystemDesign::PmFar),
        (WorkloadKind::Scan, ModelKind::Epoch, SystemDesign::PmFar),
        (
            WorkloadKind::Reduction,
            ModelKind::Sbrp,
            SystemDesign::PmNear,
        ),
        (WorkloadKind::Hashmap, ModelKind::Gpm, SystemDesign::PmFar),
    ]
    .into_iter()
    .map(|(workload, model, system)| RunSpec {
        workload,
        model,
        system,
        ..base.clone()
    })
    .collect()
}

/// Renders a sweep's results to the bytes a figure binary would emit.
fn render(results: &[Result<sbrp_harness::RunOutput, sbrp_harness::HarnessError>]) -> String {
    results
        .iter()
        .map(|r| match r {
            Ok(out) => format!(
                "cycles={} verified={} stats={}\n",
                out.cycles,
                out.verified,
                out.stats.to_json()
            ),
            Err(e) => format!("error={e}\n"),
        })
        .collect()
}

fn opts(jobs: usize, cache_dir: Option<PathBuf>) -> SweepOpts {
    SweepOpts {
        jobs,
        cache_dir,
        ..SweepOpts::serial()
    }
}

/// A unique throwaway cache directory; removed by the returned guard.
struct TempCache(PathBuf);

impl TempCache {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sbrp-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempCache(dir)
    }
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn parallel_run_spec_sweep_is_byte_identical_to_serial() {
    let specs = tiny_specs();
    let (serial, s1) = run_cells(&opts(1, None), &specs);
    let (parallel, s4) = run_cells(&opts(4, None), &specs);
    assert_eq!(s1.jobs, 1);
    assert_eq!(s4.jobs, 4.min(specs.len()));
    assert_eq!(
        render(&serial),
        render(&parallel),
        "jobs=4 must reproduce jobs=1 byte-for-byte"
    );
}

#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    let spec = CampaignSpec {
        workloads: vec![WorkloadKind::Gpkvs, WorkloadKind::Multiqueue],
        models: vec![ModelKind::Sbrp, ModelKind::Epoch],
        systems: vec![SystemDesign::PmNear],
        scale: Some(128),
        points_per_cell: 4,
        small_gpu: true,
        ..CampaignSpec::default()
    };
    let serial = campaign::run_with_opts(&spec, &opts(1, None), |_| {});
    let parallel = campaign::run_with_opts(&spec, &opts(4, None), |_| {});
    assert_eq!(
        serial.table().to_text(),
        parallel.table().to_text(),
        "campaign table must not depend on worker count"
    );
    assert_eq!(
        format!("{:?}", serial.cells),
        format!("{:?}", parallel.cells),
        "every point record must match, not just the table"
    );
    // The on-cell hook observes cells in matrix order under both modes.
    let mut order = Vec::new();
    campaign::run_with_opts(&spec, &opts(4, None), |cell| {
        order.push((cell.workload, cell.model, cell.system));
    });
    let expected: Vec<_> = serial
        .cells
        .iter()
        .map(|c| (c.workload, c.model, c.system))
        .collect();
    assert_eq!(order, expected);
}

#[test]
fn warm_cache_serves_every_cell_without_changing_output() {
    let cache = TempCache::new("warm");
    let specs = tiny_specs();

    let (cold, cold_summary) = run_cells(&opts(2, Some(cache.0.clone())), &specs);
    assert_eq!(cold_summary.cache_hits(), 0, "first run must be all misses");

    let (warm, warm_summary) = run_cells(&opts(2, Some(cache.0.clone())), &specs);
    assert_eq!(
        warm_summary.cache_hits(),
        specs.len(),
        "second run must be 100% cache hits"
    );
    assert_eq!(render(&cold), render(&warm), "cache must not alter output");

    // --no-cache bypasses the warm cache and recomputes.
    let (uncached, uncached_summary) = run_cells(&opts(2, None), &specs);
    assert_eq!(uncached_summary.cache_hits(), 0);
    assert_eq!(render(&cold), render(&uncached));
}

#[test]
fn corrupt_or_mismatched_cache_entries_fall_back_to_live_runs() {
    let cache = TempCache::new("corrupt");
    let specs = vec![tiny_specs().remove(0)];
    let (reference, _) = run_cells(&opts(1, Some(cache.0.clone())), &specs);
    let key = Fingerprint::hex(spec_fingerprint(&specs[0]));
    let path = cache.0.join(format!("{key}.json"));
    let record = std::fs::read_to_string(&path).expect("the run was cached");

    // A torn write, garbage, and well-formed records of another schema
    // or another cell: each must miss and recompute the same result.
    let other_schema = record.replacen(&format!("\"schema\":{CACHE_SCHEMA}"), "\"schema\":999", 1);
    let other_cell = record.replacen(&format!("\"fp\":\"{key}\""), "\"fp\":\"0\"", 1);
    assert!(other_schema != record && other_cell != record);
    for bad in [
        &record[..record.len() / 2],
        "{\"schema\":999,\"bogus\":1",
        &other_schema,
        &other_cell,
    ] {
        std::fs::write(&path, bad).unwrap();
        let (recomputed, summary) = run_cells(&opts(1, Some(cache.0.clone())), &specs);
        assert_eq!(summary.cache_hits(), 0, "{bad:.60} must not hit");
        assert_eq!(render(&reference), render(&recomputed));
    }
}

#[test]
fn fingerprints_key_on_every_simulation_input() {
    // Any spec change that can change the simulation must change the
    // cache key, or a stale result would be served silently.
    let base = tiny_specs().remove(0);
    let fp = spec_fingerprint(&base);
    let variants = [
        RunSpec {
            seed: base.seed + 1,
            ..base.clone()
        },
        RunSpec {
            scale: base.scale * 2,
            ..base.clone()
        },
        RunSpec {
            workload: WorkloadKind::Scan,
            ..base.clone()
        },
        RunSpec {
            model: ModelKind::Epoch,
            ..base.clone()
        },
        RunSpec {
            system: SystemDesign::PmFar,
            ..base.clone()
        },
        RunSpec {
            eadr: true,
            system: SystemDesign::PmFar,
            ..base.clone()
        },
        RunSpec {
            pb_coverage: Some(0.25),
            ..base.clone()
        },
        RunSpec {
            window: Some(2),
            ..base.clone()
        },
        RunSpec {
            no_ooo_drain: true,
            ..base.clone()
        },
        RunSpec {
            small_gpu: false,
            ..base.clone()
        },
    ];
    for v in variants {
        assert_ne!(
            spec_fingerprint(&v),
            fp,
            "fingerprint must separate {v:?} from the base spec"
        );
    }
}

#[test]
fn campaign_cache_round_trips_through_the_engine() {
    let cache = TempCache::new("campaign");
    let spec = CampaignSpec {
        workloads: vec![WorkloadKind::Gpkvs],
        models: vec![ModelKind::Sbrp],
        systems: vec![SystemDesign::PmNear],
        scale: Some(128),
        points_per_cell: 3,
        small_gpu: true,
        ..CampaignSpec::default()
    };
    let cold = campaign::run_with_opts(&spec, &opts(1, Some(cache.0.clone())), |_| {});
    let warm = campaign::run_with_opts(&spec, &opts(1, Some(cache.0.clone())), |_| {});
    assert_eq!(
        format!("{:?}", cold.cells),
        format!("{:?}", warm.cells),
        "cached campaign cells must deserialize to the original records"
    );
    assert!(warm.ok());
}
