//! Figure 11: runtime of the recovery pass under epoch-near vs
//! SBRP-near, normalized to epoch-near (lower is better). The crash is
//! injected near the end of the run — the worst case, e.g. gpKVS just
//! before its transaction completes, maximizing the log replayed.

use sbrp_bench::Cli;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::{run_cells_expect, RecoveryCell};
use sbrp_harness::{geomean, RunSpec};
use sbrp_workloads::WorkloadKind;

fn main() {
    let cli = Cli::parse();
    let cells: Vec<RecoveryCell> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| {
            let base = RunSpec {
                workload: kind,
                system: SystemDesign::PmNear,
                scale: cli.scale_for(kind),
                small_gpu: cli.small,
                ..RunSpec::default()
            };
            [ModelKind::Epoch, ModelKind::Sbrp].map(|model| RecoveryCell {
                spec: RunSpec {
                    model,
                    ..base.clone()
                },
                fraction: 0.9,
            })
        })
        .collect();
    // On any failing cell this prints the aggregated failure table and
    // exits nonzero instead of panicking on the first error.
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &cells);

    let mut table = Table::new(
        "Figure 11: recovery runtime normalized to epoch-near",
        &["app", "Epoch", "SBRP", "recovery/runtime (SBRP)"],
    );
    let mut ratios = Vec::new();
    for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let (epoch, sbrp) = (&outs[w * 2], &outs[w * 2 + 1]);
        assert!(epoch.verified && sbrp.verified, "{kind}: recovery failed");
        let norm = sbrp.recovery_cycles as f64 / epoch.recovery_cycles.max(1) as f64;
        ratios.push(norm);
        table.row(vec![
            kind.label().into(),
            "1.000".into(),
            format!("{norm:.3}"),
            format!(
                "{:.1}%",
                100.0 * sbrp.recovery_cycles as f64 / sbrp.crash_free_cycles.max(1) as f64
            ),
        ]);
    }
    table.row(vec![
        "GMean".into(),
        "1.000".into(),
        format!("{:.3}", geomean(&ratios)),
        "-".into(),
    ]);
    cli.emit(&table);
    eprintln!("{}", summary.summary_line());
}
