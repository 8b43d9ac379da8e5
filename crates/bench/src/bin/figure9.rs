//! Figure 9: SBRP-far speedup over epoch-far with eADR enabled — the
//! durability point moves to the host LLC, but PCIe bandwidth remains
//! the bottleneck, so scopes/buffers keep their value.

use sbrp_bench::Cli;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::run_cells_expect;
use sbrp_harness::{geomean, RunSpec};
use sbrp_workloads::WorkloadKind;

fn main() {
    let cli = Cli::parse();
    let specs: Vec<RunSpec> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| {
            let base = RunSpec {
                workload: kind,
                system: SystemDesign::PmFar,
                eadr: true,
                scale: cli.scale_for(kind),
                small_gpu: cli.small,
                ..RunSpec::default()
            };
            [
                RunSpec {
                    model: ModelKind::Epoch,
                    ..base.clone()
                },
                RunSpec {
                    model: ModelKind::Sbrp,
                    ..base
                },
            ]
        })
        .collect();
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &specs);

    let mut table = Table::new(
        "Figure 9: SBRP-far speedup over epoch-far under eADR",
        &["app", "Epoch-far", "SBRP-far"],
    );
    let mut speedups = Vec::new();
    for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let s = outs[w * 2].cycles as f64 / outs[w * 2 + 1].cycles as f64;
        speedups.push(s);
        table.row_f64(kind.label(), &[1.0, s]);
    }
    table.row_f64("GMean", &[1.0, geomean(&speedups)]);
    cli.emit(&table);
    eprintln!("{}", summary.summary_line());
}
