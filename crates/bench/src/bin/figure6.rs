//! Figure 6: speedup over epoch-far of GPM, epoch-far, SBRP-far,
//! epoch-near, and SBRP-near, per application plus the geometric mean.

use sbrp_bench::Cli;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::run_cells_expect;
use sbrp_harness::{geomean, Fig6Bar, RunSpec};
use sbrp_workloads::WorkloadKind;

fn main() {
    let cli = Cli::parse();
    let specs: Vec<RunSpec> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| {
            let scale = cli.scale_for(kind);
            Fig6Bar::ALL.into_iter().map(move |bar| {
                let (model, system) = bar.model_system();
                RunSpec {
                    workload: kind,
                    model,
                    system,
                    scale,
                    small_gpu: cli.small,
                    ..RunSpec::default()
                }
            })
        })
        .collect();
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &specs);

    let headers: Vec<&str> = std::iter::once("app")
        .chain(Fig6Bar::ALL.iter().map(|b| b.label()))
        .collect();
    let mut table = Table::new("Figure 6: speedup over epoch-far", &headers);
    let mut per_bar: Vec<Vec<f64>> = vec![Vec::new(); Fig6Bar::ALL.len()];
    for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let row = &outs[w * Fig6Bar::ALL.len()..(w + 1) * Fig6Bar::ALL.len()];
        for (out, bar) in row.iter().zip(Fig6Bar::ALL) {
            assert!(out.verified, "{kind}/{} failed verification", bar.label());
        }
        let baseline = row[1].cycles as f64; // epoch-far
        let speedups: Vec<f64> = row.iter().map(|o| baseline / o.cycles as f64).collect();
        for (i, s) in speedups.iter().enumerate() {
            per_bar[i].push(*s);
        }
        table.row_f64(kind.label(), &speedups);
    }
    let means: Vec<f64> = per_bar.iter().map(|v| geomean(v)).collect();
    table.row_f64("Mean", &means);
    cli.emit(&table);
    eprintln!("{}", summary.summary_line());
}
