//! Figure 10(a): SBRP-near speedup over epoch-near while varying the
//! persist buffer's coverage of the L1 (12.5 % / 25 % / 50 % / 100 %).

use sbrp_bench::Cli;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::run_cells_expect;
use sbrp_harness::{geomean, RunSpec};
use sbrp_workloads::WorkloadKind;

fn main() {
    let cli = Cli::parse();
    let coverages = [0.125, 0.25, 0.5, 1.0];
    // Per workload: one epoch baseline, then SBRP at each coverage.
    let stride = 1 + coverages.len();
    let specs: Vec<RunSpec> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| {
            let base = RunSpec {
                workload: kind,
                system: SystemDesign::PmNear,
                scale: cli.scale_for(kind),
                small_gpu: cli.small,
                ..RunSpec::default()
            };
            std::iter::once(RunSpec {
                model: ModelKind::Epoch,
                ..base.clone()
            })
            .chain(coverages.into_iter().map(move |f| RunSpec {
                model: ModelKind::Sbrp,
                pb_coverage: Some(f),
                ..base.clone()
            }))
        })
        .collect();
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &specs);

    let mut table = Table::new(
        "Figure 10(a): SBRP-near speedup over epoch-near, varying PB coverage of L1",
        &["app", "12.50%", "25%", "50%", "100%"],
    );
    let mut per_cov: Vec<Vec<f64>> = vec![Vec::new(); coverages.len()];
    for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let row = &outs[w * stride..(w + 1) * stride];
        let epoch = row[0].cycles as f64;
        let speedups: Vec<f64> = row[1..].iter().map(|o| epoch / o.cycles as f64).collect();
        for (i, s) in speedups.iter().enumerate() {
            per_cov[i].push(*s);
        }
        table.row_f64(kind.label(), &speedups);
    }
    let means: Vec<f64> = per_cov.iter().map(|v| geomean(v)).collect();
    table.row_f64("GMean", &means);
    cli.emit(&table);
    eprintln!("{}", summary.summary_line());
}
