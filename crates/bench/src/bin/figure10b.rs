//! Figure 10(b): SBRP-near speedup over epoch-near while scaling the
//! NVM read/write bandwidth to 50 % / 100 % / 200 % of Table 1.

use sbrp_bench::Cli;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::run_cells_expect;
use sbrp_harness::{geomean, RunSpec};
use sbrp_workloads::WorkloadKind;

fn main() {
    let cli = Cli::parse();
    let scales = [0.5, 1.0, 2.0];
    // Per workload: (epoch, sbrp) at every bandwidth — the epoch
    // baseline moves with the bandwidth too.
    let stride = 2 * scales.len();
    let specs: Vec<RunSpec> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| {
            let scale = cli.scale_for(kind);
            scales.into_iter().flat_map(move |bw| {
                let base = RunSpec {
                    workload: kind,
                    system: SystemDesign::PmNear,
                    nvm_bw_scale: bw,
                    scale,
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
        })
        .collect();
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &specs);

    let mut table = Table::new(
        "Figure 10(b): SBRP-near speedup over epoch-near, varying NVM bandwidth",
        &["app", "50%", "100%", "200%"],
    );
    let mut per_bw: Vec<Vec<f64>> = vec![Vec::new(); scales.len()];
    for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let row = &outs[w * stride..(w + 1) * stride];
        let speedups: Vec<f64> = (0..scales.len())
            .map(|i| row[2 * i].cycles as f64 / row[2 * i + 1].cycles as f64)
            .collect();
        for (i, s) in speedups.iter().enumerate() {
            per_bw[i].push(*s);
        }
        table.row_f64(kind.label(), &speedups);
    }
    let means: Vec<f64> = per_bw.iter().map(|v| geomean(v)).collect();
    table.row_f64("GMean", &means);
    cli.emit(&table);
    eprintln!("{}", summary.summary_line());
}
