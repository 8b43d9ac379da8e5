//! Figure 8: L1 read misses for NVM data, normalized to epoch-far
//! (lower is better). SBRP keeps PM data cached across intra-thread and
//! intra-threadblock ordering points; the epoch barrier invalidates it.

use sbrp_bench::Cli;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::run_cells_expect;
use sbrp_harness::RunSpec;
use sbrp_workloads::WorkloadKind;

fn main() {
    let cli = Cli::parse();
    let bars = [
        ("Epoch-far", ModelKind::Epoch, SystemDesign::PmFar),
        ("SBRP-far", ModelKind::Sbrp, SystemDesign::PmFar),
        ("Epoch-near", ModelKind::Epoch, SystemDesign::PmNear),
        ("SBRP-near", ModelKind::Sbrp, SystemDesign::PmNear),
    ];
    let specs: Vec<RunSpec> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| {
            let scale = cli.scale_for(kind);
            bars.into_iter().map(move |(_, model, system)| RunSpec {
                workload: kind,
                model,
                system,
                scale,
                small_gpu: cli.small,
                ..RunSpec::default()
            })
        })
        .collect();
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &specs);

    let headers: Vec<&str> = std::iter::once("app")
        .chain(bars.iter().map(|b| b.0))
        .collect();
    let mut table = Table::new(
        "Figure 8: L1 read misses for NVM data (normalized to epoch-far)",
        &headers,
    );
    for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let misses: Vec<u64> = outs[w * bars.len()..(w + 1) * bars.len()]
            .iter()
            .map(|o| o.stats.l1_pm_read_misses)
            .collect();
        let baseline = (misses[0].max(1)) as f64;
        let normalized: Vec<f64> = misses.iter().map(|&m| m as f64 / baseline).collect();
        table.row_f64(kind.label(), &normalized);
    }
    cli.emit(&table);
    eprintln!("{}", summary.summary_line());
}
