//! Figure 7: relative contribution of buffers vs. scopes to SBRP's
//! speedup, for the inter-thread-PMO applications (Red, MQ, Scan) on
//! both system designs. Scope contribution is measured by demoting all
//! block-scoped operations to device scope (§7.2, "Importance of
//! scopes"); what remains of the speedup is the buffers' share.

use sbrp_bench::Cli;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::run_cells_expect;
use sbrp_harness::RunSpec;
use sbrp_workloads::WorkloadKind;

const APPS: [WorkloadKind; 3] = [
    WorkloadKind::Reduction,
    WorkloadKind::Multiqueue,
    WorkloadKind::Scan,
];
const SYSTEMS: [SystemDesign; 2] = [SystemDesign::PmFar, SystemDesign::PmNear];

fn main() {
    let cli = Cli::parse();
    // Three runs per (app, system): epoch, full SBRP, scope-demoted SBRP.
    let specs: Vec<RunSpec> = APPS
        .into_iter()
        .flat_map(|kind| {
            let scale = cli.scale_for(kind);
            SYSTEMS.into_iter().flat_map(move |system| {
                let base = RunSpec {
                    workload: kind,
                    system,
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
                        ..base.clone()
                    },
                    RunSpec {
                        model: ModelKind::Sbrp,
                        demote_scopes: true,
                        ..base
                    },
                ]
            })
        })
        .collect();
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &specs);

    let mut table = Table::new(
        "Figure 7: SBRP speedup breakdown (% buffers vs % scopes)",
        &["app", "system", "buffers%", "scopes%"],
    );
    for (i, (kind, system)) in APPS
        .into_iter()
        .flat_map(|k| SYSTEMS.into_iter().map(move |s| (k, s)))
        .enumerate()
    {
        let [epoch, sbrp, demoted] = [0, 1, 2].map(|j| outs[i * 3 + j].cycles as f64);
        // Speedups over epoch: full SBRP vs buffers-only (demoted).
        let full = epoch / sbrp;
        let buffers_only = epoch / demoted;
        let gain = (full - 1.0).max(1e-9);
        let buf_share = ((buffers_only - 1.0) / gain).clamp(0.0, 1.0) * 100.0;
        let scope_share = 100.0 - buf_share;
        table.row(vec![
            kind.label().into(),
            format!("SBRP-{system}"),
            format!("{buf_share:.1}"),
            format!("{scope_share:.1}"),
        ]);
    }
    cli.emit(&table);
    eprintln!("{}", summary.summary_line());
}
