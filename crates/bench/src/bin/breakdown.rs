//! Stall-cycle breakdown: where do warps spend their stalled cycles,
//! per workload × persistency model × system design? This is the
//! Fig. 6-style stacked-bar companion data — each row is one bar, each
//! stall column one segment of the stack.
//!
//! With `--trace-out FILE`, additionally re-runs the first cell with the
//! timeline tracer enabled and writes a Chrome-trace JSON you can load
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.

use sbrp_bench::Cli;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::report::{stall_cells, stall_headers, Table};
use sbrp_harness::sweep::run_cells_expect;
use sbrp_harness::{run_workload_traced, RunSpec};
use sbrp_workloads::WorkloadKind;

/// The workload subset: the three applications with the most distinct
/// persist behaviour (log-append, tree-reduce, chained scan).
const WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Gpkvs,
    WorkloadKind::Reduction,
    WorkloadKind::Scan,
];
const MODELS: [ModelKind; 2] = [ModelKind::Epoch, ModelKind::Sbrp];
const SYSTEMS: [SystemDesign; 2] = [SystemDesign::PmFar, SystemDesign::PmNear];

fn main() {
    let cli = Cli::parse();
    let specs: Vec<RunSpec> = WORKLOADS
        .into_iter()
        .flat_map(|kind| {
            let scale = cli.scale_for(kind);
            MODELS.into_iter().flat_map(move |model| {
                SYSTEMS.into_iter().map(move |system| RunSpec {
                    workload: kind,
                    model,
                    system,
                    scale,
                    small_gpu: cli.small,
                    ..RunSpec::default()
                })
            })
        })
        .collect();
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &specs);

    let mut headers: Vec<&str> = vec!["app", "model", "system", "cycles"];
    headers.extend(stall_headers());
    let mut table = Table::new("Stall-cycle breakdown by cause", &headers);
    for (spec, out) in specs.iter().zip(&outs) {
        let (kind, model, system) = (spec.workload, spec.model, spec.system);
        assert!(out.verified, "{kind}/{model}/{system} failed verification");
        assert_eq!(
            out.stats.stall.bucket_sum(),
            out.stats.stall.total,
            "{kind}/{model}/{system}: stall buckets must sum to total"
        );
        let mut cells = vec![
            kind.label().to_string(),
            model.to_string(),
            system.to_string(),
            out.cycles.to_string(),
        ];
        cells.extend(stall_cells(&out.stats));
        table.row(cells);
    }
    cli.emit(&table);
    eprintln!("{}", summary.summary_line());

    // The timeline changes the simulated machine's observability, not
    // its timing, but the trace is not cached — re-run the first cell
    // with the tracer armed.
    if cli.trace_out.is_some() {
        let (_, timeline) = run_workload_traced(&specs[0], true).expect("traced cell runs");
        cli.write_trace(&timeline.expect("tracing was enabled"));
    }
}
