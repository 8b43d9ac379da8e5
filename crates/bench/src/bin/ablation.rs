//! Ablation of the persist-buffer design choices (DESIGN.md,
//! "Microarchitectural refinements" + §6.2's drain policies): SBRP-near
//! and SBRP-far speedups over the epoch baseline with each mechanism
//! individually disabled.

use sbrp_bench::Cli;
use sbrp_core::pbuffer::DrainPolicy;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::run_cells_expect;
use sbrp_harness::{geomean, RunSpec};
use sbrp_workloads::WorkloadKind;

type Variant = (&'static str, fn(&mut RunSpec));

const SYSTEMS: [SystemDesign; 2] = [SystemDesign::PmNear, SystemDesign::PmFar];

fn main() {
    let cli = Cli::parse();
    let variants: [Variant; 7] = [
        ("full", |_| {}),
        ("-ooo-drain", |s| s.no_ooo_drain = true),
        ("-early-flush", |s| s.no_early_flush = true),
        ("-perwarp-fsm", |s| s.no_per_warp_fsm = true),
        ("eager", |s| s.policy = Some(DrainPolicy::Eager)),
        ("lazy", |s| s.policy = Some(DrainPolicy::Lazy)),
        ("paper-min", |s| {
            // All refinements off at once: the most literal reading.
            s.no_ooo_drain = true;
            s.no_early_flush = true;
            s.no_per_warp_fsm = true;
        }),
    ];
    // Per (system, workload): one epoch baseline, then each variant.
    let stride = 1 + variants.len();
    let mut specs: Vec<RunSpec> = Vec::new();
    for system in SYSTEMS {
        for kind in WorkloadKind::ALL {
            let base = RunSpec {
                workload: kind,
                system,
                scale: cli.scale_for(kind),
                small_gpu: cli.small,
                ..RunSpec::default()
            };
            specs.push(RunSpec {
                model: ModelKind::Epoch,
                ..base.clone()
            });
            for (_, tweak) in &variants {
                let mut spec = RunSpec {
                    model: ModelKind::Sbrp,
                    ..base.clone()
                };
                tweak(&mut spec);
                specs.push(spec);
            }
        }
    }
    let (outs, summary) = run_cells_expect(&cli.sweep_opts(), &specs);

    let mut tables = Vec::new();
    for (si, system) in SYSTEMS.into_iter().enumerate() {
        let headers: Vec<&str> = std::iter::once("app")
            .chain(variants.iter().map(|v| v.0))
            .collect();
        let mut table = Table::new(
            format!("Ablation: SBRP-{system} speedup over epoch-{system}"),
            &headers,
        );
        let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
        for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
            let at = (si * WorkloadKind::ALL.len() + w) * stride;
            let row = &outs[at..at + stride];
            let epoch = row[0].cycles as f64;
            let speedups: Vec<f64> = row[1..]
                .iter()
                .map(|out| {
                    assert!(out.verified, "{kind} ablation failed verification");
                    epoch / out.cycles as f64
                })
                .collect();
            for (i, s) in speedups.iter().enumerate() {
                per_variant[i].push(*s);
            }
            table.row_f64(kind.label(), &speedups);
        }
        let means: Vec<f64> = per_variant.iter().map(|v| geomean(v)).collect();
        table.row_f64("GMean", &means);
        tables.push(table);
    }
    cli.emit_all(&tables);
    eprintln!("{}", summary.summary_line());
}
