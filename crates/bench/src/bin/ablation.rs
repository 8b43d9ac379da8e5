//! Ablation of the persist-buffer design choices (DESIGN.md,
//! "Microarchitectural refinements" + §6.2's drain policies): SBRP-near
//! and SBRP-far speedups over the epoch baseline with each mechanism
//! individually disabled.

use sbrp_bench::{speedup, Cli, RatioTable};
use sbrp_core::pbuffer::DrainPolicy;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::RunSpec;

type Variant = (&'static str, fn(&mut RunSpec));

const VARIANTS: [Variant; 7] = [
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

fn main() {
    let cli = Cli::parse();
    let tables = [SystemDesign::PmNear, SystemDesign::PmFar].map(|system| {
        let epoch = RunSpec {
            model: ModelKind::Epoch,
            system,
            ..RunSpec::default()
        };
        // One epoch baseline, then SBRP under each variant.
        let sbrp = VARIANTS.map(|(_, tweak)| {
            let mut spec = RunSpec {
                model: ModelKind::Sbrp,
                ..epoch.clone()
            };
            tweak(&mut spec);
            spec
        });
        RatioTable {
            title: format!("Ablation: SBRP-{system} speedup over epoch-{system}"),
            cells: [&[epoch][..], &sbrp].concat(),
            columns: VARIANTS
                .iter()
                .enumerate()
                .map(|(i, v)| (v.0, 0, i + 1))
                .collect(),
            value: speedup,
            mean: Some("GMean"),
        }
    });
    cli.ratio_tables(&tables);
}
