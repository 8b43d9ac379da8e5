//! Figure 10(a): SBRP-near speedup over epoch-near while varying the
//! persist buffer's coverage of the L1 (12.5 % / 25 % / 50 % / 100 %).

use sbrp_bench::{speedup, Cli, RatioTable};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::RunSpec;

fn main() {
    let cli = Cli::parse();
    let coverages = [
        ("12.50%", 0.125),
        ("25%", 0.25),
        ("50%", 0.5),
        ("100%", 1.0),
    ];
    let epoch = RunSpec {
        model: ModelKind::Epoch,
        system: SystemDesign::PmNear,
        ..RunSpec::default()
    };
    // One epoch baseline, then SBRP at each coverage.
    let sbrp = coverages.map(|(_, f)| RunSpec {
        model: ModelKind::Sbrp,
        pb_coverage: Some(f),
        ..epoch.clone()
    });
    cli.ratio_tables(&[RatioTable {
        title: "Figure 10(a): SBRP-near speedup over epoch-near, varying PB coverage of L1".into(),
        cells: [&[epoch][..], &sbrp].concat(),
        columns: coverages
            .iter()
            .enumerate()
            .map(|(i, c)| (c.0, 0, i + 1))
            .collect(),
        value: speedup,
        mean: Some("GMean"),
    }]);
}
