//! Figure 10(c): SBRP-near speedup over epoch-near while varying the
//! drain-window size (outstanding persists per SM): 2 / 4 / 6 / 8 / 10.

use sbrp_bench::{speedup, Cli, RatioTable};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::RunSpec;

fn main() {
    let cli = Cli::parse();
    let windows = [("2", 2), ("4", 4), ("6", 6), ("8", 8), ("10", 10)];
    let epoch = RunSpec {
        model: ModelKind::Epoch,
        system: SystemDesign::PmNear,
        ..RunSpec::default()
    };
    // One epoch baseline, then SBRP at each window size.
    let sbrp = windows.map(|(_, w)| RunSpec {
        model: ModelKind::Sbrp,
        window: Some(w),
        ..epoch.clone()
    });
    cli.ratio_tables(&[RatioTable {
        title: "Figure 10(c): SBRP-near speedup over epoch-near, varying window size".into(),
        cells: [&[epoch][..], &sbrp].concat(),
        columns: windows
            .iter()
            .enumerate()
            .map(|(i, w)| (w.0, 0, i + 1))
            .collect(),
        value: speedup,
        mean: Some("GMean"),
    }]);
}
