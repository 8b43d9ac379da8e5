//! Figure 10(b): SBRP-near speedup over epoch-near while scaling the
//! NVM read/write bandwidth to 50 % / 100 % / 200 % of Table 1.

use sbrp_bench::{speedup, Cli, RatioTable};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::RunSpec;

fn main() {
    let cli = Cli::parse();
    let bandwidths = [("50%", 0.5), ("100%", 1.0), ("200%", 2.0)];
    // (epoch, SBRP) at every bandwidth — the epoch baseline moves with
    // the bandwidth too.
    let cells = bandwidths.iter().flat_map(|&(_, bw)| {
        [ModelKind::Epoch, ModelKind::Sbrp].map(|model| RunSpec {
            model,
            system: SystemDesign::PmNear,
            nvm_bw_scale: bw,
            ..RunSpec::default()
        })
    });
    cli.ratio_tables(&[RatioTable {
        title: "Figure 10(b): SBRP-near speedup over epoch-near, varying NVM bandwidth".into(),
        cells: cells.collect(),
        columns: bandwidths
            .iter()
            .enumerate()
            .map(|(i, b)| (b.0, 2 * i, 2 * i + 1))
            .collect(),
        value: speedup,
        mean: Some("GMean"),
    }]);
}
