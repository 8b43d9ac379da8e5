//! Figure 9: SBRP-far speedup over epoch-far with eADR enabled — the
//! durability point moves to the host LLC, but PCIe bandwidth remains
//! the bottleneck, so scopes/buffers keep their value.

use sbrp_bench::{speedup, Cli, RatioTable};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::SystemDesign;
use sbrp_harness::RunSpec;

fn main() {
    let cli = Cli::parse();
    let cells = [ModelKind::Epoch, ModelKind::Sbrp].map(|model| RunSpec {
        model,
        system: SystemDesign::PmFar,
        eadr: true,
        ..RunSpec::default()
    });
    cli.ratio_tables(&[RatioTable {
        title: "Figure 9: SBRP-far speedup over epoch-far under eADR".into(),
        cells: cells.to_vec(),
        columns: vec![("Epoch-far", 0, 0), ("SBRP-far", 0, 1)],
        value: speedup,
        mean: Some("GMean"),
    }]);
}
