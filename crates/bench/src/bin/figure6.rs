//! Figure 6: speedup over epoch-far of GPM, epoch-far, SBRP-far,
//! epoch-near, and SBRP-near, per application plus the geometric mean.

use sbrp_bench::{speedup, Cli, RatioTable};
use sbrp_harness::{Fig6Bar, RunSpec};

fn main() {
    let cli = Cli::parse();
    let cells = Fig6Bar::ALL.map(|bar| {
        let (model, system) = bar.model_system();
        RunSpec {
            model,
            system,
            ..RunSpec::default()
        }
    });
    cli.ratio_tables(&[RatioTable {
        title: "Figure 6: speedup over epoch-far".into(),
        cells: cells.to_vec(),
        // Cell 1 is epoch-far.
        columns: Fig6Bar::ALL
            .iter()
            .enumerate()
            .map(|(i, bar)| (bar.label(), 1, i))
            .collect(),
        value: speedup,
        mean: Some("Mean"),
    }]);
}
