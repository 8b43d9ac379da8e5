//! Figure 8: L1 read misses for NVM data, normalized to epoch-far
//! (lower is better). SBRP keeps PM data cached across intra-thread and
//! intra-threadblock ordering points; the epoch barrier invalidates it.

use sbrp_bench::{Cli, RatioTable};
use sbrp_harness::{Fig6Bar, RunSpec};

fn main() {
    let cli = Cli::parse();
    // Figure 6's bars without GPM: epoch-far first.
    let bars = &Fig6Bar::ALL[1..];
    cli.ratio_tables(&[RatioTable {
        title: "Figure 8: L1 read misses for NVM data (normalized to epoch-far)".into(),
        cells: bars
            .iter()
            .map(|bar| {
                let (model, system) = bar.model_system();
                RunSpec {
                    model,
                    system,
                    ..RunSpec::default()
                }
            })
            .collect(),
        columns: bars
            .iter()
            .enumerate()
            .map(|(i, bar)| (bar.label(), 0, i))
            .collect(),
        value: |base, cell| {
            cell.stats.l1_pm_read_misses as f64 / base.stats.l1_pm_read_misses.max(1) as f64
        },
        mean: None,
    }]);
}
