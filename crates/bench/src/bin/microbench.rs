//! Microbenchmarks: per-mechanism model comparison (cycles; lower is
//! better) — isolates the persist-path behaviours the applications mix.

use sbrp_bench::Cli;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign};
use sbrp_gpu_sim::Gpu;
use sbrp_harness::report::Table;
use sbrp_harness::sweep::{run_cells_expect, SweepCell};
use sbrp_harness::HarnessError;
use sbrp_workloads::{BuildOpts, Micro};

const SYSTEMS: [SystemDesign; 2] = [SystemDesign::PmNear, SystemDesign::PmFar];
const MODELS: [ModelKind; 2] = [ModelKind::Epoch, ModelKind::Sbrp];

/// One microbenchmark kernel on one machine. Uncached: these cells run
/// in milliseconds, cheaper than their cache round-trip would be.
#[derive(Clone)]
struct MicroCell {
    micro: Micro,
    model: ModelKind,
    system: SystemDesign,
    small: bool,
    iters: u64,
    timeline: bool,
}

impl MicroCell {
    fn config(&self) -> GpuConfig {
        let mut cfg = if self.small {
            GpuConfig::small(self.model, self.system)
        } else {
            GpuConfig::table1(self.model, self.system)
        };
        cfg.timeline = self.timeline;
        cfg
    }

    fn gpu(&self) -> Gpu {
        let l = self
            .micro
            .kernel(BuildOpts::for_model(self.model), self.iters);
        let mut gpu = Gpu::new(&self.config());
        gpu.launch(&l.kernel, l.launch);
        gpu.run(10_000_000_000).expect("completes");
        gpu
    }
}

impl SweepCell for MicroCell {
    type Out = Result<u64, HarnessError>;

    fn name(&self) -> String {
        format!(
            "micro {} {:?}/{}",
            self.micro.label(),
            self.model,
            self.system
        )
    }

    fn fingerprint(&self) -> u64 {
        0 // unused: micro cells are never cached
    }

    fn run(&self) -> Self::Out {
        Ok(self.gpu().cycle())
    }
}

fn main() {
    let cli = Cli::parse();
    let iters = cli.scale.unwrap_or(16);
    let cells: Vec<MicroCell> = SYSTEMS
        .into_iter()
        .flat_map(|system| {
            Micro::ALL.into_iter().flat_map(move |micro| {
                MODELS.into_iter().map(move |model| MicroCell {
                    micro,
                    model,
                    system,
                    small: cli.small,
                    iters,
                    timeline: false,
                })
            })
        })
        .collect();
    let mut opts = cli.sweep_opts();
    opts.cache_dir = None;
    // A panicking or hung kernel (the `expect` in gpu()) surfaces here
    // as an aggregated failure table and a nonzero exit.
    let (cycles, summary) = run_cells_expect(&opts, &cells);

    let stride = Micro::ALL.len() * MODELS.len();
    let mut tables = Vec::new();
    for (si, system) in SYSTEMS.into_iter().enumerate() {
        let mut table = Table::new(
            format!("Microbenchmarks on PM-{system} (cycles; epoch=1.0)"),
            &["kernel", "Epoch", "SBRP", "speedup"],
        );
        for (mi, micro) in Micro::ALL.into_iter().enumerate() {
            let at = si * stride + mi * MODELS.len();
            let (epoch, sbrp) = (cycles[at], cycles[at + 1]);
            table.row(vec![
                micro.label().into(),
                epoch.to_string(),
                sbrp.to_string(),
                format!("{:.2}x", epoch as f64 / sbrp as f64),
            ]);
        }
        tables.push(table);
    }
    cli.emit_all(&tables);
    eprintln!("{}", summary.summary_line());

    // Trace the first SBRP cell if --trace-out was given.
    if cli.trace_out.is_some() {
        let cell = cells
            .into_iter()
            .find(|c| c.model == ModelKind::Sbrp)
            .expect("an SBRP cell exists");
        let mut gpu = MicroCell {
            timeline: true,
            ..cell
        }
        .gpu();
        cli.write_trace(&gpu.take_timeline().expect("tracing was enabled"));
    }
}
