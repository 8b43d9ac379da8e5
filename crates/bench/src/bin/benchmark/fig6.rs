//! `fig6`: the full Figure 6 matrix (6 apps × 5 bars) run serially,
//! making `run_workload`'s layer calls one by one so each gets a span.

use crate::metrics::{Failure, Pass};
use crate::trace::Tracer;
use sbrp_gpu_sim::config::GpuConfig;
use sbrp_gpu_sim::stats::SimStats;
use sbrp_gpu_sim::Gpu;
use sbrp_harness::{default_scale, geomean, Fig6Bar, RunSpec, CYCLE_LIMIT};
use sbrp_workloads::{BuildOpts, Launchable, Workload, WorkloadKind};

/// The paper's Fig. 6 average speedups of SBRP over epoch persistency,
/// on PM-far and PM-near (the EXPERIMENTS.md claim table).
const PAPER_SBRP_FAR: f64 = 1.14;
const PAPER_SBRP_NEAR: f64 = 1.15;

struct Cell {
    spec: RunSpec,
    cfg: GpuConfig,
    workload: Box<dyn Workload>,
    main: Launchable,
}

pub struct Fig6 {
    cells: Vec<Cell>,
}

/// The matrix in figure order: apps in Table 2 order, bars in legend
/// order. The smoke preset shrinks the GPU and the inputs.
pub fn specs(smoke: bool, seed: u64) -> Vec<RunSpec> {
    WorkloadKind::ALL
        .into_iter()
        .flat_map(|workload| {
            Fig6Bar::ALL.into_iter().map(move |bar| {
                let (model, system) = bar.model_system();
                RunSpec {
                    workload,
                    model,
                    system,
                    scale: if smoke { 256 } else { default_scale(workload) },
                    seed,
                    small_gpu: smoke,
                    ..RunSpec::default()
                }
            })
        })
        .collect()
}

/// Builds every cell's inputs and kernel up front.
pub fn setup(smoke: bool, seed: u64, tr: &mut Tracer) -> Fig6 {
    let cells = specs(smoke, seed)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let (workload, main) = tr.span("workloads.build", i as u64, |_| {
                let w = spec.workload.instantiate(spec.scale, spec.seed);
                let main = w.kernel(BuildOpts::for_model(spec.model));
                (w, main)
            });
            Cell {
                cfg: spec.config(),
                spec,
                workload,
                main,
            }
        })
        .collect();
    Fig6 { cells }
}

impl Fig6 {
    /// One cell: `Gpu::new` → `init` → `launch`+`run` → `stats` →
    /// `verify_complete`, as `sbrp_harness::run_workload` does it.
    fn run_cell(cell: &Cell, req: u64, tr: &mut Tracer) -> Result<SimStats, String> {
        let mut gpu = tr.span("sim.new", req, |_| Gpu::new(&cell.cfg));
        tr.span("workloads.init", req, |_| cell.workload.init(&mut gpu));
        let stats = tr.span("sim.run", req, |_| {
            gpu.launch(&cell.main.kernel, cell.main.launch);
            gpu.run(CYCLE_LIMIT).map(|_| gpu.stats())
        });
        let stats = stats.map_err(|e| e.to_string())?;
        tr.span("workloads.verify", req, |_| {
            cell.workload.verify_complete(&gpu)
        })?;
        if stats.stall.bucket_sum() != stats.stall.total {
            return Err("stall buckets do not sum to the stall total".into());
        }
        Ok(stats)
    }

    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut cycles = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            pass.attempted += 1;
            match tr.span("fig6.cell", i as u64, |tr| {
                Self::run_cell(cell, i as u64, tr)
            }) {
                Ok(s) => {
                    cycles.push(s.cycles as f64);
                    record_stats(&mut pass, &s);
                }
                Err(e) => {
                    cycles.push(f64::NAN);
                    pass.failures.push(Failure::new(cell.spec.cell_name(), e));
                }
            }
        }
        pass.add_ratio(
            "pbuffer.coalesce_ratio",
            "pbuffer.coalesced",
            "pbuffer.stores",
        );
        pass.add("harness.fig6.paper_gap", paper_gap(&cycles));
        pass
    }

    #[cfg(test)]
    pub fn run_cells(&self) -> Vec<(RunSpec, Result<SimStats, String>)> {
        let mut tr = Tracer::new(false);
        self.cells
            .iter()
            .map(|c| (c.spec.clone(), Self::run_cell(c, 0, &mut tr)))
            .collect()
    }
}

/// Mean distance of the two SBRP-over-epoch geometric-mean speedups
/// from the paper's averages. `cycles` is the matrix in figure order.
fn paper_gap(cycles: &[f64]) -> f64 {
    let bars = Fig6Bar::ALL.len();
    let col = |bar: Fig6Bar| {
        Fig6Bar::ALL
            .iter()
            .position(|&b| b == bar)
            .expect("a Fig. 6 bar")
    };
    let speedup = |epoch: Fig6Bar, sbrp: Fig6Bar| {
        let ratios: Vec<f64> = cycles
            .chunks(bars)
            .map(|row| row[col(epoch)] / row[col(sbrp)])
            .collect();
        geomean(&ratios)
    };
    let far = speedup(Fig6Bar::EpochFar, Fig6Bar::SbrpFar);
    let near = speedup(Fig6Bar::EpochNear, Fig6Bar::SbrpNear);
    ((far - PAPER_SBRP_FAR).abs() + (near - PAPER_SBRP_NEAR).abs()) / 2.0
}

/// Adds one cell's simulator statistics to the pass totals.
fn record_stats(pass: &mut Pass, s: &SimStats) {
    let st = &s.stall;
    let pb = &s.pb;
    for (name, v) in [
        ("sim.cycles", s.cycles),
        ("sm.instructions", s.instructions),
        ("sm.stall.ofence", st.ofence),
        ("sm.stall.dfence", st.dfence),
        ("sm.stall.pacqrel", st.pacqrel),
        ("sm.stall.l1_miss", st.l1_miss),
        ("sm.stall.pb_full", st.pb_full),
        ("sm.stall.pb_ordered", st.pb_ordered),
        ("sm.stall.wpq_backpressure", st.wpq_backpressure),
        ("sm.stall.pcie_backoff", st.pcie_backoff),
        ("sm.stall.scoreboard", st.scoreboard),
        ("sm.stall.total", st.total),
        ("mem.l1_hits", s.l1_hits),
        ("mem.l1_misses", s.l1_misses),
        ("mem.l1_pm_read_misses", s.l1_pm_read_misses),
        ("mem.volatile_writebacks", s.volatile_writebacks),
        ("mem.pcie_bytes", s.pcie_bytes),
        ("mem.nvm_write_bytes", s.nvm_write_bytes),
        ("mem.nvm_read_bytes", s.nvm_read_bytes),
        ("mem.wpq_accepts", s.wpq_accepts),
        ("pbuffer.stores", pb.stores),
        ("pbuffer.coalesced", pb.coalesced),
        ("pbuffer.flushes", pb.flushes),
        ("pbuffer.acks", pb.acks),
        ("pbuffer.stall_full", pb.stall_full),
        ("pbuffer.stall_ordered", pb.stall_ordered),
        ("pbuffer.ofences", pb.ofences),
        ("pbuffer.dfences", pb.dfences),
        ("epoch.rounds", s.epoch_rounds),
    ] {
        pass.add(name, v as f64);
    }
}
