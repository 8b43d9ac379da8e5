//! # sbrp-harness
//!
//! Experiment orchestration for the paper's evaluation (§7): run any
//! (workload × model × system design) combination, compute speedups
//! against the paper's baselines, inject crashes and time recovery, and
//! render figure tables. The per-figure binaries in `sbrp-bench` are
//! thin wrappers over this crate.

#![deny(missing_docs)]

pub mod campaign;
pub mod report;
pub mod serve;
pub mod sweep;

use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign};
use sbrp_gpu_sim::crash::{self, RecoverError};
use sbrp_gpu_sim::fault::{CrashTrigger, FaultPlan};
use sbrp_gpu_sim::mem::Backing;
use sbrp_gpu_sim::stats::SimStats;
use sbrp_gpu_sim::{Gpu, RunOutcome, RunReport, SimError, Timeline};
use sbrp_workloads::{BuildOpts, Workload, WorkloadKind};

/// Cycle budget for any single simulated kernel.
pub const CYCLE_LIMIT: u64 = 20_000_000_000;

/// Typed failure of a harness run. Carries enough context to identify
/// the failing cell; campaign sweeps record these and continue instead
/// of aborting the whole matrix.
#[derive(Clone, Debug)]
pub enum HarnessError {
    /// The simulator failed (deadlock, timeout, protocol violation).
    Sim {
        /// `workload model/system` of the failing cell.
        cell: String,
        /// The underlying simulator error.
        source: SimError,
    },
    /// A run ended in an outcome the measurement cannot use (e.g. a
    /// crash point that fell outside the run).
    Outcome {
        /// `workload model/system` of the failing cell.
        cell: String,
        /// What went wrong.
        detail: String,
    },
    /// The cell's code panicked; the sweep engine contained it
    /// (`catch_unwind`) and turned it into this typed error.
    Panicked {
        /// `workload model/system` of the failing cell.
        cell: String,
        /// The panic message.
        message: String,
    },
    /// The cell overran its configured wall-clock deadline
    /// (`--cell-timeout`) and was abandoned by the sweep watchdog.
    Deadline {
        /// `workload model/system` of the failing cell.
        cell: String,
        /// The configured budget, in milliseconds.
        limit_millis: u64,
    },
}

impl HarnessError {
    /// The `workload model/system` name of the failing cell.
    #[must_use]
    pub fn cell(&self) -> &str {
        match self {
            HarnessError::Sim { cell, .. }
            | HarnessError::Outcome { cell, .. }
            | HarnessError::Panicked { cell, .. }
            | HarnessError::Deadline { cell, .. } => cell,
        }
    }

    /// A failed [`crash::recover`] of cell `cell`: simulator errors stay
    /// [`HarnessError::Sim`], an incomplete recovery is an outcome error.
    pub(crate) fn recover(cell: String, e: RecoverError) -> Self {
        match e {
            RecoverError::Sim(source) => HarnessError::Sim { cell, source },
            e @ RecoverError::Incomplete { .. } => HarnessError::Outcome {
                cell,
                detail: e.to_string(),
            },
        }
    }

    /// The failure description without the cell-name prefix — what an
    /// error row or failure table should print next to the cell.
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            HarnessError::Sim { source, .. } => source.to_string(),
            HarnessError::Outcome { detail, .. } => detail.clone(),
            HarnessError::Panicked { message, .. } => format!("cell panicked: {message}"),
            HarnessError::Deadline { limit_millis, .. } => {
                format!("cell exceeded the {limit_millis} ms deadline")
            }
        }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.cell(), self.detail())
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Sim { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Everything needed to run one experiment cell.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Which application.
    pub workload: WorkloadKind,
    /// Which persistency model.
    pub model: ModelKind,
    /// PM-far or PM-near.
    pub system: SystemDesign,
    /// Workload size (elements / pairs / pixels).
    pub scale: u64,
    /// Input randomization seed.
    pub seed: u64,
    /// Demote block scopes to device scope (Fig. 7).
    pub demote_scopes: bool,
    /// Enable eADR (Fig. 9; PM-far only).
    pub eadr: bool,
    /// Persist-buffer coverage as a fraction of L1 lines (Fig. 10a);
    /// `None` keeps the default 50 %.
    pub pb_coverage: Option<f64>,
    /// NVM bandwidth multiplier (Fig. 10b).
    pub nvm_bw_scale: f64,
    /// Drain window size (Fig. 10c); `None` keeps the default 6.
    pub window: Option<u32>,
    /// Override the full drain policy (ablation of §6.2's choices);
    /// takes precedence over `window`.
    pub policy: Option<sbrp_core::pbuffer::DrainPolicy>,
    /// Disable the out-of-order drain refinement (ablation).
    pub no_ooo_drain: bool,
    /// Disable the early-flush-on-stall refinement (ablation).
    pub no_early_flush: bool,
    /// Disable per-warp oFence tracking (ablation: the paper's 1-bit
    /// FSM semantics).
    pub no_per_warp_fsm: bool,
    /// Use the scaled-down 4-SM GPU (for fast tests) instead of the
    /// default Table 1 machine with 30 SMs.
    pub small_gpu: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: WorkloadKind::Reduction,
            model: ModelKind::Sbrp,
            system: SystemDesign::PmNear,
            scale: 4096,
            seed: 42,
            demote_scopes: false,
            eadr: false,
            pb_coverage: None,
            nvm_bw_scale: 1.0,
            window: None,
            policy: None,
            no_ooo_drain: false,
            no_early_flush: false,
            no_per_warp_fsm: false,
            small_gpu: false,
        }
    }
}

impl RunSpec {
    /// The simulator configuration this spec describes.
    #[must_use]
    pub fn config(&self) -> GpuConfig {
        let mut cfg = if self.small_gpu {
            GpuConfig::small(self.model, self.system)
        } else {
            GpuConfig::table1(self.model, self.system)
        };
        cfg.eadr = self.eadr;
        cfg.nvm_bw_scale = self.nvm_bw_scale;
        if let Some(f) = self.pb_coverage {
            cfg.set_pb_coverage(f);
        }
        if let Some(w) = self.window {
            cfg.pb.policy = sbrp_core::pbuffer::DrainPolicy::Window(w);
        }
        if let Some(p) = self.policy {
            cfg.pb.policy = p;
        }
        cfg.pb.ooo_drain = !self.no_ooo_drain;
        cfg.pb.early_flush = !self.no_early_flush;
        cfg.pb.per_warp_fsm = !self.no_per_warp_fsm;
        cfg
    }

    fn build_opts(&self) -> BuildOpts {
        BuildOpts {
            model: self.model,
            demote_scopes: self.demote_scopes,
        }
    }

    /// `workload model/system` — how errors and reports name this cell.
    #[must_use]
    pub fn cell_name(&self) -> String {
        format!("{} {:?}/{}", self.workload, self.model, self.system)
    }
}

/// Result of one experiment cell.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Crash-free kernel runtime in cycles (including the final drain).
    pub cycles: u64,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Whether the workload's verifier accepted the final state.
    pub verified: bool,
}

/// Runs one cell to completion.
///
/// ```
/// use sbrp_harness::{run_workload, RunSpec};
/// use sbrp_workloads::WorkloadKind;
///
/// let out = run_workload(&RunSpec {
///     workload: WorkloadKind::Gpkvs,
///     scale: 64,
///     small_gpu: true,
///     ..RunSpec::default()
/// })
/// .unwrap();
/// assert!(out.verified && out.cycles > 0);
/// ```
///
/// # Errors
/// [`HarnessError::Sim`] if the simulation deadlocks, times out at
/// [`CYCLE_LIMIT`], or hits a completion-protocol violation. Callers
/// that sweep a matrix record the error and continue; one-shot callers
/// typically `expect` it.
pub fn run_workload(spec: &RunSpec) -> Result<RunOutput, HarnessError> {
    run_workload_traced(spec, false).map(|(out, _)| out)
}

/// Like [`run_workload`], but with `timeline: true` also records a
/// [`Timeline`] of warp states and memory events for Chrome-trace
/// export (the `--trace-out` flag of the bench binaries).
///
/// # Errors
/// As [`run_workload`].
pub fn run_workload_traced(
    spec: &RunSpec,
    timeline: bool,
) -> Result<(RunOutput, Option<Timeline>), HarnessError> {
    let mut cfg = spec.config();
    cfg.timeline = timeline;
    let w = spec.workload.instantiate(spec.scale, spec.seed);
    let (mut gpu, report) = crash_run(w.as_ref(), &cfg, spec.build_opts(), FaultPlan::default());
    let report = report.map_err(|source| HarnessError::Sim {
        cell: spec.cell_name(),
        source,
    })?;
    let out = RunOutput {
        cycles: report.cycles,
        stats: gpu.stats(),
        verified: w.verify_complete(&gpu).is_ok(),
    };
    Ok((out, gpu.take_timeline()))
}

/// Result of a crash + recovery measurement (Fig. 11).
#[derive(Clone, Debug)]
pub struct RecoveryOutput {
    /// Cycle the crash was injected at.
    pub crash_cycle: u64,
    /// Cycles the recovery pass took (recovery kernel where the workload
    /// has one, plus the resumed main kernel).
    pub recovery_cycles: u64,
    /// Crash-free runtime, for the recovery/runtime ratio.
    pub crash_free_cycles: u64,
    /// Whether the recovered state verified.
    pub verified: bool,
}

/// Crashes the workload at `fraction` of its crash-free runtime and
/// measures the recovery pass (§7.3, "Recovery time": the paper crashes
/// each application at its worst-case point, e.g. gpKVS just before the
/// transaction completes).
///
/// # Errors
/// [`HarnessError::Sim`] on simulator deadlock/timeout/protocol
/// violation in any of the three runs, [`HarnessError::Outcome`] if the
/// crash point fell outside the run.
pub fn run_recovery(spec: &RunSpec, fraction: f64) -> Result<RecoveryOutput, HarnessError> {
    let sim_err = |source| HarnessError::Sim {
        cell: spec.cell_name(),
        source,
    };
    let cfg = spec.config();
    let opts = spec.build_opts();
    let crash_free = run_workload(spec)?.cycles;
    let crash_cycle = ((crash_free as f64) * fraction) as u64;

    let w = spec.workload.instantiate(spec.scale, spec.seed);
    let plan = FaultPlan::crash_at(CrashTrigger::AtCycle(crash_cycle));
    let (gpu, report) = crash_run(w.as_ref(), &cfg, opts, plan);
    let report = report.map_err(sim_err)?;
    if report.outcome != RunOutcome::Crashed {
        return Err(HarnessError::Outcome {
            cell: spec.cell_name(),
            detail: format!(
                "crash point {crash_cycle} fell outside the run ({} cycles)",
                report.cycles
            ),
        });
    }
    let image = gpu.durable_image();
    let rgpu = recover_and_rerun(w.as_ref(), &cfg, opts, &image).map_err(|e| match e {
        RerunError::Recover(e) => HarnessError::recover(spec.cell_name(), e),
        RerunError::Rerun(e) => sim_err(e),
    })?;
    Ok(RecoveryOutput {
        crash_cycle,
        // The recovery GPU boots at cycle 0, so its clock is the time
        // the whole recovery pass took.
        recovery_cycles: rgpu.cycle(),
        crash_free_cycles: crash_free,
        verified: w.verify_complete(&rgpu).is_ok(),
    })
}

/// Runs `w`'s main kernel on a fresh GPU under `plan` (a default plan
/// runs crash-free). The GPU comes back whatever the outcome, for its
/// durable image or the sanitizer's verdict on a partial trace.
pub(crate) fn crash_run(
    w: &dyn Workload,
    cfg: &GpuConfig,
    opts: BuildOpts,
    plan: FaultPlan,
) -> (Gpu, Result<RunReport, SimError>) {
    let l = w.kernel(opts);
    let mut gpu = Gpu::new(cfg);
    w.init(&mut gpu);
    gpu.set_fault_plan(plan);
    gpu.launch(&l.kernel, l.launch);
    let report = gpu.run(CYCLE_LIMIT);
    (gpu, report)
}

/// Which half of [`recover_and_rerun`] failed.
pub(crate) enum RerunError {
    /// The recovery boot or the workload's recovery kernel.
    Recover(RecoverError),
    /// The re-run of the main kernel.
    Rerun(SimError),
}

/// Boots `w` from a crash image through [`crash::recover`] (with the
/// workload's recovery kernel where it has one; the clock starts at 0),
/// then re-runs the main kernel.
pub(crate) fn recover_and_rerun(
    w: &dyn Workload,
    cfg: &GpuConfig,
    opts: BuildOpts,
    image: &Backing,
) -> Result<Gpu, RerunError> {
    let recovery = w.recovery(opts);
    let kernels: Vec<_> = recovery.iter().map(|r| (&r.kernel, r.launch)).collect();
    let mut gpu = crash::recover(cfg, image, |g| w.init_volatile(g), &kernels, CYCLE_LIMIT)
        .map_err(RerunError::Recover)?;
    let l = w.kernel(opts);
    gpu.launch(&l.kernel, l.launch);
    gpu.run(CYCLE_LIMIT).map_err(RerunError::Rerun)?;
    Ok(gpu)
}

/// The five bars of Figure 6, in paper order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fig6Bar {
    /// GPM on PM-far (its only realizable system).
    Gpm,
    /// Epoch on PM-far — the normalization baseline.
    EpochFar,
    /// SBRP on PM-far.
    SbrpFar,
    /// Epoch on PM-near.
    EpochNear,
    /// SBRP on PM-near.
    SbrpNear,
}

impl Fig6Bar {
    /// All bars in figure order.
    pub const ALL: [Fig6Bar; 5] = [
        Fig6Bar::Gpm,
        Fig6Bar::EpochFar,
        Fig6Bar::SbrpFar,
        Fig6Bar::EpochNear,
        Fig6Bar::SbrpNear,
    ];

    /// The (model, system) pair of the bar.
    #[must_use]
    pub fn model_system(self) -> (ModelKind, SystemDesign) {
        match self {
            Fig6Bar::Gpm => (ModelKind::Gpm, SystemDesign::PmFar),
            Fig6Bar::EpochFar => (ModelKind::Epoch, SystemDesign::PmFar),
            Fig6Bar::SbrpFar => (ModelKind::Sbrp, SystemDesign::PmFar),
            Fig6Bar::EpochNear => (ModelKind::Epoch, SystemDesign::PmNear),
            Fig6Bar::SbrpNear => (ModelKind::Sbrp, SystemDesign::PmNear),
        }
    }

    /// The label used in the paper's legend.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fig6Bar::Gpm => "GPM",
            Fig6Bar::EpochFar => "Epoch-far",
            Fig6Bar::SbrpFar => "SBRP-far",
            Fig6Bar::EpochNear => "Epoch-near",
            Fig6Bar::SbrpNear => "SBRP-near",
        }
    }
}

/// Geometric mean (the paper's summary statistic).
///
/// # Panics
/// Panics on an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Default per-workload scales for the figure harness — chosen so the
/// full matrix runs in minutes at laptop scale while keeping every
/// workload's character (the paper's sizes, e.g. 4M-int reduction, need
/// the author's 20-hour budget; see EXPERIMENTS.md).
#[must_use]
pub fn default_scale(kind: WorkloadKind) -> u64 {
    match kind {
        WorkloadKind::Gpkvs => 8 * 1024,
        WorkloadKind::Hashmap => 8 * 1024,
        WorkloadKind::Srad => 16 * 1024,
        WorkloadKind::Reduction => 128 * 1024,
        WorkloadKind::Multiqueue => 16 * 1024,
        WorkloadKind::Scan => 16 * 1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig6_bars_cover_the_legend() {
        let labels: Vec<_> = Fig6Bar::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(
            labels,
            vec!["GPM", "Epoch-far", "SBRP-far", "Epoch-near", "SBRP-near"]
        );
    }

    #[test]
    fn spec_config_applies_knobs() {
        let spec = RunSpec {
            eadr: true,
            pb_coverage: Some(0.25),
            nvm_bw_scale: 2.0,
            window: Some(10),
            system: SystemDesign::PmFar,
            ..RunSpec::default()
        };
        let cfg = spec.config();
        assert!(cfg.eadr);
        assert_eq!(cfg.pb.capacity as u32, cfg.l1_lines() / 4);
        assert!((cfg.nvm_bw_scale - 2.0).abs() < 1e-12);
        assert_eq!(cfg.pb.policy, sbrp_core::pbuffer::DrainPolicy::Window(10));
    }

    #[test]
    fn tiny_end_to_end_run() {
        let out = run_workload(&RunSpec {
            workload: WorkloadKind::Gpkvs,
            scale: 128,
            ..RunSpec::default()
        })
        .expect("run completes");
        assert!(out.verified);
        assert!(out.cycles > 0);
        assert_eq!(
            out.stats.stall.bucket_sum(),
            out.stats.stall.total,
            "stall buckets sum to total"
        );
    }
}
