//! Crash recovery.
//!
//! The failure model matches the paper's (§2, ADR): on a power failure,
//! everything volatile — caches, persist buffers, registers, in-flight
//! requests — is lost; the WPQ's accepted writes and the NVM contents
//! survive. The simulator maintains that durable image continuously, so
//! a crash is simply "stop and take the image": [`Gpu::run`] under a
//! [`crate::fault::FaultPlan`], then [`Gpu::durable_image`]. Recovery
//! is [`recover`].

use crate::config::GpuConfig;
use crate::gpu::{Gpu, RunOutcome, SimError};
use crate::mem::Backing;
use sbrp_isa::{Kernel, LaunchConfig};

/// Why [`recover`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// The recovery run hit a simulator error (deadlock/timeout).
    Sim(SimError),
    /// The recovery run stopped without completing — e.g. a fault plan
    /// installed by `init_volatile` crashed it again. Recovery must
    /// never be reported successful in this case.
    Incomplete {
        /// How the run actually ended.
        outcome: RunOutcome,
        /// Cycles elapsed when it stopped.
        cycles: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Sim(e) => write!(f, "recovery run failed: {e}"),
            RecoverError::Incomplete { outcome, cycles } => {
                write!(
                    f,
                    "recovery ended {outcome:?} (not Completed) at cycle {cycles}"
                )
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<SimError> for RecoverError {
    fn from(e: SimError) -> Self {
        RecoverError::Sim(e)
    }
}

/// Boots a recovery GPU from a crash image, runs `init_volatile` on it
/// (what the host re-creates after power returns: GDDR inputs, the
/// clock when the caller continues a timeline, or a
/// [`crate::fault::FaultPlan`] to crash the recovery itself), then runs
/// each of `kernels` in order to completion.
///
/// # Errors
/// [`RecoverError::Sim`] for simulator deadlocks/timeouts, and
/// [`RecoverError::Incomplete`] if a kernel's run ended any way other
/// than [`RunOutcome::Completed`] — an incomplete recovery is a
/// failure, never silently accepted.
pub fn recover(
    cfg: &GpuConfig,
    image: &Backing,
    init_volatile: impl FnOnce(&mut Gpu),
    kernels: &[(&Kernel, LaunchConfig)],
    max_cycles: u64,
) -> Result<Gpu, RecoverError> {
    let mut gpu = Gpu::from_image(cfg, image);
    init_volatile(&mut gpu);
    for &(kernel, launch) in kernels {
        gpu.launch(kernel, launch);
        let report = gpu.run(max_cycles)?;
        if report.outcome != RunOutcome::Completed {
            return Err(RecoverError::Incomplete {
                outcome: report.outcome,
                cycles: report.cycles,
            });
        }
    }
    Ok(gpu)
}
