//! The whole-GPU simulation loop: block dispatch, cycle stepping,
//! completion routing, and run control.

use crate::config::GpuConfig;
use crate::fault::{CrashTrigger, FaultEventCounts, FaultPlan};
use crate::mem::{Backing, Completion, MemSubsystem, PersistDest, ReqTag};
use crate::sm::Sm;
use crate::stats::SimStats;
use crate::trace::TraceCapture;
use sbrp_core::scope::MAX_WARPS_PER_SM;
use sbrp_isa::{Kernel, LaunchConfig};

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The kernel finished and every persist drained to durability.
    Completed,
    /// Power failed: a fault plan's crash trigger fired, or the link died.
    Crashed,
}

/// Result of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Cycles elapsed since the GPU was created.
    pub cycles: u64,
}

/// Errors a run can produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No warp could make progress and no memory event was pending.
    Deadlock {
        /// Cycle at which the simulation wedged.
        cycle: u64,
    },
    /// The cycle limit was reached before completion.
    Timeout {
        /// The limit that was hit.
        limit: u64,
    },
    /// A completion-protocol violation: a memory-system event routed to
    /// a component that cannot accept it (unknown persist ack, fill for
    /// a warp with no memory op, ack delivered to the wrong engine
    /// kind). Reported instead of panicking so campaign sweeps can
    /// record the cell as failed and continue.
    Protocol {
        /// Cycle at which the violation was detected.
        cycle: u64,
        /// What went wrong.
        detail: String,
    },
    /// The online sanitizer ([`crate::config::GpuConfig::sanitize`])
    /// found the execution violating the persistency model: durability
    /// inverted PMO, a crash state was not PMO-downward-closed, or a
    /// §5.3 scoped persistency bug synchronized without creating PMO.
    PmoViolation {
        /// Cycle at which the run ended (completion or crash) and the
        /// trace was verified.
        cycle: u64,
        /// The offending event pair and explanation.
        violation: sbrp_core::formal::PmoViolation,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle } => write!(f, "simulation deadlocked at cycle {cycle}"),
            SimError::Timeout { limit } => write!(f, "simulation exceeded {limit} cycles"),
            SimError::Protocol { cycle, detail } => {
                write!(
                    f,
                    "completion-protocol violation at cycle {cycle}: {detail}"
                )
            }
            SimError::PmoViolation { cycle, violation } => {
                write!(f, "persistency violation at cycle {cycle}: {violation}")
            }
        }
    }
}

impl std::error::Error for SimError {}

struct ActiveLaunch {
    kernel: Kernel,
    launch: LaunchConfig,
    next_block: u32,
    /// `completed_blocks` sum across SMs that marks launch completion.
    target_completed: u64,
    draining: bool,
}

/// The simulated GPU.
pub struct Gpu {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    ms: MemSubsystem,
    tracer: Option<TraceCapture>,
    cycle: u64,
    active: Option<ActiveLaunch>,
    fault_trigger: Option<CrashTrigger>,
    /// Scratch buffer for completion routing, reused across steps so the
    /// hot loop never allocates for event delivery.
    completions: Vec<Completion>,
    /// Disable fast-forwarding: advance strictly one cycle at a time.
    /// Not a `GpuConfig` field so sweep-cache fingerprints are
    /// unaffected; used by equivalence tests.
    serial: bool,
    /// Scheduling steps taken: one per cycle the fast-forwarding loop
    /// visits. The SMs' round-robin issue pointer is this count, so it
    /// advances per step, not per cycle.
    steps: u64,
    /// Under serial stepping, the cycle a fast-forward would have leapt
    /// to. The cycles before it are visited but are not scheduling
    /// steps, so both modes issue warps in the same order.
    idle_until: u64,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("cycle", &self.cycle)
            .field("sms", &self.sms.len())
            .field("active", &self.active.is_some())
            .finish()
    }
}

impl Gpu {
    /// Builds a GPU from a configuration.
    ///
    /// # Panics
    /// Panics if the SM has more warp slots than a persist buffer's warp
    /// bitmask can name.
    #[must_use]
    pub fn new(cfg: &GpuConfig) -> Self {
        assert!(
            cfg.max_warps_per_sm as usize <= MAX_WARPS_PER_SM,
            "max_warps_per_sm exceeds the {MAX_WARPS_PER_SM} warp slots an SM supports"
        );
        Gpu {
            cfg: cfg.clone(),
            sms: (0..cfg.num_sms).map(|i| Sm::new(i, cfg)).collect(),
            ms: MemSubsystem::new(cfg),
            tracer: (cfg.trace || cfg.sanitize).then(|| {
                // A full trace is needed for external checks; sampling
                // only applies to the sanitizer-only configuration.
                if cfg.trace {
                    TraceCapture::new()
                } else {
                    TraceCapture::with_sample(cfg.sanitize_sample)
                }
            }),
            cycle: 0,
            active: None,
            fault_trigger: None,
            completions: Vec::new(),
            serial: false,
            steps: 0,
            idle_until: 0,
        }
    }

    /// Forces strictly serial stepping: the scheduler visits every cycle
    /// instead of fast-forwarding over idle gaps. Orders of magnitude
    /// slower; results (stats, stall breakdowns, durable images) must be
    /// identical to fast-forwarded runs, which the equivalence tests
    /// check.
    pub fn set_serial_stepping(&mut self, serial: bool) {
        self.serial = serial;
    }

    /// Builds a GPU whose NVM starts from a durable image: the boot
    /// step of [`crate::crash::recover`].
    #[must_use]
    pub fn from_image(cfg: &GpuConfig, image: &Backing) -> Self {
        let mut gpu = Self::new(cfg);
        gpu.ms.nvm_mem = image.clone();
        gpu.ms.nvm_durable = image.clone();
        gpu
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the clock of an **idle** GPU by `cycles` without
    /// simulating anything. The request-serving harness uses this to
    /// model host-side gaps between batch launches (waiting for
    /// arrivals, linger timers) on the same clock the simulator keeps,
    /// so kernel durations and inter-batch idle time compose into one
    /// consistent service timeline. A recovery boot
    /// ([`crate::crash::recover`]) can also fast-forward to the crash
    /// cycle in its `init_volatile` step, so the timeline survives the
    /// crash.
    ///
    /// # Panics
    /// Panics if a launch is still active — idle time only exists
    /// between launches, when every persist has drained and no memory
    /// event is pending.
    pub fn skip_idle(&mut self, cycles: u64) {
        assert!(
            self.active.is_none(),
            "skip_idle with an active launch: the GPU is not idle"
        );
        debug_assert!(
            self.ms.next_event().is_none(),
            "skip_idle with pending memory events"
        );
        self.cycle = self.cycle.saturating_add(cycles);
    }

    // ------------------------------------------------------------------
    // Memory setup / inspection
    // ------------------------------------------------------------------

    /// Writes initial volatile (GDDR) contents.
    pub fn load_gddr(&mut self, addr: u64, bytes: &[u8]) {
        self.ms.gddr_mem.write_bytes(addr, bytes);
    }

    /// Writes initial NVM contents, marked already-durable.
    pub fn load_nvm(&mut self, addr: u64, bytes: &[u8]) {
        self.ms.init_nvm(addr, bytes);
    }

    /// Reads a `u64` from functional memory (either space).
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.ms.read_mem(addr, 8)
    }

    /// Reads a `u64` from the functional NVM image.
    #[must_use]
    pub fn read_nvm_u64(&self, addr: u64) -> u64 {
        self.ms.nvm_mem.read_u64(addr)
    }

    /// Reads a `u64` from the *durable* NVM image (what a crash keeps).
    #[must_use]
    pub fn read_durable_u64(&self, addr: u64) -> u64 {
        self.ms.nvm_durable.read_u64(addr)
    }

    /// Clones the durable NVM image (crash extraction).
    #[must_use]
    pub fn durable_image(&self) -> Backing {
        self.ms.nvm_durable.clone()
    }

    /// Takes the persist trace (if tracing was enabled).
    pub fn take_trace(&mut self) -> Option<TraceCapture> {
        self.tracer.take()
    }

    /// Runs the online sanitizer's verdict over the trace recorded so
    /// far (a no-op unless [`crate::config::GpuConfig::sanitize`] is
    /// set). Non-consuming: the trace stays available for
    /// [`Gpu::take_trace`] and later re-checks (e.g. a subsequent crash
    /// point in the same campaign cell).
    ///
    /// # Errors
    /// [`SimError::PmoViolation`] with the offending event pair.
    pub fn sanitize_check(&self) -> Result<(), SimError> {
        if !self.cfg.sanitize {
            return Ok(());
        }
        let Some(tc) = self.tracer.as_ref() else {
            return Ok(());
        };
        tc.verify().map_err(|violation| SimError::PmoViolation {
            cycle: self.cycle,
            violation,
        })
    }

    // ------------------------------------------------------------------
    // Launch & run
    // ------------------------------------------------------------------

    /// Launches a kernel. Only one launch may be active at a time;
    /// sequential launches on the same GPU keep cache/channel state.
    ///
    /// # Panics
    /// Panics if a launch is already active or the block size exceeds
    /// the SM's warp slots.
    pub fn launch(&mut self, kernel: &Kernel, launch: LaunchConfig) {
        assert!(self.active.is_none(), "a launch is already active");
        assert!(
            launch.warps_per_block() <= self.cfg.max_warps_per_sm,
            "block does not fit in an SM"
        );
        let completed_now: u64 = self.sms.iter().map(|s| s.completed_blocks).sum();
        self.active = Some(ActiveLaunch {
            kernel: kernel.clone(),
            launch,
            next_block: 0,
            target_completed: completed_now + u64::from(launch.blocks),
            draining: false,
        });
        self.dispatch();
    }

    fn dispatch(&mut self) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        'outer: while active.next_block < active.launch.blocks {
            for sm in &mut self.sms {
                if sm.try_place_block(&active.kernel, active.launch, active.next_block) {
                    active.next_block += 1;
                    continue 'outer;
                }
            }
            break;
        }
    }

    /// Charges stall cycles up to `self.cycle - 1` on every SM. Run
    /// exit paths (crash, timeout) call this because a fast-forward can
    /// land exactly on the bound and leave the loop before the next
    /// step's charge — serial stepping charged that span cycle by
    /// cycle, and the two modes must agree.
    fn charge_pending_stalls(&mut self) {
        if let Some(prev) = self.cycle.checked_sub(1) {
            for sm in &mut self.sms {
                sm.charge_stalls(prev, &self.ms);
            }
        }
    }

    fn route_completions(&mut self) -> Result<(), SimError> {
        let protocol = |cycle: u64, detail: String| SimError::Protocol { cycle, detail };
        // Reuse the scratch buffer: taking it out keeps the borrow
        // checker happy while `self` routes each completion.
        let mut batch = std::mem::take(&mut self.completions);
        batch.clear();
        self.ms.poll_into(self.cycle, &mut batch);
        let mut result = Ok(());
        for c in &batch {
            let r = match c.tag {
                ReqTag::LoadFill { sm, token } | ReqTag::Atomic { sm, token } => self.sms
                    [sm as usize]
                    .on_fill(token as usize, &mut self.tracer, &self.ms)
                    .map_err(|d| protocol(c.at, d)),
                ReqTag::PersistAck { ack_id } => {
                    let suppressed = self.ms.fault_ack_suppressed(ack_id);
                    match self.ms.take_persist_dest(ack_id) {
                        None => Err(protocol(c.at, format!("unknown persist ack {ack_id}"))),
                        Some((dest, tokens)) => {
                            // A dropped/torn commit still acks (the machine
                            // is lied to), but the trace records the truth:
                            // these persists never became durable.
                            if !suppressed {
                                if let Some(tc) = self.tracer.as_mut() {
                                    tc.durable(&tokens, c.at);
                                }
                            }
                            match dest {
                                PersistDest::Sbrp { sm, line } => self.sms[sm as usize]
                                    .on_persist_ack(line)
                                    .map_err(|d| protocol(c.at, d)),
                                PersistDest::Epoch { sm } => self.sms[sm as usize]
                                    .on_epoch_ack(&mut self.ms, c.at)
                                    .map_err(|d| protocol(c.at, d)),
                                PersistDest::Detached => Ok(()),
                            }
                        }
                    }
                }
                ReqTag::PersistAccept { sm } => {
                    self.sms[sm as usize].on_flush_accepted();
                    Ok(())
                }
                ReqTag::EpochVol { sm } => self.sms[sm as usize]
                    .on_epoch_ack(&mut self.ms, c.at)
                    .map_err(|d| protocol(c.at, d)),
                ReqTag::None => Ok(()),
            };
            if let Err(e) = r {
                result = Err(e);
                break;
            }
        }
        self.completions = batch;
        result
    }

    /// Whether the active launch (if any) has fully completed and
    /// drained.
    fn launch_finished(&mut self) -> bool {
        let Some(active) = self.active.as_mut() else {
            return true;
        };
        let completed: u64 = self.sms.iter().map(|s| s.completed_blocks).sum();
        let blocks_done =
            active.next_block >= active.launch.blocks && completed >= active.target_completed;
        if !blocks_done {
            return false;
        }
        if !active.draining {
            active.draining = true;
            for sm in &mut self.sms {
                sm.begin_final_drain(&mut self.ms, self.cycle);
            }
        }
        let quiescent = self.sms.iter().all(Sm::engine_quiescent);
        if quiescent && self.ms.next_event().is_none() {
            for sm in &mut self.sms {
                sm.end_final_drain();
            }
            self.active = None;
            true
        } else {
            false
        }
    }

    /// Advances one scheduling step, never moving `self.cycle` past
    /// `bound`. Returns `Ok(true)` when the active launch completed.
    ///
    /// Callers must only invoke this with `self.cycle < bound`; the
    /// landed cycle then satisfies `self.cycle <= bound` exactly, so run
    /// loops observe crash cycles, timeout limits, and cycle-window
    /// fault triggers on the cycle they name instead of overshooting
    /// them during a fast-forward jump.
    fn step_until(&mut self, bound: u64) -> Result<bool, SimError> {
        debug_assert!(self.cycle < bound, "step_until past its bound");
        // Charge stalls up to the *previous* cycle before completions
        // land: a completion that unblocks a warp this cycle must not
        // erase the stalled span behind it (under fast-forward the whole
        // leapt span would vanish). `Sm::tick` charges the final cycle
        // with post-routing state — in serial stepping this pre-charge
        // is a delta-0 no-op, so both modes attribute identically.
        self.charge_pending_stalls();
        self.route_completions()?;
        let mut progress = false;
        for sm in &mut self.sms {
            progress |= sm.tick(self.cycle, self.steps, &mut self.ms, &mut self.tracer);
        }
        if self.cycle >= self.idle_until {
            self.steps += 1;
        }
        self.dispatch();
        if self.launch_finished() {
            return Ok(true);
        }
        if progress || self.sms.iter().any(Sm::has_ready_warp) {
            self.cycle += 1;
            return Ok(false);
        }
        // Nothing can issue: fast-forward to the next wakeup/event,
        // clamped to the caller's bound.
        let next = self
            .sms
            .iter()
            .filter_map(Sm::next_wake)
            .chain(self.ms.next_event())
            .min();
        match next {
            Some(t) => {
                let mut target = t.max(self.cycle + 1).min(bound);
                // Stall causes are sampled when the jump lands, so a jump
                // must not cross the PCIe-backoff expiry: cycles on either
                // side of it are attributed differently.
                let backoff_until = self.ms.pcie_backoff_until();
                if self.cycle + 1 < backoff_until {
                    target = target.min(backoff_until - 1);
                }
                if self.serial {
                    self.idle_until = target;
                    target = self.cycle + 1;
                }
                self.cycle = target;
                Ok(false)
            }
            None => Err(SimError::Deadlock { cycle: self.cycle }),
        }
    }

    /// Runs until the active launch completes (including the final
    /// durability drain) or an installed [`FaultPlan`] cuts power: then
    /// the run ends [`RunOutcome::Crashed`] and the durable image holds
    /// exactly what the persistence domain had accepted.
    ///
    /// # Errors
    /// [`SimError::Timeout`] if `max_cycles` elapse first, or
    /// [`SimError::Deadlock`] if nothing can ever make progress (a
    /// kernel bug, e.g. a spin on a flag nobody releases; a power cut
    /// that strands waiters is a crash). With the online sanitizer
    /// armed, a PMO violation in the partial trace is reported as
    /// [`SimError::PmoViolation`] in preference to the timeout: it is
    /// the bug worth debugging.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunReport, SimError> {
        let limit = self.cycle.saturating_add(max_cycles);
        // A cycle-window trigger is a bound of its own: fast-forwarding
        // must land exactly on the trigger cycle, not leap over it.
        let bound = match self.fault_trigger {
            Some(CrashTrigger::AtCycle(c)) => limit.min(c.max(self.cycle + 1)),
            _ => limit,
        };
        while self.cycle < limit {
            if self.fault_crash_now() {
                // Completions route at the start of a step: commit the
                // events that landed up to the crash cycle, so the
                // durable image is the exact event-prefix. (A no-op for
                // power cuts inside the memory system.)
                self.charge_pending_stalls();
                self.route_completions()?;
                return self.end_run(RunOutcome::Crashed);
            }
            match self.step_until(bound) {
                Ok(true) => return self.end_run(RunOutcome::Completed),
                Ok(false) => {}
                // A power cut strands waiters mid-step; that is the
                // crash, not a simulator wedge.
                Err(_) if self.fault_crash_now() => return self.end_run(RunOutcome::Crashed),
                Err(e) => return Err(e),
            }
        }
        // The clamp in `step_until` guarantees the loop exits exactly at
        // the limit, so the error agrees with `self.cycle`.
        debug_assert_eq!(self.cycle, limit);
        self.charge_pending_stalls();
        // The events captured before the timeout still deserve PMO
        // verification — a violation must not hide behind the timeout.
        self.sanitize_check()?;
        Err(SimError::Timeout { limit })
    }

    /// Ends a run with `outcome`, once the sanitizer has passed the trace.
    fn end_run(&self, outcome: RunOutcome) -> Result<RunReport, SimError> {
        self.sanitize_check()?;
        Ok(RunReport {
            outcome,
            cycles: self.cycle,
        })
    }

    /// Runs until `crash_cycle` (simulated power failure) or completion:
    /// [`Gpu::run`] with no cycle limit under a [`CrashTrigger::AtCycle`]
    /// trigger that replaces the installed one for this call only, so a
    /// GPU whose run completed can keep launching. Memory-side triggers
    /// and faults stay armed.
    ///
    /// # Errors
    /// As [`Gpu::run`].
    pub fn run_until(&mut self, crash_cycle: u64) -> Result<RunReport, SimError> {
        let at = Some(CrashTrigger::AtCycle(crash_cycle));
        let previous = std::mem::replace(&mut self.fault_trigger, at);
        let report = self.run(u64::MAX);
        self.fault_trigger = previous;
        report
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a fault-injection plan (see [`crate::fault`]);
    /// [`Gpu::run`] turns its power cuts into [`RunOutcome::Crashed`]
    /// reports.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_trigger = plan.trigger;
        self.ms.set_fault_plan(plan);
    }

    /// Totals of the countable crash-trigger events so far; a campaign
    /// reads these after a crash-free run to size its sweep.
    #[must_use]
    pub fn fault_event_counts(&self) -> FaultEventCounts {
        let (wpq_accepts, pb_drains) = self.ms.fault_event_counts();
        FaultEventCounts {
            wpq_accepts,
            pb_drains,
            dfence_waits: self.sms.iter().map(|s| s.counters().dfence_waits).sum(),
        }
    }

    /// Whether the PCIe link died by exhausting its retry budget (a
    /// [`crate::fault::PcieFaultConfig`] consequence).
    #[must_use]
    pub fn fault_link_dead(&self) -> bool {
        self.ms.fault_link_dead()
    }

    /// Whether an installed fault plan has cut power.
    fn fault_crash_now(&self) -> bool {
        if self.ms.fault_crashed() {
            return true;
        }
        match self.fault_trigger {
            Some(CrashTrigger::AtCycle(c)) => self.cycle >= c,
            Some(CrashTrigger::DFenceWait(k)) => {
                self.sms
                    .iter()
                    .map(|s| s.counters().dfence_waits)
                    .sum::<u64>()
                    >= k
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// Aggregates statistics across SMs and the memory system.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let (pcie_retries, pcie_backoff_cycles) = self.ms.pcie_retry_stats();
        let mut s = SimStats {
            cycles: self.cycle,
            pcie_bytes: self.ms.pcie_bytes(),
            nvm_write_bytes: self.ms.nvm_write_bytes(),
            nvm_read_bytes: self.ms.nvm_read_bytes(),
            wpq_accepts: self.ms.fault_event_counts().0,
            pcie_retries,
            pcie_backoff_cycles,
            ..SimStats::default()
        };
        for sm in &self.sms {
            s.merge_sm(sm.counters());
            s.merge_stall(sm.stall_breakdown());
            s.epoch_rounds += sm.epoch_rounds();
            s.merge_pb(sm.pb_stats());
        }
        s
    }

    /// Per-SM stall breakdowns (index = SM id).
    #[must_use]
    pub fn sm_stall_breakdowns(&self) -> Vec<sbrp_core::stall::StallBreakdown> {
        self.sms.iter().map(|sm| sm.stall_breakdown()).collect()
    }

    /// Per-warp-slot stall breakdowns of SM `sm`.
    #[must_use]
    pub fn warp_stall_breakdowns(&self, sm: usize) -> Vec<sbrp_core::stall::StallBreakdown> {
        self.sms[sm].warp_stall_breakdowns()
    }

    /// Takes the recorded timeline, closing all open intervals at the
    /// current cycle. `None` unless the configuration set
    /// [`GpuConfig::timeline`].
    pub fn take_timeline(&mut self) -> Option<crate::timeline::Timeline> {
        if !self.cfg.timeline {
            return None;
        }
        let now = self.cycle;
        let mut slices = Vec::new();
        for sm in &mut self.sms {
            slices.extend(sm.take_timeline(now));
        }
        slices.extend(self.ms.take_timeline_slices());
        slices.sort_by_key(|s| (s.pid, s.tid, s.start));
        Some(crate::timeline::Timeline {
            slices,
            cycles: now,
            num_sms: self.cfg.num_sms,
        })
    }
}

// The sweep engine (`sbrp-harness::sweep`) runs independent `Gpu`
// instances on worker threads. These compile-time assertions pin the
// whole simulation state — the GPU, fault plans, and the persist
// tracer — as `Send`; the ISA shares statement trees via `Arc` for
// exactly this reason. Removing `Send` from any of these breaks the
// build here rather than in a distant generic bound.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Gpu>();
    assert_send::<RunReport>();
    assert_send::<SimError>();
    assert_send::<crate::fault::FaultPlan>();
    assert_send::<crate::trace::TraceCapture>();
    assert_send::<crate::stats::SimStats>();
};
