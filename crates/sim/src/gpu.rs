//! The whole-GPU simulation loop: block dispatch, cycle stepping,
//! completion routing, and run control.

use crate::config::GpuConfig;
use crate::fault::{CrashTrigger, FaultEventCounts, FaultPlan};
use crate::mem::{Backing, Completion, LineWrite, MemSubsystem, PersistDest, ReqTag};
use crate::sm::Sm;
use crate::stats::SimStats;
use crate::trace::TraceCapture;
use sbrp_core::scope::MAX_WARPS_PER_SM;
use sbrp_isa::{Code, Kernel, LaunchConfig};
use std::sync::Arc;

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
    /// The kernel, lowered once for every warp of the launch.
    code: Arc<Code>,
    launch: LaunchConfig,
    next_block: u32,
    /// Value of the GPU's running count of completed blocks that marks
    /// launch completion.
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
    /// The PCIe-backoff flag every SM's uncharged stall span accrues
    /// under; it flips only once every SM is charged up to the flip.
    backoff: bool,
    /// Bit per SM: set for every SM that may not be idle
    /// ([`Sm::is_idle_at`]), so a step visits only these. A completion
    /// routed to an SM, a block placed on it, a tick that leaves it
    /// [`Sm::busy`], a sleeper coming due, the final drain and the
    /// start of a run set its bit; a visit that leaves it not busy
    /// clears it.
    awake: u64,
    /// Per SM, its earliest sleeper's wake cycle as of its last visit
    /// (`u64::MAX` when none sleeps): only a visit or a completion,
    /// which wakes the SM, changes it in between.
    wake_at: Vec<u64>,
    /// The minimum of `wake_at`.
    min_wake: u64,
    /// Blocks completed on every SM so far.
    completed: u64,
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
    /// bitmask can name, or if the line size is not a power of two of at
    /// most [`LineWrite::MAX_BYTES`] (the width of an SM's written-byte
    /// mask and of a flush's line snapshot), or if the SM count is not
    /// between 1 and 64 (the width of the awake set).
    #[must_use]
    pub fn new(cfg: &GpuConfig) -> Self {
        assert!(
            (1..=64).contains(&cfg.num_sms),
            "num_sms must be between 1 and 64"
        );
        assert!(
            cfg.max_warps_per_sm as usize <= MAX_WARPS_PER_SM,
            "max_warps_per_sm exceeds the {MAX_WARPS_PER_SM} warp slots an SM supports"
        );
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes as usize <= LineWrite::MAX_BYTES,
            "line_bytes must be a power of two of at most {} bytes",
            LineWrite::MAX_BYTES
        );
        Gpu {
            cfg: cfg.clone(),
            sms: (0..cfg.num_sms).map(|i| Sm::new(i, cfg)).collect(),
            ms: MemSubsystem::new(cfg),
            tracer: (cfg.trace || cfg.sanitize).then(TraceCapture::new),
            cycle: 0,
            active: None,
            fault_trigger: None,
            completions: Vec::new(),
            serial: false,
            steps: 0,
            idle_until: 0,
            backoff: false,
            awake: 0,
            wake_at: vec![u64::MAX; cfg.num_sms as usize],
            min_wake: u64::MAX,
            completed: 0,
        }
    }

    /// The awake set with every SM's bit set.
    fn all_sms(&self) -> u64 {
        u64::MAX >> (64 - self.sms.len())
    }

    /// Forces strictly serial stepping, the test-only reference: the
    /// scheduler visits every cycle instead of fast-forwarding over idle
    /// gaps and ticks every SM instead of skipping the idle ones. Orders
    /// of magnitude slower; results (stats, stall breakdowns, durable
    /// images, not the timeline) must be identical to the default
    /// scheduler's, which the equivalence tests check.
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
    /// set): a §5.3 scoped persistency bug (an acquire that observed a
    /// release whose scope excludes one of the threads) is a violation
    /// outright; otherwise the verdict is [`TraceCapture::check`]'s.
    /// Non-consuming: the trace stays available for [`Gpu::take_trace`]
    /// and later re-checks (e.g. a subsequent crash point in the same
    /// campaign cell).
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
        let verdict = match tc.scope_bugs().first() {
            Some(bug) => Err(sbrp_core::formal::PmoViolation {
                before: bug.release,
                after: bug.acquire,
                message: bug.to_string(),
            }),
            None => tc.check(),
        };
        verdict.map_err(|violation| SimError::PmoViolation {
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
        self.active = Some(ActiveLaunch {
            code: Arc::new(Code::lower(kernel)),
            launch,
            next_block: 0,
            target_completed: self.completed + u64::from(launch.blocks),
            draining: false,
        });
        self.dispatch();
        // The next step opens by observing at `cycle - 1`, which would
        // date the new warps a cycle before their launch.
        if self.cfg.timeline {
            for sm in &mut self.sms {
                sm.observe(self.cycle, self.backoff);
            }
        }
    }

    /// Places queued blocks first-fit, waking each SM that takes one;
    /// returns whether any block was placed.
    fn dispatch(&mut self) -> bool {
        let Some(active) = self.active.as_mut() else {
            return false;
        };
        let first = active.next_block;
        'outer: while active.next_block < active.launch.blocks {
            for (i, sm) in self.sms.iter_mut().enumerate() {
                if sm.try_place_block(&active.code, active.launch, active.next_block) {
                    active.next_block += 1;
                    self.awake |= 1 << i;
                    continue 'outer;
                }
            }
            break;
        }
        active.next_block > first
    }

    /// Opens a step: ends an expired backoff, then, in a timeline run,
    /// observes each SM whose warp states may have changed at
    /// `cycle - 1`, under that cycle's flag.
    fn open_step(&mut self) {
        self.sync_backoff(0);
        if let (true, Some(prev)) = (self.cfg.timeline, self.cycle.checked_sub(1)) {
            let flag = self.ms.pcie_backoff_active(prev);
            for sm in &mut self.sms {
                sm.observe(prev, flag);
                // A backoff that ends at this very cycle.
                sm.unobserved |= flag != self.backoff;
            }
        }
    }

    /// Opens a step and charges every SM up to `self.cycle - 1`: the
    /// crash and timeout exits leave before the next step would.
    fn charge_pending_stalls(&mut self) {
        self.open_step();
        for sm in &mut self.sms {
            sm.charge_stalls(self.cycle.saturating_sub(1), self.backoff);
        }
    }

    /// Charges SM `sm` up to `self.cycle - 1`, so a completion routed to
    /// it cannot re-attribute the span, and marks it for observation.
    fn before_route(&mut self, sm: u32) {
        self.awake |= 1 << sm;
        let sm = &mut self.sms[sm as usize];
        sm.charge_stalls(self.cycle.saturating_sub(1), self.backoff);
        sm.unobserved = true;
    }

    /// Follows a flip of the PCIe-backoff flag, once the first `ticked`
    /// SMs in tick order have ticked or been skipped, by charging every
    /// SM under the old flag up to where the serial reference had: up
    /// to the expiry, or, for a set at this cycle `c` (which makes
    /// `pcie_backoff_active(c - 1)` true after the fact), the first
    /// `ticked` SMs up to `c` and the rest up to `c - 1`.
    fn sync_backoff(&mut self, ticked: usize) {
        let old = self.backoff;
        if self.ms.pcie_backoff_active(self.cycle) == old {
            return;
        }
        self.backoff = !old;
        // An expiry is only ever seen as a step opens (`ticked == 0`).
        let rest = if old {
            self.ms.pcie_backoff_until() - 1
        } else {
            self.cycle.saturating_sub(1)
        };
        for (i, sm) in self.sms.iter_mut().enumerate() {
            sm.charge_stalls(if i < ticked { self.cycle } else { rest }, old);
            sm.unobserved = true;
        }
    }

    /// Routes this cycle's completions, each SM charged up to the
    /// previous cycle before it takes one (see [`Gpu::before_route`]).
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
                ReqTag::LoadFill { sm, token } | ReqTag::Atomic { sm, token } => {
                    self.before_route(sm);
                    self.sms[sm as usize]
                        .on_fill(token as usize, &mut self.tracer, &self.ms)
                        .map_err(|d| protocol(c.at, d))
                }
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
                                PersistDest::Sbrp { sm, line } => {
                                    self.before_route(sm);
                                    self.sms[sm as usize]
                                        .on_persist_ack(line)
                                        .map_err(|d| protocol(c.at, d))
                                }
                                PersistDest::Epoch { sm } => {
                                    self.before_route(sm);
                                    self.sms[sm as usize]
                                        .on_epoch_ack(&mut self.ms, c.at)
                                        .map_err(|d| protocol(c.at, d))
                                }
                                PersistDest::Detached => Ok(()),
                            }
                        }
                    }
                }
                ReqTag::PersistAccept { sm } => {
                    self.before_route(sm);
                    self.sms[sm as usize].on_flush_accepted();
                    Ok(())
                }
                ReqTag::EpochVol { sm } => {
                    self.before_route(sm);
                    self.sms[sm as usize]
                        .on_epoch_ack(&mut self.ms, c.at)
                        .map_err(|d| protocol(c.at, d))
                }
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
        let all = self.all_sms();
        let Some(active) = self.active.as_mut() else {
            return true;
        };
        let blocks_done =
            active.next_block >= active.launch.blocks && self.completed >= active.target_completed;
        if !blocks_done {
            return false;
        }
        if !active.draining {
            active.draining = true;
            self.awake = all;
            for sm in &mut self.sms {
                sm.begin_final_drain(&mut self.ms, self.cycle);
            }
        }
        // While the drain's acks are in flight, the event test alone
        // answers, with no scan over every SM.
        if self.ms.next_event().is_none() && self.sms.iter().all(Sm::engine_quiescent) {
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
    /// Only the awake SMs are visited, and of those only the ones that
    /// are not [`Sm::is_idle_at`] tick, in ascending index order; blocks
    /// dispatch only after a step in which one completed, since only a
    /// retiring block frees warp slots. The serial reference instead
    /// ticks every SM and dispatches at every step.
    ///
    /// Callers must only invoke this with `self.cycle < bound`; the
    /// landed cycle then satisfies `self.cycle <= bound` exactly, so run
    /// loops observe crash cycles, timeout limits, and cycle-window
    /// fault triggers on the cycle they name instead of overshooting
    /// them during a fast-forward jump.
    fn step_until(&mut self, bound: u64) -> Result<bool, SimError> {
        debug_assert!(self.cycle < bound, "step_until past its bound");
        self.open_step();
        self.route_completions()?;
        self.sync_backoff(0);
        let (cycle, serial) = (self.cycle, self.serial);
        if self.cfg.timeline {
            for sm in &mut self.sms {
                sm.observe(cycle, self.backoff);
            }
        }
        if cycle >= self.min_wake {
            for (i, &wake) in self.wake_at.iter().enumerate() {
                if wake <= cycle {
                    self.awake |= 1 << i;
                }
            }
        }
        debug_assert!(
            (0..self.sms.len()).all(|i| self.awake >> i & 1 == 1 || self.sms[i].is_idle_at(cycle)),
            "an SM outside the awake set can act at cycle {cycle}"
        );
        let completed = self.completed;
        let mut visit = if serial { self.all_sms() } else { self.awake };
        let (mut progress, mut ready, mut stale_min) = (false, false, false);
        while visit != 0 {
            let i = visit.trailing_zeros() as usize;
            visit &= visit - 1;
            let (sm, backoff) = (&mut self.sms[i], self.backoff);
            if serial || !sm.is_idle_at(cycle) {
                let before = sm.completed_blocks;
                progress |= sm.tick(cycle, self.steps, backoff, &mut self.ms, &mut self.tracer);
                self.completed += sm.completed_blocks - before;
                self.sync_backoff(i + 1);
            }
            let sm = &self.sms[i];
            ready |= sm.has_ready_warp();
            self.awake = self.awake & !(1 << i) | u64::from(sm.busy()) << i;
            let (wake, old) = (sm.next_wake(), self.wake_at[i]);
            self.wake_at[i] = wake;
            if wake < self.min_wake {
                self.min_wake = wake;
            } else {
                stale_min |= old == self.min_wake && wake != old;
            }
        }
        if stale_min {
            self.min_wake = self.wake_at.iter().copied().min().unwrap_or(u64::MAX);
        }
        if self.cycle >= self.idle_until {
            self.steps += 1;
        }
        if serial || self.completed != completed {
            ready |= self.dispatch();
        }
        // The final drain's flushes can set the flag too, but no warp is
        // left to charge or observe; the next step's test catches up.
        if self.launch_finished() {
            return Ok(true);
        }
        if progress || ready {
            self.cycle += 1;
            return Ok(false);
        }
        // Nothing can issue: fast-forward to the next wakeup/event,
        // clamped to the caller's bound. The serial reference scans
        // every SM instead of reading the wake table.
        let wake = if serial {
            self.sms.iter().map(Sm::next_wake).min().unwrap_or(u64::MAX)
        } else {
            self.min_wake
        };
        let next = (wake != u64::MAX)
            .then_some(wake)
            .into_iter()
            .chain(self.ms.next_event())
            .min();
        match next {
            Some(t) => {
                let mut target = t.max(self.cycle + 1).min(bound);
                // A jump stops short of the PCIe-backoff expiry: the
                // cycles a run visits set its step count (the order warps
                // issue in) and its timeline's cycles.
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
        self.awake = self.all_sms();
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
            Some(CrashTrigger::DFenceWait(k)) => self.fault_event_counts().dfence_waits >= k,
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
