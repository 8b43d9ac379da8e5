//! Fault injection: event-triggered crash points, torn NVM writes,
//! ADR-violation faults, and transient PCIe link faults.
//!
//! The paper's failure model (§2) is a clean power cut: everything
//! volatile is lost atomically, while the WPQ's accepted writes and NVM
//! contents survive. Cycle-numbered crashes (`Gpu::run_until`) sample
//! that model, but interesting crash states cluster around *machine
//! events* — a write being accepted into the WPQ, a persist buffer
//! draining a line, a warp blocking on a `dFence`. A [`FaultPlan`]
//! names such an event directly ("crash at the 17th WPQ accept"), which
//! makes sweeps dense where the durable image actually changes and lets
//! a failing crash point be shrunk to the minimal event index.
//!
//! Beyond clean crashes, the plan can inject *machine bugs* that the
//! failure model forbids, as negative controls for the checkers:
//!
//! * [`NvmFault::DropWpqEntry`] models an ADR violation — the WPQ
//!   acknowledges a write (the persist buffer and fences all observe a
//!   durability ack) but the bytes never reach the durable image.
//! * [`NvmFault::TornWrite`] persists only a prefix of a line's 8-byte
//!   chunks, modelling a torn media write at the crash.
//!
//! Both deliver the acknowledgement — the machine proceeds believing
//! the persist is durable — so a later, genuinely durable persist that
//! was ordered *after* the faulted one makes the crash image violate
//! the model's downward-closure. The formal trace checker and the
//! workload verifiers are expected to detect this; tests that inject
//! these faults and observe no violation are failing tests.
//!
//! Finally, [`PcieFaultConfig`] models *transient* PM-far link faults:
//! every n-th PCIe transfer is corrupted a configurable number of
//! consecutive times and retried with exponential backoff, re-charging
//! link bandwidth per attempt. Exceeding the retry budget declares the
//! link dead, which the machine treats as a power-cut-equivalent crash.

use std::collections::HashSet;

/// A machine event at which the simulated power fails.
///
/// Event counters are global across the GPU and count from 1: a trigger
/// with `k = 1` crashes at the very first matching event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Crash on exactly this cycle; `Gpu::run_until(c)` is `Gpu::run`
    /// under `AtCycle(c)`.
    AtCycle(u64),
    /// Crash immediately after the `k`-th write is accepted into a
    /// memory controller's WPQ (the accepted write itself is durable —
    /// ADR — but nothing after it is).
    WpqAccept(u64),
    /// Crash when the `k`-th persist-buffer drain (line flush into the
    /// persistence domain) is issued; the in-flight flush is lost.
    PbDrain(u64),
    /// Crash when the `k`-th warp blocks waiting on durability (a
    /// `dFence` with drains pending, or an epoch barrier).
    DFenceWait(u64),
}

/// A seeded NVM-side fault, applied to one WPQ accept (counted from 1,
/// same counter as [`CrashTrigger::WpqAccept`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NvmFault {
    /// No NVM fault.
    #[default]
    None,
    /// ADR violation: the `k`-th accepted write is acknowledged but its
    /// bytes are silently dropped from the durable image.
    DropWpqEntry(u64),
    /// Torn write: the `entry`-th accepted write persists only its
    /// first `chunks` 8-byte chunks; the rest are lost. Acknowledged as
    /// if fully durable.
    TornWrite {
        /// Which WPQ accept to tear (1-based).
        entry: u64,
        /// How many leading 8-byte chunks actually persist.
        chunks: u32,
    },
}

/// Transient PCIe link-fault model for the PM-far design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PcieFaultConfig {
    /// Every `period`-th transfer over the link is faulted (0 disables).
    pub period: u64,
    /// How many consecutive attempts of a faulted transfer fail before
    /// the link recovers.
    pub burst: u32,
    /// Retry budget per transfer; a transfer still failing after this
    /// many retries declares the link dead (power-cut-equivalent).
    pub max_retries: u32,
    /// Base backoff in cycles; retry `i` waits `backoff_base << i`.
    pub backoff_base: u64,
}

impl Default for PcieFaultConfig {
    fn default() -> Self {
        PcieFaultConfig {
            period: 0,
            burst: 1,
            max_retries: 8,
            backoff_base: 32,
        }
    }
}

/// A complete fault-injection plan for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// When (if ever) the power fails.
    pub trigger: Option<CrashTrigger>,
    /// A seeded NVM-side fault (ADR violation or torn write).
    pub nvm: NvmFault,
    /// Transient PCIe link faults (PM-far only; ignored by PM-near).
    pub pcie: Option<PcieFaultConfig>,
}

impl FaultPlan {
    /// A plan that only crashes at `trigger` (no injected machine bugs).
    #[must_use]
    pub fn crash_at(trigger: CrashTrigger) -> Self {
        FaultPlan {
            trigger: Some(trigger),
            ..FaultPlan::default()
        }
    }

    /// Adds an NVM fault to the plan.
    #[must_use]
    pub fn with_nvm(mut self, nvm: NvmFault) -> Self {
        self.nvm = nvm;
        self
    }

    /// Adds transient PCIe link faults to the plan.
    #[must_use]
    pub fn with_pcie(mut self, pcie: PcieFaultConfig) -> Self {
        self.pcie = Some(pcie);
        self
    }
}

/// Totals of the countable crash-trigger events observed in a run.
///
/// A campaign first runs each configuration crash-free to learn these
/// totals, then sweeps `k` over `1..=total` for each trigger family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultEventCounts {
    /// Writes accepted into WPQs (durable commits).
    pub wpq_accepts: u64,
    /// Persist-buffer drains (line flushes into the persistence domain).
    pub pb_drains: u64,
    /// Warps that blocked waiting on durability (dFence/epoch barrier).
    pub dfence_waits: u64,
}

/// What the memory subsystem should do with an accepted WPQ write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DurableAction {
    /// Commit all segments to the durable image (the normal case).
    Commit,
    /// ADR violation: acknowledge but commit nothing.
    Drop,
    /// Torn write: commit only the first `n` 8-byte chunks.
    Torn(u32),
}

/// Live fault-injection state, owned by the memory subsystem.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// WPQ accepts observed so far (1-based after increment).
    pub wpq_accepts: u64,
    /// Persist-buffer drains observed so far.
    pub pb_drains: u64,
    /// PCIe transfers observed so far (for the fault period).
    pub pcie_transfers: u64,
    /// PCIe retransmissions performed.
    pub pcie_retries: u64,
    /// Cycles spent in retry backoff.
    pub pcie_backoff_cycles: u64,
    /// Power has failed: no further events are delivered or committed.
    pub crashed: bool,
    /// The PCIe link exhausted its retry budget.
    pub link_dead: bool,
    /// Ack ids whose durable commit was dropped or torn; the trace must
    /// not mark their persists durable.
    suppressed: HashSet<u64>,
}

impl FaultState {
    pub(crate) fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Notes a persist-buffer drain; may arm the crash.
    pub(crate) fn on_pb_drain(&mut self) {
        self.pb_drains += 1;
        if let Some(CrashTrigger::PbDrain(k)) = self.plan.trigger {
            if self.pb_drains >= k {
                self.crashed = true;
            }
        }
    }

    /// Notes a WPQ accept; decides the commit action for it and may arm
    /// the crash (the accepted write itself still commits — ADR).
    pub(crate) fn on_wpq_accept(&mut self, ack_id: Option<u64>) -> DurableAction {
        self.wpq_accepts += 1;
        let n = self.wpq_accepts;
        let action = match self.plan.nvm {
            NvmFault::DropWpqEntry(k) if n == k => DurableAction::Drop,
            NvmFault::TornWrite { entry, chunks } if n == entry => DurableAction::Torn(chunks),
            _ => DurableAction::Commit,
        };
        if action != DurableAction::Commit {
            if let Some(id) = ack_id {
                self.suppressed.insert(id);
            }
        }
        if let Some(CrashTrigger::WpqAccept(k)) = self.plan.trigger {
            if n >= k {
                self.crashed = true;
            }
        }
        action
    }

    /// Whether fault injection suppressed the durable commit behind this
    /// acknowledgement (the ack lies; the trace must not trust it).
    pub(crate) fn ack_suppressed(&self, ack_id: u64) -> bool {
        self.suppressed.contains(&ack_id)
    }

    /// Whether the plan faults PCIe transfers at all.
    pub(crate) fn pcie_armed(&self) -> bool {
        self.plan.pcie.is_some_and(|f| f.period != 0)
    }

    /// Whether the next PCIe transfer is faulted; if so, returns the
    /// link-fault configuration to drive the retry loop.
    pub(crate) fn pcie_glitch(&mut self) -> Option<PcieFaultConfig> {
        let f = self.plan.pcie?;
        if f.period == 0 {
            return None;
        }
        self.pcie_transfers += 1;
        self.pcie_transfers.is_multiple_of(f.period).then_some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wpq_trigger_fires_at_k_and_commits_kth() {
        let mut st = FaultState::default();
        st.set_plan(FaultPlan::crash_at(CrashTrigger::WpqAccept(2)));
        assert_eq!(st.on_wpq_accept(Some(0)), DurableAction::Commit);
        assert!(!st.crashed);
        assert_eq!(st.on_wpq_accept(Some(1)), DurableAction::Commit);
        assert!(st.crashed, "k-th accept commits, then power dies");
    }

    #[test]
    fn drop_fault_suppresses_exactly_one_ack() {
        let mut st = FaultState::default();
        st.set_plan(FaultPlan::default().with_nvm(NvmFault::DropWpqEntry(2)));
        assert_eq!(st.on_wpq_accept(Some(10)), DurableAction::Commit);
        assert_eq!(st.on_wpq_accept(Some(11)), DurableAction::Drop);
        assert_eq!(st.on_wpq_accept(Some(12)), DurableAction::Commit);
        assert!(!st.ack_suppressed(10));
        assert!(st.ack_suppressed(11));
        assert!(!st.ack_suppressed(12));
    }

    #[test]
    fn torn_fault_reports_chunk_budget() {
        let mut st = FaultState::default();
        st.set_plan(FaultPlan::default().with_nvm(NvmFault::TornWrite {
            entry: 1,
            chunks: 3,
        }));
        assert_eq!(st.on_wpq_accept(Some(0)), DurableAction::Torn(3));
        assert!(st.ack_suppressed(0));
    }

    #[test]
    fn pb_drain_trigger_counts() {
        let mut st = FaultState::default();
        st.set_plan(FaultPlan::crash_at(CrashTrigger::PbDrain(3)));
        st.on_pb_drain();
        st.on_pb_drain();
        assert!(!st.crashed);
        st.on_pb_drain();
        assert!(st.crashed);
    }

    #[test]
    fn pcie_glitch_period() {
        let mut st = FaultState::default();
        st.set_plan(FaultPlan::default().with_pcie(PcieFaultConfig {
            period: 3,
            ..PcieFaultConfig::default()
        }));
        assert!(st.pcie_glitch().is_none());
        assert!(st.pcie_glitch().is_none());
        assert!(st.pcie_glitch().is_some());
        assert!(st.pcie_glitch().is_none());
    }
}
