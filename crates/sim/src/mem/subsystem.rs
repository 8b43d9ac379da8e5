//! The shared memory subsystem: L2, memory controllers with ADR WPQs,
//! GDDR and NVM devices, and the PCIe link of the PM-far design.

use super::backing::Backing;
use super::cache::Cache;
use super::channel::Channel;
use crate::config::{is_pm, GpuConfig, SystemDesign};
use crate::fault::{DurableAction, FaultPlan, FaultState};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Extra cycles for a memory controller to accept a write into its
/// capacitor-backed WPQ (the ADR durability point).
const MC_ACCEPT_LATENCY: u64 = 10;
/// Cycles of L2 occupancy per atomic operation.
const ATOMIC_OP_LATENCY: u64 = 8;

/// Routing information returned with a completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqTag {
    /// A line fill for a warp's load; `token` routes back to the warp.
    LoadFill {
        /// Destination SM.
        sm: u32,
        /// Opaque warp token assigned by the GPU.
        token: u64,
    },
    /// Durability acknowledgement for a persist flush; resolve the
    /// destination with [`MemSubsystem::take_persist_dest`].
    PersistAck {
        /// Handle into the persist-destination registry.
        ack_id: u64,
    },
    /// Fast downstream-accept signal for an SBRP flush: a drain-window
    /// credit for the SM's persist unit.
    PersistAccept {
        /// SM whose persist unit regains a window slot.
        sm: u32,
    },
    /// Completion of a GPM epoch-barrier *volatile* writeback.
    EpochVol {
        /// SM whose epoch engine gets the ack.
        sm: u32,
    },
    /// An atomic operation finished at the L2.
    Atomic {
        /// Destination SM.
        sm: u32,
        /// Opaque warp token.
        token: u64,
    },
    /// Fire-and-forget (plain volatile writeback).
    None,
}

/// A delivered memory-system event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Cycle at which the event fired.
    pub at: u64,
    /// Routing tag.
    pub tag: ReqTag,
}

/// Who is waiting on a persist flush's durability acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistDest {
    /// An SBRP persist unit: deliver `ack_persist(line)` to SM `sm`.
    Sbrp {
        /// Destination SM.
        sm: u32,
        /// The L1 line index the flush drained from.
        line: u32,
    },
    /// An epoch engine's barrier round on SM `sm`.
    Epoch {
        /// Destination SM.
        sm: u32,
    },
    /// Nobody waits (final drain / natural eviction); the tokens still
    /// mark persists durable in the trace.
    Detached,
}

#[derive(Debug)]
enum EventKind {
    Deliver(ReqTag),
    /// Commit byte segments to the durable NVM image, then deliver the
    /// tag.
    Durable {
        segments: Vec<(u64, Vec<u8>)>,
        tag: ReqTag,
    },
}

#[derive(Debug)]
struct Event {
    at: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The GPU's shared memory system.
pub struct MemSubsystem {
    system: SystemDesign,
    eadr: bool,
    l2_latency: u64,
    line_bytes: u32,

    l2: Cache,
    gddr: Channel,
    nvm_read: Channel,
    nvm_write: Channel,
    pcie: Channel,
    pcie_latency: u64,

    /// Functional contents of volatile memory.
    pub gddr_mem: Backing,
    /// Functional contents of NVM (what running code observes).
    pub nvm_mem: Backing,
    /// Durable contents of NVM (what survives a crash).
    pub nvm_durable: Backing,

    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    persist_dests: std::collections::HashMap<u64, (PersistDest, Vec<u64>)>,
    next_ack_id: u64,
    fault: FaultState,
    /// Latest cycle up to which the PCIe link is busy retransmitting
    /// after injected transient faults (for stall attribution).
    backoff_until: u64,
    /// Flush lifetime recording (submit → durable) when tracing is on:
    /// `ack_id → submit cycle`, drained into `mem_slices`.
    flush_starts: Option<std::collections::HashMap<u64, u64>>,
    mem_slices: Vec<crate::timeline::Slice>,
}

impl std::fmt::Debug for MemSubsystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSubsystem")
            .field("system", &self.system)
            .field("events", &self.events.len())
            .finish()
    }
}

impl MemSubsystem {
    /// Builds the subsystem from a configuration.
    #[must_use]
    pub fn new(cfg: &GpuConfig) -> Self {
        let bpc = |gbps: f64| cfg.gbps_to_bytes_per_cycle(gbps);
        MemSubsystem {
            system: cfg.system,
            eadr: cfg.eadr,
            l2_latency: u64::from(cfg.l2_latency),
            line_bytes: cfg.line_bytes,
            l2: Cache::new(cfg.l2_kb * 1024, 16, cfg.line_bytes),
            gddr: Channel::new(bpc(cfg.gddr_bw_gbps), cfg.ns_to_cycles(cfg.gddr_latency_ns)),
            nvm_read: Channel::new(
                bpc(cfg.nvm_read_bw_gbps * cfg.nvm_bw_scale),
                cfg.ns_to_cycles(cfg.nvm_latency_ns),
            ),
            nvm_write: Channel::new(
                bpc(cfg.nvm_write_bw_gbps * cfg.nvm_bw_scale),
                cfg.ns_to_cycles(cfg.nvm_latency_ns),
            ),
            pcie: Channel::new(bpc(cfg.pcie_bw_gbps), cfg.ns_to_cycles(cfg.pcie_latency_ns)),
            pcie_latency: cfg.ns_to_cycles(cfg.pcie_latency_ns),
            gddr_mem: Backing::new(),
            nvm_mem: Backing::new(),
            nvm_durable: Backing::new(),
            events: BinaryHeap::new(),
            next_seq: 0,
            persist_dests: std::collections::HashMap::new(),
            next_ack_id: 0,
            fault: FaultState::default(),
            backoff_until: 0,
            flush_starts: cfg.timeline.then(std::collections::HashMap::new),
            mem_slices: Vec::new(),
        }
    }

    /// Installs a fault-injection plan (see [`crate::fault`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault.set_plan(plan);
    }

    /// Whether an injected fault has cut power (or killed the PCIe
    /// link): no further events are delivered or committed.
    #[must_use]
    pub fn fault_crashed(&self) -> bool {
        self.fault.crashed
    }

    /// Whether the PCIe link died by exhausting its retry budget.
    #[must_use]
    pub fn fault_link_dead(&self) -> bool {
        self.fault.link_dead
    }

    /// Whether fault injection suppressed the durable commit behind a
    /// persist acknowledgement (its persists must not be marked durable
    /// in the trace).
    #[must_use]
    pub fn fault_ack_suppressed(&self, ack_id: u64) -> bool {
        self.fault.ack_suppressed(ack_id)
    }

    /// (WPQ accepts, persist-buffer drains) observed so far — the
    /// event-trigger counters of [`crate::fault::CrashTrigger`].
    #[must_use]
    pub fn fault_event_counts(&self) -> (u64, u64) {
        (self.fault.wpq_accepts, self.fault.pb_drains)
    }

    /// (retries, backoff cycles) spent recovering transient PCIe faults.
    #[must_use]
    pub fn pcie_retry_stats(&self) -> (u64, u64) {
        (self.fault.pcie_retries, self.fault.pcie_backoff_cycles)
    }

    /// A PCIe transfer, subject to transient link faults: a faulted
    /// transfer is retransmitted with exponential backoff (re-charging
    /// link bandwidth each attempt); exhausting the retry budget kills
    /// the link, which the machine treats as a power cut.
    fn pcie_transfer(&mut self, now: u64, bytes: u64) -> (u64, u64) {
        let (accept, done) = self.pcie.access(now, bytes);
        let Some(glitch) = self.fault.pcie_glitch() else {
            return (accept, done);
        };
        let (mut accept, mut done) = (accept, done);
        for attempt in 0..glitch.burst {
            if attempt >= glitch.max_retries {
                self.fault.link_dead = true;
                self.fault.crashed = true;
                break;
            }
            let backoff = glitch.backoff_base << attempt.min(16);
            self.fault.pcie_retries += 1;
            self.fault.pcie_backoff_cycles += backoff;
            let (a, d) = self.pcie.access(done + backoff, bytes);
            accept = a;
            done = d;
        }
        self.backoff_until = self.backoff_until.max(done);
        if self.flush_starts.is_some() && done > now {
            self.mem_slices.push(crate::timeline::Slice {
                pid: crate::timeline::MEM_PID,
                tid: crate::timeline::MEM_LANES as u32,
                name: "pcie_retry",
                start: now,
                end: done,
            });
        }
        (accept, done)
    }

    /// Whether the PCIe link is (still) in fault-retry backoff at
    /// `now` — warps waiting on memory or durability during such a
    /// window are charged to [`sbrp_core::stall::StallCause::PcieBackoff`].
    #[must_use]
    pub fn pcie_backoff_active(&self, now: u64) -> bool {
        now < self.backoff_until
    }

    /// Whether the PCIe-backoff flag can be set at `now` or later: the
    /// fault plan arms PCIe faults, or an earlier backoff has not
    /// expired yet.
    #[must_use]
    pub fn pcie_backoff_possible(&self, now: u64) -> bool {
        self.fault.pcie_armed() || self.pcie_backoff_active(now)
    }

    /// First cycle at which the PCIe fault-retry backoff is over (0 when
    /// no backoff ever happened). Fast-forward jumps must not cross this
    /// boundary: stall attribution samples the cause at the landing
    /// cycle, and it differs on either side.
    #[must_use]
    pub fn pcie_backoff_until(&self) -> u64 {
        self.backoff_until
    }

    fn schedule(&mut self, at: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event { at, seq, kind }));
    }

    /// Reads functional memory (routed by address range).
    #[must_use]
    pub fn read_mem(&self, addr: u64, width: u64) -> u64 {
        if is_pm(addr) {
            self.nvm_mem.read_uint(addr, width)
        } else {
            self.gddr_mem.read_uint(addr, width)
        }
    }

    /// Writes functional memory (routed by address range).
    pub fn write_mem(&mut self, addr: u64, value: u64, width: u64) {
        if is_pm(addr) {
            self.nvm_mem.write_uint(addr, value, width);
        } else {
            self.gddr_mem.write_uint(addr, value, width);
        }
    }

    /// Initializes NVM contents as already-durable (pre-launch state).
    pub fn init_nvm(&mut self, addr: u64, bytes: &[u8]) {
        self.nvm_mem.write_bytes(addr, bytes);
        self.nvm_durable.write_bytes(addr, bytes);
    }

    /// Handles an L2 fill, returning the cycle the data is available at
    /// the L2 and charging the device channels on a miss.
    fn l2_access(&mut self, now: u64, addr: u64, is_write: bool) -> u64 {
        let at_l2 = now + self.l2_latency;
        if self.l2.lookup(addr).is_some() {
            return at_l2;
        }
        // Install the line, writing back a dirty volatile victim.
        let (way, victim) = self.l2.choose_victim(addr);
        if let Some(v) = victim {
            if v.dirty && !v.pm {
                let _ = self.gddr.access(at_l2, u64::from(self.line_bytes));
            }
        }
        self.l2.install(way, addr, false, is_pm(addr));
        if is_write {
            // Write-allocate without fetch: no device read needed.
            return at_l2;
        }
        let line = u64::from(self.line_bytes);
        if !is_pm(addr) {
            let (_, done) = self.gddr.access(at_l2, line);
            done
        } else {
            match self.system {
                SystemDesign::PmNear => {
                    let (_, done) = self.nvm_read.access(at_l2, line);
                    done
                }
                SystemDesign::PmFar => {
                    // Request over PCIe (latency), read at host NVM, data
                    // returns over PCIe (bandwidth + latency).
                    let t_req = at_l2 + self.pcie_latency;
                    let (_, t_nvm) = self.nvm_read.access(t_req, line);
                    let (_, t_ret) = self.pcie_transfer(t_nvm, line);
                    t_ret
                }
            }
        }
    }

    /// Submits a line fill for a load that missed the L1.
    pub fn submit_load(&mut self, now: u64, addr: u64, tag: ReqTag) {
        let done = self.l2_access(now, addr, false);
        self.schedule(done, EventKind::Deliver(tag));
    }

    /// Submits a persist writeback (an L1 PM line flush). `segments`
    /// are the (address, bytes) runs the flushing SM actually wrote in
    /// the line, snapshotted at flush time; they are committed to the
    /// durable image when the persistence domain accepts the write.
    /// (Byte-masking matters: a whole-line snapshot of the functional
    /// image would leak *other* SMs' not-yet-flushed writes into the
    /// durable image when lines are falsely shared.) At the durability
    /// cycle a [`ReqTag::PersistAck`] fires, resolvable to
    /// `dest`/`tokens` via [`MemSubsystem::take_persist_dest`]. Returns
    /// the ack handle.
    pub fn submit_persist_flush(
        &mut self,
        now: u64,
        addr: u64,
        segments: Vec<(u64, Vec<u8>)>,
        dest: PersistDest,
        tokens: Vec<u64>,
    ) -> u64 {
        self.fault.on_pb_drain();
        let ack_id = self.next_ack_id;
        self.next_ack_id += 1;
        if let Some(starts) = self.flush_starts.as_mut() {
            starts.insert(ack_id, now);
        }
        let sbrp_sm = match dest {
            PersistDest::Sbrp { sm, .. } => Some(sm),
            _ => None,
        };
        self.persist_dests.insert(ack_id, (dest, tokens));
        let tag = ReqTag::PersistAck { ack_id };
        // Persists write through the L2 (§6: no L2 persist buffer).
        let at_l2 = self.l2_access(now, addr, true);
        if let Some(sm) = sbrp_sm {
            // Window credit once the L2/egress accepts the line.
            self.schedule(at_l2, EventKind::Deliver(ReqTag::PersistAccept { sm }));
        }
        // Charge the channels for the bytes actually written, rounded up
        // to a 32 B sector — a partially-written line does not consume a
        // full line of NVM/PCIe write bandwidth (symmetric across
        // persistency models, since every flush carries a byte mask).
        let payload: u64 = segments.iter().map(|(_, d)| d.len() as u64).sum();
        let line = payload.div_ceil(32).max(1) * 32;
        let durable_at = match self.system {
            SystemDesign::PmNear => {
                let (accept, _) = self.nvm_write.access(at_l2, line);
                accept + MC_ACCEPT_LATENCY
            }
            SystemDesign::PmFar => {
                let (_, over_pcie) = self.pcie_transfer(at_l2, line);
                if self.eadr {
                    // eADR: durable once it reaches the host LLC; the NVM
                    // write still happens, consuming bandwidth.
                    let _ = self.nvm_write.access(over_pcie, line);
                    over_pcie + MC_ACCEPT_LATENCY + self.pcie_latency
                } else {
                    let (accept, _) = self.nvm_write.access(over_pcie, line);
                    accept + MC_ACCEPT_LATENCY + self.pcie_latency
                }
            }
        };
        self.schedule(durable_at, EventKind::Durable { segments, tag });
        ack_id
    }

    /// Resolves (and removes) a persist ack's destination and tokens.
    /// `None` means the ack was never issued by
    /// [`MemSubsystem::submit_persist_flush`] or was already taken — a
    /// completion-protocol violation the GPU reports as a typed error
    /// rather than a panic.
    pub fn take_persist_dest(&mut self, ack_id: u64) -> Option<(PersistDest, Vec<u64>)> {
        self.persist_dests.remove(&ack_id)
    }

    /// Drains the flush-lifetime / PCIe-retry slices recorded while
    /// timeline tracing is on (empty otherwise).
    pub fn take_timeline_slices(&mut self) -> Vec<crate::timeline::Slice> {
        std::mem::take(&mut self.mem_slices)
    }

    /// Submits a volatile L1 writeback (dirty line to L2). The tag is
    /// delivered when the L2 accepts the line (used by GPM's barrier).
    pub fn submit_volatile_wb(&mut self, now: u64, addr: u64, tag: ReqTag) {
        let at_l2 = self.l2_access(now, addr, true);
        if let Some(i) = self.l2.peek(addr) {
            self.l2.mark_dirty(i, false);
        }
        if !matches!(tag, ReqTag::None) {
            self.schedule(at_l2, EventKind::Deliver(tag));
        }
    }

    /// Submits an atomic read-modify-write (performed at the L2).
    pub fn submit_atomic(&mut self, now: u64, addr: u64, tag: ReqTag) {
        let at_l2 = self.l2_access(now, addr, true);
        if let Some(i) = self.l2.peek(addr) {
            self.l2.mark_dirty(i, false);
        }
        self.schedule(at_l2 + ATOMIC_OP_LATENCY, EventKind::Deliver(tag));
    }

    /// Delivers all events due at or before `now`. If an injected fault
    /// cuts power mid-batch, delivery stops at that exact event: later
    /// events (even same-cycle ones) never commit or deliver.
    pub fn poll(&mut self, now: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`MemSubsystem::poll`] into a caller-owned buffer: the GPU's step
    /// loop reuses one scratch vector so event delivery never allocates
    /// on the per-cycle path. Completions are appended in timestamp
    /// order (`(at, seq)`, the heap order).
    pub fn poll_into(&mut self, now: u64, out: &mut Vec<Completion>) {
        while let Some(Reverse(e)) = self.events.peek() {
            if e.at > now || self.fault.crashed {
                break;
            }
            let Reverse(e) = self.events.pop().expect("peeked event");
            match e.kind {
                EventKind::Deliver(tag) => out.push(Completion { at: e.at, tag }),
                EventKind::Durable { segments, tag } => {
                    let ack_id = match tag {
                        ReqTag::PersistAck { ack_id } => Some(ack_id),
                        _ => None,
                    };
                    if let (Some(starts), Some(id)) = (self.flush_starts.as_mut(), ack_id) {
                        if let Some(start) = starts.remove(&id) {
                            self.mem_slices.push(crate::timeline::Slice {
                                pid: crate::timeline::MEM_PID,
                                tid: (id % crate::timeline::MEM_LANES) as u32,
                                name: "flush",
                                start,
                                end: e.at.max(start + 1),
                            });
                        }
                    }
                    match self.fault.on_wpq_accept(ack_id) {
                        DurableAction::Commit => {
                            for (addr, data) in segments {
                                self.nvm_durable.write_bytes(addr, &data);
                            }
                        }
                        DurableAction::Drop => {}
                        DurableAction::Torn(chunks) => {
                            Self::commit_torn(&mut self.nvm_durable, &segments, chunks);
                        }
                    }
                    // The ack is delivered even for dropped/torn commits:
                    // the machine believes the persist is durable.
                    out.push(Completion { at: e.at, tag });
                }
            }
        }
    }

    /// Commits only the first `chunks` 8-byte-aligned chunks of the
    /// flush's segments — a torn media write.
    fn commit_torn(durable: &mut Backing, segments: &[(u64, Vec<u8>)], mut chunks: u32) {
        for (addr, data) in segments {
            let mut off = 0usize;
            while off < data.len() {
                if chunks == 0 {
                    return;
                }
                let a = addr + off as u64;
                // Run up to the next 8-byte boundary (or segment end).
                let take = (((a / 8 + 1) * 8 - a) as usize).min(data.len() - off);
                durable.write_bytes(a, &data[off..off + take]);
                off += take;
                chunks -= 1;
            }
        }
    }

    /// The next pending event's cycle, for fast-forwarding.
    #[must_use]
    pub fn next_event(&self) -> Option<u64> {
        self.events.peek().map(|Reverse(e)| e.at)
    }

    /// Total bytes moved over PCIe (Fig. 9 analysis).
    #[must_use]
    pub fn pcie_bytes(&self) -> u64 {
        self.pcie.total_bytes()
    }

    /// Total bytes written toward NVM.
    #[must_use]
    pub fn nvm_write_bytes(&self) -> u64 {
        self.nvm_write.total_bytes()
    }

    /// Total bytes read from NVM.
    #[must_use]
    pub fn nvm_read_bytes(&self) -> u64 {
        self.nvm_read.total_bytes()
    }

    /// L2 hit/miss counters.
    #[must_use]
    pub fn l2_stats(&self) -> super::cache::CacheStats {
        self.l2.stats()
    }

    /// Invalidate an address from the L2 (used by tests).
    pub fn l2_invalidate(&mut self, addr: u64) {
        self.l2.invalidate_addr(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PM_BASE;
    use sbrp_core::ModelKind;

    fn subsystem(system: SystemDesign) -> MemSubsystem {
        MemSubsystem::new(&GpuConfig::table1(ModelKind::Sbrp, system))
    }

    fn drain_until(ms: &mut MemSubsystem, tagged: ReqTag) -> u64 {
        for _ in 0..100 {
            let Some(at) = ms.next_event() else {
                panic!("no events")
            };
            for c in ms.poll(at) {
                if c.tag == tagged {
                    return c.at;
                }
            }
        }
        panic!("completion never arrived");
    }

    #[test]
    fn volatile_load_miss_charges_gddr() {
        let mut ms = subsystem(SystemDesign::PmNear);
        let tag = ReqTag::LoadFill { sm: 0, token: 1 };
        ms.submit_load(0, 0x1000, tag);
        let t = drain_until(&mut ms, tag);
        // l2 (40) + gddr serialization + 137-cycle latency
        assert!(t >= 40 + 137, "got {t}");
        assert!(t < 300, "got {t}");
    }

    #[test]
    fn l2_hit_is_fast() {
        let mut ms = subsystem(SystemDesign::PmNear);
        let t1 = ReqTag::LoadFill { sm: 0, token: 1 };
        ms.submit_load(0, 0x1000, t1);
        let first = drain_until(&mut ms, t1);
        let t2 = ReqTag::LoadFill { sm: 0, token: 2 };
        ms.submit_load(first, 0x1000, t2);
        let second = drain_until(&mut ms, t2);
        assert_eq!(second - first, 40, "L2 hit costs only the L2 latency");
    }

    #[test]
    fn pm_far_load_is_much_slower_than_near() {
        let mut near = subsystem(SystemDesign::PmNear);
        let tag = ReqTag::LoadFill { sm: 0, token: 1 };
        near.submit_load(0, PM_BASE, tag);
        let t_near = drain_until(&mut near, tag);

        let mut far = subsystem(SystemDesign::PmFar);
        far.submit_load(0, PM_BASE, tag);
        let t_far = drain_until(&mut far, tag);
        assert!(
            t_far > t_near + 400,
            "PCIe adds round-trip cost: {t_far} vs {t_near}"
        );
    }

    #[test]
    fn persist_flush_commits_durable_image_at_ack() {
        let mut ms = subsystem(SystemDesign::PmNear);
        ms.nvm_mem.write_u64(PM_BASE, 42);
        let data = ms.nvm_mem.read_bytes(PM_BASE, 128);
        let id = ms.submit_persist_flush(
            0,
            PM_BASE,
            vec![(PM_BASE, data)],
            PersistDest::Detached,
            vec![7],
        );
        assert_eq!(ms.nvm_durable.read_u64(PM_BASE), 0, "not durable yet");
        let t = drain_until(&mut ms, ReqTag::PersistAck { ack_id: id });
        assert!(t > 0);
        assert_eq!(ms.nvm_durable.read_u64(PM_BASE), 42, "durable at ack");
        let (dest, tokens) = ms.take_persist_dest(id).expect("ack registered");
        assert_eq!(dest, PersistDest::Detached);
        assert_eq!(tokens, vec![7]);
        assert_eq!(ms.take_persist_dest(id), None, "acks resolve once");
    }

    #[test]
    fn ack_is_wpq_accept_not_media_latency() {
        // ADR: the ack arrives at WPQ accept (bandwidth + small constant),
        // far sooner than the 410-cycle media latency.
        let mut ms = subsystem(SystemDesign::PmNear);
        let id = ms.submit_persist_flush(
            0,
            PM_BASE,
            vec![(PM_BASE, vec![0; 128])],
            PersistDest::Detached,
            vec![],
        );
        let t = drain_until(&mut ms, ReqTag::PersistAck { ack_id: id });
        assert!(t < 100, "WPQ accept should be fast, got {t}");
    }

    #[test]
    fn far_persists_pay_pcie_and_queue_at_bandwidth() {
        let mut ms = subsystem(SystemDesign::PmFar);
        let mut last = 0;
        for i in 0..8u32 {
            let _ = ms.submit_persist_flush(
                0,
                PM_BASE + u64::from(i) * 128,
                vec![(PM_BASE + u64::from(i) * 128, vec![0; 128])],
                PersistDest::Detached,
                vec![],
            );
        }
        for _ in 0..8 {
            let at = ms.next_event().unwrap();
            for c in ms.poll(at) {
                last = last.max(c.at);
            }
        }
        // 8 lines × 128 B over 20.5 B/cycle PCIe ≈ 50 cycles of
        // serialization + 2×410 ns of latency ⇒ well over 800 cycles.
        assert!(last > 800, "got {last}");
    }

    #[test]
    fn eadr_acks_before_nvm_accept_under_backlog() {
        let mk = |eadr: bool| {
            let mut cfg = GpuConfig::table1(ModelKind::Sbrp, SystemDesign::PmFar);
            cfg.eadr = eadr;
            // Make NVM write bandwidth the bottleneck so the WPQ queues.
            cfg.nvm_write_bw_gbps = 4.0;
            MemSubsystem::new(&cfg)
        };
        let run = |ms: &mut MemSubsystem| {
            let mut last = 0;
            for i in 0..16u32 {
                let _ = ms.submit_persist_flush(
                    0,
                    PM_BASE + u64::from(i) * 128,
                    vec![(PM_BASE + u64::from(i) * 128, vec![0; 128])],
                    PersistDest::Detached,
                    vec![],
                );
            }
            while let Some(at) = ms.next_event() {
                for c in ms.poll(at) {
                    last = last.max(c.at);
                }
            }
            last
        };
        let t_eadr = run(&mut mk(true));
        let t_adr = run(&mut mk(false));
        assert!(
            t_eadr < t_adr,
            "eADR ack at LLC precedes NVM accept ({t_eadr} vs {t_adr})"
        );
    }

    #[test]
    fn functional_memory_routes_by_address() {
        let mut ms = subsystem(SystemDesign::PmNear);
        ms.write_mem(0x100, 7, 8);
        ms.write_mem(PM_BASE + 0x100, 9, 8);
        assert_eq!(ms.read_mem(0x100, 8), 7);
        assert_eq!(ms.read_mem(PM_BASE + 0x100, 8), 9);
        assert_eq!(ms.gddr_mem.read_u64(0x100), 7);
        assert_eq!(ms.nvm_mem.read_u64(PM_BASE + 0x100), 9);
    }

    #[test]
    fn init_nvm_is_durable() {
        let mut ms = subsystem(SystemDesign::PmNear);
        ms.init_nvm(PM_BASE, &[1, 2, 3]);
        assert_eq!(ms.nvm_durable.read_bytes(PM_BASE, 3), vec![1, 2, 3]);
        assert_eq!(ms.nvm_mem.read_bytes(PM_BASE, 3), vec![1, 2, 3]);
    }

    #[test]
    fn nvm_bw_scale_knob_slows_writes() {
        let mut cfg = GpuConfig::table1(ModelKind::Sbrp, SystemDesign::PmNear);
        cfg.nvm_bw_scale = 0.5;
        let mut slow = MemSubsystem::new(&cfg);
        let mut fast = subsystem(SystemDesign::PmNear);
        let run = |ms: &mut MemSubsystem| {
            for i in 0..32u32 {
                let _ = ms.submit_persist_flush(
                    0,
                    PM_BASE + u64::from(i) * 128,
                    vec![(PM_BASE + u64::from(i) * 128, vec![0; 128])],
                    PersistDest::Detached,
                    vec![],
                );
            }
            let mut last = 0;
            while let Some(at) = ms.next_event() {
                for c in ms.poll(at) {
                    last = last.max(c.at);
                }
            }
            last
        };
        assert!(run(&mut slow) > run(&mut fast));
    }
}
