//! The shared memory subsystem: L2, memory controllers with ADR WPQs,
//! GDDR and NVM devices, and the PCIe link of the PM-far design.

use super::backing::Backing;
use super::cache::Cache;
use super::channel::Channel;
use crate::config::{is_pm, GpuConfig, SystemDesign};
use crate::fault::{DurableAction, FaultPlan, FaultState};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
        /// Handle into the in-flight flush registry.
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

/// The payload of one persist flush: the bytes one SM wrote in one L1
/// line, snapshotted from the functional NVM image when the line leaves
/// the L1, and committed to the durable image when the persistence
/// domain accepts the write.
///
/// Fixed-size, so a flush carries no heap allocation from the L1 to the
/// durable commit. Bit `i` of the mask marks byte `base + i` as written;
/// only those bytes of the snapshot are ever committed. The maximal runs
/// of set bits, ascending, are the written byte ranges a flush commits
/// (and a torn media write cuts into 8-byte-aligned chunks).
#[derive(Debug)]
pub struct LineWrite {
    base: u64,
    mask: u128,
    data: [u8; LineWrite::MAX_BYTES],
}

impl LineWrite {
    /// Bytes a line write spans: one bit of the `u128` written-byte mask
    /// each, so also the widest L1 line the simulator supports.
    pub const MAX_BYTES: usize = 128;

    /// Snapshots the `line_bytes`-byte line at `base` from `image`; `mask`
    /// marks the bytes that were written.
    ///
    /// # Panics
    /// Panics if `line_bytes` exceeds [`LineWrite::MAX_BYTES`] or `mask`
    /// marks a byte past the line.
    #[must_use]
    pub fn snapshot(image: &Backing, base: u64, line_bytes: usize, mask: u128) -> Self {
        assert!(
            mask & !byte_run(0, line_bytes) == 0,
            "written-byte mask runs past the line"
        );
        let mut data = [0u8; Self::MAX_BYTES];
        image.read_into(base, &mut data[..line_bytes]);
        LineWrite { base, mask, data }
    }

    /// Bytes written.
    fn written(&self) -> u64 {
        u64::from(self.mask.count_ones())
    }

    /// The written runs as (address, bytes), ascending.
    fn runs(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let start = rest.trailing_zeros() as usize;
            let end = start + (rest >> start).trailing_ones() as usize;
            rest = rest.checked_shr(end as u32).map_or(0, |r| r << end);
            Some((self.base + start as u64, &self.data[start..end]))
        })
    }

    /// Commits every written byte to `durable`.
    fn commit(&self, durable: &mut Backing) {
        for (addr, bytes) in self.runs() {
            durable.write_bytes(addr, bytes);
        }
    }

    /// Commits only the first `chunks` 8-byte-aligned chunks of the
    /// written runs — a torn media write.
    fn commit_torn(&self, durable: &mut Backing, mut chunks: u32) {
        for (addr, data) in self.runs() {
            let mut off = 0usize;
            while off < data.len() {
                if chunks == 0 {
                    return;
                }
                let a = addr + off as u64;
                // Run up to the next 8-byte boundary (or run end).
                let take = (((a / 8 + 1) * 8 - a) as usize).min(data.len() - off);
                durable.write_bytes(a, &data[off..off + take]);
                off += take;
                chunks -= 1;
            }
        }
    }
}

/// The mask of the `len` bytes from byte `off` of a line write.
fn byte_run(off: usize, len: usize) -> u128 {
    let ones = if len >= LineWrite::MAX_BYTES {
        u128::MAX
    } else {
        (1u128 << len) - 1
    };
    ones << off
}

/// Builds a line write from (address, bytes) segments, later segments
/// overwriting earlier ones where they overlap.
///
/// # Panics
/// Panics if the segments do not all fall in one
/// [`LineWrite::MAX_BYTES`]-aligned line.
impl From<Vec<(u64, Vec<u8>)>> for LineWrite {
    fn from(segments: Vec<(u64, Vec<u8>)>) -> Self {
        let align = LineWrite::MAX_BYTES as u64;
        let base = segments
            .iter()
            .find(|(_, bytes)| !bytes.is_empty())
            .map_or(0, |&(addr, _)| addr & !(align - 1));
        let mut write = LineWrite {
            base,
            mask: 0,
            data: [0; LineWrite::MAX_BYTES],
        };
        for (addr, bytes) in segments.iter().filter(|(_, b)| !b.is_empty()) {
            let off = addr
                .checked_sub(base)
                .filter(|off| off + bytes.len() as u64 <= align)
                .expect("persist segments span more than one line") as usize;
            write.data[off..off + bytes.len()].copy_from_slice(bytes);
            write.mask |= byte_run(off, bytes.len());
        }
        write
    }
}

/// A persist flush from submission until its ack is taken.
#[derive(Debug)]
struct InFlight {
    dest: PersistDest,
    tokens: Vec<u64>,
    write: LineWrite,
    /// Submission cycle (the start of the flush's timeline slice).
    submitted: u64,
}

/// The in-flight persist flushes, indexed by ack id. Ids are issued in
/// order and mostly retire in order, so the flushes sit in a deque
/// offset by the oldest live id: registering, looking up and taking are
/// O(1) with no hashing, and a taken slot at the front is popped.
#[derive(Debug, Default)]
struct FlushRegistry {
    /// Ack id of `slots[0]`.
    oldest: u64,
    /// `None` where a flush's ack was already taken.
    slots: VecDeque<Option<InFlight>>,
}

impl FlushRegistry {
    /// Registers a flush under the next ack id.
    fn insert(&mut self, flush: InFlight) -> u64 {
        self.slots.push_back(Some(flush));
        self.oldest + self.slots.len() as u64 - 1
    }

    fn index(&self, ack_id: u64) -> Option<usize> {
        let i = usize::try_from(ack_id.checked_sub(self.oldest)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    fn get(&self, ack_id: u64) -> Option<&InFlight> {
        self.slots[self.index(ack_id)?].as_ref()
    }

    fn take(&mut self, ack_id: u64) -> Option<InFlight> {
        let i = self.index(ack_id)?;
        let flush = self.slots[i].take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.oldest += 1;
        }
        Some(flush)
    }
}

/// What a scheduled event does. `Durable` names its flush by ack id, so
/// the heap's entries stay small and the line write stays put in the
/// registry.
#[derive(Debug)]
enum EventKind {
    Deliver(ReqTag),
    /// Commit the flush's line write to the durable NVM image, then
    /// deliver its [`ReqTag::PersistAck`].
    Durable(u64),
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
    flushes: FlushRegistry,
    fault: FaultState,
    /// Latest cycle up to which the PCIe link is busy retransmitting
    /// after injected transient faults (for stall attribution).
    backoff_until: u64,
    /// Whether flush lifetimes (submit → durable) and PCIe retries are
    /// recorded into `mem_slices` (timeline tracing).
    timeline: bool,
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
            flushes: FlushRegistry::default(),
            fault: FaultState::default(),
            backoff_until: 0,
            timeline: cfg.timeline,
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
        if self.timeline && done > now {
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

    /// First cycle at which the PCIe fault-retry backoff is over (0 when
    /// no backoff ever happened).
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

    /// Submits a persist writeback (an L1 PM line flush). `write` holds
    /// the bytes the flushing SM actually wrote in the line, snapshotted
    /// at flush time; they are committed to the durable image when the
    /// persistence domain accepts the write. (Byte-masking matters: a
    /// whole-line snapshot of the functional image would leak *other*
    /// SMs' not-yet-flushed writes into the durable image when lines are
    /// falsely shared.) At the durability cycle a [`ReqTag::PersistAck`]
    /// fires, resolvable to `dest`/`tokens` via
    /// [`MemSubsystem::take_persist_dest`]. Returns the ack handle.
    pub fn submit_persist_flush(
        &mut self,
        now: u64,
        addr: u64,
        write: impl Into<LineWrite>,
        dest: PersistDest,
        tokens: Vec<u64>,
    ) -> u64 {
        self.fault.on_pb_drain();
        let write = write.into();
        let sbrp_sm = match dest {
            PersistDest::Sbrp { sm, .. } => Some(sm),
            _ => None,
        };
        // Charge the channels for the bytes actually written, rounded up
        // to a 32 B sector — a partially-written line does not consume a
        // full line of NVM/PCIe write bandwidth (symmetric across
        // persistency models, since every flush carries a byte mask).
        let line = write.written().div_ceil(32).max(1) * 32;
        let ack_id = self.flushes.insert(InFlight {
            dest,
            tokens,
            write,
            submitted: now,
        });
        // Persists write through the L2 (§6: no L2 persist buffer).
        let at_l2 = self.l2_access(now, addr, true);
        if let Some(sm) = sbrp_sm {
            // Window credit once the L2/egress accepts the line.
            self.schedule(at_l2, EventKind::Deliver(ReqTag::PersistAccept { sm }));
        }
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
        self.schedule(durable_at, EventKind::Durable(ack_id));
        ack_id
    }

    /// Resolves (and removes) a persist ack's destination and tokens,
    /// retiring the flush. Take an ack only once its
    /// [`ReqTag::PersistAck`] has fired: the flush's line write is
    /// committed from the registry at that cycle. `None` means the ack
    /// was never issued by [`MemSubsystem::submit_persist_flush`] or was
    /// already taken — a completion-protocol violation the GPU reports
    /// as a typed error rather than a panic.
    pub fn take_persist_dest(&mut self, ack_id: u64) -> Option<(PersistDest, Vec<u64>)> {
        self.flushes
            .take(ack_id)
            .map(|flush| (flush.dest, flush.tokens))
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
                EventKind::Durable(ack_id) => {
                    let action = self.fault.on_wpq_accept(Some(ack_id));
                    // A flush whose ack was taken early has nothing left
                    // to commit.
                    if let Some(flush) = self.flushes.get(ack_id) {
                        if self.timeline {
                            let start = flush.submitted;
                            self.mem_slices.push(crate::timeline::Slice {
                                pid: crate::timeline::MEM_PID,
                                tid: (ack_id % crate::timeline::MEM_LANES) as u32,
                                name: "flush",
                                start,
                                end: e.at.max(start + 1),
                            });
                        }
                        match action {
                            DurableAction::Commit => flush.write.commit(&mut self.nvm_durable),
                            DurableAction::Drop => {}
                            DurableAction::Torn(chunks) => {
                                flush.write.commit_torn(&mut self.nvm_durable, chunks);
                            }
                        }
                    }
                    // The ack is delivered even for dropped/torn commits:
                    // the machine believes the persist is durable.
                    out.push(Completion {
                        at: e.at,
                        tag: ReqTag::PersistAck { ack_id },
                    });
                }
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

    /// The written runs of `mask` in the line at `base`, one bit at a
    /// time, each read from `image` — how flushes were built before
    /// [`LineWrite`].
    fn reference_segments(
        image: &Backing,
        base: u64,
        line_bytes: u32,
        mask: u128,
    ) -> Vec<(u64, Vec<u8>)> {
        let mut segments = Vec::new();
        let mut i = 0u32;
        while i < line_bytes {
            if mask >> i & 1 == 1 {
                let start = i;
                while i < line_bytes && mask >> i & 1 == 1 {
                    i += 1;
                }
                let addr = base + u64::from(start);
                segments.push((addr, image.read_bytes(addr, (i - start) as usize)));
            } else {
                i += 1;
            }
        }
        segments
    }

    /// The segment commit the durable event ran before [`LineWrite`]:
    /// everything, or only the first `torn` 8-byte-aligned chunks.
    fn reference_commit(durable: &mut Backing, segments: &[(u64, Vec<u8>)], torn: Option<u32>) {
        let Some(mut chunks) = torn else {
            for (addr, data) in segments {
                durable.write_bytes(*addr, data);
            }
            return;
        };
        for (addr, data) in segments {
            let mut off = 0usize;
            while off < data.len() {
                if chunks == 0 {
                    return;
                }
                let a = addr + off as u64;
                let take = (((a / 8 + 1) * 8 - a) as usize).min(data.len() - off);
                durable.write_bytes(a, &data[off..off + take]);
                off += take;
                chunks -= 1;
            }
        }
    }

    /// A written-byte mask of one of several shapes: empty, full, random
    /// bits, and single runs touching bit 0, bit 127 or neither.
    fn mask_of(shape: u8, lo: u64, hi: u64, a: usize, b: usize) -> u128 {
        let random = u128::from(lo) | u128::from(hi) << 64;
        match shape {
            0 => 0,
            1 => u128::MAX,
            2 => random,
            3 => byte_run(0, a + 1),
            4 => byte_run(127 - a, a + 1),
            _ => byte_run(a.min(b), a.max(b) - a.min(b) + 1),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A line write commits exactly what the per-run segments it
        /// replaced committed, whole and torn at every chunk count, and
        /// converts to and from those segments.
        #[test]
        fn line_write_commits_like_the_segments_it_replaced(
            shape in 0u8..6,
            lo in proptest::prelude::any::<u64>(),
            hi in proptest::prelude::any::<u64>(),
            a in 0usize..128,
            b in 0usize..128,
            line_log2 in 3u32..8,
            line_no in 0u64..64,
            old in proptest::collection::vec(proptest::prelude::any::<u8>(), 256),
            new in proptest::collection::vec(proptest::prelude::any::<u8>(), 256),
        ) {
            let line_bytes = 1u32 << line_log2;
            let mask = mask_of(shape, lo, hi, a, b) & byte_run(0, line_bytes as usize);
            let base = PM_BASE + line_no * u64::from(line_bytes);
            // The functional image holds the new bytes around the line;
            // the durable one the old bytes.
            let (mut image, mut before) = (Backing::new(), Backing::new());
            image.write_bytes(base - 64, &new);
            before.write_bytes(base - 64, &old);
            let segments = reference_segments(&image, base, line_bytes, mask);
            let write = LineWrite::snapshot(&image, base, line_bytes as usize, mask);
            proptest::prop_assert_eq!(write.written(), segments.iter().map(|(_, d)| d.len() as u64).sum::<u64>());
            for torn in std::iter::once(None).chain((0..=16).map(Some)) {
                let (mut got, mut want) = (before.clone(), before.clone());
                match torn {
                    None => write.commit(&mut got),
                    Some(chunks) => write.commit_torn(&mut got, chunks),
                }
                reference_commit(&mut want, &segments, torn);
                proptest::prop_assert_eq!(
                    got.read_bytes(base - 64, 256),
                    want.read_bytes(base - 64, 256),
                    "torn {:?}", torn
                );
            }
            let runs = |w: &LineWrite| -> Vec<(u64, Vec<u8>)> {
                w.runs().map(|(addr, bytes)| (addr, bytes.to_vec())).collect()
            };
            proptest::prop_assert_eq!(runs(&write), segments.clone());
            let rebuilt = LineWrite::from(segments.clone());
            proptest::prop_assert_eq!(runs(&rebuilt), segments);
            proptest::prop_assert_eq!(rebuilt.written(), write.written());
        }
    }

    /// The same equivalence through the subsystem's durable event: a
    /// committed flush and a torn one (via the fault plan) leave the
    /// durable image the reference commit leaves.
    #[test]
    fn durable_event_commits_the_line_write() {
        let mut image = Backing::new();
        let bytes: Vec<u8> = (0..128u8).map(|i| i.wrapping_mul(37) | 1).collect();
        image.write_bytes(PM_BASE, &bytes);
        let mask = byte_run(3, 14) | byte_run(40, 1) | byte_run(100, 28);
        let segments = reference_segments(&image, PM_BASE, 128, mask);
        for torn in std::iter::once(None).chain((0..=16).map(Some)) {
            let mut ms = subsystem(SystemDesign::PmNear);
            if let Some(chunks) = torn {
                let nvm = crate::fault::NvmFault::TornWrite { entry: 1, chunks };
                ms.set_fault_plan(FaultPlan::default().with_nvm(nvm));
            }
            let write = LineWrite::snapshot(&image, PM_BASE, 128, mask);
            let id = ms.submit_persist_flush(0, PM_BASE, write, PersistDest::Detached, vec![]);
            drain_until(&mut ms, ReqTag::PersistAck { ack_id: id });
            let mut want = Backing::new();
            reference_commit(&mut want, &segments, torn);
            assert_eq!(
                ms.nvm_durable.read_bytes(PM_BASE, 128),
                want.read_bytes(PM_BASE, 128),
                "torn {torn:?}"
            );
        }
    }

    #[test]
    fn segments_outside_one_line_are_rejected() {
        let cases: [Vec<(u64, Vec<u8>)>; 3] = [
            // One segment running past the line's end.
            vec![(PM_BASE + 120, vec![1; 16])],
            // Two segments in neighbouring lines.
            vec![(PM_BASE, vec![1]), (PM_BASE + 128, vec![1])],
            // A later segment below the first one's line.
            vec![(PM_BASE + 128, vec![1]), (PM_BASE, vec![1])],
        ];
        for segments in cases {
            let shown = format!("{segments:?}");
            let result = std::panic::catch_unwind(|| LineWrite::from(segments));
            let err = result.expect_err(&shown);
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("span more than one line"), "{shown}: {msg}");
        }
        // Empty segments are skipped, and a whole line is one run.
        let whole = LineWrite::from(vec![(PM_BASE + 128, vec![]), (PM_BASE, vec![7; 128])]);
        assert_eq!(
            (whole.base, whole.mask, whole.written()),
            (PM_BASE, u128::MAX, 128)
        );
    }

    /// The in-flight registry resolves acks taken in any order to their
    /// own flush, refuses ids it never issued or already retired, and
    /// holds nothing once every ack is taken.
    #[test]
    fn flush_registry_resolves_out_of_order_acks_and_empties() {
        let mut ms = subsystem(SystemDesign::PmNear);
        let n = 8u64;
        for i in 0..n {
            let addr = PM_BASE + i * 128;
            let dest = PersistDest::Sbrp {
                sm: i as u32,
                line: 100 + i as u32,
            };
            let id =
                ms.submit_persist_flush(0, addr, vec![(addr, vec![1; 8])], dest, vec![i, i * 10]);
            assert_eq!(id, i, "ack ids are issued in order");
        }
        while let Some(at) = ms.next_event() {
            ms.poll(at);
        }
        assert_eq!(ms.take_persist_dest(n), None, "never issued");
        assert_eq!(ms.take_persist_dest(u64::MAX), None, "never issued");
        for id in [5, 0, 7, 1, 2, 6, 3, 4] {
            let (dest, tokens) = ms.take_persist_dest(id).expect("live ack");
            let want = PersistDest::Sbrp {
                sm: id as u32,
                line: 100 + id as u32,
            };
            assert_eq!((dest, tokens), (want, vec![id, id * 10]));
            assert_eq!(ms.take_persist_dest(id), None, "already taken");
            if id == 1 {
                // 0 and 1 are gone from the front: 0 is below the oldest
                // live id now.
                assert_eq!(ms.flushes.oldest, 2);
                assert_eq!(ms.take_persist_dest(0), None, "below the oldest live id");
            }
        }
        assert!(ms.flushes.slots.is_empty(), "no flush outlives its ack");
        let next = ms.submit_persist_flush(
            0,
            PM_BASE,
            LineWrite::from(vec![]),
            PersistDest::Detached,
            vec![],
        );
        assert_eq!(next, n, "ids continue after the registry empties");
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
