//! Simulator configuration — Table 1 of the paper plus the sweep knobs
//! of Figure 10.

use sbrp_core::pbuffer::{DrainPolicy, PbConfig};
use sbrp_core::ModelKind;

/// Base of the persistent (NVM) address range. Everything below is
/// volatile GDDR; everything at or above is PM, mirroring Intel's
/// app-direct mode where both memories share the physical address space
/// (§3, "Software model").
pub const PM_BASE: u64 = 1 << 40;

/// Whether a byte address refers to persistent memory.
#[must_use]
pub fn is_pm(addr: u64) -> bool {
    addr >= PM_BASE
}

/// Where the NVM sits relative to the GPU (§3, Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemDesign {
    /// NVM attached to the CPU, accessed by the GPU across PCIe (GPM's
    /// system).
    PmFar,
    /// NVM on board the GPU, next to GDDR.
    PmNear,
}

impl std::fmt::Display for SystemDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemDesign::PmFar => f.write_str("far"),
            SystemDesign::PmNear => f.write_str("near"),
        }
    }
}

/// Full simulator configuration. [`GpuConfig::table1`] reproduces the
/// paper's simulated hardware; the public fields are the sweep knobs.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Persistency model to simulate.
    pub model: ModelKind,
    /// PM-far or PM-near system design.
    pub system: SystemDesign,
    /// Enhanced ADR: persists are durable at the host LLC (PM-far only,
    /// Fig. 9).
    pub eadr: bool,

    /// Number of SMs (30).
    pub num_sms: u32,
    /// Core clock in MHz (1365).
    pub clock_mhz: u32,
    /// Warps an SM schedules per cycle.
    pub issue_width: u32,
    /// Max resident warps per SM (32 ⇒ 1024 threads).
    pub max_warps_per_sm: u32,

    /// L1 size per SM in KiB (64).
    pub l1_kb: u32,
    /// L2 size in KiB (3072).
    pub l2_kb: u32,
    /// Cache line size in bytes (128).
    pub line_bytes: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u32,
    /// Interconnect + L2 access latency in cycles.
    pub l2_latency: u32,

    /// GDDR bandwidth in GB/s (336).
    pub gddr_bw_gbps: f64,
    /// GDDR access latency in ns (100).
    pub gddr_latency_ns: f64,
    /// NVM read bandwidth in GB/s (84).
    pub nvm_read_bw_gbps: f64,
    /// NVM write bandwidth in GB/s (42).
    pub nvm_write_bw_gbps: f64,
    /// NVM access latency in ns (300).
    pub nvm_latency_ns: f64,
    /// PCIe bandwidth in GB/s (28, PCIe 4.0).
    pub pcie_bw_gbps: f64,
    /// PCIe latency in ns (300).
    pub pcie_latency_ns: f64,
    /// Multiplier on both NVM bandwidths (Fig. 10b: 0.5 / 1.0 / 2.0).
    pub nvm_bw_scale: f64,

    /// SBRP persist-buffer configuration; `capacity` as a fraction of L1
    /// lines is the Fig. 10a knob, `policy` the Fig. 10c knob.
    pub pb: PbConfig,
    /// Record persist events for the formal checker (tests only; slows
    /// simulation and grows memory with trace length).
    pub trace: bool,
    /// Record warp-state intervals and memory-subsystem events into a
    /// [`crate::timeline::Timeline`] (Chrome-trace export; grows memory
    /// with run length).
    pub timeline: bool,
    /// Online persistency sanitizer: record persist/fence/acquire-release
    /// events and verify the trace against the formal PMO model when a
    /// run completes or crashes. A violation — durability inverting PMO, a
    /// crash image that is not PMO-downward-closed, or a §5.3 scoped
    /// persistency bug — surfaces as
    /// [`crate::gpu::SimError::PmoViolation`].
    pub sanitize: bool,
}

impl GpuConfig {
    /// The configuration of the paper's Table 1 for a given model and
    /// system design.
    #[must_use]
    pub fn table1(model: ModelKind, system: SystemDesign) -> Self {
        let line_bytes = 128;
        let l1_kb = 64;
        let l1_lines = l1_kb * 1024 / line_bytes;
        GpuConfig {
            model,
            system,
            eadr: false,
            num_sms: 30,
            clock_mhz: 1365,
            issue_width: 4,
            max_warps_per_sm: 32,
            l1_kb,
            l2_kb: 3 * 1024,
            line_bytes,
            l1_hit_latency: 4,
            l2_latency: 40,
            gddr_bw_gbps: 336.0,
            gddr_latency_ns: 100.0,
            nvm_read_bw_gbps: 84.0,
            nvm_write_bw_gbps: 42.0,
            nvm_latency_ns: 300.0,
            pcie_bw_gbps: 28.0,
            pcie_latency_ns: 300.0,
            nvm_bw_scale: 1.0,
            pb: PbConfig {
                capacity: (l1_lines / 2) as usize,
                policy: DrainPolicy::default(),
                ..PbConfig::default()
            },
            trace: false,
            timeline: false,
            sanitize: false,
        }
    }

    /// A scaled-down configuration for fast tests: fewer SMs, smaller
    /// caches, same relative timing. Device bandwidths scale with the SM
    /// count so the per-SM balance — in particular the drain window vs.
    /// the bandwidth-delay product of the persist path — matches the
    /// Table 1 machine.
    #[must_use]
    pub fn small(model: ModelKind, system: SystemDesign) -> Self {
        let mut c = Self::table1(model, system);
        let ratio = 4.0 / f64::from(c.num_sms);
        c.num_sms = 4;
        c.l1_kb = 16;
        c.l2_kb = 256;
        c.pb.capacity = (c.l1_kb * 1024 / c.line_bytes / 2) as usize;
        c.gddr_bw_gbps *= ratio;
        c.nvm_read_bw_gbps *= ratio;
        c.nvm_write_bw_gbps *= ratio;
        c.pcie_bw_gbps *= ratio;
        c
    }

    /// L1 lines per SM.
    #[must_use]
    pub fn l1_lines(&self) -> u32 {
        self.l1_kb * 1024 / self.line_bytes
    }

    /// Converts nanoseconds to core cycles (rounding up).
    #[must_use]
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * f64::from(self.clock_mhz) / 1000.0).ceil() as u64
    }

    /// Converts GB/s to bytes per core cycle.
    #[must_use]
    pub fn gbps_to_bytes_per_cycle(&self, gbps: f64) -> f64 {
        gbps * 1e9 / (f64::from(self.clock_mhz) * 1e6)
    }

    /// Sets the PB capacity as a fraction of L1 lines (Fig. 10a).
    pub fn set_pb_coverage(&mut self, fraction: f64) {
        let lines = f64::from(self.l1_lines());
        self.pb.capacity = ((lines * fraction).round() as usize).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_range_partition() {
        assert!(!is_pm(0));
        assert!(!is_pm(PM_BASE - 1));
        assert!(is_pm(PM_BASE));
        assert!(is_pm(PM_BASE + 12345));
    }

    #[test]
    fn table1_matches_the_paper() {
        let c = GpuConfig::table1(ModelKind::Sbrp, SystemDesign::PmNear);
        assert_eq!(c.num_sms, 30);
        assert_eq!(c.clock_mhz, 1365);
        assert_eq!(c.l1_kb, 64);
        assert_eq!(c.l2_kb, 3072);
        assert_eq!(c.max_warps_per_sm, 32);
        assert_eq!(c.pb.capacity, 256, "PB covers half of 512 L1 lines");
        assert_eq!(c.pb.policy, DrainPolicy::Window(6));
        assert!((c.nvm_write_bw_gbps - 42.0).abs() < 1e-9);
    }

    #[test]
    fn unit_conversions() {
        let c = GpuConfig::table1(ModelKind::Epoch, SystemDesign::PmFar);
        // 300 ns at 1365 MHz ≈ 410 cycles.
        assert_eq!(c.ns_to_cycles(300.0), 410);
        // 336 GB/s at 1365 MHz ≈ 246 B/cycle.
        let bpc = c.gbps_to_bytes_per_cycle(336.0);
        assert!((bpc - 246.15).abs() < 0.1, "got {bpc}");
    }

    #[test]
    fn pb_coverage_knob() {
        let mut c = GpuConfig::table1(ModelKind::Sbrp, SystemDesign::PmNear);
        c.set_pb_coverage(0.125);
        assert_eq!(c.pb.capacity, 64);
        c.set_pb_coverage(1.0);
        assert_eq!(c.pb.capacity, 512);
    }
}
