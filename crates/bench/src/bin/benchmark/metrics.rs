//! What one pass of a workload yields, and the names and units of every
//! metric the benchmark reports. `BENCHMARK.json` at the repository
//! root lists the same names and units; a test keeps the two in step.

use std::collections::BTreeMap;

/// Exact per-layer counts, keyed by metric name. They must repeat bit
/// for bit across passes and between traced and untraced runs.
pub type Counts = BTreeMap<&'static str, f64>;

/// An operation whose program-side verdict was a failure.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// The cell, rung, point or program that failed.
    pub op: String,
    pub detail: String,
    /// A documented defect of the modelled system (see the README's
    /// "Known failures"); counted in `failed_frac` but not against the
    /// run's correctness.
    pub known: bool,
}

impl Failure {
    pub fn new(op: impl Into<String>, detail: impl Into<String>) -> Self {
        Failure {
            op: op.into(),
            detail: detail.into(),
            known: false,
        }
    }
}

/// The result of one timed pass over a workload's operations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pass {
    pub attempted: u64,
    pub failures: Vec<Failure>,
    pub counts: Counts,
}

impl Pass {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Records `name` as the ratio of two counts already added (0 when
    /// the denominator is 0).
    pub fn add_ratio(&mut self, name: &'static str, num: &str, den: &str) {
        let get = |k| self.counts.get(k).copied().unwrap_or(0.0);
        let (n, d) = (get(num), get(den));
        self.add(name, if d > 0.0 { n / d } else { 0.0 });
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every traced run; a workload that does
/// not exercise a layer reports 0 for it. Host times (`_s`) are span
/// self times per pass; counts are totals per pass.
pub const PER_LAYER: [(&str, &str); 75] = [
    // Timing simulator (sbrp-gpu-sim), measured on fig6.
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("sim.kcycles_per_s", "kcycles/s"),
    ("sim.cycles", "cycles"),
    ("sm.instructions", "count"),
    ("sm.stall.ofence", "cycles"),
    ("sm.stall.dfence", "cycles"),
    ("sm.stall.pacqrel", "cycles"),
    ("sm.stall.l1_miss", "cycles"),
    ("sm.stall.pb_full", "cycles"),
    ("sm.stall.pb_ordered", "cycles"),
    ("sm.stall.wpq_backpressure", "cycles"),
    ("sm.stall.pcie_backoff", "cycles"),
    ("sm.stall.scoreboard", "cycles"),
    ("sm.stall.total", "cycles"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l1_pm_read_misses", "count"),
    ("mem.volatile_writebacks", "count"),
    ("mem.pcie_bytes", "bytes"),
    ("mem.nvm_write_bytes", "bytes"),
    ("mem.nvm_read_bytes", "bytes"),
    ("mem.wpq_accepts", "count"),
    ("mem.probe_cache_ops_per_s", "1/s"),
    ("mem.probe_flushes_per_s", "1/s"),
    ("pbuffer.stores", "count"),
    ("pbuffer.coalesced", "count"),
    ("pbuffer.coalesce_ratio", "ratio"),
    ("pbuffer.flushes", "count"),
    ("pbuffer.acks", "count"),
    ("pbuffer.stall_full", "count"),
    ("pbuffer.stall_ordered", "count"),
    ("pbuffer.ofences", "count"),
    ("pbuffer.dfences", "count"),
    ("pbuffer.probe_ops_per_s", "1/s"),
    ("epoch.rounds", "count"),
    ("formal.probe_crash_cuts_per_s", "1/s"),
    // Workload construction, initialisation and verification.
    ("workloads.build_s", "s"),
    ("workloads.init_s", "s"),
    ("workloads.verify_s", "s"),
    // Harness engines: figure sweep, serving, crash campaigns, recovery.
    ("harness.fig6.paper_gap", "speedup"),
    ("harness.serve_s", "s"),
    ("harness.serve.req_per_s", "1/s"),
    ("harness.serve.requests", "count"),
    ("harness.serve.batches", "count"),
    ("harness.serve.mean_batch", "requests"),
    ("harness.serve.rejected", "count"),
    ("harness.serve.duration_cycles", "cycles"),
    ("harness.serve.p50_cycles", "cycles"),
    ("harness.serve.p999_cycles", "cycles"),
    ("harness.serve.max_rate_rpkc", "req/kcycle"),
    ("harness.serve.replayed", "count"),
    ("harness.campaign_s", "s"),
    ("harness.campaign.points", "count"),
    ("harness.campaign.violations", "count"),
    ("harness.campaign.baseline_failures", "count"),
    ("harness.campaign.pmo_clean", "count"),
    ("harness.campaign.recovered", "count"),
    ("harness.recovery_s", "s"),
    ("harness.recovery.cycles", "cycles"),
    // Model checker and linter.
    ("mc.explore_s", "s"),
    ("mc.cross_validate_s", "s"),
    ("mc.states_per_s", "1/s"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.dedup_hits", "count"),
    ("mc.dedup_ratio", "ratio"),
    ("mc.complete_executions", "count"),
    ("lint.lint_s", "s"),
    ("lint.kernels", "count"),
    ("lint.errors", "count"),
    ("lint.false_negatives", "count"),
    // Every failed operation, documented defects included, over the
    // operations attempted.
    ("failed_frac", "ratio"),
    // The host-speed reference's median time during the passes, as
    // measured; the pass times are scaled by `host::NOMINAL_S` over it.
    ("host.ref_s", "s"),
];
