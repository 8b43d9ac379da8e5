//! Open-loop request serving: drive the simulated GPU with a
//! deterministic arrival stream of get/put/delete requests against the
//! sharded persistent KVS ([`sbrp_workloads::service`]), form batches
//! under a max-size + max-linger policy with admission control, launch
//! each batch as a kernel, and attribute per-request latency from
//! enqueue to **durable ack** — all in simulated cycles on one clock.
//!
//! # The service clock
//!
//! `Gpu::skip_idle` advances the simulator clock across host-side gaps
//! (waiting for arrivals, linger timers), so `gpu.cycle()` *is* the
//! service clock: kernel durations, idle gaps, and recovery passes
//! compose into a single timeline, and a request's latency is simply
//! `ack_cycle - arrival_cycle`.
//!
//! # Durable ack
//!
//! A batch kernel completing on `sbrp-sim` means every buffered persist
//! drained to the durability point ([`RunOutcome::Completed`] includes
//! the final drain), so kernel completion is the durable ack for every
//! request in the batch. There is no earlier ack: SBRP's buffering
//! shortens the *drain*, which is exactly what the tail latencies
//! measure.
//!
//! # Crash-mid-stream contract
//!
//! A crash takes the durable NVM image mid-batch. Recovery rolls back
//! **every** armed lane (the in-flight batch never acked — see the
//! no-commit-mark design in [`sbrp_workloads::service`]), so the
//! recovered store equals the acked-prefix state exactly; the engine
//! then re-serves precisely the un-acked requests: the in-flight batch
//! plus everything queued at the crash, in arrival order. Acked
//! requests are never re-executed; rejected requests stay rejected.

#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions, clippy::missing_panics_doc)]
// Lane/key counts are bounded by launch geometry and key-space size;
// the usize↔u64 conversions cannot truncate, and f64 statistics over
// cycle counts are presentation-only.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss
)]

use crate::report::Table;
use crate::sweep::{fingerprint_launch, SweepCell, CACHE_SCHEMA};
use crate::{HarnessError, CYCLE_LIMIT};
use sbrp_core::fingerprint::Fingerprint;
use sbrp_core::json::Json;
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign};
use sbrp_gpu_sim::{crash, Gpu, RunOutcome};
use sbrp_workloads::service::{
    generate_trace, initial_value, ArrivalKind, LaneOp, ReqOp, Request, ServiceStore, TraceParams,
    OP_GET, OP_WRITE,
};
use std::collections::{HashMap, VecDeque};

/// The persistency configurations the serving experiment compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServeModel {
    /// SBRP on PM-near (the paper's proposal, best system design).
    Sbrp,
    /// Epoch persistency on PM-near (the strongest baseline).
    Epoch,
    /// GPM on PM-far (its only realizable system design).
    Gpm,
    /// eADR: epoch programming model with the durability point at the
    /// host LLC (battery-backed), on PM-far — Fig. 9's configuration.
    Eadr,
}

impl ServeModel {
    /// All four, in report order.
    pub const ALL: [ServeModel; 4] = [
        ServeModel::Sbrp,
        ServeModel::Epoch,
        ServeModel::Gpm,
        ServeModel::Eadr,
    ];

    /// Report / CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ServeModel::Sbrp => "SBRP",
            ServeModel::Epoch => "Epoch",
            ServeModel::Gpm => "GPM",
            ServeModel::Eadr => "eADR",
        }
    }

    /// Parses a CLI name (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sbrp" => Some(ServeModel::Sbrp),
            "epoch" => Some(ServeModel::Epoch),
            "gpm" => Some(ServeModel::Gpm),
            "eadr" => Some(ServeModel::Eadr),
            _ => None,
        }
    }

    /// The `(kernel model, system design, eadr)` triple this
    /// configuration resolves to.
    #[must_use]
    pub fn resolve(self) -> (ModelKind, SystemDesign, bool) {
        match self {
            ServeModel::Sbrp => (ModelKind::Sbrp, SystemDesign::PmNear, false),
            ServeModel::Epoch => (ModelKind::Epoch, SystemDesign::PmNear, false),
            ServeModel::Gpm => (ModelKind::Gpm, SystemDesign::PmFar, false),
            ServeModel::Eadr => (ModelKind::Epoch, SystemDesign::PmFar, true),
        }
    }
}

/// Everything that determines one serving run. All rate-like knobs are
/// fixed-point integers (×1000) so specs hash and cache exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeSpec {
    /// Persistency configuration under test.
    pub model: ServeModel,
    /// Arrival-process shape.
    pub arrival: ArrivalKind,
    /// Offered rate in milli-requests per kilocycle (`2000` = 2
    /// requests per 1000 cycles).
    pub rate_milli: u64,
    /// Zipf skew θ ×1000.
    pub zipf_milli: u64,
    /// Requests in the trace.
    pub requests: u64,
    /// Key-space size of the store.
    pub scale: u64,
    /// Shard count of the store.
    pub shards: u64,
    /// Max requests per batch launch.
    pub batch: u32,
    /// Max cycles the oldest queued request may wait before the batch
    /// launches anyway (0 = launch as soon as anything is queued).
    pub linger: u64,
    /// Admission bound: arrivals beyond this queue depth are rejected
    /// (backpressure), not enqueued.
    pub queue_bound: u64,
    /// Trace seed.
    pub seed: u64,
    /// Use the 4-SM test GPU instead of the Table 1 machine.
    pub small_gpu: bool,
    /// Inject a crash at this service-clock cycle (durable image is
    /// taken, recovery runs, un-acked requests replay).
    pub crash_at: Option<u64>,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            model: ServeModel::Sbrp,
            arrival: ArrivalKind::Poisson,
            rate_milli: 2000,
            zipf_milli: 990,
            requests: 2048,
            scale: 2048,
            shards: 8,
            batch: 64,
            linger: 2000,
            queue_bound: 512,
            seed: 42,
            small_gpu: false,
            crash_at: None,
        }
    }
}

/// Renders a ×1000 fixed-point value ("2000" → "2", "500" → "0.5").
#[must_use]
pub fn milli_str(m: u64) -> String {
    if m.is_multiple_of(1000) {
        format!("{}", m / 1000)
    } else {
        let frac = format!("{:03}", m % 1000);
        format!("{}.{}", m / 1000, frac.trim_end_matches('0'))
    }
}

impl ServeSpec {
    /// The simulator configuration this spec resolves to.
    #[must_use]
    pub fn config(&self) -> GpuConfig {
        let (model, system, eadr) = self.model.resolve();
        let mut cfg = if self.small_gpu {
            GpuConfig::small(model, system)
        } else {
            GpuConfig::table1(model, system)
        };
        cfg.eadr = eadr;
        cfg
    }

    /// `serve <model>/<arrival> rate=<r>` — the cell name in progress
    /// lines and failure tables.
    #[must_use]
    pub fn cell_name(&self) -> String {
        format!(
            "serve {}/{} rate={}",
            self.model.label(),
            self.arrival.label(),
            milli_str(self.rate_milli)
        )
    }

    fn trace_params(&self, keys: u64) -> TraceParams {
        TraceParams {
            arrival: self.arrival,
            rate_milli: self.rate_milli,
            zipf_milli: self.zipf_milli,
            requests: self.requests,
            keys,
            seed: self.seed,
        }
    }
}

/// Number of log₂ latency buckets in a histogram.
pub const HIST_BUCKETS: usize = 64;

/// Latency distribution of one serving run: exact nearest-rank
/// percentiles (computed from the full sorted latency list, so they are
/// bit-exact and deterministic) plus log₂ buckets for the JSON
/// artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Completed requests measured.
    pub count: u64,
    /// Sum of latencies (for the mean).
    pub sum: u64,
    /// Fastest request.
    pub min: u64,
    /// Slowest request.
    pub max: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// `buckets[i]` counts latencies with `floor(log2(l)) + 1 == i`
    /// (bucket 0 holds zero-cycle latencies, which cannot occur).
    pub buckets: Vec<u64>,
}

impl LatencyHistogram {
    /// Builds the histogram from the (unsorted) per-request latencies.
    #[must_use]
    pub fn from_latencies(mut lats: Vec<u64>) -> Self {
        lats.sort_unstable();
        let mut buckets = vec![0u64; HIST_BUCKETS];
        for &l in &lats {
            let idx = if l == 0 {
                0
            } else {
                (64 - l.leading_zeros() as usize).min(HIST_BUCKETS - 1)
            };
            buckets[idx] += 1;
        }
        let rank = |num: u64, den: u64| nearest_rank(&lats, num, den);
        LatencyHistogram {
            count: lats.len() as u64,
            sum: lats.iter().sum(),
            min: lats.first().copied().unwrap_or(0),
            max: lats.last().copied().unwrap_or(0),
            p50: rank(50, 100),
            p90: rank(90, 100),
            p95: rank(95, 100),
            p99: rank(99, 100),
            p999: rank(999, 1000),
            buckets,
        }
    }

    /// The scalar fields with their JSON names, in document order.
    fn scalars(&mut self) -> [(&'static str, &mut u64); 9] {
        [
            ("count", &mut self.count),
            ("sum", &mut self.sum),
            ("min", &mut self.min),
            ("max", &mut self.max),
            ("p50", &mut self.p50),
            ("p90", &mut self.p90),
            ("p95", &mut self.p95),
            ("p99", &mut self.p99),
            ("p999", &mut self.p999),
        ]
    }

    /// The histogram's JSON fields, `count` … `buckets`: the tail of
    /// both a cached [`ServeOutput`] and a [`hist_json`] cell.
    fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let mut h = self.clone();
        let scalars = h.scalars().into_iter().map(|(k, v)| (k, Json::U64(*v)));
        let mut fields: Vec<_> = scalars.collect();
        let buckets = self.buckets.iter().map(|&b| Json::U64(b)).collect();
        fields.push(("buckets", Json::Arr(buckets)));
        fields
    }

    /// Reads [`LatencyHistogram::json_fields`] back from the object
    /// that carries them; `None` if one is missing or malformed.
    fn from_json(v: &Json) -> Option<Self> {
        let buckets = v.get("buckets")?.as_arr()?.iter().map(Json::as_u64);
        let buckets = buckets.collect::<Option<Vec<u64>>>()?;
        if buckets.len() != HIST_BUCKETS {
            return None;
        }
        let mut h = LatencyHistogram {
            buckets,
            ..LatencyHistogram::from_latencies(Vec::new())
        };
        for (k, slot) in h.scalars() {
            *slot = v.get(k)?.as_u64()?;
        }
        Some(h)
    }

    /// Mean latency in cycles (0 for an empty histogram).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Nearest-rank percentile of a sorted slice: the smallest element with
/// at least `num/den` of the distribution at or below it. Exact integer
/// arithmetic — no interpolation, no floating point.
fn nearest_rank(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let idx = (n * num).div_ceil(den).max(1) - 1;
    sorted[idx.min(n - 1) as usize]
}

/// Aggregate result of one serving run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOutput {
    /// Requests served to durable ack.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests re-served after the crash (0 without one).
    pub replayed: u64,
    /// Batch kernels launched (excluding the recovery kernel).
    pub batches: u64,
    /// Service-clock cycle of the last event (the run's makespan).
    pub duration: u64,
    /// Cycle the crash was injected at, if one was.
    pub crash_cycle: Option<u64>,
    /// Cycles the recovery pass took (0 without a crash).
    pub recovery_cycles: u64,
    /// Whether every check passed: get answers match the sequential
    /// reference, the final store equals the reference, the recovered
    /// image equalled the acked-prefix state.
    pub verified: bool,
    /// First verification failure, for failure tables.
    pub verify_error: Option<String>,
    /// Latency distribution of the completed requests.
    pub hist: LatencyHistogram,
}

impl ServeOutput {
    /// Completed-request throughput in requests per kilocycle.
    #[must_use]
    pub fn throughput_kilo(&self) -> f64 {
        if self.duration == 0 {
            0.0
        } else {
            self.completed as f64 * 1000.0 / self.duration as f64
        }
    }
}

/// Per-request disposition of a serving run, for tests and debugging
/// (not cached).
#[derive(Clone, Debug)]
pub struct ServeDetail {
    /// The generated trace the run served.
    pub trace: Vec<Request>,
    /// Ack cycle per request (`None` = rejected, or never acked).
    pub acked: Vec<Option<u64>>,
    /// Whether admission control rejected the request.
    pub rejected: Vec<bool>,
    /// Request indices re-served after the crash, in replay order.
    pub replay_set: Vec<usize>,
    /// Whether the post-recovery store equalled the acked-prefix
    /// reference (trivially true without a crash).
    pub rollback_ok: bool,
}

/// Runs one serving experiment.
///
/// ```
/// use sbrp_harness::serve::{run_service, ServeSpec};
///
/// let out = run_service(&ServeSpec {
///     requests: 32,
///     scale: 64,
///     batch: 8,
///     rate_milli: 20_000, // 20 requests per kilocycle
///     small_gpu: true,
///     ..ServeSpec::default()
/// })
/// .unwrap();
/// assert!(out.verified);
/// assert_eq!(out.completed + out.rejected, 32);
/// assert!(out.hist.p50 > 0 && out.hist.p99 >= out.hist.p50);
/// ```
///
/// # Errors
/// [`HarnessError::Sim`] if any batch or recovery kernel deadlocks or
/// times out.
pub fn run_service(spec: &ServeSpec) -> Result<ServeOutput, HarnessError> {
    run_service_detailed(spec).map(|(out, _)| out)
}

/// Like [`run_service`], but also returns the per-request
/// [`ServeDetail`].
///
/// # Errors
/// As [`run_service`].
#[allow(clippy::too_many_lines)] // the engine loop reads best as one piece
pub fn run_service_detailed(spec: &ServeSpec) -> Result<(ServeOutput, ServeDetail), HarnessError> {
    assert!(spec.batch > 0, "batch size must be positive");
    assert!(spec.requests > 0, "need at least one request");
    let cfg = spec.config();
    let (model, _, _) = spec.model.resolve();
    let store = ServiceStore::new(spec.scale, spec.shards, spec.batch);
    let trace = generate_trace(&spec.trace_params(store.keys()));
    let batch_l = store.batch_kernel(model);
    let rec_l = store.recovery_kernel(model);
    let cell = spec.cell_name();
    let sim_err = |source| HarnessError::Sim {
        cell: cell.clone(),
        source,
    };

    let n = trace.len();
    let mut gpu = Gpu::new(&cfg);
    store.init(&mut gpu);
    // The sequential reference: what every key holds after the acked
    // prefix. Updated only at ack time, so between batches it equals
    // the durable store exactly — which is what makes host-side get
    // answers and the crash rollback check possible.
    let mut reference: Vec<u64> = (0..store.keys()).map(initial_value).collect();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut acked: Vec<Option<u64>> = vec![None; n];
    let mut rejected: Vec<bool> = vec![false; n];
    let mut next_arrival = 0usize;
    let mut crash_pending = spec.crash_at;
    let mut crash_cycle = None;
    let mut recovery_cycles = 0u64;
    let mut in_flight: Vec<usize> = Vec::new();
    let mut replay_set: Vec<usize> = Vec::new();
    let mut rollback_ok = true;
    let mut batches = 0u64;
    let mut latencies: Vec<u64> = Vec::with_capacity(n);
    let mut verify_error: Option<String> = None;
    let fail = |slot: &mut Option<String>, msg: String| {
        if slot.is_none() {
            *slot = Some(msg);
        }
    };

    // Host-side admission runs in real time: every arrival at or before
    // `now` is enqueued (or rejected at the bound) in arrival order.
    let admit = |now: u64,
                 queue: &mut VecDeque<usize>,
                 next_arrival: &mut usize,
                 rejected: &mut Vec<bool>| {
        while *next_arrival < n && trace[*next_arrival].arrival <= now {
            if queue.len() as u64 >= spec.queue_bound {
                rejected[*next_arrival] = true;
            } else {
                queue.push_back(*next_arrival);
            }
            *next_arrival += 1;
        }
    };

    loop {
        let now = gpu.cycle();
        admit(now, &mut queue, &mut next_arrival, &mut rejected);

        // A crash due now: reached during an idle gap (nothing in
        // flight, so the image equals the acked state) or mid-batch
        // (`in_flight` holds the batch that never acked). Admission
        // above ran in host real time up to the crash instant.
        if crash_pending.is_some_and(|c| c <= now) {
            crash_pending = None;
            crash_cycle = Some(now);
            (recovery_cycles, rollback_ok) =
                do_recovery(&cfg, &store, &rec_l, &mut gpu, &reference, &cell)?;
            if !rollback_ok {
                fail(
                    &mut verify_error,
                    "recovered image differs from the acked-prefix state".into(),
                );
            }
            // Replay exactly the un-acked requests, in arrival order:
            // the in-flight batch, then everything queued at the crash.
            replay_set = std::mem::take(&mut in_flight);
            replay_set.extend(queue.drain(..));
            queue.extend(replay_set.iter().copied());
            continue;
        }

        if queue.is_empty() {
            let Some(next) = trace.get(next_arrival) else {
                break;
            };
            let target = crash_pending.map_or(next.arrival, |c| next.arrival.min(c));
            gpu.skip_idle(target - now);
            continue;
        }

        // Batch policy: launch when full, or when the oldest queued
        // request has lingered long enough; otherwise sleep until the
        // next arrival or the linger deadline, whichever is sooner.
        let deadline = trace[queue[0]].arrival + spec.linger;
        if (queue.len() as u64) < u64::from(spec.batch) && now < deadline {
            let target = match trace.get(next_arrival) {
                Some(r) if r.arrival < deadline => r.arrival,
                _ => deadline,
            };
            let target = crash_pending.map_or(target, |c| target.min(c));
            gpu.skip_idle(target - now);
            continue;
        }

        // Form the batch: pop up to `batch` requests and coalesce them
        // into one lane per key. Multiple writes to a key collapse to
        // the last one; gets are answered host-side from the reference
        // (+ in-batch overlay), and a key whose lane stays a pure get
        // is additionally read kernel-side and checked.
        let mut members = Vec::new();
        while members.len() < spec.batch as usize {
            match queue.pop_front() {
                Some(i) => members.push(i),
                None => break,
            }
        }
        let mut lanes: Vec<LaneOp> = Vec::new();
        let mut lane_of: HashMap<u64, usize> = HashMap::new();
        let mut overlay: HashMap<u64, u64> = HashMap::new();
        for &i in &members {
            let r = &trace[i];
            match r.op {
                ReqOp::Get => {
                    if let std::collections::hash_map::Entry::Vacant(e) = lane_of.entry(r.key) {
                        e.insert(lanes.len());
                        lanes.push(LaneOp {
                            op: OP_GET,
                            key: r.key,
                            value: 0,
                        });
                    }
                }
                ReqOp::Put | ReqOp::Delete => {
                    overlay.insert(r.key, r.value);
                    if let Some(&l) = lane_of.get(&r.key) {
                        lanes[l].op = OP_WRITE;
                        lanes[l].value = r.value;
                    } else {
                        lane_of.insert(r.key, lanes.len());
                        lanes.push(LaneOp {
                            op: OP_WRITE,
                            key: r.key,
                            value: r.value,
                        });
                    }
                }
            }
        }

        store.encode_batch(&mut gpu, &lanes);
        gpu.launch(&batch_l.kernel, batch_l.launch);
        let report = match crash_pending {
            Some(c) => gpu.run_until(c).map_err(&sim_err)?,
            None => gpu.run(CYCLE_LIMIT).map_err(&sim_err)?,
        };

        if report.outcome == RunOutcome::Crashed {
            // Crash mid-batch: the batch never acked. The run stopped
            // at the crash cycle, so the crash branch above recovers.
            in_flight = members;
            continue;
        }

        // Durable ack: the kernel (including its final drain)
        // completed, so every lane's writes are durable.
        let done = gpu.cycle();
        batches += 1;
        for (l, lane) in lanes.iter().enumerate() {
            if lane.op == OP_GET {
                let got = store.read_result(&gpu, l as u64);
                let want = reference[lane.key as usize];
                if got != want {
                    fail(
                        &mut verify_error,
                        format!("get key {} returned {got}, expected {want}", lane.key),
                    );
                }
            }
        }
        for lane in &lanes {
            if lane.op == OP_WRITE {
                reference[lane.key as usize] = lane.value;
            }
        }
        // Host contract: armed marks of an acked batch must not
        // survive into the next one (see the service module docs).
        store.clear_marks(&mut gpu);
        for &i in &members {
            acked[i] = Some(done);
            latencies.push(done - trace[i].arrival);
        }
    }

    // Final verification: the store equals the sequential reference
    // over the acked requests, every admitted request acked, and every
    // get answer (host overlay semantics) is consistent.
    for key in 0..store.keys() {
        let got = store.read_value(&gpu, key);
        if got != reference[key as usize] {
            fail(
                &mut verify_error,
                format!(
                    "final store key {key} holds {got}, reference {}",
                    reference[key as usize]
                ),
            );
            break;
        }
    }
    for i in 0..n {
        if !rejected[i] && acked[i].is_none() {
            fail(&mut verify_error, format!("request {i} was never acked"));
            break;
        }
        if rejected[i] && acked[i].is_some() {
            fail(&mut verify_error, format!("rejected request {i} was acked"));
            break;
        }
    }

    let out = ServeOutput {
        completed: latencies.len() as u64,
        rejected: rejected.iter().filter(|&&r| r).count() as u64,
        replayed: replay_set.len() as u64,
        batches,
        duration: gpu.cycle(),
        crash_cycle,
        recovery_cycles,
        verified: verify_error.is_none(),
        verify_error: verify_error.clone(),
        hist: LatencyHistogram::from_latencies(latencies),
    };
    let detail = ServeDetail {
        trace,
        acked,
        rejected,
        replay_set,
        rollback_ok,
    };
    Ok((out, detail))
}

/// Crash recovery: rebuild a GPU from the durable image (clock
/// fast-forwarded so the service timeline continues), run the recovery
/// kernel, clear the marks, and check the rolled-back store equals the
/// acked-prefix reference. Returns the recovery pass's cycles and
/// whether the rollback check passed.
fn do_recovery(
    cfg: &GpuConfig,
    store: &ServiceStore,
    rec_l: &sbrp_workloads::Launchable,
    gpu: &mut Gpu,
    reference: &[u64],
    cell: &str,
) -> Result<(u64, bool), HarnessError> {
    let crash_cycle = gpu.cycle();
    let init_volatile = |g: &mut Gpu| {
        g.skip_idle(crash_cycle);
        store.init_volatile(g);
    };
    let kernels = [(&rec_l.kernel, rec_l.launch)];
    let image = gpu.durable_image();
    let mut rgpu = crash::recover(cfg, &image, init_volatile, &kernels, CYCLE_LIMIT)
        .map_err(|e| HarnessError::recover(cell.to_string(), e))?;
    let recovery_cycles = rgpu.cycle() - crash_cycle;
    store.clear_marks(&mut rgpu);
    let rollback_ok = reference
        .iter()
        .enumerate()
        .all(|(key, &want)| store.read_value(&rgpu, key as u64) == want);
    *gpu = rgpu;
    Ok((recovery_cycles, rollback_ok))
}

// ---------------------------------------------------------------------
// Sweep integration
// ---------------------------------------------------------------------

/// One serving run as a sweep cell — rate×model sweeps ride the
/// standard engine (parallelism, cache, fault tolerance).
#[derive(Clone, Debug)]
pub struct ServeCell {
    /// The run to execute.
    pub spec: ServeSpec,
}

impl SweepCell for ServeCell {
    type Out = Result<ServeOutput, HarnessError>;

    fn name(&self) -> String {
        self.spec.cell_name()
    }

    fn fingerprint(&self) -> u64 {
        let s = &self.spec;
        let mut fp = Fingerprint::new();
        fp.write_str("serve");
        fp.write_u64(CACHE_SCHEMA);
        fp.write_str(&format!("{:?}", s.config()));
        fp.write_str(s.arrival.label());
        fp.write_u64(s.rate_milli);
        fp.write_u64(s.zipf_milli);
        fp.write_u64(s.requests);
        fp.write_u64(s.scale);
        fp.write_u64(s.shards);
        fp.write_u64(u64::from(s.batch));
        fp.write_u64(s.linger);
        fp.write_u64(s.queue_bound);
        fp.write_u64(s.seed);
        fp.write_u64(s.crash_at.map_or(u64::MAX, |c| c));
        fp.write_u64(u64::from(s.crash_at.is_some()));
        let (model, _, _) = s.model.resolve();
        let store = ServiceStore::new(s.scale, s.shards, s.batch);
        for l in [store.batch_kernel(model), store.recovery_kernel(model)] {
            fingerprint_launch(&mut fp, &l);
        }
        fp.finish()
    }

    fn run(&self) -> Self::Out {
        run_service(&self.spec)
    }

    fn failure(&self, out: &Self::Out) -> Option<String> {
        match out {
            Err(e) => Some(e.to_string()),
            Ok(o) if !o.verified => Some(
                o.verify_error
                    .clone()
                    .unwrap_or_else(|| "serving verification failed".into()),
            ),
            Ok(_) => None,
        }
    }

    fn to_cache(&self, out: &Self::Out) -> Option<Json> {
        let o = out.as_ref().ok()?;
        if !o.verified {
            return None;
        }
        let mut fields = vec![
            ("completed", Json::U64(o.completed)),
            ("rejected", Json::U64(o.rejected)),
            ("replayed", Json::U64(o.replayed)),
            ("batches", Json::U64(o.batches)),
            ("duration", Json::U64(o.duration)),
            ("crash_cycle", o.crash_cycle.map_or(Json::Null, Json::U64)),
            ("recovery_cycles", Json::U64(o.recovery_cycles)),
        ];
        fields.extend(o.hist.json_fields());
        Some(Json::obj(fields))
    }

    fn parse_cached(&self, v: &Json) -> Option<Self::Out> {
        let crash_cycle = match v.get("crash_cycle")? {
            Json::Null => None,
            other => Some(other.as_u64()?),
        };
        Some(Ok(ServeOutput {
            completed: v.get("completed")?.as_u64()?,
            rejected: v.get("rejected")?.as_u64()?,
            replayed: v.get("replayed")?.as_u64()?,
            batches: v.get("batches")?.as_u64()?,
            duration: v.get("duration")?.as_u64()?,
            crash_cycle,
            recovery_cycles: v.get("recovery_cycles")?.as_u64()?,
            verified: true,
            verify_error: None,
            hist: LatencyHistogram::from_json(v)?,
        }))
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// The throughput–latency table of a serving sweep: one row per cell,
/// offered rate next to achieved throughput, mean and tail latencies in
/// simulated cycles.
#[must_use]
pub fn serve_table(cells: &[ServeCell], outs: &[ServeOutput]) -> Table {
    let mut table = Table::new(
        "gpKVS serving: throughput vs tail latency (cycles)",
        &[
            "model", "arrival", "rate", "req", "done", "rej", "batches", "thr", "mean", "p50",
            "p95", "p99", "p999",
        ],
    );
    for (cell, out) in cells.iter().zip(outs) {
        let s = &cell.spec;
        table.row(vec![
            s.model.label().to_string(),
            s.arrival.label().to_string(),
            milli_str(s.rate_milli),
            s.requests.to_string(),
            out.completed.to_string(),
            out.rejected.to_string(),
            out.batches.to_string(),
            format!("{:.3}", out.throughput_kilo()),
            format!("{:.1}", out.hist.mean()),
            out.hist.p50.to_string(),
            out.hist.p95.to_string(),
            out.hist.p99.to_string(),
            out.hist.p999.to_string(),
        ]);
    }
    table
}

/// Format version of the [`hist_json`] document, independent of the
/// result cache's [`CACHE_SCHEMA`].
const HIST_SCHEMA: u64 = 2;

/// The latency-histogram JSON artifact: full log₂ buckets plus the
/// exact percentiles for every cell of the sweep.
#[must_use]
pub fn hist_json(cells: &[ServeCell], outs: &[ServeOutput]) -> String {
    let cells_json: Vec<Json> = cells
        .iter()
        .zip(outs)
        .map(|(cell, out)| {
            let s = &cell.spec;
            let mut fields = vec![
                ("cell", Json::Str(cell.name())),
                ("model", Json::Str(s.model.label().into())),
                ("arrival", Json::Str(s.arrival.label().into())),
                ("rate_milli", Json::U64(s.rate_milli)),
                ("zipf_milli", Json::U64(s.zipf_milli)),
                ("requests", Json::U64(s.requests)),
                ("batch", Json::U64(u64::from(s.batch))),
                ("linger", Json::U64(s.linger)),
                ("queue_bound", Json::U64(s.queue_bound)),
                ("completed", Json::U64(out.completed)),
                ("rejected", Json::U64(out.rejected)),
                ("batches", Json::U64(out.batches)),
                ("duration", Json::U64(out.duration)),
            ];
            fields.extend(out.hist.json_fields());
            Json::obj(fields)
        })
        .collect();
    Json::obj([
        ("schema", Json::U64(HIST_SCHEMA)),
        ("kind", Json::Str("serve_hist".into())),
        ("cells", Json::Arr(cells_json)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(model: ServeModel) -> ServeSpec {
        ServeSpec {
            model,
            requests: 64,
            scale: 128,
            batch: 16,
            rate_milli: 10_000,
            linger: 500,
            queue_bound: 64,
            small_gpu: true,
            ..ServeSpec::default()
        }
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50, 100), 50);
        assert_eq!(nearest_rank(&v, 99, 100), 99);
        assert_eq!(nearest_rank(&v, 999, 1000), 100);
        assert_eq!(nearest_rank(&v, 1, 100), 1);
        assert_eq!(nearest_rank(&[7], 50, 100), 7);
        assert_eq!(nearest_rank(&[], 50, 100), 0);
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let h = LatencyHistogram::from_latencies((1..=1000).rev().collect());
        assert_eq!(h.count, 1000);
        assert_eq!((h.min, h.max), (1, 1000));
        assert!(h.p50 <= h.p90 && h.p90 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.p999);
        assert_eq!(h.p999, 999);
        assert_eq!(h.buckets.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn serving_runs_and_verifies_on_every_model() {
        for model in ServeModel::ALL {
            let out = run_service(&tiny(model)).expect("run completes");
            assert!(out.verified, "{model:?}: {:?}", out.verify_error);
            assert_eq!(out.completed + out.rejected, 64, "{model:?}");
            assert!(out.batches > 0);
            assert!(out.hist.p50 > 0);
        }
    }

    #[test]
    fn serving_is_deterministic() {
        let a = run_service(&tiny(ServeModel::Sbrp)).unwrap();
        let b = run_service(&tiny(ServeModel::Sbrp)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cache_roundtrip_preserves_output() {
        let cell = ServeCell {
            spec: tiny(ServeModel::Epoch),
        };
        let out = cell.run();
        let cached = cell.to_cache(&out).expect("verified output caches");
        let parsed = cell.parse_cached(&cached).expect("parses back");
        assert_eq!(out.unwrap(), parsed.unwrap());
    }

    #[test]
    fn fingerprints_distinguish_specs() {
        let base = ServeCell {
            spec: tiny(ServeModel::Sbrp),
        };
        let fp = base.fingerprint();
        for spec in [
            ServeSpec {
                seed: 7,
                ..base.spec.clone()
            },
            ServeSpec {
                rate_milli: 9999,
                ..base.spec.clone()
            },
            ServeSpec {
                model: ServeModel::Gpm,
                ..base.spec.clone()
            },
            ServeSpec {
                arrival: ArrivalKind::Bursty,
                ..base.spec.clone()
            },
            ServeSpec {
                batch: 8,
                ..base.spec.clone()
            },
            ServeSpec {
                linger: 501,
                ..base.spec.clone()
            },
            ServeSpec {
                crash_at: Some(5000),
                ..base.spec.clone()
            },
        ] {
            assert_ne!(fp, ServeCell { spec }.fingerprint());
        }
    }
}
