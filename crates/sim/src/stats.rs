//! Aggregate simulation statistics.

use crate::sm::SmCounters;
use sbrp_core::json::Json;
use sbrp_core::pbuffer::PbStats;
use sbrp_core::stall::StallBreakdown;

/// Counters collected over a run; the evaluation figures are computed
/// from these.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles simulated (runtime — Figs. 6/7/9/10/11).
    pub cycles: u64,
    /// Dynamic warp instructions retired (each instruction once —
    /// engine-stall retries and multi-group continuations don't count).
    pub instructions: u64,
    /// L1 read accesses, all spaces (`l1_hits + l1_misses`).
    pub l1_reads: u64,
    /// L1 hits, all accesses.
    pub l1_hits: u64,
    /// L1 misses, all accesses.
    pub l1_misses: u64,
    /// L1 *read* accesses to NVM data.
    pub l1_pm_reads: u64,
    /// L1 *read misses* for NVM data (Fig. 8).
    pub l1_pm_read_misses: u64,
    /// Cache-line writebacks into the persistence domain.
    pub persist_flushes: u64,
    /// Volatile L1 writebacks (GPM barrier traffic + evictions).
    pub volatile_writebacks: u64,
    /// Epoch barrier rounds executed.
    pub epoch_rounds: u64,
    /// Bytes moved over PCIe.
    pub pcie_bytes: u64,
    /// Bytes written toward NVM.
    pub nvm_write_bytes: u64,
    /// Bytes read from NVM.
    pub nvm_read_bytes: u64,
    /// Writes accepted into memory-controller WPQs (durable commits).
    pub wpq_accepts: u64,
    /// Warps that blocked waiting on durability (dFence/epoch barrier).
    pub dfence_waits: u64,
    /// PCIe retransmissions recovering injected transient link faults.
    pub pcie_retries: u64,
    /// Cycles spent in PCIe retry backoff.
    pub pcie_backoff_cycles: u64,
    /// Aggregated persist-buffer statistics (SBRP runs).
    pub pb: PbStats,
    /// Warp-stall cycles attributed by cause (see
    /// [`sbrp_core::stall::StallCause`]).
    pub stall: StallBreakdown,
}

impl SimStats {
    /// L1 miss ratio over all accesses.
    #[must_use]
    pub fn l1_miss_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_misses as f64 / total as f64
        }
    }

    /// Adds per-SM persist-buffer stats into the aggregate. Destructures
    /// exhaustively (no `..`): adding a `PbStats` field is a compile
    /// error here until it is merged, so new counters cannot silently
    /// vanish from aggregates.
    pub fn merge_pb(&mut self, other: PbStats) {
        let PbStats {
            stores,
            coalesced,
            entries,
            stall_ordered,
            stall_full,
            stall_evict,
            flushes,
            acks,
            ofences,
            dfences,
            pacqs,
            prels,
        } = other;
        let a = &mut self.pb;
        a.stores += stores;
        a.coalesced += coalesced;
        a.entries += entries;
        a.stall_ordered += stall_ordered;
        a.stall_full += stall_full;
        a.stall_evict += stall_evict;
        a.flushes += flushes;
        a.acks += acks;
        a.ofences += ofences;
        a.dfences += dfences;
        a.pacqs += pacqs;
        a.prels += prels;
    }

    /// Adds one SM's scalar counters into the aggregate, exhaustively.
    pub fn merge_sm(&mut self, c: SmCounters) {
        let SmCounters {
            instructions,
            reads,
            read_misses,
            pm_reads,
            pm_read_misses,
            persist_flushes,
            volatile_writebacks,
            dfence_waits,
        } = c;
        self.instructions += instructions;
        self.l1_reads += reads;
        self.l1_hits += reads - read_misses;
        self.l1_misses += read_misses;
        self.l1_pm_reads += pm_reads;
        self.l1_pm_read_misses += pm_read_misses;
        self.persist_flushes += persist_flushes;
        self.volatile_writebacks += volatile_writebacks;
        self.dfence_waits += dfence_waits;
    }

    /// Adds a stall breakdown into the aggregate (exhaustive merge in
    /// [`StallBreakdown::merge`]).
    pub fn merge_stall(&mut self, other: StallBreakdown) {
        self.stall.merge(other);
    }

    /// Deterministic JSON rendering (field declaration order, nested
    /// `pb` and `stall` objects) — the golden-snapshot format checked
    /// in CI: [`SimStats::to_json_value`] rendered with
    /// [`Json::pretty`].
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// The stats as a JSON object, in [`SimStats::to_json`]'s layout.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let mut stats = *self;
        let (top, pb, stall) = fields(&mut stats);
        let obj = |fields: Fields| {
            let fields = fields.into_iter().map(|(name, v)| (name, Json::U64(*v)));
            fields.collect::<Vec<_>>()
        };
        let mut out = obj(top);
        out.extend([("pb", Json::obj(obj(pb))), ("stall", Json::obj(obj(stall)))]);
        Json::obj(out)
    }

    /// Reads stats back from [`SimStats::to_json_value`]'s object — the
    /// read side of the sweep engine's on-disk result cache.
    ///
    /// ```
    /// use sbrp_gpu_sim::stats::SimStats;
    /// let stats = SimStats::default();
    /// assert_eq!(SimStats::from_json(&stats.to_json_value()).unwrap(), stats);
    /// ```
    ///
    /// # Errors
    /// Names the first field missing from (or not an integer in) `json`.
    pub fn from_json(json: &Json) -> Result<SimStats, String> {
        let mut stats = SimStats::default();
        let (top, pb, stall) = fields(&mut stats);
        let read = |obj: Option<&Json>, fields: Fields| {
            for (name, slot) in fields {
                *slot = (obj.and_then(|o| o.get(name)?.as_u64()))
                    .ok_or_else(|| format!("missing stats field {name}"))?;
            }
            Ok::<(), String>(())
        };
        read(Some(json), top)?;
        read(json.get("pb"), pb)?;
        read(json.get("stall"), stall)?;
        Ok(stats)
    }
}

/// Counters with their JSON names.
type Fields<'a> = Vec<(&'static str, &'a mut u64)>;

/// Every counter of `stats` with its JSON name, in rendering order:
/// the top-level scalars, then the `pb` and `stall` objects. The one
/// field table behind [`SimStats::to_json_value`],
/// [`SimStats::from_json`] and their round-trip test. It destructures
/// exhaustively (no `..`), so adding a `SimStats`, `PbStats` or
/// `StallBreakdown` field is a compile error here until the snapshot
/// and cache format carry it.
fn fields(stats: &mut SimStats) -> (Fields<'_>, Fields<'_>, Fields<'_>) {
    let SimStats {
        cycles,
        instructions,
        l1_reads,
        l1_hits,
        l1_misses,
        l1_pm_reads,
        l1_pm_read_misses,
        persist_flushes,
        volatile_writebacks,
        epoch_rounds,
        pcie_bytes,
        nvm_write_bytes,
        nvm_read_bytes,
        wpq_accepts,
        dfence_waits,
        pcie_retries,
        pcie_backoff_cycles,
        pb,
        stall,
    } = stats;
    let PbStats {
        stores,
        coalesced,
        entries,
        stall_ordered,
        stall_full,
        stall_evict,
        flushes,
        acks,
        ofences,
        dfences,
        pacqs,
        prels,
    } = pb;
    let StallBreakdown {
        ofence,
        dfence,
        pacqrel,
        l1_miss,
        pb_full,
        pb_ordered,
        wpq_backpressure,
        pcie_backoff,
        scoreboard,
        total,
    } = stall;
    (
        vec![
            ("cycles", cycles),
            ("instructions", instructions),
            ("l1_reads", l1_reads),
            ("l1_hits", l1_hits),
            ("l1_misses", l1_misses),
            ("l1_pm_reads", l1_pm_reads),
            ("l1_pm_read_misses", l1_pm_read_misses),
            ("persist_flushes", persist_flushes),
            ("volatile_writebacks", volatile_writebacks),
            ("epoch_rounds", epoch_rounds),
            ("pcie_bytes", pcie_bytes),
            ("nvm_write_bytes", nvm_write_bytes),
            ("nvm_read_bytes", nvm_read_bytes),
            ("wpq_accepts", wpq_accepts),
            ("dfence_waits", dfence_waits),
            ("pcie_retries", pcie_retries),
            ("pcie_backoff_cycles", pcie_backoff_cycles),
        ],
        vec![
            ("stores", stores),
            ("coalesced", coalesced),
            ("entries", entries),
            ("stall_ordered", stall_ordered),
            ("stall_full", stall_full),
            ("stall_evict", stall_evict),
            ("flushes", flushes),
            ("acks", acks),
            ("ofences", ofences),
            ("dfences", dfences),
            ("pacqs", pacqs),
            ("prels", prels),
        ],
        vec![
            ("ofence", ofence),
            ("dfence", dfence),
            ("pacqrel", pacqrel),
            ("l1_miss", l1_miss),
            ("pb_full", pb_full),
            ("pb_ordered", pb_ordered),
            ("wpq_backpressure", wpq_backpressure),
            ("pcie_backoff", pcie_backoff),
            ("scoreboard", scoreboard),
            ("total", total),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrp_core::stall::StallCause;

    #[test]
    fn miss_ratio_handles_zero() {
        assert_eq!(SimStats::default().l1_miss_ratio(), 0.0);
        let s = SimStats {
            l1_hits: 3,
            l1_misses: 1,
            ..SimStats::default()
        };
        assert!((s.l1_miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_pb_accumulates() {
        let mut s = SimStats::default();
        s.merge_pb(PbStats {
            stores: 5,
            flushes: 2,
            ..PbStats::default()
        });
        s.merge_pb(PbStats {
            stores: 3,
            acks: 1,
            ..PbStats::default()
        });
        assert_eq!(s.pb.stores, 8);
        assert_eq!(s.pb.flushes, 2);
        assert_eq!(s.pb.acks, 1);
    }

    #[test]
    fn merge_sm_accumulates_and_splits_hits() {
        let mut s = SimStats::default();
        s.merge_sm(SmCounters {
            instructions: 10,
            reads: 7,
            read_misses: 2,
            pm_reads: 3,
            pm_read_misses: 1,
            persist_flushes: 4,
            volatile_writebacks: 5,
            dfence_waits: 6,
        });
        assert_eq!(s.instructions, 10);
        assert_eq!(s.l1_reads, 7);
        assert_eq!(s.l1_hits, 5);
        assert_eq!(s.l1_misses, 2);
        assert_eq!(s.l1_hits + s.l1_misses, s.l1_reads);
        assert_eq!(s.dfence_waits, 6);
    }

    #[test]
    fn json_round_trips_every_field() {
        // Distinct values per field, set through the one field table,
        // so a swapped pair cannot cancel out and no field is skipped.
        let mut s = SimStats::default();
        let (top, pb, stall) = fields(&mut s);
        for (i, (_, f)) in top.into_iter().chain(pb).chain(stall).enumerate() {
            *f = i as u64 + 1;
        }
        let value = s.to_json_value();
        assert_eq!(value.pretty(), s.to_json());
        let reparsed = Json::parse(&s.to_json()).expect("parses");
        assert_eq!(reparsed, value);
        assert_eq!(SimStats::from_json(&reparsed), Ok(s));
        assert_eq!(
            SimStats::from_json(&Json::Obj(Vec::new())),
            Err("missing stats field cycles".to_string())
        );
        let Json::Obj(mut no_pb) = value else {
            unreachable!("stats render as an object")
        };
        no_pb.retain(|(k, _)| k != "pb");
        assert_eq!(
            SimStats::from_json(&Json::Obj(no_pb)),
            Err("missing stats field stores".to_string())
        );
    }

    #[test]
    fn json_is_deterministic_and_carries_breakdown() {
        let mut s = SimStats {
            cycles: 100,
            ..SimStats::default()
        };
        s.stall.charge(StallCause::DFence, 42);
        let j = s.to_json();
        assert_eq!(j, s.to_json(), "rendering is deterministic");
        assert!(j.contains("\"cycles\": 100"));
        assert!(j.contains("\"dfence\": 42"));
        assert!(j.contains("\"total\": 42"));
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
    }
}
