//! Optional timeline tracer: warp-state intervals (running vs. stalled,
//! by [`StallCause`]) and memory-subsystem events (persist-flush
//! lifetimes, PCIe retry backoff), exported as Chrome-trace JSON that
//! loads directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! Enabled by [`crate::config::GpuConfig::timeline`]; drained with
//! [`crate::Gpu::take_timeline`]. Each SM is a Perfetto "process" whose
//! "threads" are warp slots; the memory subsystem is one extra process
//! whose lanes carry flush lifetime slices. Timestamps are GPU core
//! cycles (rendered as microseconds, 1 cycle = 1 µs).

use sbrp_core::json::Json;
use sbrp_core::stall::StallCause;

/// The Perfetto "process" id used for memory-subsystem tracks.
pub const MEM_PID: u32 = 9999;
/// Flush lifetime slices are spread round-robin over this many lanes so
/// concurrent flushes don't overlap on one track.
pub const MEM_LANES: u64 = 24;

/// What a warp slot is doing over an interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarpState {
    /// The warp can issue (or is issuing).
    Running,
    /// The warp cannot issue, charged to the given cause.
    Stalled(StallCause),
}

impl WarpState {
    /// Slice name shown in the trace viewer.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WarpState::Running => "run",
            WarpState::Stalled(c) => c.label(),
        }
    }
}

/// One closed interval on a (pid, tid) track.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slice {
    /// Perfetto process id (SM id, or [`MEM_PID`]).
    pub pid: u32,
    /// Perfetto thread id (warp slot, or a memory lane).
    pub tid: u32,
    /// Slice name.
    pub name: &'static str,
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last cycle of the interval.
    pub end: u64,
}

/// Per-SM run-length recorder of warp states. The SM calls
/// [`SmTimeline::observe`] for every slot whenever its warp states may
/// have changed; identical consecutive states extend the open slice,
/// changes close it.
#[derive(Debug)]
pub struct SmTimeline {
    sm: u32,
    open: Vec<Option<(WarpState, u64)>>,
    slices: Vec<Slice>,
}

impl SmTimeline {
    /// A recorder for `warp_slots` slots of SM `sm`.
    #[must_use]
    pub fn new(sm: u32, warp_slots: usize) -> Self {
        SmTimeline {
            sm,
            open: vec![None; warp_slots],
            slices: Vec::new(),
        }
    }

    /// Records slot `slot` being in `state` from cycle `now` onward
    /// (`None` = no resident warp). Cycles with no call extend the open
    /// interval.
    pub fn observe(&mut self, slot: usize, state: Option<WarpState>, now: u64) {
        let open = &mut self.open[slot];
        match (*open, state) {
            (Some((cur, _)), Some(next)) if cur == next => {}
            (prev, next) => {
                if let Some((cur, since)) = prev {
                    if now > since {
                        self.slices.push(Slice {
                            pid: self.sm,
                            tid: slot as u32,
                            name: cur.name(),
                            start: since,
                            end: now,
                        });
                    }
                }
                *open = next.map(|s| (s, now));
            }
        }
    }

    /// Closes every open interval at `now` and returns all slices.
    pub fn finish(&mut self, now: u64) -> Vec<Slice> {
        for slot in 0..self.open.len() {
            self.observe(slot, None, now);
        }
        std::mem::take(&mut self.slices)
    }
}

/// A complete recorded timeline, ready for export.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// All recorded intervals.
    pub slices: Vec<Slice>,
    /// Total cycles the run covered.
    pub cycles: u64,
    /// SM count (for process metadata).
    pub num_sms: u32,
}

impl Timeline {
    /// Renders the timeline as Chrome-trace JSON (the `traceEvents`
    /// array format), loadable in Perfetto: one event object per line,
    /// each rendered by [`Json::render`].
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let process = |pid: u32, name: String| {
            Json::obj([
                ("ph", Json::Str("M".into())),
                ("pid", Json::U64(pid.into())),
                ("name", Json::Str("process_name".into())),
                ("args", Json::obj([("name", Json::Str(name))])),
            ])
            .render()
        };
        let mut events: Vec<String> = (0..self.num_sms)
            .map(|pid| process(pid, format!("SM{pid}")))
            .collect();
        events.push(process(MEM_PID, "MemSubsystem".into()));
        events.extend(self.slices.iter().map(|s| {
            Json::obj([
                ("ph", Json::Str("X".into())),
                ("pid", Json::U64(s.pid.into())),
                ("tid", Json::U64(s.tid.into())),
                ("ts", Json::U64(s.start)),
                ("dur", Json::U64(s.end - s.start)),
                ("name", Json::Str(s.name.into())),
                (
                    "cat",
                    Json::Str(if s.pid == MEM_PID { "mem" } else { "warp" }.into()),
                ),
            ])
            .render()
        }));
        let other = Json::obj([("cycles", Json::U64(self.cycles))]).render();
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{other}}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_length_encoding_merges_identical_states() {
        let mut tl = SmTimeline::new(0, 2);
        tl.observe(0, Some(WarpState::Running), 0);
        tl.observe(0, Some(WarpState::Running), 5);
        tl.observe(0, Some(WarpState::Stalled(StallCause::DFence)), 10);
        tl.observe(0, Some(WarpState::Stalled(StallCause::DFence)), 20);
        let slices = tl.finish(30);
        assert_eq!(
            slices,
            vec![
                Slice {
                    pid: 0,
                    tid: 0,
                    name: "run",
                    start: 0,
                    end: 10
                },
                Slice {
                    pid: 0,
                    tid: 0,
                    name: "dfence",
                    start: 10,
                    end: 30
                },
            ]
        );
    }

    #[test]
    fn zero_length_intervals_are_dropped() {
        let mut tl = SmTimeline::new(1, 1);
        tl.observe(0, Some(WarpState::Running), 7);
        tl.observe(0, None, 7);
        assert!(tl.finish(7).is_empty());
    }

    #[test]
    fn chrome_json_shape() {
        let tl = Timeline {
            slices: vec![Slice {
                pid: 0,
                tid: 3,
                name: "pb_full",
                start: 10,
                end: 25,
            }],
            cycles: 100,
            num_sms: 2,
        };
        let j = tl.to_chrome_json();
        assert_eq!(
            j,
            "{\"traceEvents\":[\n\
             {\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"SM0\"}},\n\
             {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"SM1\"}},\n\
             {\"ph\":\"M\",\"pid\":9999,\"name\":\"process_name\",\"args\":{\"name\":\"MemSubsystem\"}},\n\
             {\"ph\":\"X\",\"pid\":0,\"tid\":3,\"ts\":10,\"dur\":15,\"name\":\"pb_full\",\"cat\":\"warp\"}\n\
             ],\"displayTimeUnit\":\"ms\",\"otherData\":{\"cycles\":100}}\n"
        );
        assert!(Json::parse(&j).is_ok());
        let empty = Timeline {
            slices: Vec::new(),
            ..tl
        };
        assert!(Json::parse(&empty.to_chrome_json()).is_ok());
    }
}
