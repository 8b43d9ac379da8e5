//! In-memory span recorder for the traced run.
//!
//! Every public call the benchmark makes into a layer is wrapped in
//! [`Tracer::span`]. When tracing is off the wrapper only calls the
//! closure; when it is on, each span records its name, start, end,
//! parent span and request id (the cell, rung or program index of the
//! operation it belongs to). Spans stay in memory until the run ends
//! and are then written as Chrome-trace JSON (open it in Perfetto).
//! Span times are on the benchmark's work clock ([`host::now`]), so the
//! trace's timeline is CPU time, without the host-speed samples.

use crate::host;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One recorded span. Times are work-clock nanoseconds since the tracer
/// started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

pub struct Tracer {
    on: bool,
    origin: Duration,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: host::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from((host::now() - self.origin).as_nanos())
            .expect("a run lasts less than 584 years")
    }

    /// Runs `f` inside a span named `name` for request `req`. Spans
    /// opened inside `f` (through the tracer it is handed) become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Total self time in seconds per span name, over the spans with
    /// index `from..to`: each span's duration minus the time its
    /// children cover.
    pub fn self_seconds(&self, from: usize, to: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().take(to).skip(from) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// How many spans have been recorded; also a phase boundary for
    /// [`Tracer::self_seconds`].
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as Chrome-trace JSON: complete (`"X"`) events in
    /// microseconds on one thread, with the request id, span id and
    /// parent span id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"req\":{},\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req,
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins for `ms` milliseconds of work time (sleeping takes none).
    fn busy(ms: u64) {
        let until = host::now() + Duration::from_millis(ms);
        while host::now() < until {}
    }

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.span("outer", 7, |tr| {
            busy(2);
            tr.span("inner", 7, |_| busy(5));
        });
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        let own = tr.self_seconds(0, tr.len());
        let outer = (tr.spans[0].end_ns - tr.spans[0].start_ns) as f64 * 1e-9;
        assert!(own["inner"] >= 0.005 && own["outer"] >= 0.002);
        assert!((own["outer"] + own["inner"] - outer).abs() < 1e-9);
        let json = tr.to_chrome_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |_| 3), 3);
        assert_eq!(off.len(), 0);
    }
}
