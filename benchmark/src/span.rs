//! In-memory spans around the harness's calls into each layer.
//!
//! A span is recorded at every boundary where the harness calls a
//! layer's public function: name (`layer.operation`), start, end, the
//! span that caused it and the workload it belongs to, plus the count of
//! work done inside (events, calls, rows). Spans stay in memory and are
//! written once, as a Chrome trace, when the run ends. A layer's *self
//! time* is its span minus the part its children cover.

use mango::telemetry::ChromeTrace;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `net.prepare`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work done inside, counted at this boundary.
    pub count: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept per run, so the trace file stays loadable; past it
/// [`Tracer::span`] only calls through and counts the span as dropped.
/// A `planner_vopd` slice alone records 9 000–11 000, so the slice loop
/// stops tracing while a whole slice still fits (see
/// `harness::run_slices`): a span's children are never cut off.
pub const MAX_SPANS: usize = 60_000;

/// Collects spans; switched off it records nothing and only calls
/// through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Name of the workload every span belongs to.
    pub workload: &'static str,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    /// Spans not recorded because [`MAX_SPANS`] was reached.
    pub dropped: u64,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; `on = false` makes [`Tracer::span`] a
    /// plain call.
    pub fn new(workload: &'static str, on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            workload,
            spans: Vec::new(),
            dropped: 0,
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off between slices.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `work` inside a span named `name`. `work` returns its
    /// result and the count of work it did.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        if !self.on {
            return work(self).0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return work(self).0;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            count: 0,
        });
        self.stack.push(idx);
        let (out, count) = work(self);
        self.stack.pop();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx];
        span.end_ns = end_ns.max(span.start_ns);
        span.count = count;
        out
    }

    /// The spans as Chrome-trace events on process track `pid`, which is
    /// named after the workload: complete events whose `args` carry the
    /// span's index, its parent's (absent for a root) and the count.
    pub fn chrome_trace(&self, pid: u32) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.name_track(pid, None, self.workload);
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let mut args = vec![("id", i as u64), ("count", s.count)];
            if let Some(parent) = s.parent {
                args.push(("parent", parent as u64));
            }
            // The writer's clock is picoseconds.
            trace.span(
                layer,
                s.name,
                s.start_ns * 1000,
                s.end_ns * 1000,
                pid,
                1,
                args,
            );
        }
        trace
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children, in ns (children never overlap: the harness is one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name totals: `(calls, total ns, self ns, count)`, by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64, u64)> {
    let own = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_insert((0, 0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own_ns;
        e.3 += s.count;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("apps.serving_run", 0, 100, None),
            span("net.prepare", 10, 30, Some(0)),
            span("sim.run", 30, 90, Some(0)),
            span("sim.queue", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["sim.run"], (1, 60, 50, 1));
    }

    #[test]
    fn tracer_nests_and_counts() {
        let mut tr = Tracer::new("w", true);
        let v = tr.span("outer.op", |tr| {
            let inner = tr.span("inner.op", |_| (7u64, 3));
            (inner + 1, 1)
        });
        assert_eq!(v, 8);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].count, 3);
        assert!(tr.spans[0].dur_ns() >= tr.spans[1].dur_ns());
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tr = Tracer::new("w", false);
        assert_eq!(tr.span("a.b", |_| (5, 0)), 5);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut tr = Tracer::new("fabric_4x4", true);
        tr.spans.push(span("net.prepare", 1_000, 3_500, None));
        tr.spans.push(span("net.run", 1_500, 2_000, Some(0)));
        let mut text = String::new();
        tr.chrome_trace(3).render_json(&mut text);
        let v = crate::json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let track = events[0].get("args").unwrap().get("name").unwrap();
        assert_eq!(track.as_str(), Some("fabric_4x4"));
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("net.prepare"));
        assert_eq!(events[1].get("pid").unwrap().as_f64(), Some(3.0));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(2.5));
        assert!(events[1].get("args").unwrap().get("parent").is_none());
        let child = events[2].get("args").unwrap();
        assert_eq!(child.get("parent").unwrap().as_f64(), Some(0.0));
    }
}
