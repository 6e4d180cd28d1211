//! The task-graph workload model: applications as directed graphs of
//! communicating tasks, the input of the placement engine.
//!
//! A [`TaskGraph`] is the application-level demand description of
//! Even & Fais-style NoC design problems: tasks (optionally pinned to a
//! router, weighted by compute demand) connected by directed edges that
//! each require a sustained flit rate and, optionally, a hard latency
//! bound. Graphs come from three sources:
//!
//! * the builder API ([`TaskGraph::task`] / [`TaskGraph::edge`]);
//! * a small line-oriented text format ([`TaskGraph::parse`], inverse
//!   [`TaskGraph::to_text`]) for experiment files;
//! * [generators](self#generators) — pipeline, fork-join, mesh stencil
//!   and seeded random DAG — plus named graphs ([`vopd`], [`mwd`])
//!   echoing the classic video-pipeline benchmarks of the QoS-mapping
//!   literature.
//!
//! Rates are integer flits/second. [`TaskGraph::period`] converts an
//! edge's rate to the CBR emission period the GS machinery consumes,
//! rounding the period *down* so the reserved rate
//! ([`mango_qos::AdmissionController::rate_fps`], which rounds *up*)
//! always covers the requested rate.

use mango_core::RouterId;
use mango_sim::{SimDuration, SimRng};
use std::fmt::Write as _;

/// One task: a unit of computation mapped to exactly one router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Task name (unique within the graph).
    pub name: String,
    /// Relative compute weight (informational; the placer uses it to
    /// spread heavy tasks).
    pub weight: u32,
    /// Pin the task to this router (the placer must honour it).
    pub affinity: Option<RouterId>,
}

/// One directed communication edge between two tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producing task (index into [`TaskGraph::tasks`]).
    pub from: usize,
    /// Consuming task (index into [`TaskGraph::tasks`]).
    pub to: usize,
    /// Required sustained rate, flits/second.
    pub rate_fps: u64,
    /// Optional hard end-to-end latency bound, ns: the placement is
    /// only acceptable if the admitted path's analytical worst case
    /// stays within it.
    pub bound_ns: Option<u64>,
}

impl Edge {
    /// True when an admitted path whose analytical worst case is
    /// `worst` meets the edge's required bound: always without one,
    /// never without a worst case, else `worst ≤ bound` in integer
    /// picoseconds.
    pub fn admits(&self, worst: Option<SimDuration>) -> bool {
        self.bound_ns.is_none_or(|bound_ns| {
            worst.is_some_and(|w| w.as_ps() <= bound_ns.saturating_mul(1_000))
        })
    }
}

/// A whole application: tasks plus the edges connecting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    /// Application name.
    pub name: String,
    /// The tasks, in declaration order.
    pub tasks: Vec<Task>,
    /// The edges, in declaration order — also the order the serving
    /// engine admits and opens them in (determinism).
    pub edges: Vec<Edge>,
}

impl TaskGraph {
    /// An empty graph named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a task and returns its index.
    pub fn task(&mut self, name: impl Into<String>, weight: u32) -> usize {
        self.tasks.push(Task {
            name: name.into(),
            weight,
            affinity: None,
        });
        self.tasks.len() - 1
    }

    /// Adds a directed edge requiring `rate_fps` flits/second.
    pub fn edge(&mut self, from: usize, to: usize, rate_fps: u64) -> &mut Self {
        self.edges.push(Edge {
            from,
            to,
            rate_fps,
            bound_ns: None,
        });
        self
    }

    /// Adds a directed edge with a hard latency bound.
    pub fn edge_bounded(&mut self, from: usize, to: usize, rate_fps: u64, bound_ns: u64) {
        self.edges.push(Edge {
            from,
            to,
            rate_fps,
            bound_ns: Some(bound_ns),
        });
    }

    /// The CBR emission period for `rate_fps`. Rounded down, so the
    /// conservative round-up in the admission controller's
    /// rate-from-period conversion reserves at least the requested rate.
    pub fn period(rate_fps: u64) -> SimDuration {
        SimDuration::from_ps(1_000_000_000_000 / rate_fps.max(1))
    }

    /// Sum of all edge rates, flits/second — the graph's total offered
    /// GS bandwidth when placed with no two adjacent tasks co-located.
    pub fn total_demand_fps(&self) -> u64 {
        self.edges.iter().map(|e| e.rate_fps).sum()
    }

    /// Demand incident to task `i` (in-edges + out-edges), flits/second.
    pub fn incident_demand_fps(&self, i: usize) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.from == i || e.to == i)
            .map(|e| e.rate_fps)
            .sum()
    }

    /// Structural validity: every edge references existing, distinct
    /// tasks with a positive rate, task names are unique, and no task's
    /// in- or out-degree exceeds 4 (a router has four local GS
    /// interfaces, so a heavier task could never stand alone on a node).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (i, t) in self.tasks.iter().enumerate() {
            if self.tasks[..i].iter().any(|o| o.name == t.name) {
                return Err(format!("duplicate task name {:?}", t.name));
            }
        }
        let mut out_deg = vec![0u32; self.tasks.len()];
        let mut in_deg = vec![0u32; self.tasks.len()];
        for e in &self.edges {
            if e.from >= self.tasks.len() || e.to >= self.tasks.len() {
                return Err(format!(
                    "edge {}->{} references a missing task",
                    e.from, e.to
                ));
            }
            if e.from == e.to {
                return Err(format!("self-edge on task {:?}", self.tasks[e.from].name));
            }
            if e.rate_fps == 0 {
                return Err(format!(
                    "edge {:?}->{:?} requires a positive rate",
                    self.tasks[e.from].name, self.tasks[e.to].name
                ));
            }
            out_deg[e.from] += 1;
            in_deg[e.to] += 1;
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if out_deg[i] > 4 || in_deg[i] > 4 {
                return Err(format!(
                    "task {:?} has degree out={} in={} (max 4 local GS interfaces)",
                    t.name, out_deg[i], in_deg[i]
                ));
            }
        }
        Ok(())
    }

    /// Serializes the graph in the text format [`TaskGraph::parse`]
    /// reads (round-trips exactly for valid graphs).
    pub fn to_text(&self) -> String {
        let mut out = format!("app {}\n", self.name);
        for t in &self.tasks {
            let _ = write!(out, "task {} w={}", t.name, t.weight);
            if let Some(at) = t.affinity {
                let _ = write!(out, " at={},{}", at.x, at.y);
            }
            out.push('\n');
        }
        for e in &self.edges {
            let _ = write!(
                out,
                "edge {} {} rate={}",
                self.tasks[e.from].name,
                self.tasks[e.to].name,
                fmt_rate(e.rate_fps)
            );
            if let Some(b) = e.bound_ns {
                let _ = write!(out, " bound={b}ns");
            }
            out.push('\n');
        }
        out
    }

    /// Parses the line-oriented text format:
    ///
    /// ```text
    /// app video-pipe
    /// task src w=1 at=0,0
    /// task filt w=3
    /// edge src filt rate=70M bound=500ns
    /// ```
    ///
    /// `rate` accepts `k`/`M`/`G` suffixes (flits/second); `bound` is
    /// nanoseconds (`ns` suffix optional). Blank lines and `#` comments
    /// are skipped. The parsed graph is validated.
    ///
    /// # Errors
    ///
    /// Returns the offending line and what is wrong with it.
    pub fn parse(text: &str) -> Result<TaskGraph, String> {
        let mut graph: Option<TaskGraph> = None;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            let keyword = words.next().expect("non-empty line has a word");
            let err = |msg: &str| format!("line {}: {msg}: {line:?}", ln + 1);
            match keyword {
                "app" => {
                    let name = words.next().ok_or_else(|| err("app needs a name"))?;
                    if graph.is_some() {
                        return Err(err("one graph per text"));
                    }
                    graph = Some(TaskGraph::new(name));
                }
                "task" => {
                    let g = graph.as_mut().ok_or_else(|| err("task before app"))?;
                    let name = words.next().ok_or_else(|| err("task needs a name"))?;
                    let mut weight = 1u32;
                    let mut affinity = None;
                    for opt in words {
                        if let Some(w) = opt.strip_prefix("w=") {
                            weight = w.parse().map_err(|_| err("bad weight"))?;
                        } else if let Some(at) = opt.strip_prefix("at=") {
                            let (x, y) = at.split_once(',').ok_or_else(|| err("at=x,y"))?;
                            affinity = Some(RouterId::new(
                                x.parse().map_err(|_| err("bad at= x"))?,
                                y.parse().map_err(|_| err("bad at= y"))?,
                            ));
                        } else {
                            return Err(err("unknown task option"));
                        }
                    }
                    let i = g.task(name, weight);
                    g.tasks[i].affinity = affinity;
                }
                "edge" => {
                    let g = graph.as_mut().ok_or_else(|| err("edge before app"))?;
                    let from_name = words.next().ok_or_else(|| err("edge needs a source"))?;
                    let to_name = words.next().ok_or_else(|| err("edge needs a sink"))?;
                    let find = |n: &str| g.tasks.iter().position(|t| t.name == n);
                    let from = find(from_name).ok_or_else(|| err("unknown source task"))?;
                    let to = find(to_name).ok_or_else(|| err("unknown sink task"))?;
                    let mut rate_fps = None;
                    let mut bound_ns = None;
                    for opt in words {
                        if let Some(r) = opt.strip_prefix("rate=") {
                            rate_fps = Some(parse_rate(r).ok_or_else(|| err("bad rate"))?);
                        } else if let Some(b) = opt.strip_prefix("bound=") {
                            let b = b.strip_suffix("ns").unwrap_or(b);
                            bound_ns = Some(b.parse().map_err(|_| err("bad bound"))?);
                        } else {
                            return Err(err("unknown edge option"));
                        }
                    }
                    let rate_fps = rate_fps.ok_or_else(|| err("edge needs rate="))?;
                    g.edges.push(Edge {
                        from,
                        to,
                        rate_fps,
                        bound_ns,
                    });
                }
                _ => return Err(err("unknown keyword")),
            }
        }
        let graph = graph.ok_or("no `app` line")?;
        graph.validate()?;
        Ok(graph)
    }
}

fn fmt_rate(fps: u64) -> String {
    for (div, suffix) in [(1_000_000_000, "G"), (1_000_000, "M"), (1_000, "k")] {
        if fps >= div && fps.is_multiple_of(div) {
            return format!("{}{suffix}", fps / div);
        }
    }
    fps.to_string()
}

fn parse_rate(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' => (&s[..s.len() - 1], 1_000),
        b'M' => (&s[..s.len() - 1], 1_000_000),
        b'G' => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

// --- Generators -----------------------------------------------------------

/// A linear pipeline of `n` tasks, each stage streaming `rate_fps` to
/// the next — the canonical video/stream-processing shape.
pub fn pipeline(n: usize, rate_fps: u64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("pipeline{n}"));
    for i in 0..n {
        g.task(format!("s{i}"), 1);
    }
    for i in 1..n {
        g.edge(i - 1, i, rate_fps);
    }
    g
}

/// A fork-join: one source fans out to `width` parallel workers
/// (`width ≤ 4`, the local-interface degree cap) which merge into one
/// sink. Each branch carries `rate_fps`.
pub fn fork_join(width: usize, rate_fps: u64) -> TaskGraph {
    assert!((1..=4).contains(&width), "fork width must be 1..=4");
    let mut g = TaskGraph::new(format!("forkjoin{width}"));
    let src = g.task("fork", 1);
    let sink = g.task("join", 1);
    for i in 0..width {
        let w = g.task(format!("w{i}"), 2);
        g.edge(src, w, rate_fps);
        g.edge(w, sink, rate_fps);
    }
    g
}

/// A `w × h` stencil: tasks on a logical grid, each streaming
/// `rate_fps` to its east and south logical neighbor (the halo-exchange
/// half of a 4-point stencil; degrees stay ≤ 4 in each direction).
pub fn stencil(w: usize, h: usize, rate_fps: u64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("stencil{w}x{h}"));
    for y in 0..h {
        for x in 0..w {
            g.task(format!("c{x}_{y}"), 1);
        }
    }
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                g.edge(i, i + 1, rate_fps);
            }
            if y + 1 < h {
                g.edge(i, i + w, rate_fps);
            }
        }
    }
    g
}

/// A seeded random DAG of `n` tasks: every non-root task receives one
/// edge from an earlier task (connectedness), plus extra forward edges
/// up to the degree cap. Rates are drawn uniformly from
/// `[rate_fps/2, rate_fps]`. Deterministic for a fixed `(n, seed)`.
pub fn random_dag(n: usize, rate_fps: u64, seed: u64) -> TaskGraph {
    let mut g = TaskGraph::new(format!("dag{n}"));
    let mut rng = SimRng::new(seed ^ 0xDA6_0000);
    for i in 0..n {
        let weight = 1 + rng.gen_range(4) as u32;
        g.task(format!("t{i}"), weight);
    }
    let mut out_deg = vec![0u32; n];
    let mut in_deg = vec![0u32; n];
    let draw_rate = |rng: &mut SimRng| rate_fps / 2 + rng.gen_range(rate_fps / 2 + 1);
    // `to` names the sink task, not just an index into the degree tables.
    #[allow(clippy::needless_range_loop)]
    for to in 1..n {
        // Spanning edge from a random predecessor with spare out-degree.
        let mut from = rng.gen_range(to as u64) as usize;
        while out_deg[from] >= 4 {
            from = (from + 1) % to;
        }
        let rate = draw_rate(&mut rng);
        g.edge(from, to, rate);
        out_deg[from] += 1;
        in_deg[to] += 1;
        // One optional extra forward edge, degree caps permitting.
        if to >= 2 && rng.gen_bool(0.4) {
            let extra = rng.gen_range(to as u64) as usize;
            let duplicate = g.edges.iter().any(|e| e.from == extra && e.to == to);
            if extra != from && !duplicate && out_deg[extra] < 4 && in_deg[to] < 4 {
                let rate = draw_rate(&mut rng);
                g.edge(extra, to, rate);
                out_deg[extra] += 1;
                in_deg[to] += 1;
            }
        }
    }
    g
}

// --- Named graphs ---------------------------------------------------------

/// Flits/second per MB/s in the named graphs' rate tables: the classic
/// benchmark rates are megabytes/second; at this scale the heaviest VOPD
/// edge (500 MB/s → 75 Mflit/s) stays within the ~97 Mflit/s that one
/// paper-config GS connection can guarantee.
const FPS_PER_MBPS: u64 = 150_000;

/// The Video Object Plane Decoder graph — the standard 12-task mapping
/// benchmark (rates from the classic MB/s table, scaled by
/// `FPS_PER_MBPS`). Latency bounds on the two demand-critical edges
/// keep the placer honest about path length, not just admission.
pub fn vopd() -> TaskGraph {
    let mut g = TaskGraph::new("vopd");
    let names = [
        ("vld", 2),     // 0 variable-length decoder
        ("rld", 1),     // 1 run-length decoder
        ("iscan", 1),   // 2 inverse scan
        ("acdc", 2),    // 3 AC/DC prediction
        ("iquant", 1),  // 4 inverse quantization
        ("idct", 3),    // 5 inverse DCT
        ("arm", 2),     // 6 control processor
        ("upsamp", 2),  // 7 up-sampling
        ("vopmem", 1),  // 8 VOP memory
        ("padding", 1), // 9 padding
        ("voprec", 2),  // 10 VOP reconstruction
        ("stripe", 1),  // 11 stripe memory
    ];
    for (name, weight) in names {
        g.task(name, weight);
    }
    let mb = |mbps: u64| mbps * FPS_PER_MBPS;
    g.edge(0, 1, mb(70)); // vld → rld
    g.edge(1, 2, mb(362)); // rld → iscan
    g.edge(2, 3, mb(362)); // iscan → acdc
    g.edge(3, 4, mb(362)); // acdc → iquant
    g.edge_bounded(4, 5, mb(357), 600); // iquant → idct, latency-critical
    g.edge(3, 11, mb(49)); // acdc → stripe
    g.edge(11, 4, mb(27)); // stripe → iquant
    g.edge_bounded(5, 7, mb(353), 600); // idct → upsamp
    g.edge(6, 5, mb(16)); // arm → idct
    g.edge(6, 8, mb(16)); // arm → vopmem
    g.edge(8, 9, mb(313)); // vopmem → padding
    g.edge(9, 7, mb(300)); // padding → upsamp
    g.edge(7, 10, mb(500)); // upsamp → voprec
    g.edge(10, 8, mb(94)); // voprec → vopmem
    g.validate().expect("vopd is well-formed");
    g
}

/// The Multi-Window Display graph — the other classic mapping
/// benchmark: 12 tasks moving pixel windows between memories, blenders
/// and the display pipe.
pub fn mwd() -> TaskGraph {
    let mut g = TaskGraph::new("mwd");
    let names = [
        ("in", 1),    // 0 input
        ("nr", 2),    // 1 noise reduction
        ("mem1", 1),  // 2
        ("mem2", 1),  // 3
        ("hs", 2),    // 4 horizontal scaler
        ("vs", 2),    // 5 vertical scaler
        ("jug1", 2),  // 6 juggler 1
        ("jug2", 2),  // 7 juggler 2
        ("mem3", 1),  // 8
        ("se", 2),    // 9 sharpness enhance
        ("blend", 2), // 10
        ("hvs", 1),   // 11 display out
    ];
    for (name, weight) in names {
        g.task(name, weight);
    }
    let mb = |mbps: u64| mbps * FPS_PER_MBPS;
    g.edge(0, 1, mb(64)); // in → nr
    g.edge(1, 2, mb(96)); // nr → mem1
    g.edge(1, 6, mb(96)); // nr → jug1
    g.edge(2, 5, mb(96)); // mem1 → vs
    g.edge(5, 6, mb(96)); // vs → jug1
    g.edge(6, 8, mb(96)); // jug1 → mem3
    g.edge(8, 9, mb(96)); // mem3 → se
    g.edge(9, 10, mb(64)); // se → blend
    g.edge(0, 4, mb(128)); // in → hs
    g.edge(4, 7, mb(96)); // hs → jug2
    g.edge(7, 3, mb(96)); // jug2 → mem2
    g.edge(3, 10, mb(96)); // mem2 → blend
    g.edge(10, 11, mb(64)); // blend → hvs
    g.validate().expect("mwd is well-formed");
    g
}

/// Resolves a graph by name — the sweep axis. Fixed names `vopd` and
/// `mwd`, parametric `pipeline<N>`, `forkjoin<W>`, `stencil<W>x<H>`
/// and `dag<N>[@<seed>]` (generator rates default to 40 Mflit/s, a
/// conforming mid-range demand).
pub fn by_name(name: &str) -> Option<TaskGraph> {
    const GEN_RATE: u64 = 40_000_000;
    match name {
        "vopd" => return Some(vopd()),
        "mwd" => return Some(mwd()),
        _ => {}
    }
    if let Some(n) = name.strip_prefix("pipeline") {
        return Some(pipeline(n.parse().ok().filter(|&n| n >= 2)?, GEN_RATE));
    }
    if let Some(w) = name.strip_prefix("forkjoin") {
        return Some(fork_join(
            w.parse().ok().filter(|&w| (1..=4).contains(&w))?,
            GEN_RATE,
        ));
    }
    if let Some(dims) = name.strip_prefix("stencil") {
        let (w, h) = dims.split_once('x')?;
        return Some(stencil(
            w.parse().ok().filter(|&w| w >= 1)?,
            h.parse().ok().filter(|&h| h >= 1)?,
            GEN_RATE,
        ));
    }
    if let Some(spec) = name.strip_prefix("dag") {
        let (n, seed) = match spec.split_once('@') {
            Some((n, seed)) => (n, seed.parse().ok()?),
            None => (spec, 1),
        };
        return Some(random_dag(
            n.parse().ok().filter(|&n| n >= 2)?,
            GEN_RATE,
            seed,
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mango_qos::AdmissionController;

    /// The required bound is met up to and including equality, in
    /// integer picoseconds; no worst case never meets one, and a bound
    /// too large for picoseconds saturates instead of overflowing.
    #[test]
    fn required_bound_compares_in_integer_picoseconds() {
        let edge = |bound_ns| Edge {
            from: 0,
            to: 1,
            rate_fps: 1,
            bound_ns,
        };
        let ps = |ps| Some(SimDuration::from_ps(ps));
        assert!(edge(Some(23)).admits(ps(23_000)));
        assert!(!edge(Some(23)).admits(ps(23_001)));
        assert!(!edge(Some(23)).admits(None));
        assert!(edge(None).admits(None));
        assert!(edge(Some(u64::MAX)).admits(ps(u64::MAX)));
    }

    #[test]
    fn builder_and_validation() {
        let mut g = TaskGraph::new("t");
        let a = g.task("a", 1);
        let b = g.task("b", 2);
        g.edge(a, b, 1_000_000);
        assert!(g.validate().is_ok());
        assert_eq!(g.total_demand_fps(), 1_000_000);
        assert_eq!(g.incident_demand_fps(a), 1_000_000);

        g.edge(a, a, 1);
        assert!(g.validate().unwrap_err().contains("self-edge"));
        g.edges.pop();
        g.edge(a, b, 0);
        assert!(g.validate().unwrap_err().contains("positive rate"));
    }

    #[test]
    fn degree_cap_enforced() {
        let mut g = TaskGraph::new("t");
        let hub = g.task("hub", 1);
        for i in 0..5 {
            let t = g.task(format!("t{i}"), 1);
            g.edge(hub, t, 1_000);
        }
        assert!(g.validate().unwrap_err().contains("degree"));
    }

    #[test]
    fn period_is_conservative_for_any_rate() {
        for rate in [1_000u64, 7_777_777, 40_000_000, 75_000_000, 96_899_224] {
            let period = TaskGraph::period(rate);
            assert!(
                AdmissionController::rate_fps(period) >= rate,
                "rate {rate}: reserved {} < requested",
                AdmissionController::rate_fps(period)
            );
        }
    }

    #[test]
    fn text_format_round_trips() {
        let mut g = vopd();
        g.tasks[0].affinity = Some(RouterId::new(2, 3));
        let text = g.to_text();
        let parsed = TaskGraph::parse(&text).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn parse_reports_errors_with_lines() {
        assert!(TaskGraph::parse("task x w=1")
            .unwrap_err()
            .contains("before app"));
        assert!(TaskGraph::parse("app a\nedge x y rate=1M")
            .unwrap_err()
            .contains("unknown source"));
        assert!(TaskGraph::parse("app a\nbogus")
            .unwrap_err()
            .contains("unknown keyword"));
        let text = "# comment\napp a\n\ntask x w=2 at=1,0\ntask y\nedge x y rate=70M bound=500ns\n";
        let g = TaskGraph::parse(text).unwrap();
        assert_eq!(g.tasks[0].affinity, Some(RouterId::new(1, 0)));
        assert_eq!(g.edges[0].rate_fps, 70_000_000);
        assert_eq!(g.edges[0].bound_ns, Some(500));
    }

    #[test]
    fn generators_are_valid_and_deterministic() {
        for g in [
            pipeline(8, 40_000_000),
            fork_join(3, 40_000_000),
            stencil(3, 3, 20_000_000),
            random_dag(12, 40_000_000, 7),
            vopd(),
            mwd(),
        ] {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
            assert!(!g.edges.is_empty());
        }
        assert_eq!(random_dag(12, 40_000_000, 7), random_dag(12, 40_000_000, 7));
        assert_ne!(random_dag(12, 40_000_000, 7), random_dag(12, 40_000_000, 8));
    }

    #[test]
    fn by_name_resolves_fixed_and_parametric() {
        assert_eq!(by_name("vopd").unwrap().tasks.len(), 12);
        assert_eq!(by_name("mwd").unwrap().tasks.len(), 12);
        assert_eq!(by_name("pipeline6").unwrap().tasks.len(), 6);
        assert_eq!(by_name("forkjoin3").unwrap().tasks.len(), 5);
        assert_eq!(by_name("stencil3x2").unwrap().tasks.len(), 6);
        assert_eq!(by_name("dag10").unwrap().tasks.len(), 10);
        assert_eq!(by_name("dag10@5").unwrap(), random_dag(10, 40_000_000, 5));
        assert!(by_name("pipeline1").is_none());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn named_graph_rates_conform_to_one_connection() {
        // Every edge of the named graphs must fit one paper-config GS
        // connection (~97 Mflit/s), or no placement could ever admit it.
        let interval = mango_qos::ServiceModel::paper()
            .service_interval(mango_sim::SimDuration::ZERO)
            .expect("paper config guarantees");
        for g in [vopd(), mwd()] {
            for e in &g.edges {
                assert!(
                    TaskGraph::period(e.rate_fps) >= interval,
                    "{}: edge {}->{} rate {} outpaces the service interval",
                    g.name,
                    e.from,
                    e.to,
                    e.rate_fps
                );
            }
        }
    }
}
