//! One run of one workload: set-up timing, the slice loop, the output
//! checks, and — in the traced pass — the per-layer metrics.
//!
//! # How a host time is taken
//!
//! A workload runs as many short slices; each is flanked by the
//! calibration kernel ([`crate::cal`]) and reduced to `cost per work
//! unit = (slice wall ÷ calibration wall) ÷ work units` (work units =
//! kernel events, or arrivals for `planner_vopd`). That quantity is
//! homogeneous across a workload's classes, so its **median over all
//! slices** is robust against the odd slice the host interrupted; it is
//! then scaled back by the mean work per slice over the distinct
//! classes:
//!
//! ```text
//! wall_s = median_i(ratio_i ÷ work_i) × mean_k(work_k) × CAL_REF_S
//! ```
//!
//! i.e. reference seconds per slice. A change that removes events
//! lowers `mean(work)`; a change that makes events cheaper lowers the
//! median — both show in `wall_s`, and `sim.events` / `sim.ns_per_event`
//! say which it was.

use crate::cal::{Meter, Sample, CAL_REF_S};
use crate::inputs;
use crate::probes;
use crate::report::{Metrics, RunResult, END_TO_END, PER_LAYER};
use crate::span::{self, Tracer, MAX_SPANS};
use crate::stats::{iqr_frac, mean, median, quartiles};
use crate::workloads::{self, LayerSample, Planner, SliceOut, Workload};
use mango::net::ScenarioSpec;
use mango::sim::{RunOutcome, SimDuration};
use mango_sweep::SweepSpec;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`: the default measuring time.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Calibrated repeats of the construction path behind `setup_s`.
pub const SETUP_SAMPLES: usize = 17;
/// Slices the end-to-end pass always runs, however short `--seconds`
/// is: `wall_s` is a median over at least this many.
const MIN_SLICES: usize = 32;
/// The same floor for the traced pass, whose odd slices are traced.
const MIN_TRACED_PASS_SLICES: usize = 16;
/// Share of `--seconds` the traced pass spends on slices (the rest goes
/// to the probes and the workload's layer section).
const TRACED_SLICE_SHARE: f64 = 0.8;
/// Spans the layer section may record after the slice loop (the sweep's
/// standalone jobs record the most, 160).
const LAYER_SECTION_SPANS: usize = 1_000;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One of [`inputs::WORKLOADS`].
    pub workload: &'static str,
    /// The benchmark seed every input derives from.
    pub seed: u64,
    /// How long the slice loop measures, seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
}

/// Constructions per `setup_s` sample, so each sample is several
/// milliseconds of work even where one construction takes 15 µs.
fn setup_reps(workload: &str) -> usize {
    match workload {
        "fabric_16x16" => 2,
        "sweep_short" => 8,
        "fabric_4x4" => 32,
        "planner_vopd" => 256,
        _ => 64,
    }
}

/// A timed slice.
struct Slice {
    out: SliceOut,
    sample: Sample,
    traced: bool,
    /// Index of the first span recorded during the slice.
    first_span: usize,
}

impl Slice {
    /// Cost per work unit, in calibration runs.
    fn unit_cost(&self) -> f64 {
        self.sample.ratio() / self.out.work.max(1) as f64
    }

    /// Raw → reference seconds for anything timed inside this slice.
    fn scale(&self) -> f64 {
        self.sample.ref_s() / self.sample.raw_s
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything the slice loop produced.
struct Measured {
    slices: Vec<Slice>,
    /// Failed checks, as `slice N: what`.
    failures: Vec<String>,
    /// Operations with a failed check.
    failed_ops: u64,
}

impl Measured {
    fn of(&self, traced: bool) -> impl Iterator<Item = &Slice> {
        self.slices.iter().filter(move |s| s.traced == traced)
    }

    /// The first slice of every distinct key, in key order.
    fn distinct(&self) -> Vec<&Slice> {
        let mut first: BTreeMap<u64, &Slice> = BTreeMap::new();
        for s in &self.slices {
            first.entry(s.out.key).or_insert(s);
        }
        first.into_values().collect()
    }

    /// Mean work units per slice over the distinct keys.
    fn work_per_slice(&self) -> f64 {
        mean(
            &self
                .distinct()
                .iter()
                .map(|s| s.out.work as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Median cost per work unit over the (un)traced slices, in
    /// calibration runs.
    fn unit_cost(&self, traced: bool) -> f64 {
        median(&self.of(traced).map(Slice::unit_cost).collect::<Vec<_>>())
    }

    /// Median raw wall seconds of the untraced slices.
    fn raw_wall_s(&self) -> f64 {
        median(&self.of(false).map(|s| s.sample.raw_s).collect::<Vec<_>>())
    }

    /// Reference seconds per slice (see the module docs).
    fn wall_ref_s(&self, traced: bool) -> f64 {
        self.unit_cost(traced) * self.work_per_slice() * CAL_REF_S
    }
}

/// Runs slices until `budget` is spent and at least `min_slices` ran.
/// When `trace` is set, odd slices are traced for as long as a whole
/// slice's spans still fit under [`MAX_SPANS`] (twice the largest traced
/// slice so far, since classes differ): every traced slice is complete,
/// so a share computed from its spans is not biased by dropped children.
fn run_slices(
    w: &mut dyn Workload,
    meter: &mut Meter,
    tr: &mut Tracer,
    trace: bool,
    budget: Duration,
    min_slices: usize,
) -> Measured {
    let mut m = Measured {
        slices: Vec::new(),
        failures: Vec::new(),
        failed_ops: 0,
    };
    let mut first_digest: BTreeMap<u64, u32> = BTreeMap::new();
    let mut largest_traced = 0;
    let start = Instant::now();
    while m.slices.len() < min_slices || start.elapsed() < budget {
        let i = m.slices.len();
        let first_span = tr.spans.len();
        let traced = trace
            && i % 2 == 1
            && first_span + 2 * largest_traced + LAYER_SECTION_SPANS <= MAX_SPANS;
        tr.set_on(traced);
        let (out, sample) =
            meter.measure(|| catch_unwind(AssertUnwindSafe(|| w.slice(i, &mut *tr))));
        let Ok(mut out) = out else {
            // The workload's state is unknown after a panic: stop.
            m.failures.push(format!("slice {i}: panicked"));
            m.failed_ops += 1;
            break;
        };
        let first = *first_digest.entry(out.key).or_insert(out.digest);
        if first != out.digest {
            out.failures.push(format!(
                "digest {:#010x} differs from {first:#010x} of the same work",
                out.digest
            ));
        }
        m.failed_ops += u64::from(!out.failures.is_empty());
        m.failures
            .extend(out.failures.iter().map(|f| format!("slice {i}: {f}")));
        if traced {
            largest_traced = largest_traced.max(tr.spans.len() - first_span);
        }
        m.slices.push(Slice {
            out,
            sample,
            traced,
            first_span,
        });
    }
    tr.set_on(trace);
    m
}

/// Parses a workload name.
///
/// # Errors
///
/// Names the known workloads when `name` is not one.
pub fn parse_workload(name: &str) -> Result<&'static str, String> {
    inputs::WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {:?}", inputs::WORKLOADS))
}

/// Runs `opts`, printing the human-readable report (every metric by name
/// with its unit), and returns its result.
pub fn run_one(opts: &Options) -> RunResult {
    if cfg!(debug_assertions) {
        panic!("the benchmark measures optimized code only: build with --release");
    }
    let name = opts.workload;
    let classes = inputs::classes(name);
    let mut meter = Meter::new();
    let mut tr = Tracer::new(name, opts.trace);

    // Set-up: the construction path, flanked by calibration. The traced
    // pass needs only a few samples (for `net.prepare_s`), of few
    // constructions each so their spans leave the cap alone.
    let (reps, samples) = if opts.trace {
        (setup_reps(name).min(8), 5)
    } else {
        (setup_reps(name), SETUP_SAMPLES)
    };
    let mut setup_ref_s = Vec::with_capacity(samples);
    let mut prepare_ref_s = Vec::with_capacity(samples);
    for j in 0..samples {
        let first_span = tr.spans.len();
        let ((), sample) = meter.measure(|| {
            for r in 0..reps {
                workloads::setup_once(name, opts.seed, (j * reps + r) % classes, &mut tr);
            }
        });
        setup_ref_s.push(sample.ref_s() / reps as f64);
        let prepare_raw: f64 = tr.spans[first_span..]
            .iter()
            .filter(|s| s.name == "net.prepare")
            .map(|s| s.dur_ns() as f64 / 1e9)
            .fold(0.0, |a, b| a + b);
        prepare_ref_s.push(prepare_raw * sample.ref_s() / sample.raw_s / reps as f64);
    }

    let mut w = workloads::construct(name, opts.seed, opts.trace, &mut tr);
    let (share, min_slices) = if opts.trace {
        (TRACED_SLICE_SHARE, MIN_TRACED_PASS_SLICES)
    } else {
        (1.0, MIN_SLICES)
    };
    // Every class at least once, so class means never change meaning.
    let min_slices = min_slices.max(classes);
    let mut measured = run_slices(
        w.as_mut(),
        &mut meter,
        &mut tr,
        opts.trace,
        Duration::from_secs_f64(opts.seconds * share),
        min_slices,
    );
    let finish_span = tr.spans.len();
    let mut teardown = catch_unwind(AssertUnwindSafe(|| w.finish(&mut tr)))
        .unwrap_or_else(|_| vec!["panicked".to_string()]);
    if tr.dropped > 0 {
        // Only a single slice larger than the cap gets here.
        teardown.push(format!(
            "{} spans dropped past the cap: span shares are biased",
            tr.dropped
        ));
    }
    measured.failed_ops += u64::from(!teardown.is_empty());
    measured
        .failures
        .extend(teardown.into_iter().map(|f| format!("teardown: {f}")));
    let attempted = measured.slices.len() as u64 + 1;

    let mut result = RunResult {
        correct: measured.failures.is_empty(),
        attempted,
        failed: measured.failed_ops,
        metrics: Vec::new(),
    };
    for f in &measured.failures {
        println!("CHECK FAILED  {f}");
    }
    if measured.slices.is_empty() {
        return result;
    }

    let metrics = if opts.trace {
        let mut out = Metrics::new(PER_LAYER);
        let sample = w.layer_sample();
        drop(w);
        layer_metrics(
            opts,
            &measured,
            sample,
            finish_span,
            median(&prepare_ref_s),
            &mut meter,
            &mut tr,
            &mut out,
        );
        // After the layer sections, so their calibration runs count.
        out.set("harness.cal_s", median(&meter.cal_walls));
        write_trace(name, &tr);
        out
    } else {
        let mut out = Metrics::new(END_TO_END);
        let distinct = measured.distinct();
        let offered: u64 = distinct.iter().map(|s| s.out.offered).sum();
        let admitted: u64 = distinct.iter().map(|s| s.out.admitted).sum();
        out.set("wall_s", measured.wall_ref_s(false));
        out.set("setup_s", median(&setup_ref_s));
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("admitted_frac", admitted as f64 / offered.max(1) as f64);
        let unit: Vec<f64> = measured.slices.iter().map(Slice::unit_cost).collect();
        let [q1, q2, q3] = quartiles(&unit).map(|u| u * measured.work_per_slice() * CAL_REF_S);
        println!(
            "{name}: {} slices, wall_s quartiles {q1:.6} / {q2:.6} / {q3:.6} (iqr {:.2} %), \
             raw wall {:.6} s/slice, cal {:.6} s, ops failed {}/{attempted}",
            measured.slices.len(),
            iqr_frac(&unit) * 100.0,
            measured.raw_wall_s(),
            median(&meter.cal_walls),
            measured.failed_ops,
        );
        out
    };
    for (metric, value, unit) in metrics.iter() {
        println!("{name:<13} {metric:<36} {value:>18.9} {unit}");
        result.metrics.push((metric.into(), value, unit.into()));
    }
    result
}

/// Writes the spans to `benchmark/out/trace_<name>.json`, on the process
/// track numbered like the workload, so the traces of a full run merge
/// by concatenation.
fn write_trace(name: &str, tr: &Tracer) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace_{name}.json"));
    let pid = inputs::WORKLOADS.iter().position(|w| *w == name);
    let mut text = String::new();
    tr.chrome_trace(pid.map_or(0, |i| i as u32 + 1))
        .render_json(&mut text);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => println!(
            "{name}: {} spans ({} dropped past the cap) -> {}",
            tr.spans.len(),
            tr.dropped,
            path.display()
        ),
        // The trace file is a convenience; the metrics do not need it.
        Err(e) => println!("{name}: could not write {}: {e}", path.display()),
    }
    for (span_name, (calls, total, own, count)) in span::totals_by_name(&tr.spans) {
        println!(
            "{name}: span {span_name:<22} calls {calls:>6}  total {:>10.3} ms  self {:>10.3} ms  count {count}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// Reference seconds of every `span_name` span recorded inside a traced
/// slice, grouped per slice.
fn traced_spans_ref_s(measured: &Measured, tr: &Tracer, span_name: &str) -> Vec<Vec<f64>> {
    let ends = measured
        .slices
        .iter()
        .skip(1)
        .map(|s| s.first_span)
        .chain([tr.spans.len()]);
    measured
        .slices
        .iter()
        .zip(ends)
        .filter(|(s, _)| s.traced)
        .map(|(s, end)| {
            tr.spans[s.first_span..end.max(s.first_span)]
                .iter()
                .filter(|sp| sp.name == span_name)
                .map(|sp| sp.dur_ns() as f64 / 1e9 * s.scale())
                .collect()
        })
        .collect()
}

/// Median over the traced slices of their summed `span_name` time,
/// reference seconds.
fn span_ref_s(measured: &Measured, tr: &Tracer, span_name: &str) -> f64 {
    median(
        &traced_spans_ref_s(measured, tr, span_name)
            .iter()
            .map(|slice| slice.iter().sum())
            .collect::<Vec<f64>>(),
    )
}

/// Sets `sim.kernel_ref_ns_per_event` from a control-plane-idle
/// companion of `base` and returns the kernel's estimated share of one
/// slice, reference seconds.
fn kernel_ref_s(
    meter: &mut Meter,
    out: &mut Metrics,
    base: &ScenarioSpec,
    streams: u32,
    work: f64,
) -> f64 {
    let ns = probes::kernel_ref_ns_per_event(meter, base, streams, SimDuration::from_ns(15));
    out.set("sim.kernel_ref_ns_per_event", ns);
    ns * work / 1e9
}

/// Fills `out` with the traced pass's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    opts: &Options,
    measured: &Measured,
    sample: LayerSample,
    finish_span: usize,
    prepare_ref_s: f64,
    meter: &mut Meter,
    tr: &mut Tracer,
    out: &mut Metrics,
) {
    let name = opts.workload;
    let first = &measured.slices[0];
    let wall = measured.wall_ref_s(false);
    let work = measured.work_per_slice();
    let simulated = first.out.events > 0;
    let span_s = |tr: &Tracer, span_name: &str| span_ref_s(measured, tr, span_name);
    // Raw → reference for spans recorded outside the slice loop.
    let overall_scale = median(&measured.slices.iter().map(Slice::scale).collect::<Vec<_>>());

    // harness + the counts every workload has.
    let unit: Vec<f64> = measured.of(false).map(Slice::unit_cost).collect();
    out.set("harness.raw_wall_s", measured.raw_wall_s());
    out.set("harness.slices", measured.slices.len() as f64);
    out.set("harness.slice_iqr_frac", iqr_frac(&unit));
    out.set(
        "harness.trace_overhead_frac",
        measured.unit_cost(true) / measured.unit_cost(false) - 1.0,
    );
    out.set("harness.stats_digest32", f64::from(first.out.digest));
    out.set("harness.work_per_slice", work);
    out.set("sim.events", first.out.events as f64);
    if simulated {
        out.set(
            "sim.ns_per_event",
            measured.unit_cost(false) * CAL_REF_S * 1e9,
        );
    }
    out.set(
        "qos.bound_ratio_worst",
        measured
            .slices
            .iter()
            .map(|s| s.out.bound_ratio_worst)
            .fold(0.0, f64::max),
    );
    out.set(
        "qos.bound_violations",
        measured
            .slices
            .iter()
            .map(|s| s.out.bound_violations)
            .sum::<u64>() as f64,
    );
    out.set("net.prepare_s", prepare_ref_s);

    probes::run_for(name, meter, out);

    // What of `wall` the layers account for, in reference seconds.
    let class0 = inputs::derive(opts.seed, name, 0);
    let attributed = match name {
        "fabric_4x4" | "fabric_16x16" => {
            out.set("sim.kernel_ref_ns_per_event", out.get("sim.ns_per_event"));
            let run_s = span_s(tr, "net.run");
            out.set("net.run_s", run_s);
            let finishes: Vec<f64> = tr.spans[finish_span..]
                .iter()
                .filter(|s| s.name == "net.finish")
                .map(|s| s.dur_ns() as f64 / 1e9 * overall_scale)
                .collect();
            out.set("net.finish_s", median(&finishes));
            if let Some((profile, windows)) = &sample.profile {
                set_profile(out, profile, *windows as f64);
            }
            run_s
        }
        "churn_8x8" => {
            let spec = inputs::churn_spec(class0);
            out.set("qos.churn_run_s", span_s(tr, "qos.churn_run"));
            let m = sample.churn.expect("class 0 ran");
            out.set("qos.setup_latency_ns.p50", m.setup_quantile_ns(0.5));
            out.set("qos.setup_latency_ns.p99", m.setup_quantile_ns(0.99));
            let replay = probes::admission_replay(meter, &m.conns, spec.gs_period, 8);
            let (p50, p99) = probes::p50_p99(&replay.request_ns);
            out.set("qos.admission_request_ns.p50", p50);
            out.set("qos.admission_request_ns.p99", p99);
            out.set("qos.admission_requests", replay.requests as f64);
            out.set("qos.admission_rejects", replay.rejects as f64);
            out.set("qos.admission_bfs_detours", replay.bfs_detours as f64);
            out.set("qos.admission_share", replay.total_ref_s / wall);
            // Static streams standing in for the dynamic ones live at any
            // moment (an event mix close to the engine's, not equal to it).
            let kernel = kernel_ref_s(meter, out, &spec.base, 24, work);
            kernel + replay.total_ref_s + prepare_ref_s
        }
        "serving_vopd" => {
            let spec = inputs::serving_spec(class0);
            out.set("apps.serving_run_s", span_s(tr, "apps.serving_run"));
            let m = sample.serving.expect("class 0 ran");
            // The placer and the controller cannot be timed inside the
            // engine from outside; time the same calls in a planner
            // loop and scale by what the engine did — an estimate.
            let (place_p50_s, request_p50_s) = planner_calls(opts.seed, meter).report(out);
            let offered = mean(&offered_per_class(measured));
            let place_s = place_p50_s * offered;
            out.set("apps.place_share.serving_vopd", place_s / wall);
            let edges = spec.graph.edges.len() as f64;
            let admission_s = request_p50_s * 2.0 * edges * m.admitted as f64;
            out.set("qos.admission_share", admission_s / wall);
            let kernel = kernel_ref_s(meter, out, &spec.base, 16, work);
            kernel + place_s + admission_s + prepare_ref_s
        }
        "planner_vopd" => {
            // Every call is a span in the traced slices.
            let place = traced_spans_ref_s(measured, tr, "apps.place");
            let request = traced_spans_ref_s(measured, tr, "qos.request");
            PlannerCalls {
                // Of one loop.
                place_calls: place[0].len() as f64,
                admissible_frac: first.out.admitted as f64 / first.out.offered as f64,
                place_s: place.concat(),
                request_s: request.concat(),
            }
            .report(out);
            let totals = span::totals_by_name(&tr.spans);
            let total_ns = |n: &str| totals.get(n).map_or(0, |t| t.1) as f64;
            let loop_ns = total_ns("apps.planner_loop").max(1.0);
            out.set(
                "qos.admission_share",
                (total_ns("qos.request") + total_ns("qos.release")) / loop_ns,
            );
            wall * (total_ns("apps.place") + total_ns("qos.request") + total_ns("qos.release"))
                / loop_ns
        }
        "recovery_8x8" => {
            let spec = inputs::recovery_spec(class0);
            out.set("qos.recovery_run_s", span_s(tr, "qos.recovery_run"));
            let m = sample.recovery.expect("class 0 ran");
            let latencies: Vec<f64> = m.recovery_latencies().map(|d| d.as_ns_f64()).collect();
            out.set("qos.recovery_latency_mean_ns", mean(&latencies));
            let kernel = kernel_ref_s(meter, out, &spec.base, spec.managed.len() as u32, work);
            kernel + prepare_ref_s
        }
        "sweep_short" => {
            let spec = inputs::sweep_spec(class0);
            let run_s = span_s(tr, "sweep.run");
            out.set("sweep.run_s", run_s);
            out.set("sweep.jobs", spec.len() as f64);
            let jobs = standalone_jobs(&spec, meter, tr, out);
            // The harness owns these simulations: the kernel's cost is
            // the jobs' own run spans.
            out.set(
                "sim.kernel_ref_ns_per_event",
                out.get("net.run_s") * 1e9 / work,
            );
            out.set(
                "sweep.per_job_overhead_s",
                (run_s - jobs) / spec.len() as f64,
            );
            let threads = std::thread::available_parallelism().map_or(1, usize::from);
            let time = |meter: &mut Meter, threads| {
                let mut off = Tracer::new(name, false);
                let runs: Vec<f64> = (0..3)
                    .map(|_| {
                        meter
                            .measure(|| workloads::sweep_once(&spec, threads, &mut off))
                            .1
                            .ref_s()
                    })
                    .collect();
                median(&runs)
            };
            // Informational: host threads, and meaningless on one core.
            out.set(
                "sweep.thread_speedup_2",
                time(meter, 1) / time(meter, threads.max(2)),
            );
            jobs + span_s(tr, "sweep.csv")
        }
        other => unreachable!("{other} is not a workload"),
    };
    out.set("harness.unattributed_frac", 1.0 - attributed / wall);
}

fn set_profile(out: &mut Metrics, profile: &mango::sim::KernelProfile, slices: f64) {
    for (kind, count) in profile.kind_counts() {
        out.set(
            &format!("sim.dispatch.{kind}"),
            count as f64 / slices.max(1.0),
        );
    }
    out.set("sim.queue_len_mean", profile.queue_len_mean());
    out.set("sim.occupied_buckets_mean", profile.occupied_buckets_mean());
}

/// Offered requests of every distinct class.
fn offered_per_class(measured: &Measured) -> Vec<f64> {
    measured
        .distinct()
        .iter()
        .map(|s| s.out.offered as f64)
        .collect()
}

/// Timed placer and controller calls of a planner loop.
struct PlannerCalls {
    /// Reference seconds of every `place` call.
    place_s: Vec<f64>,
    /// Reference seconds of every `request` call.
    request_s: Vec<f64>,
    /// `place` calls of one loop.
    place_calls: f64,
    admissible_frac: f64,
}

impl PlannerCalls {
    /// Sets the placer / admission call metrics; returns the `place`
    /// and `request` p50 in reference seconds.
    fn report(&self, out: &mut Metrics) -> (f64, f64) {
        let (place_p50, place_p99) = probes::p50_p99(&self.place_s);
        let request_p50 = median(&self.request_s);
        out.set("apps.place_ns.anneal32.p50", place_p50 * 1e9);
        out.set("apps.place_ns.anneal32.p99", place_p99 * 1e9);
        out.set("qos.planner_request_ns.p50", request_p50 * 1e9);
        out.set("apps.place_calls", self.place_calls);
        out.set("apps.place_admissible_frac", self.admissible_frac);
        (place_p50, request_p50)
    }
}

/// One traced planner loop outside any workload: what the placer and
/// the controller cost per call, for estimating their share of an
/// engine that calls them internally.
fn planner_calls(seed: u64, meter: &mut Meter) -> PlannerCalls {
    let mut tr = Tracer::new("planner_vopd", true);
    let mut planner = Planner::new(seed, &mut tr);
    let (tally, sample) = meter.measure(|| planner.run_loop(0, inputs::PLACER, &mut tr));
    let scale = sample.ref_s() / sample.raw_s;
    let ref_s = |n: &str| -> Vec<f64> { tr.durations_s(n).iter().map(|s| s * scale).collect() };
    let place_s = ref_s("apps.place");
    PlannerCalls {
        place_calls: place_s.len() as f64,
        admissible_frac: tally.admissible as f64 / inputs::PLANNER_ARRIVALS as f64,
        place_s,
        request_s: ref_s("qos.request"),
    }
}

/// Runs every job of `spec` on its own — prepare, run, finish, record —
/// with kernel profiling on; sets the `net.*_s` and `sim.dispatch.*`
/// metrics and returns the jobs' summed reference seconds (median of
/// four passes; a fifth, profiled pass supplies the dispatch census).
fn standalone_jobs(spec: &SweepSpec, meter: &mut Meter, tr: &mut Tracer, out: &mut Metrics) -> f64 {
    let jobs = spec.expand();
    let mut totals = Vec::new();
    let mut parts: [Vec<f64>; 3] = Default::default();
    for pass in 0..5 {
        let first_span = tr.spans.len();
        let mut profiled: Option<(mango::sim::KernelProfile, Vec<u64>)> = None;
        let ((), sample) = meter.measure(|| {
            for job in &jobs {
                let scenario = spec.scenario(job);
                let mut p = tr.span("net.prepare", |_| (scenario.prepare(), 1));
                // Profiling costs a little per dispatch: keep it out of
                // the passes whose time is reported.
                if pass == 4 {
                    p.sim_mut().enable_kernel_profiling();
                }
                let outcome: RunOutcome = tr.span("net.run", |_| {
                    p.start_measurement();
                    let outcome = p.run_to_bound();
                    (outcome, p.sim().events_processed())
                });
                if let Some(profile) = p.sim().kernel_profile() {
                    let counts: Vec<u64> = profile.kind_counts().map(|(_, c)| c).collect();
                    match &mut profiled {
                        None => profiled = Some((profile.clone(), counts)),
                        Some((_, sum)) => {
                            for (s, c) in sum.iter_mut().zip(counts) {
                                *s += c;
                            }
                        }
                    }
                }
                let m = tr.span("net.finish", |_| (p.finish(outcome), 1));
                tr.span("sweep.record", |_| {
                    let row = mango_sweep::SweepRecord::measure(job.clone(), &m).csv_row();
                    (std::hint::black_box(row), 1)
                });
            }
        });
        if let Some((profile, sums)) = profiled {
            for ((kind, _), sum) in profile.kind_counts().zip(sums) {
                out.set(&format!("sim.dispatch.{kind}"), sum as f64);
            }
            // Of the last job; the grid's jobs are the same size.
            out.set("sim.queue_len_mean", profile.queue_len_mean());
            out.set("sim.occupied_buckets_mean", profile.occupied_buckets_mean());
            continue;
        }
        totals.push(sample.ref_s());
        let scale = sample.ref_s() / sample.raw_s;
        for (part, span_name) in parts
            .iter_mut()
            .zip(["net.prepare", "net.run", "net.finish"])
        {
            part.push(
                tr.spans[first_span..]
                    .iter()
                    .filter(|s| s.name == span_name)
                    .map(|s| s.dur_ns() as f64 / 1e9 * scale)
                    .sum(),
            );
        }
    }
    let [prepare, run, finish] = parts.map(|p| median(&p));
    out.set("net.prepare_s", prepare);
    out.set("net.run_s", run);
    out.set("net.finish_s", finish);
    median(&totals)
}
