//! `mango_benchmark` — see `README.md`.
//!
//! ```text
//! mango_benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! mango_benchmark [--seed N] [--seconds S] [--trace] [--aa]       every workload, each in
//!                                                                 its own child process
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command is called with; its
//! last line of standard output is the result object. The second form
//! prints every metric of every workload and writes
//! `benchmark/out/result.json` with a provenance block; `--trace` adds
//! the traced pass, `--aa` runs two full sets of the same binary and
//! compares them.

use mango_benchmark::cal::CAL_REF_S;
use mango_benchmark::harness::{self, Options, DEFAULT_SECONDS};
use mango_benchmark::inputs::WORKLOADS;
use mango_benchmark::json::{self, Value};
use mango_benchmark::report::RunResult;
use std::process::{Command, ExitCode, Stdio};

/// Metrics two runs of the same code and seed must agree on exactly.
const EXACT: [&str; 3] = ["admitted_frac", "sim.events", "harness.stats_digest32"];

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(harness::parse_workload(&value("a workload name")?)?)
            }
            "--seed" => {
                out.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds: expected a number in (0, 600]")?
            }
            // `--trace 0|1` (the contract's form) or a bare `--trace`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    out.trace = false;
                }
                Some("1") => {
                    it.next();
                    out.trace = true;
                }
                _ => out.trace = true,
            },
            "--aa" => out.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mango_benchmark: {e}");
            eprintln!(
                "usage: mango_benchmark [--workload W] [--seed N] [--seconds S] \
                 [--trace [0|1]] [--aa]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(workload) => run_workload(&args, workload),
        None => run_everything(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mango_benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The contract's form: one workload, result object on the last line.
fn run_workload(args: &Args, workload: &'static str) -> Result<(), String> {
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = harness::run_one(&opts);
    println!("{}", result.to_json());
    if result.correct {
        Ok(())
    } else {
        Err(format!(
            "{workload}: {} of {} operations failed their checks",
            result.failed, result.attempted
        ))
    }
}

/// One workload in a child process of this same binary, so its
/// `peak_rss_mb` is its own.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the result line: the child's own report.
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let result = RunResult::from_stdout(&stdout).map_err(|e| format!("{workload}: {e}"))?;
    if !result.correct || result.failed != 0 {
        return Err(format!("{workload}: {} operations failed", result.failed));
    }
    Ok(result)
}

/// One full set: every workload's end-to-end pass and, if asked, its
/// traced pass. Keyed by workload, in reporting order.
type Set = Vec<(&'static str, RunResult, Option<RunResult>)>;

fn run_set(args: &Args, trace: bool) -> Result<Set, String> {
    WORKLOADS
        .iter()
        .map(|&w| {
            let e2e = run_child(w, args, false)?;
            let layers = trace.then(|| run_child(w, args, true)).transpose()?;
            Ok((w, e2e, layers))
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What produced a result file: commit, seed, toolchain, host.
fn provenance(args: &Args, set: &Set) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cal: Vec<f64> = set
        .iter()
        .filter_map(|(_, _, layers)| layers.as_ref()?.metric("harness.cal_s"))
        .collect();
    Value::obj([
        (
            "git_describe",
            Value::str(command_line("git", &["describe", "--always", "--dirty"])),
        ),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        // The benchmark enables no feature of the crates it measures.
        ("cargo_features", Value::str("default (lean-flit off)")),
        ("profile", Value::str("release, lto=fat, codegen-units=1")),
        (
            "host",
            Value::str(
                std::fs::read_to_string("/proc/sys/kernel/hostname")
                    .map_or_else(|_| "unknown".into(), |h| h.trim().to_string()),
            ),
        ),
        ("cpu", Value::str(cpu)),
        ("cal_ref_s", Value::Num(CAL_REF_S)),
        (
            "harness.cal_s",
            if cal.is_empty() {
                Value::Null
            } else {
                Value::Num(mango_benchmark::stats::median(&cal))
            },
        ),
    ])
}

fn set_json(set: &Set) -> Value {
    Value::obj(set.iter().map(|(w, e2e, layers)| {
        (
            *w,
            Value::obj([
                ("end_to_end", e2e.to_json()),
                (
                    "per_layer",
                    layers.as_ref().map_or(Value::Null, RunResult::to_json),
                ),
            ]),
        )
    }))
}

/// Concatenates the children's per-workload traces into one file; each
/// child wrote its events on its own process track.
fn merge_traces() -> Result<(), String> {
    let mut events = Vec::new();
    for w in WORKLOADS {
        let path = format!("benchmark/out/trace_{w}.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let trace = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let of_w = trace.get("traceEvents").and_then(Value::as_array);
        events.extend_from_slice(of_w.ok_or_else(|| format!("{path}: no traceEvents"))?);
    }
    let merged = Value::obj([("traceEvents", Value::Arr(events))]);
    std::fs::write("benchmark/out/trace.json", format!("{merged}\n"))
        .map_err(|e| format!("benchmark/out/trace.json: {e}"))
}

/// `(name, better, bound)` of every end-to-end metric, from
/// `BENCHMARK.json` in the current directory.
fn bounds() -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = json::parse(&text)?;
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            match (
                text("name"),
                text("better"),
                m.get("bound").and_then(Value::as_f64),
            ) {
                (Some(name), Some(better), Some(bound)) => Ok((name, better, bound)),
                _ => Err("BENCHMARK.json: a metric lacks name, better or bound".to_string()),
            }
        })
        .collect()
}

/// Compares two sets of the same binary and seed; lists disagreements.
fn compare(a: &Set, b: &Set, bounds: &[(String, String, f64)]) -> Vec<String> {
    let mut bad = Vec::new();
    println!("\n== A/A: two sets of the same binary, relative difference (b - a) / a");
    for ((w, a_e2e, a_layers), (_, b_e2e, b_layers)) in a.iter().zip(b) {
        let mut pairs: Vec<(&str, f64, f64)> = Vec::new();
        for (name, value, _) in &a_e2e.metrics {
            pairs.push((name, *value, b_e2e.metric(name).unwrap_or(f64::NAN)));
        }
        if let (Some(al), Some(bl)) = (a_layers, b_layers) {
            for (name, value, _) in &al.metrics {
                pairs.push((name, *value, bl.metric(name).unwrap_or(f64::NAN)));
            }
        }
        for (name, va, vb) in pairs {
            let rel = if va == vb { 0.0 } else { (vb - va) / va.abs() };
            let bound = bounds.iter().find(|(n, _, _)| n == name);
            let exact = EXACT.contains(&name);
            let verdict = if exact && va != vb {
                bad.push(format!("{w} {name}: {va} vs {vb} must be equal"));
                "DIFFERS (exact)"
            } else if let Some((_, _, bound)) = bound.filter(|b| rel.abs() > b.2 && !exact) {
                bad.push(format!(
                    "{w} {name}: {va} vs {vb} differ by {:.1} % > {:.0} %",
                    rel.abs() * 100.0,
                    bound * 100.0
                ));
                "OUT OF BOUND"
            } else if exact {
                "equal"
            } else if bound.is_some() {
                "within bound"
            } else {
                ""
            };
            if exact || bound.is_some() || rel.abs() > 0.10 {
                println!(
                    "{w:<13} {name:<36} {va:>16.6} {vb:>16.6} {:>+8.2} %  {verdict}",
                    rel * 100.0
                );
            }
        }
    }
    bad
}

/// Every workload, each in its own child; the result file; optionally
/// the A/A comparison.
fn run_everything(args: &Args) -> Result<(), String> {
    // `--aa` compares the exact per-layer counts too, so it traces.
    let trace = args.trace || args.aa;
    let first = run_set(args, trace)?;
    let mut file = vec![
        ("provenance", provenance(args, &first)),
        ("workloads", set_json(&first)),
    ];
    let mut disagreements = Vec::new();
    if args.aa {
        let second = run_set(args, trace)?;
        disagreements = compare(&first, &second, &bounds()?);
        file.push(("workloads_second_set", set_json(&second)));
    }
    std::fs::create_dir_all("benchmark/out").map_err(|e| format!("benchmark/out: {e}"))?;
    if trace {
        merge_traces()?;
    }
    std::fs::write(
        "benchmark/out/result.json",
        format!("{}\n", Value::obj(file)),
    )
    .map_err(|e| format!("benchmark/out/result.json: {e}"))?;
    println!("\nwrote benchmark/out/result.json");
    if disagreements.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "the two sets disagree:\n  {}",
            disagreements.join("\n  ")
        ))
    }
}
