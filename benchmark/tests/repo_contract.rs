//! Checks that tie the benchmark to the repository it measures.

use mango_benchmark::inputs::WORKLOADS;
use mango_benchmark::json::{self, Value};
use mango_benchmark::report::{END_TO_END, PER_LAYER};
use mango_benchmark::span::Tracer;
use mango_benchmark::workloads;
use std::path::Path;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of `[profile.release]`, comments dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_equals_the_roots() {
    // The measured code must be the shipped code.
    let root = release_profile(&repo_file("Cargo.toml"));
    let mine = release_profile(&repo_file("benchmark/Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(mine, root);
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_harness_reports() {
    let spec = json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = spec
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        names_and_units(spec.get("end_to_end").unwrap()),
        owned(END_TO_END)
    );
    assert_eq!(
        names_and_units(spec.get("per_layer").unwrap()),
        owned(PER_LAYER)
    );
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        spec.get("run_seconds").and_then(Value::as_f64),
        Some(mango_benchmark::harness::DEFAULT_SECONDS)
    );
    let paths = spec.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::str("benchmark")]);
    for m in spec.get("end_to_end").and_then(Value::as_array).unwrap() {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

#[test]
fn a_workload_repeats_itself_and_passes_its_checks() {
    // Debug-build smoke of the two cheapest workloads: identical work
    // yields identical digests, and every output check holds.
    let mut tr = Tracer::new("planner_vopd", false);
    let mut w = workloads::construct("planner_vopd", 1, false, &mut tr);
    let classes = mango_benchmark::inputs::classes("planner_vopd");
    let (a, b) = (w.slice(0, &mut tr), w.slice(classes, &mut tr));
    assert_eq!(a.failures, Vec::<String>::new());
    assert_eq!((a.key, a.digest, a.admitted), (b.key, b.digest, b.admitted));
    assert!(a.admitted > 0 && a.admitted < a.offered);
    let other_seed = workloads::construct("planner_vopd", 2, false, &mut tr).slice(0, &mut tr);
    assert_ne!(a.digest, other_seed.digest, "the seed reaches the placer");

    let mut w = workloads::construct("fabric_4x4", 1, false, &mut tr);
    let (a, b) = (w.slice(0, &mut tr), w.slice(1, &mut tr));
    assert_eq!((a.key, a.digest), (b.key, b.digest));
    assert!(a.events > 100_000);
    assert_eq!(w.finish(&mut tr), Vec::<String>::new());
}
