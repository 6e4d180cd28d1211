//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the names and units
//! `BENCHMARK.json` lists (a test keeps the two in step). A run prints
//! every metric by name with its unit, then, as the last line of its
//! standard output, the contract's result object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.

use crate::json::{self, Value};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("admitted_frac", "fraction"),
];

/// Per-layer metrics: `(name, unit)`. Host times are reference ns / s.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sim — the event kernel.
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.kernel_ref_ns_per_event", "ns"),
    ("sim.ns_per_event_ratio_16v4", "ratio"),
    ("sim.ns_per_event_16x16", "ns"),
    ("sim.ns_per_event_4x4", "ns"),
    ("sim.queue_hold_ns.occ32", "ns"),
    ("sim.queue_hold_ns.occ1k", "ns"),
    ("sim.queue_hold_ns.occ32k", "ns"),
    ("sim.dispatch.router", "count"),
    ("sim.dispatch.link_flit", "count"),
    ("sim.dispatch.unlock", "count"),
    ("sim.dispatch.credit", "count"),
    ("sim.dispatch.na_gs_inject", "count"),
    ("sim.dispatch.na_be_inject", "count"),
    ("sim.dispatch.na_gs_consumed", "count"),
    ("sim.dispatch.source_tick", "count"),
    ("sim.dispatch.fault", "count"),
    ("sim.dispatch.watchdog", "count"),
    ("sim.dispatch.telemetry", "count"),
    ("sim.queue_len_mean", "count"),
    ("sim.occupied_buckets_mean", "count"),
    // core — the router.
    ("core.saturated_link_ns_per_event", "ns"),
    ("core.arbiter_select_ns.fair_share", "ns"),
    ("core.arbiter_select_ns.alg", "ns"),
    // net — topology, scenarios, connection management.
    ("net.prepare_s", "s"),
    ("net.run_s", "s"),
    ("net.finish_s", "s"),
    ("net.open_settle_ns", "ns"),
    ("net.topology_compile_ns", "ns"),
    // qos — bounds, admission, churn and recovery engines.
    ("qos.admission_request_ns.p50", "ns"),
    ("qos.admission_request_ns.p99", "ns"),
    ("qos.admission_requests", "count"),
    ("qos.admission_rejects", "count"),
    ("qos.admission_bfs_detours", "count"),
    ("qos.admission_share", "fraction"),
    ("qos.planner_request_ns.p50", "ns"),
    ("qos.probe_ns.p50", "ns"),
    ("qos.snapshot_restore_ns", "ns"),
    ("qos.bound_report_ns", "ns"),
    ("qos.churn_run_s", "s"),
    ("qos.recovery_run_s", "s"),
    ("qos.bound_ratio_worst", "ratio"),
    ("qos.bound_violations", "count"),
    ("qos.setup_latency_ns.p50", "ns"),
    ("qos.setup_latency_ns.p99", "ns"),
    ("qos.recovery_latency_mean_ns", "ns"),
    // apps — task graphs, placers, serving engine.
    ("apps.place_ns.anneal32.p50", "ns"),
    ("apps.place_ns.anneal32.p99", "ns"),
    ("apps.place_ns.greedy.p50", "ns"),
    ("apps.place_calls", "count"),
    ("apps.place_admissible_frac", "fraction"),
    ("apps.score_assignment_ns", "ns"),
    ("apps.place_share.serving_vopd", "fraction"),
    ("apps.serving_run_s", "s"),
    // sweep — the grid runner.
    ("sweep.run_s", "s"),
    ("sweep.jobs", "count"),
    ("sweep.per_job_overhead_s", "s"),
    ("sweep.csv_row_ns", "ns"),
    ("sweep.thread_speedup_2", "ratio"),
    // telemetry — must stay free when off.
    ("telemetry.on_overhead_frac", "fraction"),
    ("telemetry.profile_overhead_frac", "fraction"),
    ("telemetry.hist_record_ns", "ns"),
    // harness — the bases every ratio above is taken against.
    ("harness.cal_s", "s"),
    ("harness.raw_wall_s", "s"),
    ("harness.slices", "count"),
    ("harness.slice_iqr_frac", "fraction"),
    ("harness.trace_overhead_frac", "fraction"),
    ("harness.stats_digest32", "count"),
    ("harness.work_per_slice", "count"),
    ("harness.unattributed_frac", "fraction"),
];

/// The values of one catalogue, every name present from the start (a
/// metric that does not apply to a workload stays 0).
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// All-zero values for `catalogue`.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            catalogue,
            values: vec![0.0; catalogue.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not list (a typo would
    /// otherwise silently report 0).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.values[i] = value;
    }

    /// The value of `name` (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| v)
    }

    /// `(name, value, unit)` in catalogue order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.catalogue
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), &v)| (n, v, u))
    }
}

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (one per slice, plus the final teardown).
    pub attempted: u64,
    /// Operations with a failed check.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The contract's result object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::obj([("value", Value::Num(*value)), ("unit", Value::str(unit))]),
                    )
                })),
            ),
        ])
    }

    /// Parses a result object.
    ///
    /// # Errors
    ///
    /// Returns what is missing or mistyped.
    pub fn from_json(v: &Value) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result has no {k:?}"));
        let whole = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("{k:?} is not a whole number"))
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric {name:?} lacks a value or a unit")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a boolean")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }

    /// Parses the last line of a run's standard output.
    ///
    /// # Errors
    ///
    /// As [`RunResult::from_json`], or when there is no last line.
    pub fn from_stdout(stdout: &str) -> Result<RunResult, String> {
        let last = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("the run printed nothing")?;
        RunResult::from_json(&json::parse(last)?)
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 33,
            failed: 0,
            metrics: vec![
                ("wall_s".into(), 0.123_456_789_123, "s".into()),
                ("peak_rss_mb".into(), 41.25, "MiB".into()),
            ],
        };
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'));
        assert_eq!(
            RunResult::from_stdout(&format!("noise\n{line}\n")).unwrap(),
            r
        );
    }

    #[test]
    fn malformed_results_are_rejected() {
        for bad in [
            "{}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1}}}",
        ] {
            assert!(RunResult::from_stdout(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn setting_an_unlisted_metric_panics() {
        Metrics::new(END_TO_END).set("wall", 1.0);
    }
}
