//! Typed sweep results and the CSV/JSON/table writers.

use crate::grid::SweepJob;
use mango_hw::Table;
use mango_net::ScenarioMetrics;
use std::io::Write;
use std::path::Path;

/// The measured result of one sweep job.
///
/// Only deterministic quantities live here (and therefore in the CSV):
/// wall-clock timings belong in [`RuntimeInfo`], which the JSON writer
/// keeps in a separate `runtime` section.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// The grid point this record measures.
    pub job: SweepJob,
    /// Kernel events processed by the job's simulation.
    pub events: u64,
    /// GS flits delivered (all GS flows, including warmup).
    pub gs_delivered: u64,
    /// Aggregate GS throughput over the window, Mflit/s.
    pub gs_throughput_m: f64,
    /// Sample-weighted mean GS latency, ns (0 when no GS traffic).
    pub gs_mean_ns: f64,
    /// Worst per-flow p99 GS latency, ns.
    pub gs_p99_ns: f64,
    /// Worst GS latency, ns.
    pub gs_max_ns: f64,
    /// BE packets injected (including warmup).
    pub be_injected: u64,
    /// BE packets delivered (including warmup).
    pub be_delivered: u64,
    /// Aggregate BE throughput over the window, Mpkt/s.
    pub be_throughput_m: f64,
    /// Sample-weighted mean BE latency, ns.
    pub be_mean_ns: f64,
    /// Worst per-flow p99 BE latency, ns.
    pub be_p99_ns: f64,
    /// Worst per-flow median GS latency, ns.
    pub gs_p50_ns: f64,
    /// Worst per-flow p95 GS latency, ns.
    pub gs_p95_ns: f64,
    /// Worst per-flow median BE latency, ns.
    pub be_p50_ns: f64,
    /// Worst per-flow p95 BE latency, ns.
    pub be_p95_ns: f64,
}

impl SweepRecord {
    /// Builds the record for `job` from its scenario metrics.
    pub fn measure(job: SweepJob, m: &ScenarioMetrics) -> Self {
        let gs = |i: &usize| &m.flows[*i];
        let (gs_lat_sum, gs_lat_n) = m
            .gs_flows
            .iter()
            .filter_map(|i| gs(i).mean_ns.map(|mean| (mean, gs(i).latency_count)))
            .fold((0.0, 0u64), |(s, n), (mean, c)| {
                (s + mean * c as f64, n + c)
            });
        SweepRecord {
            events: m.events,
            gs_delivered: m.gs_flows.iter().map(|i| gs(i).delivered).sum(),
            gs_throughput_m: m.gs_throughput_m(),
            gs_mean_ns: if gs_lat_n > 0 {
                gs_lat_sum / gs_lat_n as f64
            } else {
                0.0
            },
            gs_p99_ns: m
                .gs_flows
                .iter()
                .filter_map(|i| gs(i).p99_ns)
                .fold(0.0, f64::max),
            gs_max_ns: m
                .gs_flows
                .iter()
                .filter_map(|i| gs(i).max_ns)
                .fold(0.0, f64::max),
            be_injected: m.be_injected(),
            be_delivered: m.be_delivered(),
            be_throughput_m: m.be_throughput_m(),
            be_mean_ns: m.be_weighted_mean_ns(),
            be_p99_ns: m.be_p99_worst_ns(),
            gs_p50_ns: m
                .gs_flows
                .iter()
                .filter_map(|i| gs(i).p50_ns)
                .fold(0.0, f64::max),
            gs_p95_ns: m
                .gs_flows
                .iter()
                .filter_map(|i| gs(i).p95_ns)
                .fold(0.0, f64::max),
            be_p50_ns: m.be_p50_worst_ns(),
            be_p95_ns: m.be_p95_worst_ns(),
            job,
        }
    }

    /// The CSV column names, matching [`SweepRecord::csv_row`].
    pub fn csv_header() -> &'static str {
        "job_id,topology,width,height,gs_conns,be_gap_ns,pattern,gs_period_ns,measure_us,seed,\
         events,gs_delivered,gs_throughput_m,gs_mean_ns,gs_p99_ns,gs_max_ns,\
         be_injected,be_delivered,be_throughput_m,be_mean_ns,be_p99_ns,\
         gs_p50_ns,gs_p95_ns,be_p50_ns,be_p95_ns"
    }

    /// One CSV row. Floats print with Rust's shortest round-trip
    /// formatting: the exact bit pattern survives, so byte-comparing two
    /// CSVs compares the underlying measurements.
    pub fn csv_row(&self) -> String {
        let j = &self.job;
        let (width, height) = j.topology.dims();
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            j.id,
            j.topology.name(),
            width,
            height,
            j.gs_conns,
            j.be_gap_ns.map_or(String::from(""), |g| g.to_string()),
            j.pattern,
            j.gs_period_ns,
            j.measure_us,
            j.seed,
            self.events,
            self.gs_delivered,
            self.gs_throughput_m,
            self.gs_mean_ns,
            self.gs_p99_ns,
            self.gs_max_ns,
            self.be_injected,
            self.be_delivered,
            self.be_throughput_m,
            self.be_mean_ns,
            self.be_p99_ns,
            self.gs_p50_ns,
            self.gs_p95_ns,
            self.be_p50_ns,
            self.be_p95_ns,
        )
    }

    /// The record as a JSON object (hand-rolled: every field is numeric,
    /// so no escaping is needed and no serde dependency either).
    pub fn to_json(&self) -> String {
        let j = &self.job;
        let (width, height) = j.topology.dims();
        format!(
            "{{\"job_id\":{},\"topology\":\"{}\",\"width\":{},\"height\":{},\"gs_conns\":{},\
             \"be_gap_ns\":{},\"pattern\":\"{}\",\"gs_period_ns\":{},\
             \"measure_us\":{},\"seed\":{},\
             \"events\":{},\"gs_delivered\":{},\"gs_throughput_m\":{},\
             \"gs_mean_ns\":{},\"gs_p99_ns\":{},\"gs_max_ns\":{},\
             \"be_injected\":{},\"be_delivered\":{},\"be_throughput_m\":{},\
             \"be_mean_ns\":{},\"be_p99_ns\":{},\
             \"gs_p50_ns\":{},\"gs_p95_ns\":{},\"be_p50_ns\":{},\"be_p95_ns\":{}}}",
            j.id,
            j.topology.name(),
            width,
            height,
            j.gs_conns,
            j.be_gap_ns.map_or(String::from("null"), |g| g.to_string()),
            j.pattern,
            j.gs_period_ns,
            j.measure_us,
            j.seed,
            self.events,
            self.gs_delivered,
            json_f64(self.gs_throughput_m),
            json_f64(self.gs_mean_ns),
            json_f64(self.gs_p99_ns),
            json_f64(self.gs_max_ns),
            self.be_injected,
            self.be_delivered,
            json_f64(self.be_throughput_m),
            json_f64(self.be_mean_ns),
            json_f64(self.be_p99_ns),
            json_f64(self.gs_p50_ns),
            json_f64(self.gs_p95_ns),
            json_f64(self.be_p50_ns),
            json_f64(self.be_p95_ns),
        )
    }
}

/// JSON has no NaN/Infinity literals; map them to null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Wall-clock facts about a sweep run — deliberately separate from the
/// records so deterministic and nondeterministic outputs never mix.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeInfo {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time, seconds.
    pub wall_seconds: f64,
    /// Total kernel events across all jobs.
    pub total_events: u64,
}

impl RuntimeInfo {
    /// Aggregate simulation rate, events/second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.total_events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// A typed sweep result that renders as one CSV row. Only deterministic
/// quantities may appear, so byte-comparing two CSVs compares the
/// underlying measurements.
pub trait CsvRecord {
    /// The CSV column names, matching [`CsvRecord::csv_row`].
    fn csv_header() -> &'static str;

    /// One CSV row (floats in Rust's shortest round-trip formatting).
    fn csv_row(&self) -> String;
}

impl CsvRecord for SweepRecord {
    fn csv_header() -> &'static str {
        SweepRecord::csv_header()
    }

    fn csv_row(&self) -> String {
        SweepRecord::csv_row(self)
    }
}

/// Writes records as CSV (header + one row per job, job order).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv<R: CsvRecord>(path: &Path, records: &[R]) -> std::io::Result<()> {
    let mut out = String::from(R::csv_header());
    out.push('\n');
    for r in records {
        out.push_str(&r.csv_row());
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Writes records as JSON: `{"records": [...], "runtime": {...}}`. The
/// `records` array is deterministic; `runtime` carries the wall-clock
/// facts.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_json(
    path: &Path,
    records: &[SweepRecord],
    runtime: &RuntimeInfo,
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "  \"records\": [")?;
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(f, "    {}{sep}", r.to_json())?;
    }
    writeln!(f, "  ],")?;
    writeln!(
        f,
        "  \"runtime\": {{\"threads\":{},\"wall_seconds\":{},\"events_per_sec\":{}}}",
        runtime.threads,
        json_f64(runtime.wall_seconds),
        json_f64(runtime.events_per_sec()),
    )?;
    writeln!(f, "}}")?;
    Ok(())
}

/// A human-readable summary table of sweep records.
pub fn summary_table(records: &[SweepRecord]) -> Table {
    let mut t = Table::new(vec![
        "job",
        "topology",
        "GS",
        "BE gap [ns]",
        "pattern",
        "seed",
        "events",
        "GS [Mf/s]",
        "GS mean [ns]",
        "BE [Mpkt/s]",
        "BE mean [ns]",
    ]);
    for r in records {
        let j = &r.job;
        t.add_row(vec![
            j.id.to_string(),
            j.topology.name(),
            j.gs_conns.to_string(),
            j.be_gap_ns.map_or("idle".into(), |g| g.to_string()),
            j.pattern.to_string(),
            j.seed.to_string(),
            r.events.to_string(),
            format!("{:.2}", r.gs_throughput_m),
            format!("{:.2}", r.gs_mean_ns),
            format!("{:.2}", r.be_throughput_m),
            format!("{:.1}", r.be_mean_ns),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepSpec;
    use crate::runner::run_sweep;

    #[test]
    fn csv_row_matches_header_arity() {
        let spec = SweepSpec {
            measures_us: vec![5],
            warmup_us: 2,
            ..Default::default()
        };
        let records = run_sweep(&spec, 1);
        assert_eq!(records.len(), 1);
        let header_cols = SweepRecord::csv_header().split(',').count();
        let row_cols = records[0].csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert_eq!(header_cols, 25);
        assert!(records[0].csv_row().contains(",uniform,"));
        assert!(records[0].csv_row().contains(",mesh4x4,"));
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_digits() {
        let spec = SweepSpec {
            be_gaps_ns: vec![None],
            measures_us: vec![5],
            warmup_us: 1,
            ..Default::default()
        };
        let r = &run_sweep(&spec, 1)[0];
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"be_gap_ns\":null"));
        assert!(json.contains(&format!("\"events\":{}", r.events)));
        // Balanced braces, no stray quotes from numeric formatting.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn csv_files_from_different_worker_counts_are_identical() {
        let spec = SweepSpec::smoke();
        let dir = std::env::temp_dir();
        let p1 = dir.join("mango_sweep_t1.csv");
        let p4 = dir.join("mango_sweep_t4.csv");
        write_csv(&p1, &run_sweep(&spec, 1)).unwrap();
        write_csv(&p4, &run_sweep(&spec, 4)).unwrap();
        let a = std::fs::read(&p1).unwrap();
        let b = std::fs::read(&p4).unwrap();
        assert_eq!(a, b, "sweep CSV must not depend on worker count");
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p4);
    }
}
