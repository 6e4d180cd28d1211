//! The command-line surface of `sim_rate`, `sweep` and the `repro_*`
//! binaries: an argument outside the accepted range, an unknown flag or
//! one an earlier version had, a grid that cannot run or a file that
//! cannot be written ends in a diagnostic and a non-zero exit status —
//! never in a panic.

use std::path::Path;
use std::process::{Command, Output};

const SIM_RATE: &str = env!("CARGO_BIN_EXE_sim_rate");
const REPRO_PAPER: &str = env!("CARGO_BIN_EXE_repro_paper");
const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");

/// The binaries that take `--list`: each runs a sweep grid.
const GRID_BINS: [&str; 4] = [
    env!("CARGO_BIN_EXE_repro_serving"),
    env!("CARGO_BIN_EXE_repro_churn"),
    env!("CARGO_BIN_EXE_repro_faults"),
    SWEEP,
];

/// Every binary of the package: the five `goldens.rs` runs and `sim_rate`.
const ALL_BINS: [&str; 6] = [
    env!("CARGO_BIN_EXE_repro_serving"),
    env!("CARGO_BIN_EXE_repro_churn"),
    env!("CARGO_BIN_EXE_repro_faults"),
    SWEEP,
    REPRO_PAPER,
    SIM_RATE,
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn sim_rate_rejects_out_of_range_and_removed_arguments() {
    let bad: [&[&str]; 10] = [
        &["--mesh", "2"],
        &["--mesh", "3", "--json"],
        &["--mesh"],
        &["5", "0", "--json"],
        &["0"],
        &["fast"],
        &["1", "1", "1"],
        &["--region-block"],
        &["--buckets", "1024"],
        &["--width-log2", "4"],
    ];
    for args in bad {
        assert_usage_error(SIM_RATE, args);
    }
}

#[test]
fn every_bin_rejects_an_unknown_flag() {
    for exe in ALL_BINS {
        assert_usage_error(exe, &["--smoke", "--no-such-flag"]);
    }
}

/// The one table-only binary, `repro_paper`, takes `--threads N` and
/// `--full` and nothing else: it writes no record file, so it refuses
/// `--csv` and `--json` rather than ignoring them, and its default size
/// is the smoke grid, so it refuses `--smoke` and `--list` too.
#[test]
fn table_only_bins_refuse_the_flags_they_do_not_honour() {
    for args in [
        &["--smoke"][..],
        &["--list"],
        &["--csv", "x.csv"],
        &["--json", "x.json"],
        &["--full", "--csv", "x.csv"],
        &["--full", "--region-block"],
        &["--threads", "0"],
    ] {
        assert_usage_error(REPRO_PAPER, args);
    }
}

/// A binary that does not write an output refuses the flag that asks
/// for it (exit 2) instead of accepting it and writing nothing.
#[test]
fn bins_refuse_the_output_flags_they_do_not_write() {
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/unwritten");
    for (exe, flag) in [
        (env!("CARGO_BIN_EXE_repro_churn"), "--json"),
        (env!("CARGO_BIN_EXE_repro_churn"), "--telemetry-out"),
        (env!("CARGO_BIN_EXE_repro_serving"), "--json"),
        (env!("CARGO_BIN_EXE_repro_serving"), "--telemetry-out"),
        (env!("CARGO_BIN_EXE_repro_faults"), "--json"),
    ] {
        assert_usage_error(exe, &["--smoke", flag, dir]);
    }
}

/// `--list` prints the grid and runs nothing, so it writes no output
/// file: together with `--csv`, `--json` or `--telemetry-out` it is a
/// usage error (exit 2), and the file is not created.
#[test]
fn listing_refuses_the_output_flags() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("listed");
    for (b, exe) in GRID_BINS.iter().enumerate() {
        for flag in ["--csv", "--json", "--telemetry-out"] {
            let path = tmp.join(format!("{b}{flag}"));
            let _ = std::fs::remove_dir_all(&path);
            let _ = std::fs::remove_file(&path);
            assert_usage_error(exe, &["--smoke", "--list", flag, &path.to_string_lossy()]);
            assert!(!path.exists(), "{exe} {flag} created {}", path.display());
        }
    }
}

/// `--mesh WxH` writes mesh topologies onto the one topology axis, and
/// `--topology` wins over it whichever comes first.
#[test]
fn sweep_topology_wins_over_mesh_in_either_order() {
    let list = |args: &[&str]| {
        let out = run(SWEEP, args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let mesh_first = list(&["--list", "--mesh", "8x8", "--topology", "torus4x4"]);
    let topology_first = list(&["--list", "--topology", "torus4x4", "--mesh", "8x8"]);
    assert_eq!(mesh_first, topology_first);
    let jobs: Vec<&str> = mesh_first.lines().skip(1).collect();
    assert!(!jobs.is_empty(), "{mesh_first}");
    assert!(
        jobs.iter().all(|j| j.contains(" torus4x4 ")),
        "{mesh_first}"
    );
    assert!(list(&["--list", "--mesh", "8x8"]).contains(" mesh8x8 "));
}

/// `--smoke --list` prints the fixed smoke grid, job for job.
#[test]
fn sweep_smoke_listing_is_the_fixed_smoke_grid() {
    let out = run(SWEEP, &["--smoke", "--list"]);
    assert_eq!(out.status.code(), Some(0));
    let mut want = String::from("sweep: smoke grid, 8 jobs (listing, not running)\n");
    let mut id = 0;
    for gs in [0, 2] {
        for gap in [300, 100] {
            for seed in [1, 2] {
                want.push_str(&format!(
                    "job {id}: mesh4x4 gs={gs} be_gap={gap} pattern=uniform period=12 \
                     measure=20 seed={seed}\n"
                ));
                id += 1;
            }
        }
    }
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

/// A grid that cannot run is refused before any job starts (exit 2); a
/// result file that cannot be written is reported after the run
/// (exit 1, see [`assert_write_error`]). Either way stderr is one
/// `error:` line.
#[test]
fn sweep_refuses_unrunnable_grids_and_reports_unwritable_files() {
    let bad: [&[&str]; 4] = [
        &["--mesh", "0x0"],
        &["--topology", "chiplet0x0x4x4"],
        &["--smoke", "--gs", "99"],
        &["--smoke", "--be-gap", "0"],
    ];
    for args in bad {
        let out = run(SWEEP, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
    for flag in ["--csv", "--json", "--telemetry-out"] {
        assert_write_error(SWEEP, flag);
    }
}

/// A time flag whose picosecond value does not fit the simulation clock
/// — `--measure` / `--warmup` in µs, `--period` / `--be-gap` in ns, or a
/// warmup + measure window past the clock's end — is refused before any
/// job runs: exit 2 and one `error:` line naming the flag's quantity,
/// not a window that silently wrapped (release) or a panic (debug).
#[test]
fn sweep_refuses_time_flags_that_overflow_the_picosecond_clock() {
    let bad = [
        (
            "--mesh 2x2 --gs 0 --be-gap 100 --measure 18446744073710",
            "measure window",
        ),
        ("--smoke --warmup 18446744073710", "warmup"),
        ("--smoke --period 18446744073709552", "GS period"),
        ("--smoke --be-gap 18446744073709552", "BE gap"),
        (
            "--smoke --warmup 10000000000000 --measure 10000000000000",
            "warmup 10000000000000 µs + measure window",
        ),
    ];
    for (args, what) in bad {
        let out = run(SWEEP, &args.split(' ').collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let clock = stderr.strip_suffix(" overflows the picosecond clock\n");
        assert!(
            clock.is_some_and(|e| e.starts_with(&format!("error: {what} "))),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

/// A `--period` that fits the clock but whose second tick does not: the
/// source ends at the clock's end instead of overflowing it (a panic in
/// the test profile, a wrapped tick in release), and the run completes.
#[test]
fn sweep_runs_a_source_whose_next_tick_passes_the_clock() {
    let args = "--mesh 2x2 --gs 1 --be-gap idle --period 18446744073709551 --measure 1";
    let out = run(SWEEP, &args.split(' ').collect::<Vec<_>>());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args}: {stderr}");
}

/// An output file that cannot be written — a `--csv` or `--json` path in
/// a directory that does not exist, a `--telemetry-out` directory under
/// a regular file — is reported after the run: exit 1 and one
/// `error: cannot write` line, not a panic.
fn assert_write_error(exe: &str, flag: &str) {
    let path = match flag {
        "--telemetry-out" => concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/telemetry"),
        _ => "/nonexistent-dir/x",
    };
    let out = run(exe, &["--smoke", flag, path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{exe} {flag}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error")).collect();
    assert_eq!(errors.len(), 1, "{exe} {flag}: {stderr}");
    assert!(
        errors[0].starts_with(&format!("error: cannot write {path}: ")),
        "{exe} {flag}: {stderr}"
    );
    assert!(!stderr.contains("panicked at"), "{exe} {flag}: {stderr}");
}

#[test]
fn repro_churn_and_serving_report_an_unwritable_csv() {
    assert_write_error(env!("CARGO_BIN_EXE_repro_churn"), "--csv");
    assert_write_error(env!("CARGO_BIN_EXE_repro_serving"), "--csv");
}

#[test]
fn repro_faults_reports_unwritable_outputs() {
    for flag in ["--csv", "--telemetry-out"] {
        assert_write_error(env!("CARGO_BIN_EXE_repro_faults"), flag);
    }
}

#[test]
fn sim_rate_json_is_one_object_of_finite_numbers() {
    let out = run(SIM_RATE, &["1", "1", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let numbers = json_numbers(text.trim());
    for (key, v) in &numbers {
        assert!(v.is_finite(), "{key} = {v}");
    }
    let get = |key: &str| {
        numbers
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no {key} in {text}"))
            .1
    };
    assert_eq!(get("mesh"), 4.0);
    assert_eq!(get("wheel_buckets"), 2048.0);
    assert!(get("events") > 0.0);
    assert!(get("best_events_per_sec") > 0.0);
    assert!(get("per_event_ns") > 0.0);
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(get("peak_rss_mb") > 0.0);
    }
}

/// Parses `text` as one JSON value (panicking on anything malformed or
/// trailing) and returns every number in it with the object key it sits
/// under.
fn json_numbers(text: &str) -> Vec<(String, f64)> {
    let mut p = Json {
        bytes: text.as_bytes(),
        at: 0,
        numbers: Vec::new(),
    };
    p.value("");
    assert_eq!(p.at, p.bytes.len(), "trailing text after the JSON value");
    p.numbers
}

struct Json<'a> {
    bytes: &'a [u8],
    at: usize,
    numbers: Vec<(String, f64)>,
}

impl Json<'_> {
    fn peek(&self) -> u8 {
        *self.bytes.get(self.at).expect("JSON ends early")
    }

    fn expect(&mut self, token: &str) {
        let end = self.at + token.len();
        assert_eq!(self.bytes.get(self.at..end), Some(token.as_bytes()));
        self.at = end;
    }

    fn string(&mut self) -> String {
        self.expect("\"");
        let start = self.at;
        while self.peek() != b'"' {
            assert_ne!(self.peek(), b'\\', "escapes are not produced");
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(self.bytes[start..self.at - 1].to_vec()).expect("utf-8")
    }

    /// A comma-separated list of `item`s up to `close`.
    fn list(&mut self, close: u8, mut item: impl FnMut(&mut Self)) {
        self.at += 1;
        while self.peek() != close {
            item(self);
            if self.peek() != close {
                self.expect(",");
                assert_ne!(self.peek(), close, "trailing comma");
            }
        }
        self.at += 1;
    }

    fn value(&mut self, key: &str) {
        match self.peek() {
            b'{' => self.list(b'}', |p| {
                let key = p.string();
                p.expect(":");
                p.value(&key);
            }),
            b'[' => self.list(b']', |p| p.value(key)),
            b'"' => drop(self.string()),
            b't' => self.expect("true"),
            b'f' => self.expect("false"),
            b'n' => self.expect("null"),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let token = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                let v = token
                    .parse()
                    .unwrap_or_else(|_| panic!("bad number {token:?}"));
                self.numbers.push((key.to_string(), v));
            }
        }
    }
}
