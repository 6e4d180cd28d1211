//! The determinism contract as one table: every row runs a binary at
//! `--threads 1` and `--threads 4` and compares what it printed and
//! wrote with the committed goldens and with the other thread count.
//!
//! Each run of a row gets its own directory,
//! `target/tmp/goldens/<row>/t{1,4}/`; `{out}` in a row's arguments
//! stands for it, and stdout is kept there as `stdout.txt`. A mismatch
//! names the first differing line and the file that holds the actual
//! bytes, so re-recording a golden after an intended change is a `cp`
//! of that file over the committed one.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

enum Check {
    /// Stdout equals the committed file at both thread counts.
    Stdout(&'static str),
    /// `{out}/<0>` equals the committed file `<1>` at both thread counts.
    File(&'static str, &'static str),
    /// `{out}/<0>` — a file, or a directory compared file for file — is
    /// the same at 1 and 4 threads.
    Same(&'static str),
}
use Check::{File, Same, Stdout};

macro_rules! goldens {
    ($($row:ident: $bin:ident [$($arg:literal),*] => [$($check:expr),+];)+) => {$(
        #[test]
        fn $row() {
            run_row(
                stringify!($row),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                &[$($arg),*],
                &[$($check),+],
            );
        }
    )+};
}

goldens! {
    paper: repro_paper [] => [Stdout("tests/golden/repro_paper.txt")];
    serving: repro_serving ["--smoke", "--csv", "{out}/serving.csv"]
        => [Stdout("tests/golden/repro_serving_smoke.txt"), Same("serving.csv")];
    churn: repro_churn ["--smoke", "--csv", "{out}/churn.csv"]
        => [File("churn.csv", "tests/golden/repro_churn_smoke.csv")];
    faults: repro_faults ["--smoke"]
        => [Stdout("tests/golden/repro_faults_smoke.txt")];
    faults_census_and_trace: repro_faults
        ["--smoke", "--csv", "{out}/faults.csv", "--telemetry-out", "{out}/telemetry"]
        => [
            Same("faults.csv"),
            File("telemetry/trace.json", "docs/traces/repro_faults_recovery_trace.json")
        ];
    sweep_telemetry: sweep
        [
            "--topology", "mesh4x4", "--gs", "1", "--be-gap", "idle,300,50", "--pattern",
            "uniform", "--period", "12", "--measure", "150", "--seeds", "55", "--warmup", "20",
            "--payload", "4", "--telemetry-out", "{out}/telemetry"
        ]
        => [Same("telemetry")];
    sweep_smoke: sweep ["--smoke", "--csv", "{out}/sweep.csv"]
        => [Same("sweep.csv")];
    sweep_pattern_smoke: sweep ["--pattern-smoke", "--csv", "{out}/sweep.csv"]
        => [Same("sweep.csv")];
    sweep_torus_and_chiplet: sweep
        [
            "--topology", "torus4x4,chiplet2x1x4x4", "--gs", "2", "--be-gap", "300",
            "--period", "15", "--measure", "20", "--seeds", "7", "--csv", "{out}/sweep.csv"
        ]
        => [Same("sweep.csv")];
}

fn run_row(row: &str, exe: &str, args: &[&str], checks: &[Check]) {
    // Both thread counts run at once: the row takes as long as its slower
    // run, not as long as the two back to back.
    let runs = [1, 4].map(|threads| {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("goldens/{row}/t{threads}"));
        // Left-overs of an earlier run must not pass for this one's output.
        let _ = fs::remove_dir_all(&out);
        fs::create_dir_all(&out).expect("output directory");
        let child = Command::new(exe)
            .args(
                args.iter()
                    .map(|a| a.replace("{out}", &out.to_string_lossy())),
            )
            .args(["--threads", &threads.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        (threads, out, child)
    });
    let outs = runs.map(|(threads, out, child)| {
        let run = child.wait_with_output().expect("binary runs");
        assert!(
            run.status.success(),
            "{row} at {threads} threads: {}\n{}",
            run.status,
            String::from_utf8_lossy(&run.stderr)
        );
        fs::write(out.join("stdout.txt"), &run.stdout).expect("stdout kept");
        out
    });
    let committed = |rel: &str, golden: &str| {
        for out in &outs {
            assert_same(row, &Path::new(ROOT).join(golden), &out.join(rel));
        }
    };
    for check in checks {
        match *check {
            Stdout(golden) => committed("stdout.txt", golden),
            File(rel, golden) => committed(rel, golden),
            Same(rel) => {
                let (one, four) = (outs[0].join(rel), outs[1].join(rel));
                if !one.is_dir() {
                    assert_same(row, &one, &four);
                    continue;
                }
                let names = file_names(&one);
                assert!(!names.is_empty(), "{row}: {} is empty", one.display());
                assert_eq!(names, file_names(&four), "{row}: files under {rel}");
                for name in names {
                    assert_same(row, &one.join(&name), &four.join(&name));
                }
            }
        }
    }
}

fn file_names(dir: &Path) -> Vec<PathBuf> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)
        .expect("directory listing")
        .map(|entry| entry.expect("directory entry").file_name().into())
        .collect();
    names.sort();
    names
}

fn assert_same(row: &str, expected: &Path, actual: &Path) {
    let read = |path: &Path| {
        fs::read(path).unwrap_or_else(|e| panic!("{row}: cannot read {}: {e}", path.display()))
    };
    let (want, got) = (read(expected), read(actual));
    if want == got {
        return;
    }
    let (want, got) = (
        String::from_utf8_lossy(&want),
        String::from_utf8_lossy(&got),
    );
    // Files that differ only in line endings agree on every line; the
    // report then shows <end of file> on both sides.
    let same = want
        .lines()
        .zip(got.lines())
        .take_while(|(w, g)| w == g)
        .count();
    let (w, g) = (want.lines().nth(same), got.lines().nth(same));
    panic!(
        "{row}: {} differs from {} at line {}\n  expected: {}\n  actual:   {}",
        actual.display(),
        expected.display(),
        same + 1,
        w.unwrap_or("<end of file>"),
        g.unwrap_or("<end of file>"),
    );
}
