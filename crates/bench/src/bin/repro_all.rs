//! Runs every reproduction binary in sequence: each `repro_*`
//! executable built next to this one, in name order.
//!
//! Run with: `cargo build --release -p mango_bench && cargo run --release -p mango_bench --bin repro_all`

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A built `repro_*` executable (not its `.d` dep-info sibling).
fn is_repro(path: &Path) -> bool {
    fn text(part: Option<&OsStr>) -> &str {
        part.and_then(OsStr::to_str).unwrap_or("")
    }
    path.is_file()
        && text(path.file_stem()).starts_with("repro_")
        && text(path.extension()) == std::env::consts::EXE_EXTENSION
}

fn main() {
    mango_bench::reject_args();
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut repros: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("bin dir is readable")
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| is_repro(path) && *path != exe)
        .collect();
    repros.sort();
    assert!(
        !repros.is_empty(),
        "no repro_* binaries next to {} (build all bins first)",
        exe.display()
    );
    let mut failures = Vec::new();
    for path in &repros {
        let name = path.file_stem().expect("filtered on it").to_string_lossy();
        println!("\n{:=^78}", format!(" {name} "));
        let status = Command::new(path)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            failures.push(name);
        }
    }
    println!("\n{:=^78}", " summary ");
    if failures.is_empty() {
        println!("all {} reproductions passed", repros.len());
    } else {
        println!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
