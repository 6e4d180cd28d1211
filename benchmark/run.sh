#!/usr/bin/env bash
# The repo benchmark, one command: build (release, offline), run, check
# the outputs, print every metric by name with its unit.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--aa]
#       every workload, each in its own child process; writes
#       benchmark/out/result.json (and trace.json with --trace / --aa)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object (the form BENCHMARK.json's command is called in)
#
# Fails loudly: a build error, a failed output check or a child that exits
# non-zero all end in a non-zero exit status. Every end-to-end pass runs at
# least 32 slices however short --seconds is. The binary refuses to run
# unless it was built with --release.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/mango_benchmark" "$@"
