#!/usr/bin/env bash
# Counts non-test Rust lines: every `.rs` file under crates/ and vendor/
# outside `tests/` directories, up to (not including) its first
# `#[cfg(test)]` line. Prints one line per crate, then the total.
# A report, not a gate.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

find crates vendor -name '*.rs' -not -path '*/tests/*' | sort |
    while read -r file; do
        lines=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        echo "$(cut -d/ -f1-2 <<<"$file") $lines"
    done |
    awk '{ sum[$1] += $2; total += $2 }
         END { for (c in sum) printf "%-18s %6d\n", c, sum[c] | "sort"; close("sort");
               printf "%-18s %6d\n", "total", total }'
