#!/usr/bin/env bash
# Counts non-test Rust lines: every `.rs` file under crates/ and vendor/
# outside `tests/` directories, up to (not including) its first
# `#[cfg(test)]` line. A `#[cfg(test)]` directly followed by a `mod x;`
# declaration is not the end of the file: the two lines are skipped, and
# so is the declared module's file (`x.rs` or `x/mod.rs`) with every
# module below it. Prints one line per crate, then the total.
# A report, not a gate.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

files=$(find crates vendor -name '*.rs' -not -path '*/tests/*' | sort)

# The directory holding the child modules of each file, then every
# `#[cfg(test)] mod x;` it declares: one `dir/x` per line.
test_mods=$(
    for file in $files; do
        case "$(basename "$file")" in
            lib.rs | main.rs | mod.rs) dir=$(dirname "$file") ;;
            *) dir=${file%.rs} ;;
        esac
        awk -v dir="$dir" '
            pending && match($0, /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+;/) {
                sub(/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+/, "")
                sub(/;.*/, "")
                print dir "/" $0
            }
            { pending = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }' "$file"
    done
)

for file in $files; do
    skip=0
    for m in $test_mods; do
        case "$file" in
            "$m.rs" | "$m"/*) skip=1 ;;
        esac
    done
    [ "$skip" = 1 ] && continue
    lines=$(awk '
        pending {
            if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+;/) {
                pending = 0
                next
            }
            exit
        }
        /#\[cfg\(test\)\]/ { pending = 1; next }
        { n++ }
        END { print n + 0 }' "$file")
    echo "$(cut -d/ -f1-2 <<<"$file") $lines"
done |
    awk '{ sum[$1] += $2; total += $2 }
         END { for (c in sum) printf "%-18s %6d\n", c, sum[c] | "sort"; close("sort");
               printf "%-18s %6d\n", "total", total }'
