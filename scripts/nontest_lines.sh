#!/usr/bin/env bash
# Counts non-test Rust lines: every `.rs` file under crates/ and vendor/
# outside `tests/` directories, up to (not including) its first
# `#[cfg(test)]` line directly followed by an inline `mod x {`. A
# `#[cfg(test)]` directly followed by a `mod x;` declaration is not the
# end of the file: the two lines are skipped, and so is the declared
# module's file (`x.rs` or `x/mod.rs`) with every module below it. A
# `#[cfg(test)]` on any other item (a field, a statement) is counted as
# an ordinary line, and so is its item. In the same non-test lines, outside `//` comment
# lines, it also counts the panic sites: each `unwrap(`, `expect(`,
# `panic!(` and `unreachable!(`. Prints a header, one line per crate
# (lines, panic sites), then the total. A report, not a gate.
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
    counts=$(awk '
        pending {
            pending = 0
            if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+;/) {
                next
            }
            if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*\{/) {
                exit
            }
            n++
        }
        /#\[cfg\(test\)\]/ { pending = 1; next }
        { n++ }
        !/^[[:space:]]*\/\// {
            rest = $0
            while (match(rest, /(unwrap|expect)\(|(panic|unreachable)!\(/)) {
                p++
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
        END { print n + 0, p + 0 }' "$file")
    echo "$(cut -d/ -f1-2 <<<"$file") $counts"
done |
    awk '{ lines[$1] += $2; sites[$1] += $3; total += $2; panics += $3 }
         END { printf "%-18s %6s %6s\n", "crate", "lines", "panics"
               for (c in lines) printf "%-18s %6d %6d\n", c, lines[c], sites[c] | "sort"; close("sort");
               printf "%-18s %6d %6d\n", "total", total, panics }'
