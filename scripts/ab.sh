#!/usr/bin/env bash
# Paired benchmark of two git refs, with the A/A control beside it.
#
#   scripts/ab.sh <ref-a> <ref-b> [workload...]
#
# Checks out ref-a twice (`a1`, `a2`) and ref-b once (`b1`), each in its
# own `git worktree` under one directory, so the three checkout paths
# have the same length (the path is embedded in the binary and moves
# wall-clock by a few percent: ROADMAP, measurement rule (iv)), and
# builds the benchmark in each. Then it runs AB_PAIRS rounds; a round
# runs every workload once per build, the three builds in an order that
# rotates from round to round, each run being
#
#   benchmark/run.sh --workload W --seed AB_SEED --seconds T --trace 0
#
# (T is BENCHMARK.json's `run_seconds`, the same on every side), and
# prints a Markdown table ready to append to docs/perf-log.md: per
# workload, a row `a1 → b1` and an A/A row `a1 → a2`, and per end-to-end
# metric of BENCHMARK.json the median [q1, q3] of each side, the change
# of the median and the pairs (runs of one round) in which the right-hand
# side was better. Below the table, per workload, the gap between the
# first metric's medians against a1's q3 − q1.
#
# Workloads default to all of BENCHMARK.json's. Environment:
#   AB_PAIRS    rounds (default 10)
#   AB_SEED     benchmark seed (default 1)
#   AB_DIR      where the worktrees and raw results go (default: a new
#               temporary directory); the worktrees are removed on exit,
#               the raw results (`AB_DIR/runs/*.json`) are kept
set -euo pipefail
if [[ $# -lt 2 ]]; then
    echo "usage: scripts/ab.sh <ref-a> <ref-b> [workload...]" >&2
    exit 2
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."
repo=$PWD
ref_a=$(git rev-parse --verify "$1^{commit}")
ref_b=$(git rev-parse --verify "$2^{commit}")
shift 2
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
    mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json)
fi
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    BENCHMARK.json)
pairs=${AB_PAIRS:-10}
seed=${AB_SEED:-1}
dir=${AB_DIR:-$(mktemp -d)}
mkdir -p "$dir/runs"
dir=$(cd "$dir" && pwd)
# Each checkout builds into its own benchmark/target.
unset CARGO_TARGET_DIR

sides=(a1 b1 a2)
declare -A ref=([a1]=$ref_a [a2]=$ref_a [b1]=$ref_b)
cleanup() {
    for side in "${sides[@]}"; do
        git -C "$repo" worktree remove --force "$dir/$side" 2>/dev/null || true
    done
    git -C "$repo" worktree prune
}
trap cleanup EXIT

for side in "${sides[@]}"; do
    git worktree add --quiet --detach "$dir/$side" "${ref[$side]}"
    echo "building $side (${ref[$side]:0:7}) in $dir/$side" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/$side/benchmark/Cargo.toml"
done

for ((round = 0; round < pairs; round++)); do
    for workload in "${workloads[@]}"; do
        for ((k = 0; k < 3; k++)); do
            side=${sides[$(((round + k) % 3))]}
            out="$dir/runs/$workload.$side.$round.json"
            (cd "$dir/$side" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0) | tail -n 1 > "$out"
        done
    done
    echo "round $((round + 1))/$pairs done" >&2
done

python3 - "$dir/runs" "$pairs" "$seed" "$seconds" "${ref_a:0:7}" "${ref_b:0:7}" \
    "${workloads[@]}" <<'EOF'
import json, sys

runs, pairs, seed, seconds, ref_a, ref_b = sys.argv[1:7]
workloads, pairs = sys.argv[7:], int(pairs)
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]


def quantile(xs, q):
    xs = sorted(xs)
    at = (len(xs) - 1) * q
    lo = int(at)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)


def spread(xs):
    return f"{quantile(xs, 0.5):.4g} [{quantile(xs, 0.25):.4g}, {quantile(xs, 0.75):.4g}]"


def load(workload, side):
    out = []
    for r in range(pairs):
        with open(f"{runs}/{workload}.{side}.{r}.json") as f:
            out.append(json.loads(f.read()))
    return out


print(f"a = `{ref_a}`, b = `{ref_b}`; seed {seed}, {seconds} s per run, {pairs} "
      "alternating rounds; median [q1, q3]; \"n/m\" = pairs in which the "
      "right-hand side was better.")
print()
print("| workload | " + " | ".join(f"`{m['name']}`" for m in metrics) + " |")
print("|---|" + "---|" * len(metrics))
gaps, failed = [], 0
for w in workloads:
    base = load(w, "a1")
    failed += sum(r["failed"] for side in ("a1", "b1", "a2") for r in load(w, side))
    for label, side in (("a → b", "b1"), ("A/A", "a2")):
        other = load(w, side)
        cells = []
        for m in metrics:
            x = [r["metrics"][m["name"]]["value"] for r in base]
            y = [r["metrics"][m["name"]]["value"] for r in other]
            sign = 1 if m["better"] == "lower" else -1
            won = sum(sign * (b - a) < 0 for a, b in zip(x, y))
            mx, my = quantile(x, 0.5), quantile(y, 0.5)
            change = f"{(my - mx) / mx * 100:+.1f} %".replace("-", "−") if mx else "—"
            cells.append(f"{spread(x)} → {spread(y)} ({change}, {won}/{pairs})")
            if m is metrics[0]:
                gaps.append(f"`{w}` {label}, `{m['name']}`: median gap "
                            f"{abs(my - mx):.4g}, a's q3 − q1 "
                            f"{quantile(x, 0.75) - quantile(x, 0.25):.4g}")
        print(f"| `{w}` {label} | " + " | ".join(cells) + " |")
print()
for g in gaps:
    print(f"- {g}")
print(f"- failed operations over all {3 * pairs * len(workloads)} runs: {failed}")
EOF
