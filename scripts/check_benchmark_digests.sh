#!/usr/bin/env bash
# Runs the benchmark workloads listed in tests/golden/benchmark_digests.txt
# (2 s, traced and untraced) and fails unless `harness.stats_digest32` and
# `admitted_frac` equal the committed values: a change that only makes the
# simulator faster must leave every simulated statistic identical.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The value of metric $1 in the result object on the last line of stdin.
metric() { tail -n 1 | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\)[,}].*/\1/p"; }

status=0
while read -r workload seed digest admitted; do
    run=(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 2)
    got_digest=$("${run[@]}" --trace 1 | metric harness.stats_digest32)
    got_admitted=$("${run[@]}" --trace 0 | metric admitted_frac)
    if [[ "$got_digest" == "$digest" && "$got_admitted" == "$admitted" ]]; then
        echo "ok   $workload seed $seed: digest $digest, admitted_frac $admitted"
    else
        echo "FAIL $workload seed $seed: digest $got_digest (want $digest)," \
            "admitted_frac $got_admitted (want $admitted)"
        status=1
    fi
done < <(grep -v '^#' tests/golden/benchmark_digests.txt)
exit $status
