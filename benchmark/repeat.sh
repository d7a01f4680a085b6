#!/usr/bin/env bash
# Two sets of runs of one commit, and whether they agree.
#
# The reference box changes speed for a minute or two at a time, so two
# runs made minutes apart can differ by more than any bound without the
# code having changed. The sets are therefore interleaved: every round
# runs each workload once, odd rounds belong to set A and even rounds to
# set B, all with one seed, and a set's value for a metric is the median
# of its rounds. One more round runs a second seed, for the reader.
#
# Fails when a run reports a failed operation, or when the two sets
# disagree on an end-to-end metric by more than its bound in
# BENCHMARK.json. A metric whose runs spread by more than its bound
# (inter-quartile range over median, all rounds of the first seed) is
# marked "unresolved": on such a day a difference of the size of the
# bound between two commits proves nothing.
#
#   benchmark/repeat.sh [--quick] [rounds] [seed] [second-seed]
set -euo pipefail
cd "$(dirname "$0")/.."

quick=()
if [ "${1:-}" = "--quick" ]; then
    quick=(--quick)
    shift
fi
rounds="${1:-6}"
seed="${2:-42}"
other="${3:-43}"
out="benchmark/out/repeat"
mkdir -p "$out"
rm -f "$out"/*.jsonl

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
round() { # file seed
    "$target/release/sdds-benchmark" --workload all --seed "$2" "${quick[@]}" | grep '^{' > "$out/$1"
}
for r in $(seq 1 "$rounds"); do
    round "round$r.jsonl" "$seed"
done
round other.jsonl "$other"

python3 - "$out" "$rounds" <<'PY'
import json, statistics, sys
out, rounds = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
load = lambda f: dict(zip(workloads, (json.loads(line) for line in open(f"{out}/{f}"))))
runs = [load(f"round{r}.jsonl") for r in range(1, rounds + 1)]
other = load("other.jsonl")
bad = False
print(f"{'workload':10} {'metric':14} {'set A':>11} {'set B':>11} {'B worse by':>10} {'spread':>7} {'bound':>6}   other seed")
for w in workloads:
    for r in runs + [other]:
        if not r[w]["correct"] or r[w]["failed"]:
            print(f"{w}: {r[w]['failed']} of {r[w]['attempted']} operations failed")
            bad = True
    for m in spec["end_to_end"]:
        values = [r[w]["metrics"][m["name"]]["value"] for r in runs]
        a, b = statistics.median(values[0::2]), statistics.median(values[1::2])
        worse = b / a - 1 if m["better"] == "lower" else a / b - 1
        q = statistics.quantiles(values, n=4) if len(values) >= 4 else [min(values), 0, max(values)]
        spread = (q[2] - q[0]) / statistics.median(values)
        flag = ""
        if abs(worse) > m["bound"]:
            flag, bad = "  <-- the sets disagree beyond the bound", True
        elif spread > m["bound"]:
            flag = "  (unresolved: spread beyond the bound)"
        z = other[w]["metrics"][m["name"]]["value"]
        print(f"{w:10} {m['name']:14} {a:11.4f} {b:11.4f} {worse:+10.3f} {spread:7.3f} {m['bound']:6.2f}   {z:11.4f}{flag}")
sys.exit(1 if bad else 0)
PY
