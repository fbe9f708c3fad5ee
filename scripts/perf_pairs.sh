#!/bin/sh
# Paired A/B run of the benchmark (BENCHMARK.json, perfbench/): the working
# tree against PARENT_REF on one workload and seed, N pairs of runs.
#
#   scripts/perf_pairs.sh PARENT_REF WORKLOAD SEED N
#   make perf-pairs PARENT=<ref> WORKLOAD=<name> SEED=<n> N=<pairs>
#
# PARENT_REF is exported with `git archive` into .bench_work/parent-<sha>/
# (kept for reuse; no worktree bookkeeping in .git) and built there by its
# own perfbench/run.py.  Each pair runs both sides for BENCHMARK.json's
# run_seconds, alternating which side goes first, so drift in the host's
# speed lands on both.  Prints, per end-to-end metric, each side's median
# and quartiles and the number of pairs the change wins (strictly better in
# the metric's direction), plus each side's failed/attempted share.  Raw
# result lines go to .bench_work/pairs-<workload>-<seed>.jsonl.
set -eu

[ $# -eq 4 ] || { echo "usage: $0 PARENT_REF WORKLOAD SEED N" >&2; exit 2; }
REF=$1 WORKLOAD=$2 SEED=$3 N=$4

cd "$(git rev-parse --show-toplevel)"
SHA=$(git rev-parse --verify "$REF^{commit}")
PARENT=.bench_work/parent-$SHA
if [ ! -f "$PARENT/dune-project" ]; then
  rm -rf "$PARENT"
  mkdir -p "$PARENT"
  git archive "$SHA" | tar -x -C "$PARENT"
fi
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
OUT=.bench_work/pairs-$WORKLOAD-$SEED.jsonl
: > "$OUT"

run_side() { # side checkout pair
  line=$(python3 "$2/perfbench/run.py" --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1) || true
  case $line in
    '{'*) printf '{"side": "%s", "pair": %d, "run": %s}\n' "$1" "$3" "$line" >> "$OUT" ;;
    *) echo "perf_pairs: $1 run $3 produced no result" >&2; exit 1 ;;
  esac
}

i=1
while [ "$i" -le "$N" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run_side parent "$PARENT" "$i"; run_side change . "$i"
  else
    run_side change . "$i"; run_side parent "$PARENT" "$i"
  fi
  echo "perf_pairs: pair $i/$N done" >&2
  i=$((i + 1))
done

python3 - "$OUT" "$REF" "$WORKLOAD" "$SEED" <<'EOF'
import json, statistics, sys

path, ref, workload, seed = sys.argv[1:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {"parent": {}, "change": {}}
for line in open(path):
    r = json.loads(line)
    runs[r["side"]][r["pair"]] = r["run"]
pairs = sorted(set(runs["parent"]) & set(runs["change"]))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print("%s vs working tree: %s, seed %s, %d pairs" % (ref, workload, seed, len(pairs)))
print("%-16s %-10s %-38s %-38s %s" % ("metric", "unit", "parent q1 / median / q3",
                                      "change q1 / median / q3", "change wins"))
for m in metrics:
    name = m["name"]
    p = [runs["parent"][i]["metrics"][name]["value"] for i in pairs]
    c = [runs["change"][i]["metrics"][name]["value"] for i in pairs]
    if m["better"] == "higher":
        wins = sum(ci > pi for pi, ci in zip(p, c))
    else:
        wins = sum(ci < pi for pi, ci in zip(p, c))
    fmt = lambda q: "%.6g / %.6g / %.6g" % q
    print("%-16s %-10s %-38s %-38s %d/%d" % (name, m["unit"], fmt(quartiles(p)),
                                             fmt(quartiles(c)), wins, len(pairs)))
for side in ("parent", "change"):
    shares = [runs[side][i]["failed"] / max(1, runs[side][i]["attempted"]) for i in pairs]
    correct = all(runs[side][i]["correct"] for i in pairs)
    print("%s: failed/attempted median %.4f, all correct: %s"
          % (side, statistics.median(shares), correct))
EOF
