#!/usr/bin/env bash
# Compares this checkout with an earlier revision on one benchmark
# workload, in alternating pairs of runs:
#
#   bash bench/pairs.sh REV WORKLOAD N [NAME] [SECONDS] [FIRST_SEED]
#
# REV is exported with `git archive` into a temporary directory under
# this checkout's _build and built there. Pair i runs
# `perfbench/run.sh --seed FIRST_SEED+i-1` once per side, REV first on
# odd pairs and this checkout first on even ones, both in the caller's
# environment.
# Every result line is appended to doc/perf/NAME-runs.jsonl (NAME
# defaults to "pairs", SECONDS to 15, FIRST_SEED to 2) as
# {"workload", "commit": "before"|"after", "seed", "trace": 0, "result"}.
# Then, per end-to-end metric: before and after median [q1, q3], the
# after/before ratio of the medians and how many pairs "after" won,
# read against the metric's "better" direction in BENCHMARK.json.
# Each metric ends with its verdict under the benchmark's rules, the
# first that applies:
#   GAIN        after won at least 9 in 10 pairs and its median is
#               better than before's by more than before's quartile
#               spread (q3 - q1);
#   OVER BOUND  after's median moved the wrong way by more than the
#               metric's "bound" (a fraction of before's median);
#   UNRESOLVED  before's quartile spread is wider than the bound and not
#               every after run beats every before run, so the runs
#               cannot tell a change within the bound from noise;
#   ok          otherwise.
# Exits 4 if any run was not correct, else 5 if any metric is OVER
# BOUND.
set -eu
[ $# -ge 3 ] || { sed -n '5p' "$0" >&2; exit 2; }
rev=$1 workload=$2 n=$3 name=${4:-pairs} seconds=${5:-15} seed0=${6:-2}
root=$(git rev-parse --show-toplevel)
mkdir -p "$root/_build"
before=$(mktemp -d -p "$root/_build" pairs.XXXXXX)
trap 'rm -rf "$before"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$before"
out="$root/doc/perf/$name-runs.jsonl"
fresh=$(mktemp -p "$before")
run() { # side dir seed
  local line
  line=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
  printf '{"workload": "%s", "commit": "%s", "seed": %d, "trace": 0, "result": %s}\n' \
    "$workload" "$1" "$3" "${line:-null}" | tee -a "$out" >>"$fresh"
}
for i in $(seq 1 "$n"); do
  seed=$((seed0 + i - 1))
  if [ $((i % 2)) -eq 1 ]; then
    run before "$before" "$seed"; run after "$root" "$seed"
  else
    run after "$root" "$seed"; run before "$before" "$seed"
  fi
done
python3 - "$fresh" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys
runs = [json.loads(l) for l in open(sys.argv[1])]
bench = json.load(open(sys.argv[2]))
ok = all(r["result"] and r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)
side = lambda c: sorted((r for r in runs if r["commit"] == c and r["result"]), key=lambda r: r["seed"])
b, a = side("before"), side("after")
def q(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return "%.6g [%.6g, %.6g]" % (med, q1, q3), med, q3 - q1
print("%d pairs, all correct: %s" % (len(runs) // 2, ok))
print("metric | before median [q1, q3] | after median [q1, q3] | after/before | after wins | verdict")
over = []
for m in bench["end_to_end"]:
    k, hi = m["name"], m["better"] == "higher"
    xb = [r["result"]["metrics"][k]["value"] for r in b]
    xa = [r["result"]["metrics"][k]["value"] for r in a]
    if not xb or len(xb) != len(xa): continue
    (sb, mb, iqr), (sa, ma, _) = q(xb), q(xa)
    beats = lambda y, x: y > x if hi else y < x
    wins = sum(beats(y, x) for x, y in zip(xb, xa))
    gain = ma - mb if hi else mb - ma
    worse = -gain / abs(mb) if mb else 0.0
    bound = m.get("bound")
    if 10 * wins >= 9 * len(xa) and gain > iqr:
        verdict = "GAIN"
    elif bound is not None and worse > bound:
        verdict = "OVER BOUND"
        over.append(k)
    elif bound is not None and mb and iqr / abs(mb) > bound and not all(beats(y, x) for x in xb for y in xa):
        verdict = "UNRESOLVED"
    else:
        verdict = "ok"
    print("%s | %s | %s | %.4f | %d/%d | %s" % (k, sb, sa, ma / mb if mb else float("nan"), wins, len(xa), verdict))
sys.exit(4 if not ok else 5 if over else 0)
EOF
