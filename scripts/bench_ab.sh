#!/usr/bin/env bash
# Same-host A/B of the round benchmark (perfbench/) between a base revision
# and the working tree.
#
#   scripts/bench_ab.sh <base-rev> <workload> [pairs] [seconds]
#
#   base-rev  any git revision (e.g. HEAD~1, a branch, a sha)
#   workload  a perfbench workload: flat-krum, omniscient-krum, async-geomed,
#             hier-10k
#   pairs     interleaved base/change run pairs (default 5)
#   seconds   --seconds of each run (default 15)
#
# The base is exported with `git archive` and the working tree (tracked and
# untracked, minus ignored files) is copied, both into one `mktemp -d`
# directory; nothing is written inside the repository.  Both sides run the
# working tree's perfbench/ harness, so only the library differs.  Each side
# is built once, then pair i runs both sides at seed i with `--trace 0`,
# base first on odd pairs and change first on even ones.  The summary gives
# each end-to-end metric's median and quartiles per side, the median ratio,
# how many pairs the change won (by the `better` direction in
# BENCHMARK.json), and whether `dist_to_honest_min` is bitwise equal on
# every pair.  The temporary directory is removed on exit.
set -euo pipefail

usage() {
  sed -n '5,11p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
}

[[ $# -ge 2 && $# -le 4 ]] || usage
base_rev=$1
workload=$2
pairs=${3:-5}
seconds=${4:-15}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "bench_ab: pairs must be a positive integer" >&2; exit 2; }

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify --quiet "$base_rev^{commit}") ||
  { echo "bench_ab: unknown revision $base_rev" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base" "$work/change" "$work/results"

git -C "$repo" archive "$base_sha" | tar -x -C "$work/base"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
   tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -x -C "$work/change"
rm -rf "$work/base/perfbench"
cp -r "$work/change/perfbench" "$work/base/perfbench"

change_desc="working tree at $(git -C "$repo" rev-parse --short HEAD)"
[[ -z $(git -C "$repo" status --porcelain) ]] || change_desc+=" + uncommitted changes"
echo "# bench_ab: base $base_rev ($(git -C "$repo" rev-parse --short "$base_sha")) vs $change_desc"
echo "# bench_ab: workload $workload, $pairs pairs x $seconds s, seeds 1..$pairs"

for side in base change; do
  echo "# bench_ab: building $side" >&2
  if ! (cd "$work/$side" &&
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0.5 --tiny \
          > "$work/results/$side-build.log" 2>&1); then
    echo "bench_ab: $side build or tiny run failed; log follows" >&2
    tail -n 30 "$work/results/$side-build.log" >&2
    exit 1
  fi
done

run_side() {  # side seed
  (cd "$work/$1" &&
   python3 perfbench/run.py --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) |
    tail -n 1 > "$work/results/$1-$2.json" || true
}

for ((seed = 1; seed <= pairs; ++seed)); do
  if ((seed % 2 == 1)); then order="base change"; else order="change base"; fi
  for side in $order; do
    echo "# bench_ab: pair $seed/$pairs, $side" >&2
    run_side "$side" "$seed"
  done
done

python3 - "$work/results" "$pairs" "$repo/BENCHMARK.json" <<'EOF'
import json
import os
import statistics
import sys

results, pairs, spec_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better = {}
if os.path.exists(spec_path):
    with open(spec_path) as f:
        better = {m["name"]: m["better"] for m in json.load(f).get("end_to_end", [])}


def load(side, seed):
    path = os.path.join(results, f"{side}-{seed}.json")
    try:
        with open(path) as f:
            result = json.loads(f.read())
    except (OSError, ValueError):
        return None
    return result if result.get("correct") else None


runs = {side: [load(side, s) for s in range(1, pairs + 1)] for side in ("base", "change")}
failed = [f"{side} seed {i + 1}" for side, rs in runs.items() for i, r in enumerate(rs) if r is None]
ok_pairs = [(b, c) for b, c in zip(runs["base"], runs["change"]) if b and c]
if not ok_pairs:
    print("bench_ab: no pair completed", file=sys.stderr)
    sys.exit(1)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


names = list(ok_pairs[0][0]["metrics"])
print(f"{'metric':<20} {'better':<7} {'base median [q1, q3]':<36} "
      f"{'change median [q1, q3]':<36} {'change/base':>11} {'change wins':>12}")
for name in names:
    base = [b["metrics"][name]["value"] for b, _ in ok_pairs]
    change = [c["metrics"][name]["value"] for _, c in ok_pairs]
    bq, cq = quartiles(base), quartiles(change)
    direction = better.get(name, "")
    if direction == "higher":
        wins = sum(c > b for b, c in zip(base, change))
    elif direction == "lower":
        wins = sum(c < b for b, c in zip(base, change))
    else:
        wins = None
    ratio = f"{cq[1] / bq[1]:.3f}" if bq[1] else "-"
    print(f"{name:<20} {direction:<7} "
          f"{f'{bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]':<36} "
          f"{f'{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]':<36} {ratio:>11} "
          f"{'-' if wins is None else f'{wins}/{len(ok_pairs)}':>12}")

equal = sum(b["metrics"]["dist_to_honest_min"]["value"] == c["metrics"]["dist_to_honest_min"]["value"]
            for b, c in ok_pairs)
print(f"dist_to_honest_min bitwise equal on {equal}/{len(ok_pairs)} pairs")
if failed:
    print("failed or incorrect runs: " + ", ".join(failed))
sys.exit(0 if not failed and equal == len(ok_pairs) else 1)
EOF
