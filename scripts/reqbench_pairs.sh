#!/usr/bin/env bash
# Compare reqbench workloads between a parent revision and the working tree
# in alternating pairs of runs.
#
# Usage:
#   scripts/reqbench_pairs.sh <parent-rev> <workload|all> [pairs=10] [seconds=25] [first-seed=101] [trace=0]
#
# With `all` as the workload, the pairs run on each workload BENCHMARK.json
# lists, in turn, with the same seeds and one parent export and build, and
# a summary is printed per workload.
#
# The parent is exported with `git archive` into a work directory and both
# reqbench binaries are built with `--release --offline`, each into its own
# CARGO_TARGET_DIR (the working tree's into reqbench/target, as `cargo run
# --manifest-path reqbench/Cargo.toml` would). Pair i runs both sides with
# seed first-seed + i; even pairs run the parent first, odd pairs the change.
# Every run's JSON verdict (the last stdout line) is kept in the work
# directory. For each end-to-end metric in BENCHMARK.json the summary prints
# each side's median and q1-q3, the change-over-parent ratio of the medians,
# and the number of pairs the change won in the metric's direction.
#
# With trace=1 every run passes `--trace 1`, whose verdict carries the
# per-layer metrics (layer times, work counters, allocations per request)
# instead of the end-to-end ones, and the summary lists BENCHMARK.json's
# `per_layer` metrics the same way. Traced runs time every span, so compare
# their timings only with other traced runs.
#
# The work directory is $PAIRS_WORKDIR, or a fresh temporary one. Reusing a
# work directory reuses the parent's export and build.
#
# Exit status: 0 when every run (of every workload) reported
# "correct":true, 1 otherwise, 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: $0 <parent-rev> <workload|all> [pairs=10] [seconds=25] [first-seed=101] [trace=0]" >&2
  exit 2
}
[[ $# -ge 2 && $# -le 6 ]] || usage
command -v jq >/dev/null || { echo "reqbench_pairs: jq not found" >&2; exit 2; }

rev="$1"
if [[ "$2" == all ]]; then
  mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
else
  workloads=("$2")
fi
pairs="${3:-10}"
seconds="${4:-25}"
first_seed="${5:-101}"
trace="${6:-0}"
sha="$(git rev-parse --verify "$rev^{commit}")" || usage
for n in "$pairs" "$seconds" "$first_seed"; do
  [[ "$n" =~ ^[0-9]+$ ]] || usage
done
(( pairs >= 1 )) || usage
[[ "$trace" == 0 || "$trace" == 1 ]] || usage
# The BENCHMARK.json list the summary reads, and the metric each run's
# progress line shows.
if ((trace)); then
  metrics=per_layer shown=trace.traced_requests
else
  metrics=end_to_end shown=throughput_rps
fi

root="$(pwd)"
work="${PAIRS_WORKDIR:-$(mktemp -d)}"
parent="$work/parent-$sha"
echo "reqbench_pairs: work directory $work" >&2

if [[ ! -d "$parent" ]]; then
  mkdir -p "$parent.tmp"
  git archive "$sha" | tar -x -C "$parent.tmp"
  mv "$parent.tmp" "$parent"
fi
build() { # <tree> <target-dir>
  CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
    --manifest-path "$1/reqbench/Cargo.toml"
}
build "$parent" "$work/target-parent"
build "$root" "$root/reqbench/target"

run() { # <side> <pair> <seed>
  local tree bin
  if [[ "$1" == parent ]]; then
    tree="$parent" bin="$work/target-parent/release/reqbench"
  else
    tree="$root" bin="$root/reqbench/target/release/reqbench"
  fi
  local verdict
  verdict=$(cd "$tree" && "$bin" --workload "$workload" --seed "$3" --seconds "$seconds" \
    --trace "$trace" 2>/dev/null | tail -n 1) || true
  # A run that crashed or printed no verdict counts as not correct.
  jq -e 'has("correct")' <<<"$verdict" >/dev/null 2>&1 || verdict='{"correct":false,"metrics":{}}'
  echo "$verdict" >"$runs/$1-$2.json"
  echo "pair $2 seed $3 $1: $(jq -c --arg m "$shown" '[.correct, .metrics[$m].value]' "$runs/$1-$2.json")" >&2
}
pairs_of() { # <workload>: run the pairs, print the summary, count bad runs
  workload="$1"
  runs="$work/runs-$workload$( ((trace)) && echo -trace)-$(date +%Y%m%d-%H%M%S)"
  mkdir -p "$runs"
  for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
      run parent "$i" "$seed"
      run change "$i" "$seed"
    else
      run change "$i" "$seed"
      run parent "$i" "$seed"
    fi
  done

  # One array per side, in pair order, of every run's verdict.
  jq -s . $(for ((i = 0; i < pairs; i++)); do echo "$runs/parent-$i.json"; done) >"$runs/parent.json"
  jq -s . $(for ((i = 0; i < pairs; i++)); do echo "$runs/change-$i.json"; done) >"$runs/change.json"

  echo "$workload: $pairs pairs of ${seconds}s, seeds $first_seed-$((first_seed + pairs - 1)), trace $trace, parent $sha vs working tree"
  jq -r --arg list "$metrics" --slurpfile parent "$runs/parent.json" --slurpfile change "$runs/change.json" '
    def q(p): sort as $s | ((($s | length) - 1) * p) as $h | ($h | floor) as $lo
      | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, ($s | length) - 1] | min] - $s[$lo]);
    # Four decimals, or four significant digits below 1.
    def fmt: if . == null then "null" elif . == 0 then "0"
      else pow(10; [4, 3 - (fabs | log10 | floor)] | max) as $m | . * $m | round / $m | tostring end;
    def side(v): "\(v | q(0.5) | fmt) [\(v | q(0.25) | fmt)-\(v | q(0.75) | fmt)]";
    def pad(n): if n > length then . + (" " * (n - length)) else . end;
    [["metric", "unit", "better", "parent median [q1-q3]", "change median [q1-q3]",
      "change/parent", "change wins"],
     (.[$list][] | .name as $m | .better as $better
      | [$parent[0][] | .metrics[$m].value] as $p
      | [$change[0][] | .metrics[$m].value] as $c
      | [range(0; $p | length)
          | select(if $better == "higher" then $c[.] > $p[.] else $c[.] < $p[.] end)] as $wins
      | [$m, .unit, $better, side($p), side($c),
         (if ($p | q(0.5)) == 0 then "n/a" else (($c | q(0.5)) / ($p | q(0.5)) | fmt) end),
         "\($wins | length)/\($p | length)"])]
    | [range(0; .[0] | length) as $j | [.[][$j] | length] | max] as $w
    | .[] | [range(0; length) as $j | .[$j] | pad($w[$j])] | join("  ")' BENCHMARK.json

  local n
  n=$(jq -s '[.[][] | select(.correct != true)] | length' "$runs/parent.json" "$runs/change.json")
  echo "verdicts: $runs"
  if ((n > 0)); then
    echo "reqbench_pairs: $workload: $n run(s) not \"correct\":true" >&2
  fi
  bad=$((bad + n))
}

bad=0
for w in "${workloads[@]}"; do
  pairs_of "$w"
done
if ((bad > 0)); then
  exit 1
fi
