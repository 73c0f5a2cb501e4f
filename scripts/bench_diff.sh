#!/usr/bin/env bash
# Diff freshly generated bench artifacts against the committed baselines and
# flag per-cell regressions greater than THRESHOLD percent (default 10).
#
# Covered artifacts:
#   BENCH_comm.json   — comm-optimizer sweep; cells keyed by (model, cluster)
#                       for the fp32 sweep and (model, cluster, dtype) for the
#                       mixed-precision sweep, compared on step seconds.
#   BENCH_search.json — auto-parallel driver; cells keyed by (model,
#                       cluster) for the wide search and (model, cluster,
#                       [narrow]) for the narrow preset, both compared on
#                       best-found seconds per sample (inverse throughput),
#                       so a cell whose arm stops finding its winner is
#                       caught even when the aggregate gates still pass.
#
# Usage:
#   scripts/bench_diff.sh                      # re-run both benches, diff vs HEAD
#   scripts/bench_diff.sh comm.json search.json  # diff existing artifacts
#   THRESHOLD=5 scripts/bench_diff.sh          # tighter tolerance
#
# Exit status: 0 when no cell regressed past the threshold, 1 otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD="${THRESHOLD:-10}"
command -v jq >/dev/null || { echo "bench_diff: jq not found" >&2; exit 2; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
status=0

# diff_cells <baseline> <fresh> <jq cellmap expr> — compare two artifacts on
# a flat {cell -> lower-is-better metric} map produced by the jq expression.
diff_cells() {
  local baseline="$1" fresh="$2" cellmap="$3"
  jq -n -r --argjson thr "$THRESHOLD" \
    --slurpfile base "$baseline" --slurpfile fresh "$fresh" "
    def cellmap(d): $cellmap;
    "'cellmap($base[0]) as $b | cellmap($fresh[0]) as $f |
    [ $f | to_entries[] | select($b[.key] != null)
        | {cell: .key, base: $b[.key], fresh: .value,
           pct: ((.value / $b[.key] - 1) * 100)} ] as $rows |
    ($rows | map(select(.pct > $thr))) as $regressions |
    ( $rows[] | "\(if .pct > $thr then "REGRESSION" else "ok" end)\t\(.cell)\t" +
        "\(.base | tostring | .[0:8])s -> \(.fresh | tostring | .[0:8])s\t" +
        "\(.pct | . * 100 | round / 100)%" ),
    "---",
    "\($rows | length) cell(s) compared, \($regressions | length) regression(s) over \($thr)%",
    ( [ $f | keys[] | select($b[.] == null) ] | select(length > 0)
        | "new cells (no baseline): \(join(", "))" ) // empty,
    ( [ $b | keys[] | select($f[.] == null) ] | select(length > 0)
        | "dropped cells (baseline only): \(join(", "))" ) // empty,
    (if ($regressions | length) > 0 then "FAIL" else "PASS" end)
  ' | {
    local section_status=0
    while IFS= read -r line; do
      case "$line" in
        FAIL) section_status=1 ;;
        PASS) ;;
        *) printf '%s\n' "$line" ;;
      esac
    done
    return "$section_status"
  }
}

# --- comm optimizer ---------------------------------------------------------
comm_baseline="$tmp/comm_baseline.json"
if git show HEAD:BENCH_comm.json > "$comm_baseline" 2>/dev/null; then
  comm_fresh="${1:-}"
  if [[ -z "$comm_fresh" ]]; then
    echo "bench_diff: regenerating BENCH_comm.json (release run, asserts its own gates)..."
    cargo run -q --release --offline -p whale-bench --bin comm_bench >/dev/null
    comm_fresh=BENCH_comm.json
  fi
  [[ -r "$comm_fresh" ]] || { echo "bench_diff: cannot read $comm_fresh" >&2; exit 2; }
  echo "== BENCH_comm.json (step seconds per cell)"
  diff_cells "$comm_baseline" "$comm_fresh" '
    [ (d.cells // [])[]
        | {key: "\(.model) @ \(.cluster)", value: .bucketed_step_s} ]
    + [ (d.mixed_precision_cells // [])[]
        | {key: "\(.model) @ \(.cluster) [\(.grad_dtype)]", value: .step_s} ]
    | from_entries' || status=1
else
  echo "bench_diff: no committed BENCH_comm.json at HEAD (skipping)" >&2
fi

# --- strategy search --------------------------------------------------------
search_baseline="$tmp/search_baseline.json"
if git show HEAD:BENCH_search.json > "$search_baseline" 2>/dev/null; then
  search_fresh="${2:-}"
  if [[ -z "$search_fresh" ]]; then
    echo "bench_diff: regenerating BENCH_search.json (release run, asserts its own gates)..."
    cargo run -q --release --offline -p whale-bench --bin search_bench >/dev/null
    search_fresh=BENCH_search.json
  fi
  [[ -r "$search_fresh" ]] || { echo "bench_diff: cannot read $search_fresh" >&2; exit 2; }
  echo "== BENCH_search.json (best-found seconds per sample per cell)"
  diff_cells "$search_baseline" "$search_fresh" '
    [ (d.cells // [])[]
        | {key: "\(.model) @ \(.cluster)", value: (1 / .search.throughput)} ]
    + [ (d.cells // [])[]
        | {key: "\(.model) @ \(.cluster) [narrow]", value: (1 / .narrow.throughput)} ]
    | from_entries' || status=1
else
  echo "bench_diff: no committed BENCH_search.json at HEAD (skipping)" >&2
fi

exit "$status"
