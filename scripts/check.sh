#!/usr/bin/env bash
# Tier-1 verification: build, test, and style gate for the whole workspace.
# Run from the repo root (or let the cd below handle it). Offline by design —
# the workspace has no network-fetched dev dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test --workspace -q --offline
cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --document-private-items

# Examples: clippy --all-targets only type-checks them, so run each one and
# fail on a non-zero exit (pipeline_timeline and m6_pipeline print
# ascii_timeline). Their output is not checked.
for example in examples/*.rs; do
  cargo run -q --release --offline --example "$(basename "$example" .rs)" >/dev/null
done

# Concurrent-serving smoke test: small workload, asserts single-flight and
# counter consistency; no performance threshold (see EXPERIMENTS.md for the
# full sweep).
cargo run -q --release --offline -p whale-bench --bin serve_bench -- --quick

# Comm-optimizer smoke test: asserts fusion-off bit-identity, bucket
# telescoping, a >1x bucketed speedup on a bandwidth-bound cluster, and one
# mixed-precision cell (bf16 wire bytes telescope to half the payload and
# beat fp32 bucketed on a saturated network); the gated sweep lives in
# comm_bench's default mode (see EXPERIMENTS.md). To compare a fresh
# BENCH_comm.json against the committed baseline, run scripts/bench_diff.sh.
cargo run -q --release --offline -p whale-bench --bin comm_bench -- --quick

# Fleet smoke test: shrunken multi-tenant run (elastic + kill-and-requeue on
# the same churn) plus a small concurrent compile burst; asserts bounded
# recovery, zero failed jobs, and zero hung burst requests. The 1.5x elastic
# goodput gate is fleet_bench's default mode (see EXPERIMENTS.md).
cargo run -q --release --offline -p whale-bench --bin fleet_bench -- --quick

# Strategy-search smoke test: 3-model single-cluster matrix; asserts the
# branch-and-bound search never loses a cell to the narrow enumeration,
# strictly beats it somewhere, bounds >=50% of leaves without planning, and
# stays within a noise-padded wall-clock ratio. The full gated matrix
# (<=3x wall clock over >=20x the strategies) is search_bench's default
# mode and its artifact BENCH_search.json is committed; compare against
# the baseline with scripts/bench_diff.sh.
cargo run -q --release --offline -p whale-bench --bin search_bench -- --quick

# Request benchmark (reqbench/, a Cargo workspace of its own that
# `cargo test --workspace`, `cargo fmt` and `cargo clippy --workspace` do not
# reach): its unit tests and the same style gate, then a 1 s smoke run of
# each workload, untraced and traced. The traced run takes paths the
# untraced one does not: `cold-plan` compiles through
# `CompilePipeline::with_passes` and `plan-serve` keys with `PlanKey::new`
# before `plan_keyed`; its trace file lands in reqbench/out/. A run with
# failed requests still exits 0 and prints "correct":false, so each run
# fails the gate unless its last stdout line (the JSON verdict) reports
# "correct":true.
cargo test --offline -q --manifest-path reqbench/Cargo.toml
cargo fmt --check --manifest-path reqbench/Cargo.toml
cargo clippy --offline --all-targets --manifest-path reqbench/Cargo.toml -- -D warnings
for workload in cold-plan auto-search plan-serve fault-recovery; do
  for trace in 0 1; do
    verdict=$(cargo run -q --release --offline --manifest-path reqbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    if ! grep -q '"correct":true' <<<"$verdict"; then
      echo "reqbench $workload smoke run (--trace $trace) failed: $verdict" >&2
      exit 1
    fi
  done
done
