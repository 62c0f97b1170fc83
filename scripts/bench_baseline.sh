#!/usr/bin/env bash
# Records the benchmark baseline used by the regression harness.
#
#   scripts/bench_baseline.sh               # rewrite BENCH_baseline.json
#   scripts/bench_baseline.sh check         # run now and diff against it
#
# The recorded set covers the kernel hot path (event dispatch at queue
# depth, and in-place Reschedule of pending handles — the flow solver's
# re-rate pattern), the figure-level scheduler workload, the
# flow-solver churn path (incremental component re-solve), the
# firewall classifier (linear scan vs hash index over a 50k-rule
# table), the obs-registry update paid on instrumented transmit
# paths, the swarm-scale family (megaswarm peers/sec plus the bt
# per-event hot paths), and the snapshot-sync family (few peers, huge
# file, token-bucket caps, web seed): the benchmarks whose trajectory
# the queue/pooling/flow/classifier/observability/hot-loop/rate-limit
# work is expected to move. Compare machines with a grain of salt —
# the baseline is only meaningful against runs on comparable hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='BenchmarkKernelModes|BenchmarkKernelQueues|BenchmarkFig1SchedulerScaling|BenchmarkSweep|BenchmarkFlowChurn|BenchmarkRuleEval|BenchmarkObsHot|BenchmarkSwarmScaleHot|BenchmarkSnapshotSync'
OUT=BENCH_baseline.json

run() {
  # BenchmarkSwarmScaleHot lives in internal/bt; everything else in
  # the root package.
  go test -run=NONE -bench "$PATTERN" -benchmem -benchtime=1s -count=1 . ./internal/bt/
  # The megaswarm points run whole horizon-bounded swarms: one
  # iteration each (the 10k point alone is minutes of wall time).
  go test -run=NONE -bench 'BenchmarkSwarmScale$' -benchmem -benchtime=1x \
    -timeout 30m -count=1 .
}

# Hot-path updates must stay allocation-free: fail if any variant of
# the given benchmark family reports a nonzero allocs/op. Applied to
# the obs-registry update (DESIGN.md decision 9) and to the bt
# per-event hot paths — Have/interest and piece picking (DESIGN.md
# decision 10).
gate_zero_alloc() {
  local raw=$1 family=$2 what=$3
  # A family that produced no output is a failure too — otherwise a
  # package dropped from the bench run would pass the gate vacuously.
  if ! grep -qE "^${family}/" "$raw"; then
    echo "$what: no benchmark output found for ${family}" >&2
    return 1
  fi
  if grep -E "^${family}/" "$raw" | grep -vq ' 0 allocs/op'; then
    echo "$what allocates:" >&2
    grep -E "^${family}/" "$raw" >&2
    return 1
  fi
}

# Families that carry a regression contract must actually run: a
# rename or a pattern typo silently dropping one would let later
# regressions land ungated.
gate_present() {
  local raw=$1 family=$2 what=$3
  if ! grep -qE "^${family}/" "$raw"; then
    echo "$what: no benchmark output found for ${family}" >&2
    return 1
  fi
}

gate_all() {
  local raw=$1
  gate_zero_alloc "$raw" BenchmarkObsHot 'obs hot-path update'
  gate_zero_alloc "$raw" BenchmarkSwarmScaleHot 'bt swarm hot path'
  gate_present "$raw" BenchmarkSnapshotSync 'snapshot-sync family'
  gate_present "$raw" BenchmarkKernelQueues 'kernel event-queue family'
}

case "${1:-record}" in
  record)
    raw=$(mktemp)
    trap 'rm -f "$raw"' EXIT
    run | tee "$raw" | go run ./cmd/benchjson > "$OUT"
    gate_all "$raw"
    echo "wrote $OUT"
    ;;
  check)
    tmp=$(mktemp) raw=$(mktemp)
    trap 'rm -f "$tmp" "$raw"' EXIT
    run | tee "$raw" | go run ./cmd/benchjson > "$tmp"
    gate_all "$raw"
    # The churn benchmark is the flow solver's fast-path contract
    # (ISSUE 6: batched re-rates): pin it tighter than the global
    # tolerance so the batching win cannot silently erode.
    go run ./cmd/benchjson -diff \
      -ratio 'BenchmarkFlowChurn/components=1=1.15' "$OUT" "$tmp"
    ;;
  *)
    echo "usage: $0 [record|check]" >&2
    exit 2
    ;;
esac
