#!/usr/bin/env bash
# Benchmark invariant gate — runs the `parallel` and `service` benches
# and fails on broken *invariants*, never on timings.
#
# CI machines have noisy, heterogeneous performance, so asserting "the
# parallel path is N× faster" would flake. Two properties are load-
# bearing and machine-independent, and those are what this gate checks
# in the emitted BENCH_parallel.json:
#
#   1. bit_identical == true — the parallel collect/evaluate paths and
#      the batched GEMM inference path produced byte-identical results
#      to their sequential/scalar counterparts (the determinism
#      contract; a timing-independent correctness assertion).
#   2. batch_infer speedup >= 1.0 — batched inference amortises GEMM
#      setup algorithmically, so it must not be slower than per-sample
#      inference even on a single-CPU host. A regression below 1.0
#      means the batching path stopped paying for itself.
#
# It also checks the report carries both parallelism fields
# (host_parallelism from /proc/cpuinfo, available_parallelism from the
# runtime) so speedup columns stay interpretable on pinned CI shards.
#
#   ci/bench_gate.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# The benches write their reports over the committed BENCH_parallel.json
# and BENCH_service.json. Move the committed copies aside, so each check
# below reads what its bench just wrote (a bench that writes nothing
# fails), and put them back when the gate ends, pass or fail, so the
# tree is as clean as before.
saved="$(mktemp -d)"
mv BENCH_parallel.json BENCH_service.json "$saved/"
trap 'mv -f "$saved"/BENCH_parallel.json "$saved"/BENCH_service.json . && rm -rf "$saved"' EXIT

echo "== bench gate: parallel invariants =="
cargo bench -q --offline -p scnn-bench --bench parallel

report="BENCH_parallel.json"
[ -f "$report" ] || { echo "FAIL: $report was not written"; exit 1; }

grep -q '"bit_identical": true' "$report" \
  || { echo "FAIL: bit_identical is not true"; cat "$report"; exit 1; }

grep -q '"host_parallelism": [0-9]' "$report" \
  || { echo "FAIL: host_parallelism missing"; cat "$report"; exit 1; }
grep -q '"available_parallelism": [0-9]' "$report" \
  || { echo "FAIL: available_parallelism missing"; cat "$report"; exit 1; }
grep -q '"degraded_host": \(true\|false\)' "$report" \
  || { echo "FAIL: degraded_host flag missing"; cat "$report"; exit 1; }

# On an effectively single-CPU host the "parallel" arms time-slice one
# core, so the speedup columns measure scheduler overhead, not
# parallelism. Skip any judgement of them — loudly, so a reader of the
# CI log knows the columns were not vouched for on this shard.
if grep -q '"degraded_host": true' "$report"; then
  echo "=============================================================================="
  echo "SKIP: degraded host (host/available parallelism is 1)."
  echo "      The threads_1 vs threads_n speedup columns in $report"
  echo "      measure time-slicing overhead on this shard, not parallel scaling."
  echo "      Determinism (bit_identical) and single-thread invariants still gate."
  echo "=============================================================================="
fi

# batch_infer_ms.speedup >= 1.0: extract the last "speedup" value on the
# batch_infer_ms line and compare with awk (no bc dependency).
speedup="$(grep '"batch_infer_ms"' "$report" | sed 's/.*"speedup": \([0-9.]*\).*/\1/')"
[ -n "$speedup" ] || { echo "FAIL: batch_infer speedup missing"; cat "$report"; exit 1; }
awk -v s="$speedup" 'BEGIN { exit (s >= 1.0) ? 0 : 1 }' \
  || { echo "FAIL: batch_infer speedup $speedup < 1.0"; cat "$report"; exit 1; }

echo "== bench gate: service invariants =="
cargo bench -q --offline -p scnn-bench --bench service

service_report="BENCH_service.json"
[ -f "$service_report" ] || { echo "FAIL: $service_report was not written"; exit 1; }

# The service bench asserts exactly-once delivery and warm==cold
# byte-identity internally (a violation aborts before the JSON is
# written); the gate re-checks the recorded outcome so a stale or
# hand-edited report cannot pass.
grep -q '"lost": 0, "duplicated": 0' "$service_report" \
  || { echo "FAIL: service bench lost or duplicated jobs"; cat "$service_report"; exit 1; }
grep -q '"warm_equals_cold": true' "$service_report" \
  || { echo "FAIL: warm service output diverged from cold"; cat "$service_report"; exit 1; }
grep -q '"total": 200' "$service_report" \
  || { echo "FAIL: service bench did not queue 200 jobs"; cat "$service_report"; exit 1; }
grep -q '"ok": 200' "$service_report" \
  || { echo "FAIL: service bench jobs failed"; cat "$service_report"; exit 1; }

# Warm submissions dominate 8 cold arms 24:1, so the shared-cache hit
# rate must be high. The exact value depends on how many racing
# submissions of one arm start before its first write commits, so gate
# on a conservative floor rather than a point value.
hit_rate="$(grep '"cache"' "$service_report" | sed 's/.*"hit_rate": \([0-9.]*\).*/\1/')"
[ -n "$hit_rate" ] || { echo "FAIL: cache hit_rate missing"; cat "$service_report"; exit 1; }
awk -v h="$hit_rate" 'BEGIN { exit (h >= 0.5) ? 0 : 1 }' \
  || { echo "FAIL: service cache hit rate $hit_rate < 0.5"; cat "$service_report"; exit 1; }

echo "bench gate OK (bit_identical, batch_infer speedup $speedup, service hit rate $hit_rate)"
