#!/usr/bin/env bash
# Tier-1 gate: the one list of checks, run as is by
# .github/workflows/ci.yml and locally.
#
# The workspace is hermetic (zero external crates), so every cargo step
# runs with --offline / CARGO_NET_OFFLINE=true: a step that needs the
# network is a regression, not an inconvenience. Run from the repo root:
#
#   ci/check.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

step() { printf '\n== %s ==\n' "$*"; }
repro() { cargo run --release --offline -q -p scnn-bench --bin repro -- "$@"; }
lint() { cargo run --release --offline -q -p scnn-bench --bin lint -- "$@"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

step "cargo build --release --offline"
cargo build --release --offline --workspace

step "cargo doc (-D warnings: broken and private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "cargo test --offline"
# Includes, in debug, the batch-size invariance suite (scnn-nn --test
# batch), the training-trajectory pin (--test train_pin) and the
# simulated-count pin (scnn-core --test count_pin).
cargo test -q --offline --workspace

step "release-build kernel tests (the optimised, vectorised code that ships: tensor kernels bit for bit, batch-size invariance, training pin, simulator closed forms, count pin, and the shipped fast paths on every zoo preset)"
# The debug-build run above does not autovectorise; the GEMM tiles and
# im2col row segments must also hold bit for bit as release compiles them.
# The simulator's way hints, fill queues and closed-form chunks ship
# optimised too: its differential tests and its hand-computed unit
# tests run in release, and zoo_differential and oblivious_runs drive
# them through real traced inferences on every preset.
cargo test -q --release --offline -p scnn-tensor
cargo test -q --release --offline -p scnn-nn --test batch
cargo test -q --release --offline -p scnn-nn --test train_pin
cargo test -q --release --offline -p scnn-uarch
cargo test -q --release --offline -p scnn-core --test count_pin
cargo test -q --release --offline -p scnn-core --test zoo_differential --test oblivious_runs

step "perfbench self-tests (readings digest and exact traced counts repeat, traced or not)"
# perfbench is a package of its own, outside the workspace above.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

step "repro smoke run (tiny scale, threads 1 vs 4 must be byte-identical)"
out="$(repro table1 --quick --samples 8 --threads 1)"
out4="$(repro table1 --quick --samples 8 --threads 4)"
printf '%s\n' "$out"
printf '%s' "$out" | grep -q "ALARM" || { echo "FAIL: no alarm raised"; exit 1; }
printf '%s' "$out" | grep -q "cache-misses" || { echo "FAIL: cache-misses absent"; exit 1; }
diff <(printf '%s' "$out") <(printf '%s' "$out4") \
  || { echo "FAIL: report differs between --threads 1 and --threads 4"; exit 1; }

step "telemetry smoke run (observation-only: stdout must not change)"
telemetry_json="$(mktemp)"
out_tel="$(repro table1 --quick --samples 8 --threads 4 --telemetry "$telemetry_json")"
diff <(printf '%s' "$out4") <(printf '%s' "$out_tel") \
  || { echo "FAIL: report differs with --telemetry on"; exit 1; }
lint telemetry "$telemetry_json" || { echo "FAIL: telemetry JSON did not lint"; exit 1; }
grep -q '"name":"pipeline.train"' "$telemetry_json" \
  || { echo "FAIL: telemetry missing the train phase span"; exit 1; }
grep -q '"name":"collect.samples"' "$telemetry_json" \
  || { echo "FAIL: telemetry missing the collect.samples counter"; exit 1; }
rm -f "$telemetry_json"

step "artifact cache (warm rerun skips training, stdout byte-identical)"
cache_dir="$(mktemp -d)"
cold_err="$(mktemp)"
warm_err="$(mktemp)"
out_cold="$(repro table1 --quick --samples 8 --threads 4 --cache-dir "$cache_dir" 2>"$cold_err")"
out_warm="$(repro table1 --quick --samples 8 --threads 4 --cache-dir "$cache_dir" 2>"$warm_err")"
grep -q "model miss — trained and stored" "$cold_err" \
  || { echo "FAIL: cold run did not report a model miss"; cat "$cold_err"; exit 1; }
grep -q "model hit — training skipped" "$warm_err" \
  || { echo "FAIL: warm run did not skip training"; cat "$warm_err"; exit 1; }
diff <(printf '%s' "$out_cold") <(printf '%s' "$out_warm") \
  || { echo "FAIL: report differs between cold and warm cache runs"; exit 1; }
diff <(printf '%s' "$out4") <(printf '%s' "$out_cold") \
  || { echo "FAIL: report differs between cached and uncached runs"; exit 1; }
rm -rf "$cache_dir" "$cold_err" "$warm_err"

step "uarch preset zoo lints (strict parse + canonical round-trip)"
lint uarch || { echo "FAIL: embedded presets did not lint"; exit 1; }
lint uarch crates/core/presets/*.json || { echo "FAIL: preset files did not lint"; exit 1; }

step "hostile uarch fixtures (typed, field-named rejection: no panic, no abort)"
# lint exits 1 on a rejected config; a panic would exit 101 and an
# allocation abort 134.
hostile_lint() {  # <fixture> <fragment the error must contain>
  local err status=0
  err="$(lint uarch "$1" 2>&1)" || status=$?
  [ "$status" -eq 1 ] \
    || { echo "FAIL: lint uarch exited $status on $1, want 1"; printf '%s\n' "$err"; exit 1; }
  printf '%s' "$err" | grep -qF "$2" \
    || { echo "FAIL: error for $1 does not contain $2"; printf '%s\n' "$err"; exit 1; }
  printf '%s\n' "$err"
}
hostile_lint ci/fixtures/hostile-assoc-128.json 'field "l1d": assoc 128'
hostile_lint ci/fixtures/hostile-llc-1tib.json 'field "l3": size_bytes'

step "campaign smokes: sweep, extract, frontier (every arm, cold/warm byte-identical, warm run skips train/collect, JSON)"
# One smoke per multi-arm campaign: a cold run and a warm run against one
# cache, every arm named on stdout and in the --out JSON, identical
# stdout, no train/collect span but every per-arm span in the warm run's
# telemetry, and the --out JSON through `lint <kind>` (if any). The
# run's files stay in $campaign_dir for the campaign's own checks.
campaign_smoke() {  # <command> <per-arm span> <JSON arm key> <lint kind or ""> <arm>...
  local cmd="$1" span="$2" key="$3" kind="$4" arm
  shift 4
  campaign_dir="$(mktemp -d)"
  local run=(repro "$cmd" --quick --samples 8 --threads 4
             --cache-dir "$campaign_dir/cache" --out "$campaign_dir/out.json")
  "${run[@]}" > "$campaign_dir/cold.out"
  "${run[@]}" --telemetry "$campaign_dir/telemetry.json" > "$campaign_dir/warm.out"
  cat "$campaign_dir/cold.out"
  for arm in "$@"; do
    grep -q -- "$arm" "$campaign_dir/cold.out" \
      || { echo "FAIL: $cmd table missing arm $arm"; exit 1; }
    grep -q "\"$key\":\"$arm\"" "$campaign_dir/out.json" \
      || { echo "FAIL: $cmd JSON missing arm row $arm"; exit 1; }
  done
  diff "$campaign_dir/cold.out" "$campaign_dir/warm.out" \
    || { echo "FAIL: $cmd stdout differs between cold and warm cache runs"; exit 1; }
  if grep -q '"name":"pipeline.train"' "$campaign_dir/telemetry.json"; then
    echo "FAIL: warm $cmd re-trained the model"; exit 1
  fi
  if grep -q '"name":"pipeline.collect"' "$campaign_dir/telemetry.json"; then
    echo "FAIL: warm $cmd re-collected observations"; exit 1
  fi
  grep -q "\"name\":\"$span\"" "$campaign_dir/telemetry.json" \
    || { echo "FAIL: $cmd telemetry missing per-arm $span spans"; exit 1; }
  if [ -n "$kind" ]; then
    lint "$kind" "$campaign_dir/out.json" || { echo "FAIL: $cmd JSON did not lint"; exit 1; }
  fi
}

campaign_smoke sweep sweep.preset preset "" xeon-like mobile-like embedded-like xeon-plru
# The zoo must actually separate platforms: at least two distinct
# distinguishable-pair counts across presets.
distinct="$(grep -o '"distinguishable_pairs":[0-9]*' "$campaign_dir/out.json" | sort -u | wc -l)"
[ "$distinct" -ge 2 ] \
  || { echo "FAIL: all presets report identical distinguishable-pair counts"; cat "$campaign_dir/out.json"; exit 1; }
rm -rf "$campaign_dir"

campaign_smoke extract extract.arm arm extract unprotected constant-time noise-injection combined
grep -q "victim (ground truth)" "$campaign_dir/cold.out" \
  || { echo "FAIL: extraction output missing the ground-truth line"; exit 1; }
rm -rf "$campaign_dir"

campaign_smoke frontier frontier.arm arm frontier baseline constant-time shuffle \
  noise-injection decoy-inference oblivious-shape calibrated-noise
grep -q "pareto frontier: [a-z]" "$campaign_dir/cold.out" \
  || { echo "FAIL: frontier printed an empty Pareto set"; exit 1; }
rm -rf "$campaign_dir"

step "campaign trains once (uncached frontier records exactly one training span)"
frontier_tel="$(mktemp)"
repro frontier --quick --samples 8 --threads 1 --telemetry "$frontier_tel" > /dev/null
trained="$(grep -o '"name":"pipeline.train"' "$frontier_tel" | wc -l)"
[ "$trained" -eq 1 ] \
  || { echo "FAIL: uncached frontier recorded $trained training spans, want 1"; exit 1; }
rm -f "$frontier_tel"

step "repro all trains each victim once (uncached run records exactly three training spans)"
# MNIST CNN, CIFAR-10 CNN and the archs arm's MNIST MLP: every artefact
# and campaign on one of those model keys reuses the runner's model.
all_tel="$(mktemp)"
repro all --quick --samples 8 --threads 1 --telemetry "$all_tel" > /dev/null
trained="$(grep -o '"name":"pipeline.train"' "$all_tel" | wc -l)"
[ "$trained" -eq 3 ] \
  || { echo "FAIL: uncached repro all recorded $trained training spans, want 3"; exit 1; }
rm -f "$all_tel"

step "evaluation service smoke (concurrent jobs, shared cache, byte-identical to direct runs)"
serve_dir="$(mktemp -d)"
cat > "$serve_dir/jobs.ndjson" <<'EOF'
{"id":"a","command":"table1","quick":true,"samples":8,"threads":1}
{"id":"b","command":"table1","quick":true,"samples":8,"threads":1}
{"id":"c","command":"table2","quick":true,"samples":8,"threads":1}
{"id":"bye","command":"shutdown"}
EOF
repro serve --jobs "$serve_dir/jobs.ndjson" --workers 3 \
      --cache-dir "$serve_dir/cache" --job-stdout-dir "$serve_dir/out" \
      --out "$serve_dir/report.json" \
      > "$serve_dir/responses.ndjson" 2> "$serve_dir/serve.err" \
  || { echo "FAIL: repro serve exited non-zero"; cat "$serve_dir/serve.err"; exit 1; }
repro table1 --quick --samples 8 --threads 1 > "$serve_dir/direct_table1.out"
repro table2 --quick --samples 8 --threads 1 > "$serve_dir/direct_table2.out"
# Per-job stdout must be byte-identical to the equivalent direct CLI run,
# and the two jobs sharing one cache key must agree with each other.
diff "$serve_dir/direct_table1.out" "$serve_dir/out/a.out" \
  || { echo "FAIL: service job a differs from direct table1 run"; exit 1; }
diff "$serve_dir/out/a.out" "$serve_dir/out/b.out" \
  || { echo "FAIL: jobs a and b (same cache key) produced different output"; exit 1; }
diff "$serve_dir/direct_table2.out" "$serve_dir/out/c.out" \
  || { echo "FAIL: service job c differs from direct table2 run"; exit 1; }
# Every job answered exactly once, shutdown honoured.
ok_count="$(grep -c '"status":"ok"' "$serve_dir/responses.ndjson")"
[ "$ok_count" -eq 4 ] \
  || { echo "FAIL: expected 4 ok responses, got $ok_count"; cat "$serve_dir/responses.ndjson"; exit 1; }
grep -q '"jobs":4' "$serve_dir/report.json" && grep -q '"shutdown":true' "$serve_dir/report.json" \
  || { echo "FAIL: service report accounting wrong"; cat "$serve_dir/report.json"; exit 1; }
# Concurrency hygiene: committed artifacts only — no orphaned tmp files,
# nothing quarantined.
leftover_tmp="$(find "$serve_dir/cache" -name '.tmp-*' | wc -l)"
[ "$leftover_tmp" -eq 0 ] \
  || { echo "FAIL: $leftover_tmp orphaned .tmp files in the shared cache"; exit 1; }
quarantined="$(find "$serve_dir/cache/quarantine" -type f 2>/dev/null | wc -l)"
[ "$quarantined" -eq 0 ] \
  || { echo "FAIL: $quarantined artifacts quarantined during the smoke run"; exit 1; }
rm -rf "$serve_dir"

step "bench invariant gate (bit_identical, batch-inference speedup, service delivery)"
ci/bench_gate.sh

step "all checks passed"
