#!/usr/bin/env bash
# Prints the end-to-end metrics of every workload by name, with units,
# and each workload's failed-op share.
#
# Usage: bash perfbench/summary.sh [seed] [seconds]   (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-30}
for workload in paper-tables uarch-zoo defended-frontier; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | sed '$d'
done
