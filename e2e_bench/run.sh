#!/usr/bin/env bash
# Builds `rtec-cli` and the benchmark, then runs the benchmark.
# Run from the repository root:
#   bash e2e_bench/run.sh --workload incr-direct --seed 1 --seconds 15 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p rtec-cli --bin rtec-cli >&2
cargo build --release --quiet --offline --manifest-path e2e_bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2e_bench" --rtec-cli "$CARGO_TARGET_DIR/release/rtec-cli" "$@"
