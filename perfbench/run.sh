#!/usr/bin/env bash
# Builds the `mtsp` binary and the benchmark from source, then runs one
# workload:
#   bash perfbench/run.sh --workload batch-dag --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin mtsp >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --mtsp "$CARGO_TARGET_DIR/release/mtsp" "$@"
