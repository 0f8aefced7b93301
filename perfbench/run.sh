#!/usr/bin/env bash
# Builds the evcap binary and the benchmark (release), then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Both builds share CARGO_TARGET_DIR (default .bench_build). Cargo's
# output goes to stderr; the last line on stdout is the result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "perfbench: run from the evcap repository root" >&2
  exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p evcap-cli
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --evcap "$CARGO_TARGET_DIR/release/evcap" "$@"
