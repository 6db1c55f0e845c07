#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# given arguments (see README.md). Run from the root of the repository.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/snails-perfbench" "$@"
