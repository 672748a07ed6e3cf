#!/usr/bin/env bash
# Builds the harness (release, offline) and runs it with the given arguments.
# Run from the repository root: `bash benchmark/run.sh --workload online-churn`.
# See benchmark/README.md for the arguments and the metrics.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr so that the last stdout line is the result.
cargo build --release --offline --quiet --manifest-path "$manifest" --target-dir "$target" 1>&2
export APPLE_BENCHMARK_DIR="$here"
exec "$target/release/apple-benchmark" "$@"
