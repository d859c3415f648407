#!/usr/bin/env bash
# Builds the `repro` binary and the benchmark from source, then runs the
# benchmark with the given arguments from the root of the checkout:
#
#   bash perfbench/run.sh --workload grid-sampled --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout. CARGO_TARGET_DIR, when set, holds both builds.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
export CARGO_TARGET_DIR="$target"
cd "$root"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p mbu-bench --bin repro >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/mbu-perfbench" --repro "$target/release/repro" \
    --expected "$here/expected.json" "$@"
