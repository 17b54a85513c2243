#!/usr/bin/env bash
# Build the `sepdc` daemon and the benchmark from source, then run the
# benchmark with the given arguments, from the repository root:
#
#   bash bench_layers/run.sh --workload serve-read --seed 7 --seconds 10 --trace 0
#
# Both binaries go to the same target directory ($CARGO_TARGET_DIR, by
# default .bench_build), because the benchmark finds `sepdc` next to
# itself. Build output goes to stderr; the last stdout line is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p sepdc-cli --bin sepdc >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/bench_layers" "$@"
