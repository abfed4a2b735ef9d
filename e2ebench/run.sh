#!/usr/bin/env bash
# Builds the release `tricluster` CLI and the benchmark from source into one
# target directory, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload mine-deep --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh compare A.json... -- B.json...
#
# Run it from the root of a TriCluster checkout. CARGO_TARGET_DIR defaults
# to .bench_build there; run documents and traces land in
# $CARGO_TARGET_DIR/release/e2ebench-out unless --out says otherwise.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
if [[ ! -f Cargo.toml || ! -d crates/cli || ! -d crates/core ]]; then
    echo "e2ebench: run from the root of a TriCluster checkout (crates/cli not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p tricluster-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# Not `exec`: the benchmark reads its children's peak RSS, and an exec'd
# process would inherit the cargo builds' as its own children's.
"$CARGO_TARGET_DIR/release/e2ebench" "$@"
