#!/usr/bin/env bash
# qosbench: the one command of the benchmark (see README.md beside this).
#
#   benchmark/run.sh [--seed N] [--seconds S]       all four workloads, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                   one pass, one JSON line (BENCHMARK.json)
#   benchmark/run.sh --compare A.json B.json        regression table of two results files
#
# Builds the release `ssq` binary from the repository root and this
# package's `qosbench` and `fabric-run` into one target directory
# (CARGO_TARGET_DIR, default <repo>/target), then hands over to qosbench.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin ssq >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/qosbench" "$@"
