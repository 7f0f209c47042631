#!/usr/bin/env bash
# The full static + dynamic verification gate, in escalating order of
# cost. Everything here runs offline; a clean exit means the tree is
# shippable.
#
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate must leave the tree as it found it. The one file it is known
# to touch is the frozen benchmark/Cargo.lock (cargo prunes two stale
# lines on every build of that package), so its bytes are put back
# however the gate ends, and the last step compares `git status`.
tree_before="$(git status --porcelain)"
lock_before="$(mktemp)"
cp benchmark/Cargo.lock "$lock_before"
trap 'cp "$lock_before" benchmark/Cargo.lock; rm -f "$lock_before"' EXIT

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== clippy (stock lints at the scopes DESIGN.md section 10 tabulates) =="
# The workspace lints table in Cargo.toml, the `deny` attribute at each
# crate root and the module-level one on the decide kernel; a stale
# `#[expect]` fails here too.
cargo clippy --offline --workspace --lib --bins -- -D warnings

echo "== the four in-tree rules (ssq-lint via xtask) =="
# What no stock lint expresses; any finding fails.
cargo run --quiet -p xtask -- lint

echo "== sanitizer: V1-V6 asserted on the hot path under both conformance batteries =="
# The `sanitizer` feature compiles the model checker's invariant
# predicates into every arbitration; the two engine batteries then run
# a few hundred seeded scenarios through them (about 20 s, debug),
# holding the sequential, sharded parallel and bitpar engines to the
# scalar reference kernel (QosSwitch::step_reference) bit for bit. The
# tests step below runs both batteries again without the sanitizer.
cargo test -q --features sanitizer --test bitpar_conformance --test par_conformance

echo "== release build =="
cargo build --workspace --release

echo "== model check, fast tier (ssq verify) =="
# Every reachable state of the radix-2 scenario battery, checked
# against the V1-V6 invariant catalog; a violation prints its minimal
# counterexample as replayable JSONL and fails.
./target/release/ssq verify

echo "== fault smoke tier (ssq faults) =="
# Every single-fault chaos scenario must either preserve its bounds or
# revoke loudly; a silent violation fails the gate. Each scenario runs
# on the reference kernel, the sequential runner and the sharded
# parallel engine (a watchdogged run is dense, so idle skipping has no
# leg here) — any divergence from the reference is reported as a silent
# violation.
./target/release/ssq faults --smoke --csv

echo "== multi-hop fabric smoke tier (ssq net) =="
# Every topology-fault scenario (dead links, MTBF flaps, node
# partitions — across credit, lossy, and NACK link disciplines) must
# either preserve its end-to-end bounds or revoke loudly at a named
# hop. Each scenario runs twice from the same seed, with sleeping nodes
# and on the dense oracle that steps every node every cycle; any
# divergence is reported as a silent violation.
./target/release/ssq net --smoke --csv

echo "== tests =="
cargo test -q --workspace

echo "== frozen benchmark against this tree (qosbench) =="
# benchmark/ is a package of its own with a path dependency on this
# tree and may not change with it: building and testing it here catches
# public-API drift (CycleModel, EventModel, ShardedModel, the runners,
# the arbiter peeks) before the benchmark pipeline does. qosbench is
# also the source of every performance claim (benchmark/README.md).
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== the gate left the tree as it found it =="
cp "$lock_before" benchmark/Cargo.lock
tree_after="$(git status --porcelain)"
if [ "$tree_after" != "$tree_before" ]; then
    echo "scripts/check.sh changed the working tree:" >&2
    diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
    exit 1
fi

echo "All checks passed."
