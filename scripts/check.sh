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
# The smoke tiers' event traces, read back by trace-report below.
traces="$(mktemp -d)"
trap 'cp "$lock_before" benchmark/Cargo.lock; rm -f "$lock_before"; rm -rf "$traces"' EXIT

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== clippy (stock lints at the scopes DESIGN.md section 10 tabulates) =="
# The workspace lints table in Cargo.toml, the `deny` attribute at each
# crate root and the module-level one on the decide kernel; a stale
# `#[expect]` fails here too. Every target: tests, benches and
# examples are held to the same lints as the libraries.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc: every intra-doc link resolves =="
# A link to a missing or private item is an error, so a deletion or a
# move that leaves a doc pointing at nothing fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== the four in-tree rules (ssq-lint via xtask) =="
# What no stock lint expresses; any finding fails.
cargo run --quiet -p xtask -- lint

echo "== sanitizer: V1-V6 asserted on the hot path under the conformance battery =="
# The `sanitizer` feature compiles the model checker's invariant
# predicates into every arbitration; the engine battery then runs a few
# hundred seeded scenarios through them (about 20 s, debug), holding
# the sequential, sharded and bitpar engines to the scalar reference
# kernel (QosSwitch::step_reference) bit for bit, and the kernel's VCD
# waveform against the reference's. The tests step below runs both again
# without the sanitizer.
cargo test -q --features sanitizer --test kernel_conformance --test bitpar_conformance

echo "== release build =="
cargo build --workspace --release

echo "== paper reports are goldens (results/) =="
# Rewrites the 13 committed reports from the binaries just built; a
# report that no longer matches its binary shows up in the git status
# comparison at the end. Bless an intended change with
# `SSQ_SKIP_CHECK=1 ./scripts/reproduce.sh` and commit the files.
SSQ_SKIP_CHECK=1 ./scripts/reproduce.sh >/dev/null

echo "== model check, fast tier (ssq verify) =="
# Every reachable state of the radix-2 scenario battery, checked
# against the V1-V6 invariant catalog; a violation prints its minimal
# counterexample as replayable JSONL and fails.
./target/release/ssq verify

echo "== fault smoke tier (ssq faults) =="
# Every single-fault chaos scenario must either preserve its bounds or
# revoke loudly; a silent violation fails the gate. Each scenario runs
# on the reference kernel and on the sequential runner (a watchdogged
# run is dense, so idle skipping has no leg here) — any divergence from
# the reference is reported as a silent violation. The table is a
# golden (results/faults_smoke.csv): a moved verdict, revocation or
# delivered-flit count fails the final git status comparison.
./target/release/ssq faults --smoke --csv --trace-dir "$traces/faults" |
    tee results/faults_smoke.csv

echo "== multi-hop fabric smoke tier (ssq net) =="
# Every topology-fault scenario (dead links, MTBF flaps, node
# partitions — across credit, lossy, and NACK link disciplines) must
# either preserve its end-to-end bounds or revoke loudly at a named
# hop. Each scenario runs twice from the same seed, with sleeping nodes
# and on the dense oracle that steps every node every cycle; any
# divergence is reported as a silent violation. The table is a golden
# (results/net_smoke.csv): a moved verdict, revocation, drop,
# retransmit, reroute or delivered-flit count fails the final git
# status comparison.
./target/release/ssq net --smoke --csv --trace-dir "$traces/net" |
    tee results/net_smoke.csv

echo "== trace-report over the smoke tiers' traces =="
# Every trace the two tiers just wrote (--trace-dir leaves their tables
# as they are) must summarize, fault and fabric activity included; a
# trace the report cannot read fails the gate.
for trace in "$traces"/faults/*.jsonl "$traces"/net/*.jsonl; do
    ./target/release/ssq trace-report --in "$trace" >/dev/null
done

echo "== replay: a sorted capture and its unsorted regrouping report alike =="
# A capture is sorted by cycle, so --replay reads it during the run, a
# block at a time; regrouped by input (a stable sort, so each stream
# keeps its order) it is no longer sorted, and --replay sorts it by
# cycle in memory, then reads that copy the same way. The two reports,
# through the real binary, must be the same: this is the end-to-end
# check of that sort.
replay_args=(--radix 8 --cycles 4000 --warmup 200 --reserve 1:1:30 --gl-reserve 3:10)
./target/release/ssq simulate "${replay_args[@]}" --flow 0:1:BE:0.3:4 \
    --flow 1:1:GB:0.25:8 --flow 2:3:GL:0.05:1 --flow 5:3:BE:0.2:2 \
    --capture "$traces/capture.trace" --csv >/dev/null
LC_ALL=C sort -s -k2,2n "$traces/capture.trace" >"$traces/regrouped.trace"
./target/release/ssq simulate "${replay_args[@]}" --replay "$traces/capture.trace" \
    --csv >"$traces/sorted.csv"
./target/release/ssq simulate "${replay_args[@]}" --replay "$traces/regrouped.trace" \
    --csv >"$traces/regrouped.csv"
cmp "$traces/sorted.csv" "$traces/regrouped.csv"
[ "$(wc -l <"$traces/sorted.csv")" -gt 1 ] # rows, not a header alone

echo "== tests =="
cargo test -q --workspace

echo "== frozen benchmark against this tree (qosbench) =="
# benchmark/ is a package of its own with a path dependency on this
# tree and may not change with it: building and testing it here catches
# public-API drift (CycleModel and its skip_idle, EventModel::step_fast,
# ShardedModel, Runner and ParRunner, the arbiter peeks, Fabric::events,
# Fabric::node_events and judge_path) before the benchmark pipeline
# does. qosbench is
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
