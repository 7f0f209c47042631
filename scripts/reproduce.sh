#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the ablations, writing
# one text report per experiment into results/.
#
#   ./scripts/reproduce.sh           # text reports
#   SSQ_CSV=1 ./scripts/reproduce.sh # CSV for plotting
set -euo pipefail
cd "$(dirname "$0")/.."

# Run the verification gate (fmt, lint, build, tests) first so broken
# trees never produce half-written results. Skip with SSQ_SKIP_CHECK=1.
if [[ "${SSQ_SKIP_CHECK:-0}" != 1 ]]; then
  ./scripts/check.sh
fi

mkdir -p results
BINARIES=(
  fig4
  fig5
  rate_adherence
  table1
  table2
  gl_bound
  scalability
  approximation
  ablation_fixed_priority
  ablation_schedulers
  ablation_chaining
  ablation_be_voq
  radix64
)

cargo build --release -p ssq-bench

# The headline reproductions (fig4, fig5, rate_adherence) always run
# with the flight recorder armed: a stalled or guarantee-violating run
# dumps its last trace events to results/flight-<bin>.txt instead of
# silently producing bad numbers.
for bin in "${BINARIES[@]}"; do
  echo "== $bin =="
  cargo run --release --quiet -p ssq-bench --bin "$bin" | tee "results/$bin.txt"
  echo
done

echo "All reports written to results/."
