#!/usr/bin/env bash
# Measure simulation throughput and emit BENCH_sim.json: a single run (the
# median of five timed runs of one seed, with the fastest and slowest,
# after at least 0.5 s of untimed runs warm the kernel), the
# same replications as truly sequential single runs, and ReplicationBatch
# at several thread counts. Every replication runs the same slot kernel;
# the batch only shares the event sampler and the policy table across
# seeds, so the batch-vs-sequential `speedup_vs_sequential` rows are
# information, not a gate. The one gate is determinism: per-seed reports
# bit-identical to the sequential runs, and identical across thread counts.
#
# Usage: scripts/bench_sim.sh [path-to-evcap-binary]
#
# Environment overrides (CI runs a short smoke; defaults reproduce the
# acceptance configuration of 16 × 10^6-slot Weibull replications):
#   BENCH_DIST     distribution spec        (default weibull:40,3)
#   BENCH_SLOTS    slots per replication    (default 1000000)
#   BENCH_REPS     replications             (default 16)
#   BENCH_THREADS  comma-separated threads  (default 1,4,8)
#   BENCH_OUT      output JSON path         (default BENCH_sim.json)
set -euo pipefail

EVCAP="${1:-target/release/evcap}"
if [ ! -x "$EVCAP" ]; then
  echo "building release binary ($EVCAP not found)"
  cargo build --release -p evcap-cli
fi

"$EVCAP" bench-sim \
  --dist "${BENCH_DIST:-weibull:40,3}" \
  --slots "${BENCH_SLOTS:-1000000}" \
  --replications "${BENCH_REPS:-16}" \
  --threads-list "${BENCH_THREADS:-1,4,8}" \
  --out "${BENCH_OUT:-BENCH_sim.json}"

# The run itself fails on nondeterminism; double-check the recorded flag so
# a stale file can't masquerade as a pass.
grep -q '"deterministic_across_threads": true' "${BENCH_OUT:-BENCH_sim.json}" \
  || { echo "FAIL: ${BENCH_OUT:-BENCH_sim.json} does not record determinism"; exit 1; }
echo "OK: ${BENCH_OUT:-BENCH_sim.json}"
