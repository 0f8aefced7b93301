#!/usr/bin/env bash
# ThreadSanitizer pass over the concurrency-heavy test suites.
#
# This is the dynamic complement to `xtask deepcheck`'s static lock
# analysis: deepcheck proves acquisition *orders* are cycle-free; TSan
# observes actual interleavings for data races the static pass cannot
# see. It needs nightly (-Zbuild-std with -Zsanitizer=thread) and is
# wired into CI as an advisory continue-on-error job — TSan has known
# false positives on std runtime internals, so a red run is a signal to
# read, not an automatic merge blocker.
#
# Usage: scripts/tsan.sh [extra cargo-test args]
set -euo pipefail

HOST_TARGET="$(rustc +nightly -vV | sed -n 's/^host: //p')"
case "$HOST_TARGET" in
  x86_64-*-linux-gnu | aarch64-*-linux-gnu | x86_64-apple-darwin | aarch64-apple-darwin) ;;
  *)
    echo "tsan.sh: ThreadSanitizer is unsupported on $HOST_TARGET — skipping" >&2
    exit 0
    ;;
esac

# The concurrent surfaces: the sharded single-flight cache + server pool
# (evcap-serve), the parallel map and replication batch (evcap-sim),
# and the mutex-serialized artifact store (evcap-store).
export RUSTFLAGS="-Zsanitizer=thread ${RUSTFLAGS:-}"
export RUSTDOCFLAGS="-Zsanitizer=thread"
# Suppress known-noisy std internals rather than the whole run.
export TSAN_OPTIONS="halt_on_error=0:second_deadlock_stack=1"

exec cargo +nightly test \
  -Zbuild-std \
  --target "$HOST_TARGET" \
  -p evcap-serve -p evcap-sim -p evcap-store \
  "$@"
