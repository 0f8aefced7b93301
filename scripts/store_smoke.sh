#!/usr/bin/env bash
# Smoke test for the persistent artifact store: batch-solve a scenario
# matrix with `evcap solve-fleet` (proving each solve depends on its
# scenario alone, not on the rest of the matrix), verify and inspect the
# store, then boot `evcap serve --store` against it
# twice — the restarted server must answer a stored scenario from the disk
# tier (store_hits on /metrics) with the same bytes as a cold solve, and a
# corrupted record must be rejected and healed by a fresh solve.
#
# Usage: scripts/store_smoke.sh [path-to-evcap-binary] [store-dir]
set -euo pipefail

EVCAP="${1:-target/release/evcap}"
STORE="${2:-$(mktemp -d)/store}"
OUT="$(mktemp -d)"
SERVER_PID=""
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$OUT"' EXIT

fail() { echo "FAIL: $1"; exit 1; }

# Boots the server against $STORE, exporting SERVER_PID and ADDR.
start_server() {
  "$EVCAP" serve --addr 127.0.0.1:0 --threads 2 --store "$STORE" \
    >"$OUT/serve.out" 2>"$OUT/serve.err" &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^listening on http://##p' "$OUT/serve.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  [ -n "$ADDR" ] || fail "server never announced its address"
}

stop_server() {
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
  : >"$OUT/serve.out"
}

# 1. Fleet-solve a small matrix into the store. The second run must be a
#    no-op (every scenario already stored).
"$EVCAP" solve-fleet --store "$STORE" --dists 'weibull:40,3;det:7' \
  --e-list 0.1,0.2 --policies greedy,clustering --horizon 4096 \
  > "$OUT/fleet.out"
grep -q '8 solved' "$OUT/fleet.out" || fail "fleet did not solve the full matrix"
# Solving e = 0.2 alone into a second fresh store must print the matrix
# run's e = 0.2 lines exactly, iteration counts included.
"$EVCAP" solve-fleet --store "$OUT/alone" --dists 'weibull:40,3;det:7' \
  --e-list 0.2 --policies greedy,clustering --horizon 4096 \
  > "$OUT/alone.out"
grep -F '|e=0.2|' "$OUT/fleet.out" > "$OUT/matrix.lines" || true
grep -F '|e=0.2|' "$OUT/alone.out" > "$OUT/alone.lines" || true
[ "$(wc -l < "$OUT/alone.lines")" -eq 4 ] || fail "solving e=0.2 alone did not print 4 solves"
cmp -s "$OUT/matrix.lines" "$OUT/alone.lines" \
  || fail "e=0.2 solved alone differs from the matrix run"
# Capture output before grepping: `evcap | grep -q` would close the pipe
# at the first match, and under pipefail the writer's EPIPE fails the check.
"$EVCAP" solve-fleet --store "$STORE" --dists 'weibull:40,3;det:7' \
  --e-list 0.1,0.2 --policies greedy,clustering --horizon 4096 \
  > "$OUT/rerun.out"
grep -q 'nothing to solve' "$OUT/rerun.out" || fail "re-run was not a no-op"

# 2. The maintenance commands agree with what was written.
"$EVCAP" store stat --store "$STORE" > "$OUT/stat.out"
grep -q 'entries      : 8' "$OUT/stat.out" \
  || fail "store stat does not show 8 entries"
"$EVCAP" store ls --store "$STORE" --quiet > "$OUT/ls.out"
[ "$(wc -l < "$OUT/ls.out")" -eq 8 ] || fail "store ls does not list 8 keys"
"$EVCAP" store verify --store "$STORE" > "$OUT/verify.out"
grep -q 'store is clean' "$OUT/verify.out" \
  || fail "freshly written store is not clean"

# 3. Warm-restart serving: a brand-new server answers a stored scenario
#    from the disk tier. The body must match a cold solve byte for byte.
#    det:7 clustering e=0.2 is the matrix's last-appended record, which is
#    exactly the one step 5's last-byte flip corrupts.
BODY='{"dist":"det:7","e":0.2,"policy":"clustering","horizon":4096}'
start_server
curl -sf -X POST -d "$BODY" "http://$ADDR/v1/solve" > "$OUT/warm.json"
curl -sf "http://$ADDR/metrics" > "$OUT/metrics.json"
grep -q '"store_enabled":true' "$OUT/metrics.json" || fail "store tier not enabled"
grep -q '"store_hits":1' "$OUT/metrics.json" || fail "stored scenario was not a disk hit"
curl -sf "http://$ADDR/metrics?format=prometheus" > "$OUT/prom.out"
grep -q '^evcap_store_hits_total 1' "$OUT/prom.out" \
  || fail "prometheus missing store hits"
stop_server

# 4. Cold reference: the same scenario solved without any store.
"$EVCAP" serve --addr 127.0.0.1:0 --threads 2 \
  >"$OUT/serve.out" 2>"$OUT/serve.err" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's#^listening on http://##p' "$OUT/serve.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || fail "reference server never announced its address"
curl -sf -X POST -d "$BODY" "http://$ADDR/v1/solve" > "$OUT/cold.json"
stop_server
cmp -s "$OUT/warm.json" "$OUT/cold.json" \
  || fail "disk-tier body differs from a cold solve"

# 5. Corruption: flip the last byte of the record log. The restarted
#    server must reject the record, re-solve identically, and write a
#    healed copy back.
FILE="$STORE/artifacts.evst"
SIZE=$(wc -c < "$FILE")
printf '\x00' | dd of="$FILE" bs=1 seek=$((SIZE - 1)) conv=notrunc 2>/dev/null
start_server
curl -sf -X POST -d "$BODY" "http://$ADDR/v1/solve" > "$OUT/healed.json"
curl -sf "http://$ADDR/metrics" > "$OUT/metrics.json"
grep -q '"store_rejects":1' "$OUT/metrics.json" || fail "corrupt record was not rejected"
grep -q '"store_appends":1' "$OUT/metrics.json" || fail "fallback solve did not heal the store"
stop_server
cmp -s "$OUT/healed.json" "$OUT/cold.json" \
  || fail "corrupt-fallback body differs from a cold solve"

# 6. Compaction drops the superseded corrupt record; the store is clean.
"$EVCAP" store compact --store "$STORE" > "$OUT/compact.out"
grep -q 'kept         : 8' "$OUT/compact.out" || fail "compact lost records"
"$EVCAP" store verify --store "$STORE" > "$OUT/verify.out"
grep -q 'store is clean' "$OUT/verify.out" \
  || fail "store not clean after heal + compact"

echo "store smoke: OK (store at $STORE)"
