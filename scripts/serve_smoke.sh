#!/usr/bin/env bash
# Smoke test for `evcap serve`: boot on an ephemeral port, hit every
# endpoint, prove the scenario cache works (second identical solve is a
# hit), drain on SIGTERM, and run a small loadgen pass.
#
# Usage: scripts/serve_smoke.sh [path-to-evcap-binary]
set -euo pipefail

EVCAP="${1:-target/release/evcap}"
OUT="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$OUT"' EXIT

"$EVCAP" serve --addr 127.0.0.1:0 --threads 2 --cache-cap 64 \
  >"$OUT/serve.out" 2>"$OUT/serve.err" &
SERVER_PID=$!

# Wait (bounded) for the banner announcing the bound port.
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's#^listening on http://##p' "$OUT/serve.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: server never announced its address"; exit 1; }
echo "server at $ADDR"

fail() { echo "FAIL: $1"; exit 1; }

# 1. Health.
curl -sf "http://$ADDR/healthz" | grep -q '"status":"ok"' \
  || fail "/healthz did not answer ok"

# 2. First solve: a cache miss.
BODY='{"dist":"weibull:40,3","e":0.2,"horizon":4096}'
HDRS="$(curl -sf -D - -o "$OUT/solve1.json" -X POST \
  -d "$BODY" "http://$ADDR/v1/solve")"
echo "$HDRS" | grep -qi 'x-evcap-cache: miss' || fail "first solve was not a miss"
grep -q '"type":"solve"' "$OUT/solve1.json" || fail "solve body malformed"

# 3. Second identical solve (alias spelling): a cache hit, same body.
BODY2='{"dist":"weibull:40.0,3.0","e":0.2,"horizon":4096}'
HDRS="$(curl -sf -D - -o "$OUT/solve2.json" -X POST \
  -d "$BODY2" "http://$ADDR/v1/solve")"
echo "$HDRS" | grep -qi 'x-evcap-cache: hit' || fail "second solve was not a hit"
cmp -s "$OUT/solve1.json" "$OUT/solve2.json" || fail "hit body differs from miss body"

# 4. Metrics agree: one miss, one hit.
curl -sf "http://$ADDR/metrics" > "$OUT/metrics.json"
grep -q '"solve_cache_hits":1' "$OUT/metrics.json" || fail "metrics missing the hit"
grep -q '"solve_cache_misses":1' "$OUT/metrics.json" || fail "metrics missing the miss"

# 4b. Prometheus exposition: content-negotiated text format with the
# request counter, per-shard cache series, and a cumulative histogram.
curl -sf "http://$ADDR/metrics?format=prometheus" > "$OUT/metrics.prom"
grep -q '^# TYPE evcap_requests_total counter' "$OUT/metrics.prom" \
  || fail "prometheus scrape missing the requests counter TYPE line"
grep -q '^evcap_cache_hits_total{cache="artifact",shard="' "$OUT/metrics.prom" \
  || fail "prometheus scrape missing per-shard artifact cache series"
if grep -q 'cache="solve"' "$OUT/metrics.prom"; then
  fail "prometheus scrape still carries a solve cache tier"
fi
grep -q '^evcap_request_latency_seconds_bucket{le="+Inf"}' "$OUT/metrics.prom" \
  || fail "prometheus scrape missing the +Inf histogram bucket"
# The Accept header negotiates the same format; JSON stays the default.
curl -sf -H 'Accept: text/plain' "http://$ADDR/metrics" \
  | grep -q '^evcap_uptime_seconds' || fail "Accept: text/plain did not negotiate"
curl -sf "http://$ADDR/metrics" | grep -q '"type":"metrics"' \
  || fail "JSON is no longer the /metrics default"

# 4c. Request tracing: a caller-supplied X-Request-Id is echoed back, and
# the flight recorder shows the request on /debug/recent.
HDRS="$(curl -sf -D - -o /dev/null -H 'X-Request-Id: smoke-42' \
  -X POST -d "$BODY" "http://$ADDR/v1/solve")"
echo "$HDRS" | grep -qi 'x-request-id: smoke-42' || fail "request id not echoed"
curl -sf "http://$ADDR/debug/recent" > "$OUT/recent.json"
grep -q '"type":"recent"' "$OUT/recent.json" || fail "/debug/recent malformed"
grep -q '"trace_id":"smoke-42"' "$OUT/recent.json" \
  || fail "/debug/recent does not show the traced request"

# 5. NaN spec arguments are a structured 400.
CODE="$(curl -s -o "$OUT/err.json" -w '%{http_code}' -X POST \
  -d '{"dist":"weibull:nan,3","e":0.2}' "http://$ADDR/v1/solve")"
[ "$CODE" = "400" ] || fail "nan spec returned $CODE, wanted 400"
grep -q '"kind":"invalid_spec"' "$OUT/err.json" || fail "nan error not structured"

# 6. Small loadgen pass (keep-alive, all cache hits after the first).
"$EVCAP" loadgen --addr "$ADDR" --concurrency 2 --requests 2000 \
  > "$OUT/loadgen.out" 2>&1
grep -q ' 0 errors' "$OUT/loadgen.out" || fail "loadgen saw errors"

# 7. Graceful shutdown: SIGTERM → exit code 0.
kill -TERM "$SERVER_PID"
if wait "$SERVER_PID"; then
  echo "server drained cleanly"
else
  fail "server exited non-zero on SIGTERM"
fi

echo "serve smoke: OK"
