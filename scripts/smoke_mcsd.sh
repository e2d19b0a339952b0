#!/usr/bin/env bash
# End-to-end smoke test for the mcsd query daemon (docs/serving.md):
# build, start against a small TPC-H table, run a query through
# mcsquery and then again with only its worker count changed, assert the
# second run hit the plan cache (workers never reach the plan search;
# visible on /metrics), that a second page of a window query reused the
# column order its first page found (server.plancache_order_hits on
# /metrics), that the daemon kept no result mcsquery was
# handed and a plain POST /query is still answered 202, then SIGTERM and
# require a clean drain (exit 0).
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${MCSD_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BINDIR="$(mktemp -d)"
LOG="$(mktemp)"

cleanup() {
  if [[ -n "${MCSD_PID:-}" ]] && kill -0 "$MCSD_PID" 2>/dev/null; then
    kill -KILL "$MCSD_PID" 2>/dev/null || true
  fi
  rm -rf "$BINDIR" "$LOG"
}
trap cleanup EXIT

fail() {
  echo "smoke_mcsd: FAIL: $*" >&2
  echo "--- mcsd log ---" >&2
  cat "$LOG" >&2
  exit 1
}

echo "smoke_mcsd: building mcsd and mcsquery"
go build -o "$BINDIR" ./cmd/mcsd ./cmd/mcsquery

echo "smoke_mcsd: starting mcsd on $ADDR"
"$BINDIR/mcsd" -addr "$ADDR" -tables tpch -tablerows 8000 \
  -max-concurrent 2 -workers 2 -drain-timeout 20s >"$LOG" 2>&1 &
MCSD_PID=$!

# Wait for readiness.
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  kill -0 "$MCSD_PID" 2>/dev/null || fail "mcsd exited during startup"
  sleep 0.2
done
curl -fsS "$BASE/healthz" | grep -q '"ok"' || fail "healthz not ok"
# mcsd prices plans with the builtin model; it must never calibrate.
if grep -qi "calibrat" "$LOG"; then fail "mcsd calibrated at startup"; fi

QUERY='{"table":"tpch_wide","kind":"groupby","sort_cols":[{"name":"p_brand"},{"name":"p_type"},{"name":"p_size"}],"filters":[{"col":"p_size","op":"neq","const":15}],"agg":{"kind":"count"},"order_by_agg":true,"workers":2}'

# run_query sends its argument and prints the result compacted, so the
# greps see "key":value.
run_query() {
  "$BINDIR/mcsquery" -addr "$BASE" -request "$1" -full | tr -d ' \n'
}

# job_of prints the job id of a compacted result.
job_of() {
  sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p'
}

echo "smoke_mcsd: first query (plan-cache miss)"
FIRST=$(run_query "$QUERY")
grep -q '"plan_cache_hit":false' <<<"$FIRST" || fail "first query reported a cache hit"

# mcsquery's waited submit is answered with the result, which the
# daemon then does not keep: its job id is unknown.
JOB=$(job_of <<<"$FIRST")
[[ -n "$JOB" ]] || fail "no job_id in the result"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/jobs/$JOB")
[[ "$CODE" == 404 ]] || fail "delivered job $JOB answers $CODE, want 404: the daemon retained it"

echo "smoke_mcsd: async submit without Prefer"
ASYNC=$(curl -sS -o - -w ' %{http_code}' -X POST -H 'Content-Type: application/json' -d "$QUERY" "$BASE/query" | tr -d '\n')
[[ "$ASYNC" =~ ^\{\"job_id\":\"j[0-9]+\"\}\ 202$ ]] || fail "plain POST /query answered '$ASYNC', want 202 with a job_id"

echo "smoke_mcsd: second query, workers 2 -> 1 (plan-cache hit)"
QUERY_W1="${QUERY/\"workers\":2/\"workers\":1}"
[[ "$QUERY_W1" != "$QUERY" ]] || fail "the query names no \"workers\":2 to change"
run_query "$QUERY_W1" | grep -q '"plan_cache_hit":true' || fail "second query (workers 1) missed the plan cache"

# Two pages of one window query: the second misses its own plan entry
# but pins the column order the first page's search found.
PAGE='{"table":"tpch_wide","kind":"partitionby","sort_cols":[{"name":"supp_nation"},{"name":"cust_nation"},{"name":"p_brand"}],"window":{"order_col":"l_extendedprice","desc":true},"limit":50,"offset":0}'
echo "smoke_mcsd: two pages of a window query (order-entry reuse)"
FIRST_PAGE=$(run_query "$PAGE")
PAGE2="${PAGE/\"offset\":0/\"offset\":200}"
[[ "$PAGE2" != "$PAGE" ]] || fail "the page names no \"offset\":0 to change"
SECOND_PAGE=$(run_query "$PAGE2")
for P in "$FIRST_PAGE" "$SECOND_PAGE"; do
  grep -q '"plan_cache_hit":false' <<<"$P" || fail "a page of a new cut reported a plan-cache hit"
done

echo "smoke_mcsd: checking /metrics for plancache hits and order hits"
METRICS=$(curl -fsS "$BASE/metrics" | tr -d ' \n')
HITS=$(printf '%s' "$METRICS" \
  | sed -n 's/.*"name":"server\.plancache_hits","value":\([0-9]*\).*/\1/p')
[[ -n "$HITS" && "$HITS" -ge 1 ]] || fail "server.plancache_hits=$HITS, want >= 1"
ORDER_HITS=$(printf '%s' "$METRICS" \
  | sed -n 's/.*"name":"server\.plancache_order_hits","value":\([0-9]*\).*/\1/p')
[[ -n "$ORDER_HITS" && "$ORDER_HITS" -ge 1 ]] || fail "server.plancache_order_hits=$ORDER_HITS, want >= 1"

echo "smoke_mcsd: draining with SIGTERM"
kill -TERM "$MCSD_PID"
if ! wait "$MCSD_PID"; then
  fail "mcsd exited non-zero on SIGTERM"
fi
MCSD_PID=
grep -q "drained cleanly" "$LOG" || fail "no clean-drain message in log"

echo "smoke_mcsd: PASS"
