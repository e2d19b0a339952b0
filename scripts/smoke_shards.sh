#!/usr/bin/env bash
# End-to-end smoke test for the sharded mcsd topology (docs/sharding.md):
# build, start three shard daemons plus a coordinator over them plus one
# unsharded daemon as the oracle, run the same queries (a group table
# and an unlimited window) through both fronts with mcsquery, and
# require byte-identical data fields. Then check that no daemon kept a
# result its client was handed and a plain POST /query is still answered
# 202, that the coordinator's shard.* metrics moved, SIGTERM everything,
# and require clean drains (exit 0).
set -euo pipefail

cd "$(dirname "$0")/.."

HOST="${MCSD_HOST:-127.0.0.1}"
COORD_PORT="${MCSD_COORD_PORT:-18090}"
FULL_PORT="${MCSD_FULL_PORT:-18094}"
SHARD_PORTS=(18091 18092 18093)
COORD="http://$HOST:$COORD_PORT"
FULL="http://$HOST:$FULL_PORT"
BINDIR="$(mktemp -d)"
LOGDIR="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -KILL "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$BINDIR" "$LOGDIR"
}
trap cleanup EXIT

fail() {
  echo "smoke_shards: FAIL: $*" >&2
  for log in "$LOGDIR"/*.log; do
    echo "--- $log ---" >&2
    cat "$log" >&2
  done
  exit 1
}

# Every daemon generates the same deterministic table; the shards slice
# it by -shard-index, the coordinator and the oracle keep it whole.
TABLE_FLAGS=(-tables tpch -tablerows 8000 -seed 1 -workers 2 -max-concurrent 2 -drain-timeout 20s)

echo "smoke_shards: building mcsd and mcsquery"
go build -o "$BINDIR" ./cmd/mcsd ./cmd/mcsquery

SHARD_URLS=""
for i in 0 1 2; do
  port=${SHARD_PORTS[$i]}
  echo "smoke_shards: starting shard $i/3 on :$port"
  "$BINDIR/mcsd" -addr "$HOST:$port" "${TABLE_FLAGS[@]}" \
    -shard-index "$i" -shard-count 3 >"$LOGDIR/shard$i.log" 2>&1 &
  PIDS+=($!)
  SHARD_URLS="${SHARD_URLS:+$SHARD_URLS,}http://$HOST:$port"
done

echo "smoke_shards: starting the unsharded oracle daemon on :$FULL_PORT"
"$BINDIR/mcsd" -addr "$HOST:$FULL_PORT" "${TABLE_FLAGS[@]}" >"$LOGDIR/full.log" 2>&1 &
PIDS+=($!)

echo "smoke_shards: starting the coordinator on :$COORD_PORT over $SHARD_URLS"
"$BINDIR/mcsd" -addr "$HOST:$COORD_PORT" "${TABLE_FLAGS[@]}" \
  -shards "$SHARD_URLS" >"$LOGDIR/coord.log" 2>&1 &
PIDS+=($!)

wait_ready() {
  local base=$1 name=$2
  for _ in $(seq 1 100); do
    if curl -fsS "$base/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  fail "$name never became healthy at $base"
}
for i in 0 1 2; do wait_ready "http://$HOST:${SHARD_PORTS[$i]}" "shard $i"; done
wait_ready "$FULL" "oracle daemon"
wait_ready "$COORD" "coordinator"

grep -q "shard 0/3 serves" "$LOGDIR/shard0.log" || fail "shard 0 did not log its range"
grep -q "coordinating .* over 3 shards" "$LOGDIR/coord.log" || fail "coordinator did not log its topology"

GROUP_QUERY='{"table":"tpch_wide","kind":"groupby","sort_cols":[{"name":"p_brand"},{"name":"p_type"},{"name":"p_size"}],"filters":[{"col":"p_size","op":"neq","const":15}],"agg":{"kind":"count"},"order_by_agg":true,"workers":2}'
# The shard3_window_full shape: every row ranked, so the shards' oids-only
# answers and the coordinator's merge and ranking cover the whole table.
WINDOW_QUERY='{"table":"tpch_wide","kind":"partitionby","sort_cols":[{"name":"supp_nation"},{"name":"l_year"}],"window":{"order_col":"l_extendedprice","desc":true},"workers":2}'

run_query() {
  "$BINDIR/mcsquery" -addr "$1" -request "$2" -full
}

# canon keeps only the data fields (rows through row_oids) — job ids,
# plans, and timings legitimately differ between the two fronts.
canon() {
  tr -d ' \n' | sed -e 's/.*"rows":/"rows":/' -e 's/,"workers":.*//' -e 's/,"plan":.*//'
}

# compare runs one query through both fronts and requires identical
# data fields.
compare() {
  local name=$1 query=$2 got want
  echo "smoke_shards: querying the coordinator and the oracle daemon ($name)"
  got=$(run_query "$COORD" "$query" | canon) || fail "mcsquery against the coordinator failed ($name)"
  want=$(run_query "$FULL" "$query" | canon) || fail "mcsquery against the oracle daemon failed ($name)"
  [[ -n "$want" ]] || fail "oracle produced no data fields ($name)"
  if [[ "$got" != "$want" ]]; then
    fail "coordinator $name result diverges from the unsharded daemon:
  coordinator: ${got:0:400}
  oracle:      ${want:0:400}"
  fi
  echo "smoke_shards: 3-shard $name result is byte-identical to the unsharded daemon"
}
compare "group table" "$GROUP_QUERY"
compare "window" "$WINDOW_QUERY"

# Each hop is one waited submit, so no daemon keeps a result its client
# was handed. The result's job id answers 404 on the front that served
# it; and with the two queries above, the coordinator has run three
# queries and sent each shard three sub-queries, ids j1..j3, all unknown
# now.
echo "smoke_shards: checking no daemon retained a delivered result"
for base in "$COORD" "$FULL"; do
  JOB=$(run_query "$base" "$GROUP_QUERY" | tr -d ' \n' | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
  [[ -n "$JOB" ]] || fail "no job_id in the result from $base"
  code=$(curl -s -o /dev/null -w '%{http_code}' "$base/jobs/$JOB")
  [[ "$code" == 404 ]] || fail "delivered job $JOB answers $code on $base, want 404"
done
for base in $(tr ',' ' ' <<<"$SHARD_URLS"); do
  for job in j1 j2 j3; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "$base/jobs/$job")
    [[ "$code" == 404 ]] || fail "sub-query job $job answers $code on shard $base, want 404"
  done
done

echo "smoke_shards: async submit without Prefer"
ASYNC=$(curl -sS -o - -w ' %{http_code}' -X POST -H 'Content-Type: application/json' -d "$GROUP_QUERY" "$COORD/query" | tr -d '\n')
[[ "$ASYNC" =~ ^\{\"job_id\":\"j[0-9]+\"\}\ 202$ ]] || fail "plain POST /query answered '$ASYNC', want 202 with a job_id"

echo "smoke_shards: checking coordinator /metrics for shard counters"
METRICS=$(curl -fsS "$COORD/metrics" | tr -d ' \n')
FANOUT=$(printf '%s' "$METRICS" | sed -n 's/.*"name":"shard\.fanout_subqueries","value":\([0-9]*\).*/\1/p')
[[ -n "$FANOUT" && "$FANOUT" -ge 6 ]] || fail "shard.fanout_subqueries=$FANOUT, want >= 6: 3 per query"

echo "smoke_shards: draining everything with SIGTERM"
for pid in "${PIDS[@]}"; do kill -TERM "$pid"; done
for pid in "${PIDS[@]}"; do
  if ! wait "$pid"; then fail "a daemon exited non-zero on SIGTERM"; fi
done
PIDS=()
for log in "$LOGDIR"/*.log; do
  grep -q "drained cleanly" "$log" || fail "no clean-drain message in $log"
done

echo "smoke_shards: PASS"
