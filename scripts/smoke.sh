#!/bin/sh
# Observability smoke test: build energyd + dbshell, start the daemon with a
# metrics listener, run a few statements through the wire protocol, scrape
# /metrics and /healthz, and grep for the core metric families with live
# values. Exercises exactly what a production scrape + STATS client would.
# The daemon runs one worker, and three sessions then share it at once: every
# statement of each must come back. The same statements then run through
# dbshell's local mode, which must print the same answers: both are consumers
# of one statement pipeline.
set -eu

PORT="${SMOKE_PORT:-17683}"
MPORT="${SMOKE_METRICS_PORT:-17684}"
TMP="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/energyd" ./cmd/energyd
go build -o "$TMP/dbshell" ./cmd/dbshell

"$TMP/energyd" -addr "127.0.0.1:$PORT" -metrics-addr "127.0.0.1:$MPORT" -workers 1 -quiet >"$TMP/energyd.log" 2>&1 &
PID=$!

# Wait for /healthz (calibration takes a moment).
i=0
until curl -fsS "http://127.0.0.1:$MPORT/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 120 ]; then
    echo "smoke: energyd did not become healthy" >&2
    cat "$TMP/energyd.log" >&2
    exit 1
  fi
  sleep 0.5
done
echo "smoke: /healthz ok"

# Run statements through the real wire protocol, including a committed
# transaction and \stats.
cat >"$TMP/script" <<'EOF'
\q6
SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
BEGIN
UPDATE nation SET n_name = 'SMOKE' WHERE n_nationkey = 0
COMMIT
EOF
{ cat "$TMP/script"; printf '%s\n' '\stats' '\quit'; } |
  "$TMP/dbshell" -connect "127.0.0.1:$PORT" -db sqlite -class 10MB >"$TMP/shell.out" 2>&1
grep -q "Eactive=" "$TMP/shell.out" || {
  echo "smoke: dbshell produced no energy report" >&2
  cat "$TMP/shell.out" >&2
  exit 1
}
grep -q "hottest (E_active):" "$TMP/shell.out" || {
  echo "smoke: \\stats produced no hot-query board" >&2
  cat "$TMP/shell.out" >&2
  exit 1
}
grep -q "rows_affected" "$TMP/shell.out" || {
  echo "smoke: transactional UPDATE reported no affected rows" >&2
  cat "$TMP/shell.out" >&2
  exit 1
}
grep -q "txns: 0 active, 1 started, 1 committed, 0 aborted" "$TMP/shell.out" || {
  echo "smoke: \\stats txn counters wrong" >&2
  cat "$TMP/shell.out" >&2
  exit 1
}
grep -q "reclaim: oldest snapshot 0 commits behind" "$TMP/shell.out" || {
  echo "smoke: \\stats shows no reclamation line, or an idle server pins a snapshot" >&2
  cat "$TMP/shell.out" >&2
  exit 1
}
grep -Eq "scans: [1-9][0-9]* vector heap scans front to back, 0 back to front" "$TMP/shell.out" || {
  echo "smoke: \\stats shows no scans line, or a 10MB heap was walked back to front" >&2
  cat "$TMP/shell.out" >&2
  exit 1
}
echo "smoke: statements + transaction + \\stats ok"

# Scrape and check the core families carry live values.
curl -fsS "http://127.0.0.1:$MPORT/metrics" >"$TMP/metrics.out"
for family in \
  'energyd_statements_total{status="ok"} 5' \
  'energyd_statement_joules_count 5' \
  'energyd_txns_active 0' \
  'energyd_txns_started 1' \
  'energyd_txns_committed 1' \
  'energyd_txns_aborted 0' \
  'energyd_oldest_snapshot_lag 0' \
  'energyd_versions_pruned_total 0' \
  'energyd_dead_rows_pending 0' \
  'energyd_dead_rows_reaped_total 0' \
  'energyd_wal_retained_records 2' \
  'energyd_wal_checkpoints_total 0' \
  'energyd_analyze_total{table="nation"} 1' \
  'energyd_heap_scans_total{direction="forward"}' \
  'energyd_heap_scans_total{direction="reverse"} 0' \
  'energyd_statement_wall_seconds_bucket' \
  'energyd_lane_wait_seconds_bucket' \
  'energyd_energy_joules_total{component="E_L1D"}' \
  '# TYPE energyd_active_joules_total gauge' \
  'energyd_l1d_share' \
  'energyd_worker_pstate{worker="0"}' \
  'energyd_pstate_transitions_total{worker="0"}' \
  'energyd_slowlog_slowest_seconds' \
  'energyd_connections_total 1'; do
  grep -qF "$family" "$TMP/metrics.out" || {
    echo "smoke: /metrics missing: $family" >&2
    grep "^energyd" "$TMP/metrics.out" >&2 || cat "$TMP/metrics.out" >&2
    exit 1
  }
done
# \q6 and the SELECT always book a prediction ratio; the UPDATE books one
# only when its measured E_active is positive.
grep -Eq '^energyd_prediction_error_ratio_count [23]$' "$TMP/metrics.out" || {
  echo "smoke: /metrics prediction-error histogram did not count 2 or 3 statements" >&2
  grep "^energyd_prediction_error_ratio" "$TMP/metrics.out" >&2
  exit 1
}
# \stats and /metrics read the one server ledger, and nothing ran between the
# two: the E_active \stats printed is the scraped one.
stats_active=$(sed -n 's/.*totals: .* Eactive=\([^J]*\)J .*/\1/p' "$TMP/shell.out")
scraped_active=$(awk '$1 == "energyd_active_joules_total" { printf "%.4g", $2 }' "$TMP/metrics.out")
[ -n "$stats_active" ] && [ "$stats_active" = "$scraped_active" ] || {
  echo "smoke: \\stats E_active '$stats_active' != scraped energyd_active_joules_total '$scraped_active'" >&2
  exit 1
}
echo "smoke: /metrics families ok"

# Three sessions on the one worker at once, three statements each: the lane
# must get every statement of every session through.
lanes=""
for s in 1 2 3; do
  printf '%s\n' '\q6' '\q6' '\q6' '\quit' |
    "$TMP/dbshell" -connect "127.0.0.1:$PORT" -db sqlite -class 10MB >"$TMP/lane$s.out" 2>&1 &
  lanes="$lanes $!"
done
for lane in $lanes; do
  wait "$lane" || {
    echo "smoke: a concurrent session failed" >&2
    cat "$TMP"/lane*.out >&2
    exit 1
  }
done
n=$(cat "$TMP"/lane*.out | grep -c 'energy: Eactive=' || true)
[ "$n" -eq 9 ] || {
  echo "smoke: $n energy reports from three concurrent sessions, want 9" >&2
  cat "$TMP"/lane*.out >&2
  exit 1
}
echo "smoke: three concurrent sessions on one worker ok"

kill "$PID"
wait "$PID" 2>/dev/null || true

# The same statements in dbshell's local mode. What a statement answers —
# column header, rows, row count, transaction status — must not depend on
# which consumer of the pipeline ran it; energy lines and banners do.
"$TMP/dbshell" -db sqlite -class 10MB <"$TMP/script" >"$TMP/local.out" 2>&1
answers() {
  sed -E -e 's/^(\(txn\))?> //' -e '/^energyd\/1 /,$d' -e 's/\(txn [0-9]+\)/(txn N)/' "$1" |
    grep -v -E '^(energy:|session:|connected to|Calibrating|Loading|Ready\.|approximates the query:|>?$)'
}
answers "$TMP/shell.out" >"$TMP/remote.rows"
answers "$TMP/local.out" >"$TMP/local.rows"
diff -u "$TMP/remote.rows" "$TMP/local.rows" || {
  echo "smoke: local dbshell answers differ from the remote run" >&2
  exit 1
}
echo "smoke: local mode gives the same $(wc -l <"$TMP/local.rows" | tr -d ' ') answer lines"
echo "smoke: PASS"
