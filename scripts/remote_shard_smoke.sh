#!/usr/bin/env bash
# Multi-process remote-shard smoke (docs/robustness.md, "Remote shard
# transport"): three `sdms_server --shard paras/<i>` processes serve a
# router started with --shard-endpoints. One shard server is killed
# with SIGKILL while a query load is running; every query must still
# answer with exit code 0 — degraded, with the dead shard named in the
# shard-status report — and after the shard server restarts on the
# same port, the router's applied-seq catch-up — a full install, the
# one catch-up path — must restore complete (non-degraded) answers with
# the healthy baseline row count.
#
# Usage: scripts/remote_shard_smoke.sh [build_dir]   (default: build)
set -eu

BUILD_DIR=${1:-build}
SERVER=$BUILD_DIR/src/server/sdms_server
CLIENT=$BUILD_DIR/src/server/sdms_client
WORK=$(mktemp -d "${TMPDIR:-/tmp}/sdms_remote_smoke.XXXXXX")
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- router log ---" >&2
  cat "$WORK/router_err.log" >&2 || true
  exit 1
}

# start_proc <outfile> <args...>: starts a server process, waits for
# its readiness line, and leaves the bound port in $PORT.
start_proc() {
  local out=$1
  shift
  "$@" >"$out" 2>"${out%.log}_err.log" &
  local pid=$!
  disown "$pid"  # no job-control "Killed" noise when we SIGKILL it
  PIDS+=("$pid")
  for _ in $(seq 1 100); do
    if grep -q '^listening on port ' "$out" 2>/dev/null; then break; fi
    kill -0 "$pid" 2>/dev/null || fail "process died during startup: $*"
    sleep 0.1
  done
  PORT=$(grep -o '[0-9]*$' "$out" | head -1)
  test -n "$PORT" || fail "no readiness line in $out"
  LAST_PID=$pid
}

# --- 1. Three shard-server processes on ephemeral ports. -------------
declare -a SHARD_PORT SHARD_PID
for i in 0 1 2; do
  start_proc "$WORK/shard$i.log" "$SERVER" --shard "paras/$i" --port 0
  SHARD_PORT[$i]=$PORT
  SHARD_PID[$i]=$LAST_PID
  echo "shard $i: pid ${SHARD_PID[$i]} port ${SHARD_PORT[$i]}"
done

# --- 2. The router: full demo corpus, fan-out routed to the shards. --
ENDPOINTS="paras=127.0.0.1:${SHARD_PORT[0]},127.0.0.1:${SHARD_PORT[1]},127.0.0.1:${SHARD_PORT[2]}"
# Buffering off: a result-buffer hit would bypass the fan-out and
# prove nothing about the transport under test.
SDMS_SHARDS=3 SDMS_DISABLE_BUFFERING=1 start_proc "$WORK/router.log" \
  "$SERVER" --demo --shard-endpoints "$ENDPOINTS"
ROUTER_PORT=$PORT
echo "router: port $ROUTER_PORT -> $ENDPOINTS"

query() {  # query <threshold> -> stdout; exit code passed through
  "$CLIENT" --port "$ROUTER_PORT" \
    "ACCESS p FROM p IN PARA WHERE p -> getIRSValue('paras', 'www') > $1"
}

# --- 3. Healthy baseline. --------------------------------------------
query 0.100 >"$WORK/baseline.log" || fail "healthy query failed"
grep -q '^rows=' "$WORK/baseline.log" || fail "no rows= in baseline"
# Non-kOk shards are named in `shard <coll>/<i> <state>` lines; a
# healthy fan-out prints none.
grep -q '^shard paras/' "$WORK/baseline.log" &&
  fail "healthy answer reported a non-OK shard"
BASELINE_ROWS=$(grep -o 'rows=[0-9]*' "$WORK/baseline.log" | head -1)
echo "baseline: $BASELINE_ROWS (complete)"

# --- 4. kill -9 one shard server under load. -------------------------
( for n in $(seq 1 30); do query "0.200$n" >/dev/null || exit $?; done ) &
LOAD_PID=$!
sleep 0.3
kill -9 "${SHARD_PID[1]}"
echo "killed shard 1 (pid ${SHARD_PID[1]}) mid-load"
wait "$LOAD_PID" || fail "a query under shard loss exited non-zero"

# A fresh query must answer degraded — exit 0, shard 1 named.
rc=0
query 0.101 >"$WORK/degraded.log" 2>&1 || rc=$?
test "$rc" -eq 0 || fail "degraded query exited $rc (want 0)"
grep -Eq '^shard paras/1 (failed|skipped)' "$WORK/degraded.log" ||
  fail "dead shard not named in shard status"
echo "degraded answer with shard paras/1 named: OK"

# --- 5. Restart the shard server on the same port; catch up. ---------
installs() {  # full installs of shard 1 the router has logged so far
  grep -c 'remote shard paras/1 caught up by full install' \
    "$WORK/router_err.log" || true
}
INSTALLS_BEFORE=$(installs)
start_proc "$WORK/shard1b.log" \
  "$SERVER" --shard paras/1 --port "${SHARD_PORT[1]}"
echo "shard 1 restarted: pid $LAST_PID port $PORT"

# The channel reconnects after its backoff and the applied-seq
# handshake reinstalls the slice; answers must return to complete with
# the baseline row count.
recovered=0
for n in $(seq 1 100); do
  if out=$(query "0.300$n" 2>&1) &&
     ! grep -q '^shard paras/' <<<"$out" &&
     grep -q "$BASELINE_ROWS" <<<"$out"; then
    recovered=1
    break
  fi
  sleep 0.2
done
test "$recovered" -eq 1 ||
  fail "answers did not return to complete $BASELINE_ROWS after restart"
echo "caught up: complete $BASELINE_ROWS after shard 1 restart"
# A restarted server comes back at applied_seq 0, so the catch-up must
# have been a full install of shard 1.
INSTALLS_AFTER=$(installs)
test "$INSTALLS_AFTER" -gt "$INSTALLS_BEFORE" ||
  fail "restarted shard 1 was not caught up by a full install" \
    "($INSTALLS_BEFORE installs logged before restart, $INSTALLS_AFTER after)"
echo "shard 1 caught up by full install: OK"

echo "remote shard smoke: PASS"
