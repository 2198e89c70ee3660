#!/usr/bin/env bash
# End-to-end smoke of the exdld daemon lifecycle (DESIGN.md section 13),
# run by the CI daemon-smoke job:
#
#   1. a batch over the unix socket prints answers byte-identical to an
#      in-process `exdlc run <files...> --jobs 1` of the same files;
#   2. the STATS document (exdlc connect --stats) satisfies
#      tools/metrics_schema.json, daemon object included;
#   3. kill -9 mid-query: the client sees a torn connection; a restarted
#      daemon recovers the stale socket file, and the batch — whether the
#      client's in-run retry ladder caught the restart or a fresh run was
#      needed — ends byte-identical to the reference;
#   4. SIGTERM: graceful drain, exit 0, and the --metrics-json document
#      written on the way out validates against the schema;
#   5. durability (DESIGN.md section 15): a --data-dir daemon is SIGKILLed
#      in the middle of a stream of LOAD_FACTS calls. The restart must
#      succeed, recover every acknowledged load (at most the un-fsync'd
#      in-flight record may be missing — never an acknowledged one), and
#      serve answers byte-identical to a fresh daemon loaded with exactly
#      the recovered prefix;
#   6. standing queries (DESIGN.md section 16, protocol v2): REGISTER a
#      view, LOAD_FACTS a delta, and POLL_RESULT — the polled answers
#      must be byte-identical to a one-shot submission of the same source
#      at the same generation, the maintenance must report incremental
#      (full_recomputes=0), and the view survives across connections
#      until UNREGISTER drops it;
#   7. large answers: over a 512x16 chain EDB, Example 1's
#      q(X) :- tc(X, _) (8,192 rows), ?- tc(c0x0, Y), a 0-ary boolean and
#      the §3.1 boolean hit :- e(c, Y), tc(Y, _) once true and once false
#      (the --optimize daemon unfolds tc@nd into it), each printed
#      byte-identically by `exdlc run --jobs 1`, a plain daemon and an
#      --optimize daemon; the --optimize daemon's STATS must count at least
#      8,192 projection_rows (Example 1 served through the projection
#      kernel).
#
# Any divergent output, unexpected exit code, or invalid document fails
# the smoke. Runs are bounded by `timeout` so a hang cannot stall CI.
#
# usage: tools/daemon_smoke.sh <exdlc-binary> <exdld-binary>

set -u

EXDLC=${1:?usage: daemon_smoke.sh <exdlc-binary> <exdld-binary>}
EXDLD=${2:?usage: daemon_smoke.sh <exdlc-binary> <exdld-binary>}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
# A daemon that never became ready (or outlived a failed check) must not
# keep running after the smoke exits.
trap '[ -n "$DPID" ] && kill "$DPID" 2>/dev/null; rm -rf "$WORK"' EXIT

RUN="timeout 120"
SOCK="$WORK/smoke.sock"
METRICS="$WORK/exdld_metrics.json"
DPID=""
fail=0

say() { printf 'daemon-smoke: %s\n' "$*"; }
flunk() {
  printf 'FAIL: %s\n' "$*"
  fail=1
}

start_daemon() {  # $1 = extra args (may be empty)
  # shellcheck disable=SC2086  # $1 is intentionally split
  "$EXDLD" --socket "$SOCK" --jobs 2 --metrics-json "$METRICS" $1 \
    >"$WORK/exdld.log" 2>&1 &
  DPID=$!
  # Ready means a STATS round trip succeeds, not that a socket file
  # exists: after a kill -9 the file is the dead daemon's stale socket,
  # and a daemon signalled before it installs its handlers exits 143
  # instead of draining. The daemon installs them before it serves.
  i=0
  while [ "$i" -lt 200 ]; do
    kill -0 "$DPID" 2>/dev/null || return 1
    "$EXDLC" connect --socket "$SOCK" --stats --retries 1 \
      --retry-base-ms 1 >/dev/null 2>&1 && return 0
    sleep 0.05
    i=$((i + 1))
  done
  return 1
}

# The batch: one real workload plus a trivial one, so the byte-identity
# check covers both multi-round evaluation and the batch framing itself.
F1="$WORK/smoke_a.dl"
F2="$WORK/smoke_b.dl"
{
  echo "tc(X, Y) :- e(X, Y)."
  echo "tc(X, Z) :- e(X, Y), tc(Y, Z)."
  echo "?- tc(s0, X)."
  i=0
  while [ "$i" -lt 1200 ]; do
    echo "e(s$i, s$((i + 1)))."
    i=$((i + 1))
  done
} >"$F1"
cp "$REPO_ROOT/examples/tc_chain.dl" "$F2"

REF="$WORK/ref.out"
$RUN "$EXDLC" run "$F1" "$F2" --jobs 1 >"$REF" 2>/dev/null \
  || { flunk "in-process reference run did not complete"; exit 1; }

# --- 1. plain batch over the socket ----------------------------------------
start_daemon "" || { flunk "exdld did not start"; exit 1; }
$RUN "$EXDLC" connect "$F1" "$F2" --socket "$SOCK" \
  >"$WORK/batch.out" 2>"$WORK/batch.err"
rc=$?
[ "$rc" -eq 0 ] || flunk "batch client exited $rc"
cmp -s "$REF" "$WORK/batch.out" \
  || { flunk "socket answers differ from exdlc run --jobs 1"; diff "$REF" "$WORK/batch.out" | head; }
say "batch over the socket is byte-identical to --jobs 1"

# --- 2. STATS document validates -------------------------------------------
$RUN "$EXDLC" connect --socket "$SOCK" --stats >"$WORK/stats.json" 2>&1 \
  || flunk "exdlc connect --stats failed"
python3 "$REPO_ROOT/tools/check_metrics_schema.py" \
  --schema "$REPO_ROOT/tools/metrics_schema.json" "$WORK/stats.json" \
  || flunk "STATS document does not satisfy the schema"
python3 - "$WORK/stats.json" <<'EOF' || fail=1
import json, sys
doc = json.load(open(sys.argv[1]))
daemon = doc.get("daemon")
assert daemon, "STATS document is missing the daemon object"
assert daemon["connections"]["accepted"] >= 2, daemon
assert daemon["submits_admitted"] >= 2, daemon
EOF
say "STATS document satisfies tools/metrics_schema.json"

# --- 3. kill -9 mid-query, restart, byte-identical recovery ----------------
$RUN "$EXDLC" connect "$F1" "$F2" --socket "$SOCK" \
  --retries 8 --retry-base-ms 100 >"$WORK/torn.out" 2>"$WORK/torn.err" &
CPID=$!
sleep 0.15   # let the first (long) query get in flight
kill -9 "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
# Immediate restart: the stale socket file from the SIGKILLed daemon must
# be detected as dead and rebound, not mistaken for a live server.
start_daemon "" || { flunk "exdld did not restart over the stale socket"; exit 1; }
wait "$CPID"
crc=$?
if [ "$crc" -eq 0 ]; then
  # The client's retry ladder caught the restart: in-run recovery.
  cmp -s "$REF" "$WORK/torn.out" \
    || flunk "in-run recovery output differs from reference"
  say "client recovered in-run across the kill -9 (rc 0, byte-identical)"
else
  # The ladder ran out first; a fresh run against the restarted daemon
  # must still be byte-identical — the torn batch leaves no trace.
  $RUN "$EXDLC" connect "$F1" "$F2" --socket "$SOCK" \
    >"$WORK/rerun.out" 2>"$WORK/rerun.err" \
    || flunk "re-run after restart failed"
  cmp -s "$REF" "$WORK/rerun.out" \
    || flunk "post-restart output differs from reference"
  say "client re-run after kill -9 restart is byte-identical (torn rc $crc)"
fi

# --- 4. graceful SIGTERM drain + metrics document --------------------------
kill -TERM "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
drc=$?
[ "$drc" -eq 0 ] || flunk "SIGTERM drain exited $drc (want 0)"
[ -f "$METRICS" ] || flunk "exdld wrote no --metrics-json document"
if [ -f "$METRICS" ]; then
  python3 "$REPO_ROOT/tools/check_metrics_schema.py" \
    --schema "$REPO_ROOT/tools/metrics_schema.json" "$METRICS" \
    || flunk "--metrics-json document does not satisfy the schema"
fi
say "SIGTERM drained cleanly and the exit metrics document validates"

# --- 4b. optimizing daemon: bound queries are served factored --------------
# Both batch files query tc with a bound first argument, so an --optimize
# daemon factors them; answers stay byte-identical to the reference.
start_daemon "--optimize" || { flunk "exdld --optimize did not start"; exit 1; }
$RUN "$EXDLC" connect "$F1" "$F2" --socket "$SOCK" \
  >"$WORK/factored.out" 2>"$WORK/factored.err" \
  || flunk "batch against the optimizing daemon failed"
cmp -s "$REF" "$WORK/factored.out" \
  || { flunk "factored answers differ from exdlc run --jobs 1"; diff "$REF" "$WORK/factored.out" | head; }
$RUN "$EXDLC" connect --socket "$SOCK" --stats >"$WORK/factored_stats.json" \
  2>&1 || flunk "exdlc connect --stats failed on the optimizing daemon"
python3 - "$WORK/factored_stats.json" <<'EOF' || fail=1
import json, sys
doc = json.load(open(sys.argv[1]))
factored = doc["service"]["compile"]["factored"]
assert factored == 2, "expected both bound queries factored, got %d" % factored
EOF
kill -TERM "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
say "optimizing daemon served both bound queries factored, byte-identical"

# --- 5. durability: kill -9 mid-LOAD_FACTS stream, restart --data-dir ------
DATA="$WORK/smoke_data"
rm -rf "$DATA"
for i in $(seq 1 12); do
  echo "d(k$i)." >"$WORK/fact_$i.facts"
done
{
  echo "m(X) :- d(X)."
  echo "?- m(X)."
} >"$WORK/durq.dl"
start_daemon "--data-dir $DATA --compact-every 3" \
  || { flunk "exdld did not start with --data-dir"; exit 1; }
# Kill the daemon mid-stream; whichever load is in flight right then may
# be lost, every load acknowledged before it must not be.
(sleep 0.35; kill -9 "$DPID" 2>/dev/null) &
KPID=$!
acked=0
for i in $(seq 1 12); do
  if $RUN "$EXDLC" connect --load-facts "$WORK/fact_$i.facts" \
      --socket "$SOCK" --retries 1 --retry-base-ms 1 >/dev/null 2>&1; then
    acked=$((acked + 1))
  else
    break
  fi
done
wait "$KPID" 2>/dev/null
wait "$DPID" 2>/dev/null
say "SIGKILLed the durable daemon after $acked acknowledged load(s)"
# The restart must never fail: a torn log tail is truncated, never fatal.
# Like phase 3, it rebinds over the SIGKILLed daemon's stale socket file.
start_daemon "--data-dir $DATA --compact-every 3" \
  || { flunk "exdld did not restart over the crashed data dir"; exit 1; }
$RUN "$EXDLC" connect "$WORK/durq.dl" --socket "$SOCK" \
  >"$WORK/dur.out" 2>"$WORK/dur.err" \
  || flunk "post-restart durability query failed"
recovered=$(grep -c '^k' "$WORK/dur.out")
if [ "$recovered" -lt "$acked" ] || [ "$recovered" -gt 12 ]; then
  flunk "recovered $recovered load(s), want between acked=$acked and 12"
fi
$RUN "$EXDLC" connect --socket "$SOCK" --stats >"$WORK/dur_stats.json" 2>&1 \
  || flunk "exdlc connect --stats failed on the durable daemon"
python3 - "$WORK/dur_stats.json" <<'EOF' || fail=1
import json, sys
doc = json.load(open(sys.argv[1]))
dur = doc.get("daemon", {}).get("durability")
assert dur, "durable daemon STATS is missing daemon.durability"
assert dur["records_replayed"] >= 0, dur
assert dur["snapshot_generation"] >= 0, dur
EOF
kill -TERM "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
# Byte-identity: a fresh daemon loaded with exactly the recovered prefix
# must serve the same answers — recovery replays through the same
# interning path, so even intern order matches.
FRESH="$WORK/smoke_fresh"
rm -rf "$FRESH"
start_daemon "--data-dir $FRESH --compact-every 3" \
  || { flunk "fresh comparison daemon did not start"; exit 1; }
i=1
while [ "$i" -le "$recovered" ]; do
  $RUN "$EXDLC" connect --load-facts "$WORK/fact_$i.facts" --socket "$SOCK" \
    >/dev/null 2>&1 || flunk "fresh daemon load $i failed"
  i=$((i + 1))
done
$RUN "$EXDLC" connect "$WORK/durq.dl" --socket "$SOCK" \
  >"$WORK/fresh.out" 2>"$WORK/fresh.err" \
  || flunk "fresh daemon comparison query failed"
cmp -s "$WORK/dur.out" "$WORK/fresh.out" \
  || { flunk "recovered answers differ from a fresh daemon's"; \
       diff "$WORK/dur.out" "$WORK/fresh.out" | head; }
kill -TERM "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
drc=$?
[ "$drc" -eq 0 ] || flunk "durable daemon SIGTERM drain exited $drc (want 0)"
say "kill -9 mid-LOAD_FACTS recovered $recovered/12 loads, byte-identical"

# --- 6. standing queries: register, load, poll, byte-identity --------------
{
  echo "stc(X, Y) :- se(X, Y)."
  echo "stc(X, Z) :- se(X, Y), stc(Y, Z)."
  echo "?- stc(a, X)."
} >"$WORK/standq.dl"
echo "se(a, b). se(b, c)." >"$WORK/stand_base.facts"
echo "se(c, d). se(d, e2)." >"$WORK/stand_delta.facts"
start_daemon "" || { flunk "exdld did not start for the standing phase"; exit 1; }
$RUN "$EXDLC" connect --load-facts "$WORK/stand_base.facts" --socket "$SOCK" \
  >/dev/null 2>&1 || flunk "standing base fact load failed"
$RUN "$EXDLC" connect "$WORK/standq.dl" --socket "$SOCK" --register \
  >"$WORK/reg.out" 2>"$WORK/reg.err" || flunk "standing REGISTER failed"
SID=$(sed -n 's/.*registered standing query \([0-9][0-9]*\) .*/\1/p' "$WORK/reg.err")
[ -n "$SID" ] || { flunk "could not parse the standing id from: $(cat "$WORK/reg.err")"; SID=1; }
$RUN "$EXDLC" connect --load-facts "$WORK/stand_delta.facts" --socket "$SOCK" \
  >/dev/null 2>&1 || flunk "standing delta fact load failed"
# Poll on a NEW connection (views are daemon-scoped, not connection-scoped).
$RUN "$EXDLC" connect --socket "$SOCK" --poll "$SID" \
  >"$WORK/poll.out" 2>"$WORK/poll.err" || flunk "standing POLL_RESULT failed"
grep -q 'incremental' "$WORK/poll.err" \
  || flunk "poll did not report incremental maintenance: $(cat "$WORK/poll.err")"
grep -q 'full_recomputes=0' "$WORK/poll.err" \
  || flunk "poll reported a full recompute: $(cat "$WORK/poll.err")"
# Byte-identity: a one-shot submission of the same source at the same
# generation, minus the batch's "== name ==" header line.
$RUN "$EXDLC" connect "$WORK/standq.dl" --socket "$SOCK" \
  >"$WORK/standcold.out" 2>/dev/null || flunk "standing cold comparison run failed"
tail -n +2 "$WORK/standcold.out" >"$WORK/standcold.body"
cmp -s "$WORK/poll.out" "$WORK/standcold.body" \
  || { flunk "polled standing answers differ from a one-shot submission"; \
       diff "$WORK/poll.out" "$WORK/standcold.body" | head; }
$RUN "$EXDLC" connect --socket "$SOCK" --unregister "$SID" \
  >/dev/null 2>&1 || flunk "standing UNREGISTER failed"
if $RUN "$EXDLC" connect --socket "$SOCK" --poll "$SID" >/dev/null 2>&1; then
  flunk "poll of an unregistered standing id unexpectedly succeeded"
fi
kill -TERM "$DPID" 2>/dev/null
wait "$DPID" 2>/dev/null
src=$?
[ "$src" -eq 0 ] || flunk "standing-phase SIGTERM drain exited $src (want 0)"
say "standing query registered, maintained, polled byte-identical, dropped"

# --- 7. large answers: 8,192-row answer sets over the socket ---------------
# Each program carries the 512 chains x 16 edges inline, so the in-process
# run and the daemon evaluate the same source.
awk 'BEGIN { for (c = 0; c < 512; c++) for (j = 0; j < 16; j++)
               printf "e(c%dx%d, c%dx%d).\n", c, j, c, j + 1 }' \
  >"$WORK/chains.facts"
TC_RULES="tc(X, Y) :- e(X, Y).
tc(X, Z) :- e(X, Y), tc(Y, Z)."
printf '%s\nq(X) :- tc(X, _).\n?- q(X).\n' "$TC_RULES" >"$WORK/large_ex1.dl"
printf '%s\n?- tc(c0x0, Y).\n' "$TC_RULES" >"$WORK/large_bin.dl"
printf '%s\nhit :- tc(c0x0, c0x16).\n?- hit.\n' "$TC_RULES" >"$WORK/large_bool.dl"
printf '%s\nhit :- e(c0x3, Y), tc(Y, _).\n?- hit.\n' "$TC_RULES" \
  >"$WORK/large_hit_true.dl"
printf '%s\nhit :- e(c0x15, Y), tc(Y, _).\n?- hit.\n' "$TC_RULES" \
  >"$WORK/large_hit_false.dl"
LARGE=""
for name in large_ex1 large_bin large_bool large_hit_true large_hit_false; do
  cat "$WORK/chains.facts" >>"$WORK/$name.dl"
  LARGE="$LARGE $WORK/$name.dl"
done
# shellcheck disable=SC2086  # $LARGE is a list of paths without spaces
$RUN "$EXDLC" run $LARGE --jobs 1 >"$WORK/large_ref.out" 2>/dev/null \
  || flunk "in-process run of the large-answer batch failed"
rows=$(awk '/^== /{name = $2; sub(/.*\//, "", name); next} {n[name]++} END {
  printf "%d %d %d %d %d", n["large_ex1.dl"], n["large_bin.dl"],
    n["large_bool.dl"], n["large_hit_true.dl"], n["large_hit_false.dl"] }' \
  "$WORK/large_ref.out")
[ "$rows" = "8192 16 1 1 0" ] \
  || flunk "large-answer reference rows (ex1 bin bool hit_true hit_false) are $rows, want 8192 16 1 1 0"
for mode in "" "--optimize"; do
  start_daemon "$mode" \
    || { flunk "exdld $mode did not start for the large-answer phase"; exit 1; }
  # shellcheck disable=SC2086
  $RUN "$EXDLC" connect $LARGE --socket "$SOCK" \
    >"$WORK/large.out" 2>"$WORK/large.err" \
    || flunk "large-answer batch against exdld $mode failed"
  cmp -s "$WORK/large_ref.out" "$WORK/large.out" \
    || { flunk "large answers over the socket ($mode) differ from exdlc run"; \
         diff "$WORK/large_ref.out" "$WORK/large.out" | head; }
  if [ "$mode" = "--optimize" ]; then
    # Served queries are governed (every SUBMIT carries a cancellation
    # token), yet the optimized Example 1 must still run as one projection
    # over its 8,192 e rows: a deterministic counter in STATS.
    $RUN "$EXDLC" connect --socket "$SOCK" --stats >"$WORK/large_stats.json" \
      2>&1 || flunk "exdlc connect --stats failed after the large answers"
    python3 - "$WORK/large_stats.json" <<'EOF' || fail=1
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc["storage"]["representation"]["projection_rows"]
assert rows >= 8192, f"projection_rows = {rows} after Example 1 (want >= 8192)"
EOF
  fi
  kill -TERM "$DPID" 2>/dev/null
  wait "$DPID" 2>/dev/null
done
say "8,192-row, 16-row and boolean (true and false) answers are byte-identical over the socket; Example 1 ran as a projection"

if [ "$fail" -ne 0 ]; then
  echo "daemon smoke: FAILED"
  exit 1
fi
echo "daemon smoke: all checks passed"
