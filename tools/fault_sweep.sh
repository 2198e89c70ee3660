#!/usr/bin/env bash
# Deterministic fault sweep over the recovery paths.
#
# The site list is NOT hard-coded here: it comes from `exdlc fault-sites`,
# the single source of truth (src/recovery/fault.cc). Sites are partitioned
# by prefix:
#
#   engine sites (storage.*, eval.*, snapshot.*)
#     For every trigger depth 1..MAX_HITS (deeper where a sweep asks for
#     it, to reach every round of its program), run exdlc with an injected
#     crash (EXDL_FAULT_SPEC="<site>:<n>:abort") and round-boundary
#     checkpointing, then prove the run either completed untouched (site
#     not reached at that depth) or died with exit 86 and recovered — via
#     the surviving checkpoint or a restart — to byte-identical output.
#
#   daemon sites (daemon.*, except daemon.recover_replay) — requires the
#   exdld binary argument
#     For every depth, twice per depth:
#       fail mode  the daemon injects the failure (torn connection,
#                  dropped accept, failed dispatch) but keeps running; the
#                  exdlc connect batch client must recover in-run through
#                  its retry ladder and produce output byte-identical to an
#                  in-process `exdlc run --jobs 1` of the same files.
#       abort mode the daemon hard-crashes (exit 86) at the site; the
#                  sweep restarts it and re-runs the client, which must
#                  recover to byte-identical output. The 86 exit is also
#                  the proof the site was reached.
#     Both a serial (--jobs 1) and a 4-worker daemon are swept.
#
#   durability sites (factlog.*, daemon.recover_replay) — requires exdld
#     The durable-EDB paths (DESIGN.md §15): a daemon with --data-dir takes
#     five fact loads with a fault armed at the site, in fail and abort
#     mode, serial and 4-worker. Fail-mode failures must be recoverable by
#     re-issuing the load against the live daemon; an abort (exit 86, torn
#     log tail and all) must recover on restart. daemon.recover_replay is
#     seeded first (load five facts, SIGKILL) and armed on the *restart*:
#     recovery must fail closed (never serve a partial EDB), and a clean
#     restart must then succeed. Every case ends by diffing the recovered
#     daemon's answers against an uninterrupted reference — byte-identical.
#
# At the end the sweep fails loudly if any site in the registry was never
# reached (never produced an 86 exit at any depth) — a renamed or
# disconnected site cannot silently drop out of coverage.
#
# Any other exit code (a real crash, a sanitizer report), any divergent
# output, any hang (runs are bounded by `timeout`), or any checkpoint that
# fails to load is a sweep failure.
#
# usage: tools/fault_sweep.sh <exdlc-binary> [exdld-binary] [max-hits]
#   Without <exdld-binary> the daemon.* and durability sites are skipped
#   (and exempted from the must-reach check) — CI always passes it.

set -u

EXDLC=${1:?usage: fault_sweep.sh <exdlc-binary> [exdld-binary] [max-hits]}
EXDLD=${2:-}
MAX_HITS=${3:-5}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# The shared site table (recovery/fault.cc), split by subsystem.
ALL_SITES=$("$EXDLC" fault-sites) || {
  echo "FAIL: cannot read the site list from exdlc fault-sites"
  exit 1
}
ENGINE_SITES=$(printf '%s\n' "$ALL_SITES" | grep -v -e '^daemon\.' -e '^factlog\.')
DAEMON_SITES=$(printf '%s\n' "$ALL_SITES" | grep '^daemon\.' \
  | grep -v '^daemon\.recover_replay$')
DUR_SITES=$(printf '%s\n' "$ALL_SITES" \
  | grep -e '^factlog\.' -e '^daemon\.recover_replay$')

fail=0
cases=0

mark_reached() { touch "$WORK/reached_$1"; }

# Bound every child run so an injected fault can never hang the sweep.
RUN="timeout 120"

# ---------------------------------------------------------------------------
# Engine sweep: crash + checkpoint/resume recovery.

# $1 = program file, $2 = thread count, $3 = label for messages,
# $4 = extra exdlc run flags (may be empty), $5 = deepest trigger depth
# (default MAX_HITS)
run_engine_sweep() {
  prog=$1
  threads=$2
  label=$3
  extra=${4:-}
  hits=${5:-$MAX_HITS}
  ref="$WORK/ref_$label.out"
  # shellcheck disable=SC2086  # extra is intentionally split
  if ! $RUN "$EXDLC" run "$prog" --threads "$threads" $extra >"$ref" \
      2>/dev/null; then
    echo "FAIL: $label reference run did not complete"
    fail=1
    return
  fi
  for site in $ENGINE_SITES; do
    for n in $(seq 1 "$hits"); do
      cases=$((cases + 1))
      dir="$WORK/ckpt_${label}_${site}_${n}"
      mkdir -p "$dir"
      out="$WORK/out.txt"
      # shellcheck disable=SC2086  # extra is intentionally split
      EXDL_FAULT_SPEC="$site:$n:abort" $RUN "$EXDLC" run "$prog" \
        --threads "$threads" $extra --checkpoint-dir "$dir" \
        --checkpoint-every-rounds 1 >"$out" 2>"$WORK/err.txt"
      rc=$?
      if [ "$rc" -eq 0 ]; then
        # Site not reached at this depth: the run must be untouched.
        if ! cmp -s "$ref" "$out"; then
          echo "FAIL: $label $site:$n completed but output differs"
          fail=1
        fi
        continue
      fi
      if [ "$rc" -ne 86 ]; then
        echo "FAIL: $label $site:$n exited $rc (want 0 or 86)"
        sed 's/^/    /' "$WORK/err.txt" | head -5
        fail=1
        continue
      fi
      mark_reached "$site"
      resume_args=""
      if [ -f "$dir/checkpoint.exdl" ]; then
        resume_args="--resume $dir/checkpoint.exdl"
      fi
      # shellcheck disable=SC2086  # resume_args, extra: intentionally split
      if ! $RUN "$EXDLC" run "$prog" --threads "$threads" $extra \
          $resume_args >"$out" 2>"$WORK/err.txt"; then
        echo "FAIL: $label $site:$n recovery run failed"
        sed 's/^/    /' "$WORK/err.txt" | head -5
        fail=1
        continue
      fi
      if ! cmp -s "$ref" "$out"; then
        echo "FAIL: $label $site:$n recovered output differs from reference"
        fail=1
      fi
    done
  done
}

# ---------------------------------------------------------------------------
# Daemon sweep: torn connections, dropped accepts, failed dispatches, and
# hard crashes of exdld, all recovered by the exdlc connect retry client.

SOCK="$WORK/sweep.sock"
DPID=""

start_daemon() {  # $1 = jobs, $2 = fault spec ("" for none)
  rm -f "$SOCK"
  if [ -n "$2" ]; then
    EXDL_FAULT_SPEC="$2" "$EXDLD" --socket "$SOCK" --jobs "$1" \
      >/dev/null 2>&1 &
  else
    "$EXDLD" --socket "$SOCK" --jobs "$1" >/dev/null 2>&1 &
  fi
  DPID=$!
  i=0
  while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do
    kill -0 "$DPID" 2>/dev/null || return 1
    sleep 0.05
    i=$((i + 1))
  done
  [ -S "$SOCK" ]
}

# Stops the daemon if alive; leaves its exit code in $DRC. (Not a command
# substitution: `wait` only works on children of this shell, not a subshell.)
stop_daemon() {
  if kill -0 "$DPID" 2>/dev/null; then
    kill -TERM "$DPID" 2>/dev/null
  fi
  wait "$DPID" 2>/dev/null
  DRC=$?
}

run_daemon_sweep() {  # $1 = jobs, $2 = label
  jobs=$1
  label=$2
  f1="$WORK/sweep_a.dl"
  f2="$WORK/sweep_b.dl"
  ref="$WORK/ref_daemon.out"
  if ! $RUN "$EXDLC" run "$f1" "$f2" --jobs 1 >"$ref" 2>/dev/null; then
    echo "FAIL: daemon-sweep in-process reference run did not complete"
    fail=1
    return
  fi
  for site in $DAEMON_SITES; do
    for n in $(seq 1 "$MAX_HITS"); do
      for mode in fail abort; do
        cases=$((cases + 1))
        spec="$site:$n"
        [ "$mode" = abort ] && spec="$spec:abort"
        if ! start_daemon "$jobs" "$spec"; then
          echo "FAIL: $label $spec daemon did not start"
          fail=1
          continue
        fi
        out="$WORK/daemon_out.txt"
        $RUN "$EXDLC" connect "$f1" "$f2" --socket "$SOCK" \
          --retries 6 --retry-base-ms 5 >"$out" 2>"$WORK/err.txt"
        crc=$?
        if kill -0 "$DPID" 2>/dev/null; then
          # Daemon survived: in fail mode the client must have recovered
          # in-run; in abort mode the site was not reached at this depth.
          if [ "$crc" -ne 0 ] || ! cmp -s "$ref" "$out"; then
            echo "FAIL: $label $spec client rc=$crc or output differs"
            sed 's/^/    /' "$WORK/err.txt" | head -5
            fail=1
          fi
          stop_daemon
          if [ "$DRC" -ne 0 ] && [ "$DRC" -ne 86 ]; then
            echo "FAIL: $label $spec daemon shutdown rc=$DRC (want 0 or 86)"
            fail=1
          fi
          [ "$DRC" -eq 86 ] && mark_reached "$site"
          continue
        fi
        # Daemon died mid-run: only the injected crash may kill it.
        stop_daemon
        if [ "$DRC" -ne 86 ]; then
          echo "FAIL: $label $spec daemon died rc=$DRC (want 86)"
          fail=1
          continue
        fi
        mark_reached "$site"
        if [ "$mode" = fail ]; then
          echo "FAIL: $label $spec fail-mode daemon must not crash"
          fail=1
          continue
        fi
        # The client saw a torn connection (rc 8 once its retries ran out
        # against the dead socket, or nonzero mid-tear). Restart the
        # daemon and prove the client recovers to byte-identical output —
        # the torn first pass must leave no corrupting trace.
        if ! start_daemon "$jobs" ""; then
          echo "FAIL: $label $spec daemon did not restart after crash"
          fail=1
          continue
        fi
        if ! $RUN "$EXDLC" connect "$f1" "$f2" --socket "$SOCK" \
            --retries 6 --retry-base-ms 5 >"$out" 2>"$WORK/err.txt"; then
          echo "FAIL: $label $spec client did not recover after restart"
          sed 's/^/    /' "$WORK/err.txt" | head -5
          fail=1
          stop_daemon
          continue
        fi
        if ! cmp -s "$ref" "$out"; then
          echo "FAIL: $label $spec recovered output differs from reference"
          fail=1
        fi
        stop_daemon
        if [ "$DRC" -ne 0 ]; then
          echo "FAIL: $label $spec clean daemon shutdown rc=$DRC"
          fail=1
        fi
      done
    done
  done
}

# ---------------------------------------------------------------------------
# Durability sweep: the write-ahead fact log, its compaction, and startup
# replay (DESIGN.md §15), recovered across daemon restarts.

start_dur_daemon() {  # $1 = jobs, $2 = fault spec, $3 = data dir, $4 = compact-every
  rm -f "$SOCK"
  if [ -n "$2" ]; then
    EXDL_FAULT_SPEC="$2" "$EXDLD" --socket "$SOCK" --jobs "$1" \
      --data-dir "$3" --compact-every "$4" >"$WORK/dlog.txt" 2>&1 &
  else
    "$EXDLD" --socket "$SOCK" --jobs "$1" \
      --data-dir "$3" --compact-every "$4" >"$WORK/dlog.txt" 2>&1 &
  fi
  DPID=$!
  i=0
  while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do
    kill -0 "$DPID" 2>/dev/null || return 1
    sleep 0.05
    i=$((i + 1))
  done
  [ -S "$SOCK" ]
}

# SIGKILLs the daemon (the crash the durable EDB must survive).
kill9_daemon() {
  kill -9 "$DPID" 2>/dev/null
  wait "$DPID" 2>/dev/null
}

# Loads one fact file, re-issuing on a fail-mode injected failure (the
# only client-side recovery a non-retryable error permits). Returns 1 if
# the daemon died or the load never succeeded.
dur_load() {
  for _attempt in 1 2 3; do
    if $RUN "$EXDLC" connect --load-facts "$1" --socket "$SOCK" \
        --retries 6 --retry-base-ms 5 >/dev/null 2>"$WORK/err.txt"; then
      return 0
    fi
    kill -0 "$DPID" 2>/dev/null || return 1
  done
  return 1
}

dur_query() {  # $1 = output file
  $RUN "$EXDLC" connect "$WORK/dur_q.dl" --socket "$SOCK" \
    --retries 6 --retry-base-ms 5 >"$1" 2>"$WORK/err.txt"
}

run_durability_sweep() {  # $1 = jobs, $2 = label
  jobs=$1
  label=$2
  ref="$WORK/ref_dur.out"
  out="$WORK/dur_out.txt"
  if [ ! -f "$ref" ]; then
    # Uninterrupted reference: load all five fact files, query, shut down
    # cleanly. Computed once (serial); every recovered daemon — any pool
    # size — must reproduce it byte for byte.
    rm -rf "$WORK/dur_ref_dir"
    if ! start_dur_daemon 1 "" "$WORK/dur_ref_dir" 2; then
      echo "FAIL: durability reference daemon did not start"
      fail=1
      return
    fi
    for k in 1 2 3 4 5; do
      if ! dur_load "$WORK/dur_$k.facts"; then
        echo "FAIL: durability reference load $k failed"
        fail=1
        stop_daemon
        return
      fi
    done
    if ! dur_query "$ref"; then
      echo "FAIL: durability reference query failed"
      fail=1
      stop_daemon
      return
    fi
    stop_daemon
    if [ "$DRC" -ne 0 ]; then
      echo "FAIL: durability reference daemon shutdown rc=$DRC"
      fail=1
      return
    fi
  fi
  for site in $DUR_SITES; do
    for n in $(seq 1 "$MAX_HITS"); do
      for mode in fail abort; do
        cases=$((cases + 1))
        spec="$site:$n"
        [ "$mode" = abort ] && spec="$spec:abort"
        dir="$WORK/dur_${label}_$(printf '%s' "$site" | tr . _)_${n}_${mode}"
        rm -rf "$dir"
        if [ "$site" = "daemon.recover_replay" ]; then
          # Seed a five-record log tail (never compact), then SIGKILL.
          if ! start_dur_daemon "$jobs" "" "$dir" 0; then
            echo "FAIL: $label $spec seed daemon did not start"
            fail=1
            continue
          fi
          seed_ok=1
          for k in 1 2 3 4 5; do
            dur_load "$WORK/dur_$k.facts" || seed_ok=0
          done
          if [ "$seed_ok" -ne 1 ]; then
            echo "FAIL: $label $spec seeding loads failed"
            fail=1
            stop_daemon
            continue
          fi
          kill9_daemon
          # Armed restart: replay hits the fault. Fail mode must refuse to
          # start (fail closed — never a partial EDB); abort mode dies 86.
          if start_dur_daemon "$jobs" "$spec" "$dir" 0; then
            # Site not reached at this depth: full recovery, same answers.
            if ! dur_query "$out" || ! cmp -s "$ref" "$out"; then
              echo "FAIL: $label $spec unreached-restart answers differ"
              fail=1
            fi
            stop_daemon
            if [ "$DRC" -ne 0 ]; then
              echo "FAIL: $label $spec daemon shutdown rc=$DRC"
              fail=1
            fi
          else
            wait "$DPID" 2>/dev/null
            arc=$?
            if [ "$mode" = abort ] && [ "$arc" -ne 86 ]; then
              echo "FAIL: $label $spec armed restart rc=$arc (want 86)"
              fail=1
              continue
            fi
            if [ "$mode" = fail ] && ! grep -q "daemon.recover_replay" \
                "$WORK/dlog.txt"; then
              echo "FAIL: $label $spec armed restart rc=$arc without the" \
                   "injected-fault message"
              sed 's/^/    /' "$WORK/dlog.txt" | head -5
              fail=1
              continue
            fi
            mark_reached "$site"
          fi
          # Clean restart over the same directory must fully recover.
          if ! start_dur_daemon "$jobs" "" "$dir" 0; then
            echo "FAIL: $label $spec clean restart did not start"
            fail=1
            continue
          fi
          if ! dur_query "$out" || ! cmp -s "$ref" "$out"; then
            echo "FAIL: $label $spec recovered answers differ from reference"
            fail=1
          fi
          stop_daemon
          if [ "$DRC" -ne 0 ]; then
            echo "FAIL: $label $spec clean daemon shutdown rc=$DRC"
            fail=1
          fi
          continue
        fi
        # factlog.* sites: the armed daemon takes the five loads.
        if ! start_dur_daemon "$jobs" "$spec" "$dir" 2; then
          echo "FAIL: $label $spec daemon did not start"
          fail=1
          continue
        fi
        loads_ok=1
        for k in 1 2 3 4 5; do
          if ! dur_load "$WORK/dur_$k.facts"; then
            loads_ok=0
            break
          fi
        done
        if kill -0 "$DPID" 2>/dev/null; then
          # Fail mode (or unreached): every load must have gone through —
          # an injected append/fsync failure unwinds the log, so the
          # re-issued load must succeed against the live daemon.
          if [ "$loads_ok" -ne 1 ]; then
            echo "FAIL: $label $spec loads did not recover in-run"
            sed 's/^/    /' "$WORK/err.txt" | head -5
            fail=1
            stop_daemon
            continue
          fi
          if ! dur_query "$out" || ! cmp -s "$ref" "$out"; then
            echo "FAIL: $label $spec live answers differ from reference"
            fail=1
            stop_daemon
            continue
          fi
          # SIGKILL + restart: every acknowledged load was fsync'd, so the
          # recovered daemon must serve the same answers.
          kill9_daemon
        else
          # Daemon died mid-load: only the injected abort may do that.
          wait "$DPID" 2>/dev/null
          arc=$?
          if [ "$mode" != abort ] || [ "$arc" -ne 86 ]; then
            echo "FAIL: $label $spec daemon died rc=$arc (want abort 86)"
            fail=1
            continue
          fi
          mark_reached "$site"
        fi
        # Restart over the same directory (repairing any torn tail),
        # re-issue every load — answers are set-semantics, so reloading an
        # already-durable fact changes nothing — and diff.
        if ! start_dur_daemon "$jobs" "" "$dir" 2; then
          echo "FAIL: $label $spec daemon did not restart"
          sed 's/^/    /' "$WORK/dlog.txt" | head -5
          fail=1
          continue
        fi
        reload_ok=1
        for k in 1 2 3 4 5; do
          dur_load "$WORK/dur_$k.facts" || reload_ok=0
        done
        if [ "$reload_ok" -ne 1 ]; then
          echo "FAIL: $label $spec reload after restart failed"
          fail=1
          stop_daemon
          continue
        fi
        if ! dur_query "$out" || ! cmp -s "$ref" "$out"; then
          echo "FAIL: $label $spec recovered answers differ from reference"
          fail=1
        fi
        stop_daemon
        if [ "$DRC" -ne 0 ]; then
          echo "FAIL: $label $spec clean daemon shutdown rc=$DRC"
          fail=1
        fi
      done
    done
  done
}

# ---------------------------------------------------------------------------
# Sweep 1: the stock example, serial. Exercises arena growth and every
# snapshot I/O site; eval.pool_dispatch is unreachable serially (counts as
# "completed identical" at every depth, which the sweep verifies too).
run_engine_sweep "$REPO_ROOT/examples/tc_chain.dl" 1 serial

# Sweep 1b: the same example optimized. Its bound query ?- tc(n0, Y) is
# factored into the unary reach/ans program, so the crash and resume paths
# cover a seeded rewrite whose fingerprint carries the query constant.
run_engine_sweep "$REPO_ROOT/examples/tc_chain.dl" 1 factored --optimize

# Sweep 1c: a two-stratum program whose boolean cut retires a rule in
# stratum 0's first round. Its 10 rounds (6 in stratum 0) are all swept,
# one crash per round boundary and checkpoint, so the recoveries resume
# at stratum 1 too, each with the retired rule restored from the
# checkpoint.
run_engine_sweep "$REPO_ROOT/programs/unreached.dl" 1 stratified "" 11

# Sweep 2: 128 disjoint 40-edge chains, 4 threads. Their semi-naive delta
# rounds stay above the evaluator's 4096-row pool gate for the first
# rounds, so eval.pool_dispatch is reached mid-fixpoint at every depth, and
# the snapshot sites are re-proved under parallel evaluation.
BIG="$WORK/wide_chains.dl"
{
  echo "tc(X, Y) :- e(X, Y)."
  echo "tc(X, Z) :- e(X, Y), tc(Y, Z)."
  echo "?- tc(n0, X)."
  chain=0
  while [ "$chain" -lt 128 ]; do
    i=$((chain * 41))
    end=$((i + 40))
    while [ "$i" -lt "$end" ]; do
      echo "e(n$i, n$((i + 1)))."
      i=$((i + 1))
    done
    chain=$((chain + 1))
  done
} >"$BIG"
run_engine_sweep "$BIG" 4 parallel

# Sweeps 3 + 4: the daemon sites, serial and 4-worker daemons.
if [ -n "$EXDLD" ]; then
  {
    echo "tc(X, Y) :- e(X, Y)."
    echo "tc(X, Z) :- e(X, Y), tc(Y, Z)."
    echo "?- tc(m0, X)."
    i=0
    while [ "$i" -lt 200 ]; do
      echo "e(m$i, m$((i + 1)))."
      i=$((i + 1))
    done
  } >"$WORK/sweep_a.dl"
  {
    echo "p(X) :- e(X, Y)."
    echo "?- p(X)."
    echo "e(a, b). e(b, c). e(c, a)."
  } >"$WORK/sweep_b.dl"
  run_daemon_sweep 1 daemon-serial
  run_daemon_sweep 4 daemon-4

  # Sweeps 5 + 6: the durable-EDB sites, serial and 4-worker daemons.
  for k in 1 2 3 4 5; do
    echo "p(d$k)." >"$WORK/dur_$k.facts"
  done
  {
    echo "q(X) :- p(X)."
    echo "?- q(X)."
  } >"$WORK/dur_q.dl"
  run_durability_sweep 1 dur-serial
  run_durability_sweep 4 dur-4
else
  echo "note: no exdld binary given — daemon.* sites skipped"
fi

# ---------------------------------------------------------------------------
# Coverage: every registered site must have fired at least once somewhere
# in the sweep (daemon sites only when the daemon was swept).
MUST_REACH=$ENGINE_SITES
[ -n "$EXDLD" ] && MUST_REACH="$ENGINE_SITES $DAEMON_SITES $DUR_SITES"
for site in $MUST_REACH; do
  if [ ! -f "$WORK/reached_$site" ]; then
    echo "FAIL: site $site was never reached by the sweep"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "fault sweep: FAILED ($cases cases)"
  exit 1
fi
echo "fault sweep: all $cases cases recovered to byte-identical output"
