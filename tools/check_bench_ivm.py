#!/usr/bin/env python3
"""Assert the standing-query bench maintained its views incrementally.

Usage: check_bench_ivm.py [BENCH_bench_a3_standing_queries.json]

Reads the JSON rows written by bench_a3_standing_queries (run with
EXDL_BENCH_METRICS=1 so every row carries the service's metrics document)
and fails if any standing/incremental case reports ivm.full_recomputes
!= 0 — i.e. a view that DESIGN.md §16 promises stays on the delta-driven
path fell back to recomputing its fixpoint from scratch — or reports
ivm.support_bytes > 8 * ivm.support_tuples: the support ledger is a
dense 4-byte count column per predicate, so more than 8 bytes per
counted tuple means a per-tuple hash structure came back. It also requires
the LoadFacts copy-on-write counters (service.load.cow_detaches and
cow_bytes_copied) and fails a row whose cow_detaches exceeds its LoadFacts
count (service.snapshot_generation) times the predicates each A3 load
touches (only `e`): a load must detach each relation it writes at most
once. The bench binary
already aborts when the polled answers diverge from a cold re-evaluation,
so by the time this checker runs, byte-identity has been enforced; this
guards the *mechanism*, not the answers.

The incremental-vs-recompute speedup is printed per worker count but is
informational only (CI machines are too noisy to gate on a ratio).

Exit codes: 0 every incremental case stayed incremental and dense; 1 a
full recompute happened, the ledger outgrew its bound, a load detached too
many relations, or telemetry was missing; 2 usage/unreadable input.
"""

import json
import sys

# Every A3 load (the base EDB and each generation's delta) writes only `e`.
PREDICATES_PER_LOAD = 1


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_bench_a3_standing_queries.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    qps = {}  # (case, workers) -> qps
    for row in doc.get("results", []):
        name = row.get("name", "")
        if not name.startswith("standing/"):
            continue
        _, case, workers = name.split("/", 2)
        if "queries_per_sec" in row:
            qps[(case, workers)] = row["queries_per_sec"]
        if case != "incremental":
            continue
        checked += 1
        telemetry = row.get("telemetry")
        if telemetry is None:
            print(f"FAIL {name}: no telemetry in row "
                  "(run the bench with EXDL_BENCH_METRICS=1)")
            failures += 1
            continue
        ivm = telemetry.get("ivm", {})
        recomputes = ivm.get("full_recomputes")
        support_bytes = ivm.get("support_bytes")
        support_tuples = ivm.get("support_tuples")
        service = telemetry.get("service", {})
        loads = service.get("snapshot_generation")
        load = service.get("load", {})
        detaches = load.get("cow_detaches")
        bytes_copied = load.get("cow_bytes_copied")
        if recomputes != 0:
            print(f"FAIL {name}: ivm.full_recomputes = {recomputes!r} "
                  "(want 0: the incremental path must never reseed here)")
            failures += 1
        elif support_bytes is None or support_tuples is None:
            print(f"FAIL {name}: ivm.support_bytes/support_tuples missing")
            failures += 1
        elif support_bytes > 8 * support_tuples:
            print(f"FAIL {name}: ivm.support_bytes = {support_bytes} > "
                  f"8 * support_tuples = {8 * support_tuples} "
                  "(the support ledger must stay a dense count column)")
            failures += 1
        elif loads is None or detaches is None or bytes_copied is None:
            print(f"FAIL {name}: service.snapshot_generation or "
                  "service.load.cow_detaches/cow_bytes_copied missing")
            failures += 1
        elif detaches > loads * PREDICATES_PER_LOAD:
            print(f"FAIL {name}: service.load.cow_detaches = {detaches} > "
                  f"{loads} loads * {PREDICATES_PER_LOAD} predicates "
                  "(a load detached a relation it did not write, or one "
                  "relation more than once)")
            failures += 1
        else:
            print(f"ok   {name}: full_recomputes=0 "
                  f"(generations={ivm.get('generations_applied')}, "
                  f"delta_rounds={ivm.get('delta_rounds')}, "
                  f"tuples_rederived={ivm.get('tuples_rederived')}, "
                  f"support_bytes={support_bytes}, "
                  f"support_tuples={support_tuples}, "
                  f"cow_detaches={detaches}, "
                  f"cow_bytes_copied={bytes_copied})")
    for (case, workers), value in sorted(qps.items()):
        if case != "incremental":
            continue
        base = qps.get(("recompute", workers))
        if base:
            print(f"info {workers}: incremental {value:.0f} qps vs "
                  f"recompute {base:.0f} qps ({value / base:.1f}x)")
    if checked == 0:
        print(f"error: {path} has no standing/incremental rows",
              file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
