#!/usr/bin/env python3
"""Assert the monadic bench ran kernel-only on the bitset path.

Usage: check_bench_fallback.py [BENCH_bench_e9_monadic.json]

Reads the JSON rows written by bench_e9_monadic (run with
EXDL_BENCH_METRICS=1 so every row carries its telemetry document) and
fails if any monadic case (Monadic_bitset/N rows) reports
storage.representation.fallbacks != 0 — i.e. a rule the monadic
synthesis produced was not bitset-eligible and silently fell back to the
generic descent. The monadic programs of Theorem 3.3 are exactly the
shape DESIGN.md §14 promises to run as kernels, so a nonzero fallback
count here is a planner regression, not a data effect. Their DFA start
rules (`st(X) :- a(X, W).`) are single-scan projections, so each case
must also report storage.representation.projection_rows > 0: zero means
projection runs stopped engaging and those rules emit head by head.

Exit codes: 0 all bitset monadic cases ran kernel-only with projection
runs; 1 a case fell back, ran no projection (or carried no telemetry);
2 usage / unreadable input.
"""

import json
import sys


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_bench_e9_monadic.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    for row in doc.get("results", []):
        name = row.get("name", "")
        # Monadic_bitset/N must run kernel-only; BinaryChain/N has binary
        # recursion, which legitimately falls back.
        if not name.startswith("Monadic_bitset/"):
            continue
        checked += 1
        telemetry = row.get("telemetry")
        if telemetry is None:
            print(f"FAIL {name}: no telemetry in row "
                  "(run the bench with EXDL_BENCH_METRICS=1)")
            failures += 1
            continue
        rep = telemetry.get("storage", {}).get("representation", {})
        fallbacks = rep.get("fallbacks")
        projection_rows = rep.get("projection_rows")
        if fallbacks != 0:
            print(f"FAIL {name}: storage.representation.fallbacks = "
                  f"{fallbacks!r} (want 0)")
            failures += 1
        elif not isinstance(projection_rows, int) or projection_rows <= 0:
            print(f"FAIL {name}: storage.representation.projection_rows = "
                  f"{projection_rows!r} (want > 0)")
            failures += 1
        else:
            print(f"ok   {name}: fallbacks=0 "
                  f"projection_rows={projection_rows} "
                  f"(words_scanned={rep.get('words_scanned')}, "
                  f"bitset_relations={rep.get('bitset_relations')})")
    if checked == 0:
        print(f"error: {path} has no Monadic_bitset rows",
              file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
