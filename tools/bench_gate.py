#!/usr/bin/env python
"""CI performance gate: validate the benchmark metrics in ``BENCH_ci.json``.

The gated benchmark modules (service, batch top-k, async front-end, snapshot
compaction, ...) each assert their headline floor *and* record the measured
number via ``bench_utils.record_ci_metric``.  This script is the second, independent
half of the ``bench-gate`` CI job: after the benchmarks have run it checks

1. every **required** metric is present (a silently skipped benchmark cannot
   pass the gate),
2. no metric's recorded floor has been quietly lowered below the pinned
   minimum committed here (editing the floor in a benchmark module without
   touching this file fails the gate loudly), and
3. every measured value clears its floor — the same comparison the pytest
   assertion made, re-checked from the artifact so a stale or hand-edited
   file cannot pass.

Exit codes: 0 = all gates pass, 1 = a performance regression or a lowered
floor, 2 = missing/malformed metrics file.

Usage::

    python tools/bench_gate.py                   # check ./BENCH_ci.json
    python tools/bench_gate.py path/to/file.json # check a specific artifact
"""

from __future__ import annotations

import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_METRICS_PATH = os.path.join(REPO_ROOT, "BENCH_ci.json")

#: The pinned minimum floor per gated metric.  A benchmark may raise its
#: asserted floor freely; lowering one below these values requires editing
#: this file, which is the point — the regression budget is a reviewed,
#: committed decision, not a constant next to the benchmark that trips it.
PINNED_FLOORS = {
    "service_shared_vs_per_session_speedup": 2.0,
    "topk_batch_vs_sequential_speedup": 5.0,
    "async_vs_serial_throughput_speedup": 3.0,
    # Fingerprint-reference snapshots must shrink the session store by at
    # least 5x on the 50-session pool-sharing workload.
    "snapshot_compaction_ratio": 5.0,
    # Approximate pool reuse (PR 5): on the private-exploration miss workload
    # an ESS-gated reweighted donor pool must be served at least 3x faster
    # than the full resampling fill it replaces (measured ~8x), and the ESS
    # gate must pass at least half of the high-overlap misses through
    # (measured ~0.84; the remainder legitimately fall back to fills).
    "adaptation_miss_speedup": 3.0,
    "adaptation_reuse_rate": 0.5,
    # Event-sourced session store (PR 6): every round served by a
    # replay-restored session — including rounds served after a simulated
    # crash truncates a torn tail record — must be bit-identical to the
    # never-swapped reference engine (the indicator is the metric), and the
    # checkpoint append path must never be slower than the SQLite blob
    # swap-out it replaces (measured ~7x faster).
    "eventlog_replay_equivalence": 1.0,
    "eventlog_swap_out_speedup": 1.0,
    # Incremental serving fast path (PR 7): on the deep private-exploration
    # click stream, post-click rounds served through the fused path
    # (ESS-deficit partial refill) must be at least 2x faster than
    # from-scratch rounds (measured ~5x — late-session
    # constraint sets make full refills expensive), and the refill
    # provisioning call alone must beat the hard-maintenance miss path it
    # replaces (measured ~1.6x).  Exactness is pinned separately by the
    # randomized equivalence suite in tests/test_incremental.py.
    "incremental_search_speedup": 2.0,
    "partial_refill_speedup": 1.2,
    # Memory-mapped columnar catalog (PR 9): rounds served from an
    # mmap-backed catalog — per-session and batched — must be bit-identical
    # to the materialized engine (the indicator is the metric), and
    # attaching a cold store must beat rebuilding + re-argsorting the
    # catalog by at least 10x.
    "catalog_mmap_equivalence": 1.0,
    "catalog_cold_open_speedup": 10.0,
}

#: The pinned maximum ceiling per lower-is-better gated metric.  Mirrors
#: PINNED_FLOORS with the comparison reversed: a benchmark may tighten its
#: asserted ceiling freely; raising one above these values requires editing
#: this file in a reviewed commit.
PINNED_CEILINGS = {
    # Predicate pushdown (PR 9): on the selective-predicate workload the
    # sorted-list walk must touch at most this fraction of the catalog's
    # rows — eligibility is answered from column summaries and stored
    # orders, never by scanning the table.
    "catalog_pushdown_row_fraction": 0.2,
    # Unified telemetry layer (PR 10): request tracing + the metrics
    # registry enabled at production sampling settings (keep slow traces,
    # sample every 10th) may cost at most 5% of p50 round serve latency
    # against the disabled facade (measured ~0% — one attribute check per
    # instrumentation site when off, span bookkeeping only when on).
    "telemetry_overhead_fraction": 0.05,
}

EXPECTED_SCHEMA_VERSION = 1


def main(argv):
    path = argv[0] if argv else DEFAULT_METRICS_PATH
    if not os.path.exists(path):
        print(f"error: metrics file not found: {path}", file=sys.stderr)
        print("run the gated benchmarks first, e.g.:", file=sys.stderr)
        print(
            "  python -m pytest benchmarks/test_bench_service.py "
            "benchmarks/test_bench_topk_batch.py benchmarks/test_bench_async.py",
            file=sys.stderr,
        )
        return 2
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if payload.get("schema_version") != EXPECTED_SCHEMA_VERSION:
        print(
            f"error: unexpected schema_version {payload.get('schema_version')!r} "
            f"(this gate understands {EXPECTED_SCHEMA_VERSION})",
            file=sys.stderr,
        )
        return 2
    metrics = payload.get("metrics", {})

    failures = []
    width = max(len(name) for name in (*PINNED_FLOORS, *PINNED_CEILINGS))
    print(f"bench gate: {path}")
    for name, pinned in sorted(PINNED_FLOORS.items()):
        entry = metrics.get(name)
        if entry is None:
            failures.append(f"{name}: required metric missing from {path}")
            print(f"  {name:<{width}}  MISSING")
            continue
        value = float(entry["value"])
        floor = float(entry["floor"])
        unit = entry.get("unit", "")
        status = "ok"
        if floor < pinned:
            status = "FLOOR LOWERED"
            failures.append(
                f"{name}: recorded floor {floor}{unit} is below the pinned "
                f"minimum {pinned}{unit} (raise it, or change tools/bench_gate.py "
                f"in a reviewed commit)"
            )
        if value < floor:
            status = "REGRESSION"
            failures.append(
                f"{name}: measured {value}{unit} is below its floor {floor}{unit}"
            )
        print(
            f"  {name:<{width}}  value={value:>8.3f}{unit}  "
            f"floor={floor:>6.2f}{unit}  pinned={pinned:>6.2f}{unit}  [{status}]"
        )
    for name, pinned in sorted(PINNED_CEILINGS.items()):
        entry = metrics.get(name)
        if entry is None:
            failures.append(f"{name}: required metric missing from {path}")
            print(f"  {name:<{width}}  MISSING")
            continue
        value = float(entry["value"])
        ceiling = float(entry["ceiling"])
        unit = entry.get("unit", "")
        status = "ok"
        if ceiling > pinned:
            status = "CEILING RAISED"
            failures.append(
                f"{name}: recorded ceiling {ceiling}{unit} is above the pinned "
                f"maximum {pinned}{unit} (tighten it, or change "
                f"tools/bench_gate.py in a reviewed commit)"
            )
        if value > ceiling:
            status = "REGRESSION"
            failures.append(
                f"{name}: measured {value}{unit} is above its ceiling "
                f"{ceiling}{unit}"
            )
        print(
            f"  {name:<{width}}  value={value:>8.3f}{unit}  "
            f"ceiling={ceiling:>4.2f}{unit}  pinned={pinned:>6.2f}{unit}  [{status}]"
        )
    extra = sorted(set(metrics) - set(PINNED_FLOORS) - set(PINNED_CEILINGS))
    for name in extra:
        entry = metrics[name]
        print(
            f"  {name:<{width}}  value={float(entry['value']):>8.3f}"
            f"{entry.get('unit', '')}  (unpinned, informational)"
        )

    if failures:
        print("\n" + "\n".join(failures), file=sys.stderr)
        print(f"\nbench gate FAILED ({len(failures)} problem(s))", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
