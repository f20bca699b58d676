"""Benchmark: the memory-mapped columnar catalog store.

Not a paper figure — this measures the columnar-catalog tentpole along its
acceptance axes:

* **Backing equivalence** (asserted, ``catalog_mmap_equivalence``) — a
  null-bearing catalog served two ways: the materialized engine and an
  ``EngineConfig(catalog_backing="mmap")`` engine (catalog written to a
  columnar store and reopened through ``np.memmap``).  Every presented
  package of every round — per-session and batched — must be bit-identical
  across both.
* **Cold open** (asserted, ``catalog_cold_open_speedup`` ≥ 10x) — attaching
  a 120k-item store (header read + three ``np.memmap`` calls) vs what a cold
  engine otherwise pays: constructing the ``ItemCatalog`` (validation scan)
  and argsorting every feature in both desirability directions.
* **Predicate pushdown** (asserted, ``catalog_pushdown_row_fraction`` ≤ 0.2)
  — a selective numeric-range predicate on a 60k-item mmap catalog: the
  sorted-list walk must touch at most 20% of the catalog's rows, because
  eligibility is answered from the column summaries and stored orders before
  any item row is materialized.
* **Million-item serve** (asserted inline, peak RSS informational) — a 1M×4
  synthetic store opens and serves an elicitation round with the walk
  touching a few hundred rows; the engine process never materializes the
  full feature matrix.

Headline numbers land in ``BENCH_ci.json`` (pinned floors and the row-
fraction *ceiling* in ``tools/bench_gate.py``); the regenerated table lands
in ``results/bench_catalog.txt``.
"""

from __future__ import annotations

import resource
import time

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.packages import PackageEvaluator
from repro.core.profiles import AggregateProfile
from repro.data.columnar import (
    NumericRangePredicate,
    open_catalog_store,
    write_catalog_store,
)
from repro.service import EngineConfig, RecommendationEngine
from repro.topk.batch_search import BatchTopKPackageSearcher

#: Acceptance bounds (pinned in tools/bench_gate.py).
MIN_EQUIVALENCE = 1.0
MIN_COLD_OPEN_SPEEDUP = 10.0
MAX_PUSHDOWN_ROW_FRACTION = 0.2

NUM_SESSIONS = 8
NUM_ROUNDS = 2
COLD_OPEN_ITEMS = 120_000
COLD_OPEN_FEATURES = 8
PUSHDOWN_ITEMS = 60_000
MILLION_ITEMS = 1_000_000


def _catalog(seed: int, n: int, m: int = 4, null_fraction: float = 0.1) -> ItemCatalog:
    rng = np.random.default_rng(seed)
    features = rng.random((n, m)) * 10.0
    features[rng.random((n, m)) < null_fraction] = np.nan
    return ItemCatalog(features)


def _profile(m: int = 4) -> AggregateProfile:
    return AggregateProfile((["sum", "avg", "max", "min"] * m)[:m])


def _engine_config(**overrides) -> EngineConfig:
    elicitation = overrides.pop(
        "elicitation",
        ElicitationConfig(
            k=3,
            num_random=2,
            max_package_size=3,
            num_samples=150,
            sampler="mcmc",
            search_sample_budget=3,
            search_beam_width=150,
            search_items_cap=60,
            seed=0,
        ),
    )
    return EngineConfig(elicitation=elicitation, seed=1, **overrides)


def _serve_rounds(engine) -> list:
    session_ids = [engine.create_session(seed=100 + i) for i in range(NUM_SESSIONS)]
    presented = []
    for session_id in session_ids:  # per-session path
        round_ = engine.recommend(session_id)
        presented.append([p.items for p in round_.presented])
        engine.feedback(session_id, 0)
    for _ in range(NUM_ROUNDS):  # batched path
        rounds = engine.recommend_many(session_ids)
        presented.append([[p.items for p in r.presented] for r in rounds])
        for session_id in session_ids:
            engine.feedback(session_id, 1)
    return presented


@pytest.fixture(scope="module")
def catalog_report():
    from bench_utils import record_ci_metric, write_results

    catalog = _catalog(seed=0, n=3_000)
    profile = _profile()

    # ---- backing equivalence: materialized vs mmap
    materialized = RecommendationEngine(catalog, profile, _engine_config())
    rounds_materialized = _serve_rounds(materialized)

    mapped = RecommendationEngine(
        catalog, profile, _engine_config(catalog_backing="mmap")
    )
    assert mapped.catalog.backing_kind == "mmap"
    rounds_mapped = _serve_rounds(mapped)
    equivalence = 1.0 if rounds_mapped == rounds_materialized else 0.0

    # ---- cold open: mmap attach vs rebuild + re-argsort
    big = _catalog(seed=1, n=COLD_OPEN_ITEMS, m=COLD_OPEN_FEATURES)
    raw = np.array(big.features)  # the table a cold engine would load
    import tempfile

    store_dir = tempfile.mkdtemp(prefix="repro-bench-catalog-")
    write_catalog_store(big, store_dir)

    def rebuild() -> float:
        start = time.perf_counter()
        cold = ItemCatalog(raw)
        for j in range(cold.num_features):
            cold.argsort_feature(j, descending=True)
            cold.argsort_feature(j, descending=False)
        return time.perf_counter() - start

    def attach() -> float:
        start = time.perf_counter()
        open_catalog_store(store_dir)
        return time.perf_counter() - start

    rebuild_seconds = min(rebuild() for _ in range(3))
    attach_seconds = min(attach() for _ in range(3))
    cold_open_speedup = rebuild_seconds / attach_seconds

    # ---- predicate pushdown row fraction
    push_dir = tempfile.mkdtemp(prefix="repro-bench-pushdown-")
    write_catalog_store(_catalog(seed=2, n=PUSHDOWN_ITEMS), push_dir)
    push_catalog = open_catalog_store(push_dir)
    predicate = NumericRangePredicate(0, low=9.0)  # ~9% of the uniform range
    eligible = int(predicate.eligible_mask(push_catalog).sum())
    evaluator = PackageEvaluator(push_catalog, _profile(), max_package_size=3)
    searcher = BatchTopKPackageSearcher(evaluator, catalog_predicate=predicate)
    rng = np.random.default_rng(3)
    results = searcher.search_many(rng.normal(size=(8, 4)), 3)
    rows_touched = max(r.items_accessed for r in results)
    pushdown_fraction = rows_touched / PUSHDOWN_ITEMS

    # ---- million-item catalog: open and serve without materializing
    million_dir = tempfile.mkdtemp(prefix="repro-bench-million-")
    write_catalog_store(_catalog(seed=4, n=MILLION_ITEMS), million_dir)
    million = open_catalog_store(million_dir)
    serve_engine = RecommendationEngine(
        million,
        _profile(),
        _engine_config(
            elicitation=ElicitationConfig(
                k=2,
                num_random=1,
                max_package_size=2,
                num_samples=16,
                sampler="mcmc",
                search_sample_budget=2,
                search_items_cap=400,
                seed=0,
            ),
            catalog_backing="mmap",
        ),
    )
    start = time.perf_counter()
    session_id = serve_engine.create_session(seed=7)
    million_round = serve_engine.recommend(session_id)
    million_seconds = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "equivalence": equivalence,
        "rounds_mapped_ok": rounds_mapped == rounds_materialized,
        "rebuild_seconds": rebuild_seconds,
        "attach_seconds": attach_seconds,
        "cold_open_speedup": cold_open_speedup,
        "eligible": eligible,
        "rows_touched": rows_touched,
        "pushdown_fraction": pushdown_fraction,
        "million_round": million_round,
        "million_seconds": million_seconds,
        "peak_rss_mb": peak_rss_mb,
    }

    header = (
        "Memory-mapped columnar catalog store\n"
        f"equivalence (materialized vs mmap) = "
        f"{equivalence:.0f} (floor: exact); cold open x{cold_open_speedup:.1f} "
        f"(floor {MIN_COLD_OPEN_SPEEDUP:.0f}x); pushdown row fraction "
        f"{pushdown_fraction:.4f} (ceiling {MAX_PUSHDOWN_ROW_FRACTION})"
    )
    body = "\n".join(
        [
            "[backing equivalence (asserted)]",
            f"  {NUM_SESSIONS} sessions, per-session + {NUM_ROUNDS} batched rounds",
            f"  mmap rounds bit-identical: {rounds_mapped == rounds_materialized}",
            "",
            "[cold open (asserted)]",
            f"  {COLD_OPEN_ITEMS:,} items x {COLD_OPEN_FEATURES} features",
            f"  rebuild + argsort both directions: {rebuild_seconds * 1e3:.1f} ms",
            f"  mmap attach:                       {attach_seconds * 1e3:.3f} ms",
            f"  speedup: x{cold_open_speedup:.1f}",
            "",
            "[predicate pushdown (asserted)]",
            f"  {PUSHDOWN_ITEMS:,}-item mmap catalog, range predicate keeps "
            f"{eligible:,} items ({eligible / PUSHDOWN_ITEMS:.1%})",
            f"  rows touched by the walk: {rows_touched:,} "
            f"({pushdown_fraction:.2%} of the catalog)",
            "",
            "[million-item serve (asserted inline)]",
            f"  {MILLION_ITEMS:,}-item store opened and served a round in "
            f"{million_seconds:.3f}s ({len(million_round.presented)} packages "
            f"presented)",
            f"  peak RSS: {peak_rss_mb:.0f} MB (informational; includes the "
            f"store-write phase of this benchmark process)",
        ]
    )
    print("\n" + header + "\n\n" + body)
    write_results("bench_catalog.txt", header + "\n\n" + body)
    record_ci_metric(
        "catalog_mmap_equivalence",
        equivalence,
        MIN_EQUIVALENCE,
        source="benchmarks/test_bench_catalog.py",
        description=(
            f"1.0 iff the mmap-backed engine serves rounds bit-identical to "
            f"the materialized engine, {NUM_SESSIONS} sessions per-session + "
            f"batched"
        ),
        unit="",
    )
    record_ci_metric(
        "catalog_cold_open_speedup",
        cold_open_speedup,
        MIN_COLD_OPEN_SPEEDUP,
        source="benchmarks/test_bench_catalog.py",
        description=(
            f"Catalog rebuild + both-direction argsorts over mmap store "
            f"attach, {COLD_OPEN_ITEMS:,} items x {COLD_OPEN_FEATURES} "
            f"features, best of 3"
        ),
    )
    record_ci_metric(
        "catalog_pushdown_row_fraction",
        pushdown_fraction,
        source="benchmarks/test_bench_catalog.py",
        description=(
            f"Max rows touched by a predicate-pushdown batch walk over "
            f"catalog size, {PUSHDOWN_ITEMS:,}-item mmap catalog, "
            f"~{eligible / PUSHDOWN_ITEMS:.0%}-selective range predicate"
        ),
        unit="",
        ceiling=MAX_PUSHDOWN_ROW_FRACTION,
    )
    record_ci_metric(
        "catalog_peak_rss_mb",
        peak_rss_mb,
        0.0,
        source="benchmarks/test_bench_catalog.py",
        description=(
            "Peak RSS of the benchmark process (informational; dominated by "
            "the store-write phases, not the mmap serve)"
        ),
        unit="MB",
    )
    return report


def test_mmap_equivalence(catalog_report):
    assert catalog_report["rounds_mapped_ok"]
    assert catalog_report["equivalence"] >= MIN_EQUIVALENCE


def test_cold_open_speedup(catalog_report):
    assert catalog_report["cold_open_speedup"] >= MIN_COLD_OPEN_SPEEDUP


def test_pushdown_row_fraction(catalog_report):
    assert 0 < catalog_report["eligible"] < PUSHDOWN_ITEMS
    assert catalog_report["pushdown_fraction"] <= MAX_PUSHDOWN_ROW_FRACTION


def test_million_item_catalog_serves_a_round(catalog_report):
    round_ = catalog_report["million_round"]
    assert round_.presented, "the million-item engine served no packages"
    assert catalog_report["million_seconds"] < 60.0
