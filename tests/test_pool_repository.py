"""Tests for the pool repository and warm starts.

Covers the pool table's LRU + pinning semantics, key-deterministic fills
(identical pools whatever the fill order or batching, and a refill after
eviction reproducing the evicted pool), the apex-seed alarm every fill
passes, fills staying in the serving process, and the WarmStartPlanner
contract that cold sessions never sample.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.elicitation import ElicitationConfig
from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.data.columnar import NumericRangePredicate
from repro.obs import Telemetry
from repro.sampling.base import ConstraintSet, SamplePool
from repro.sampling.fillspec import FillSpec
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.service import (
    EngineConfig,
    PoolFillJob,
    PoolRepository,
    RecommendationEngine,
)

NUM_FEATURES = 3
SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def make_pool(size=4):
    return SamplePool.unweighted(np.random.default_rng(0).random((size, NUM_FEATURES)))


def repo(capacity=16):
    """A repository whose fills are key-seeded rejection fills (the engine's
    contract, in miniature)."""

    def spec_factory(key: str, constraints: ConstraintSet, count: int) -> FillSpec:
        return FillSpec.for_fill(key, constraints, count, sampler="rejection", seed_root=0)

    return PoolRepository(
        spec_factory,
        GaussianMixture.default_prior(NUM_FEATURES, rng=0),
        capacity=capacity,
    )


# ============================================================ storage + pinning
class TestShardStorage:
    """The pool table: LRU entries, pinned entries, and their statistics."""

    def test_get_put_routes_by_key(self):
        repository = repo()
        pool = make_pool()
        repository.put("a", pool)
        assert repository.get("a") is pool
        assert "a" in repository
        assert len(repository) == 1
        assert repository.get("nope") is None
        assert repository.stats.hits == 1
        assert repository.stats.misses == 1

    def test_pinned_pools_survive_eviction_pressure(self):
        repository = repo(capacity=2)
        hot = make_pool()
        repository.pin("hot", hot)
        for i in range(10):
            repository.put(f"cold-{i}", make_pool())
        assert repository.get("hot") is hot
        assert "hot" in repository.pinned_keys()

    def test_pin_promotes_an_existing_lru_entry(self):
        repository = repo(capacity=2)
        pool = make_pool()
        repository.put("a", pool)
        repository.pin("a")
        for i in range(5):
            repository.put(f"b-{i}", make_pool())
        assert repository.get("a") is pool

    def test_pin_unknown_key_without_pool_raises(self):
        with pytest.raises(KeyError):
            repo().pin("missing")

    def test_pin_with_explicit_pool_lifts_the_lru_copy(self):
        """Review regression: pinning a key that is also LRU-cached must not
        leave a duplicate behind (evict() would half-work and len() double
        count)."""
        repository = repo()
        lru_copy = make_pool()
        repository.put("a", lru_copy)
        pinned_copy = make_pool()
        repository.pin("a", pinned_copy)
        assert len(repository) == 1
        assert repository.get("a") is pinned_copy
        assert repository.evict("a")
        assert "a" not in repository
        assert len(repository) == 0

    def test_unpin_returns_the_pool_to_lru_management(self):
        repository = repo(capacity=1)
        repository.pin("a", make_pool())
        repository.unpin("a")
        assert "a" not in repository.pinned_keys()
        repository.put("b", make_pool())  # evicts the now-unpinned "a"
        assert repository.peek("a") is None

    def test_evict_drops_pinned_and_unpinned_pools(self):
        repository = repo()
        repository.put("a", make_pool())
        repository.pin("b", make_pool())
        assert repository.evict("a")
        assert repository.evict("b")
        assert not repository.evict("a")
        assert len(repository) == 0

    def test_pinned_hits_count_as_cache_wins(self):
        repository = repo()
        pool = make_pool(size=7)
        repository.pin("a", pool)
        assert repository.get("a") is pool
        assert repository.stats.hits == 1
        assert repository.samples_saved == 7

    def test_zero_capacity_disables_storage_and_pinning(self):
        repository = repo(capacity=0)
        repository.put("a", make_pool())
        repository.pin("a", make_pool())
        assert repository.get("a") is None
        assert len(repository) == 0
        assert repository.pinned_keys() == []


# ===================================================================== fills
class TestFills:
    CONSTRAINTS = ConstraintSet(np.array([[1.0, 0.0, 0.0]]))

    def test_fill_one_is_deterministic_per_key(self):
        repository = repo()
        a = repository.fill_one("k", self.CONSTRAINTS, 12)
        b = repository.fill_one("k", self.CONSTRAINTS, 12)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_fill_order_and_batching_are_bit_identical(self):
        """A pool depends on its key alone: batched, reversed or one at a
        time, every fill returns the same arrays, and a refill after
        ``evict`` reproduces the evicted pool (restore-by-reference relies
        on this)."""
        jobs = [PoolFillJob(f"k{i}", self.CONSTRAINTS, 10) for i in range(8)]
        repository = repo()
        batched = repository.fill_many(jobs)
        reversed_ = repo().fill_many(list(reversed(jobs)))
        single = repo()
        one_by_one = {
            job.key: single.fill_one(job.key, job.constraints, job.count)
            for job in jobs
        }
        assert list(batched) == [job.key for job in jobs]
        assert repository.fills == len(jobs)
        assert repository.fill_batches == 1
        for other in (reversed_, one_by_one):
            assert set(other) == set(batched)
            for key, pool in batched.items():
                np.testing.assert_array_equal(other[key].samples, pool.samples)
                np.testing.assert_array_equal(other[key].weights, pool.weights)

        repository.put("k3", batched["k3"])
        assert repository.evict("k3")
        refilled = repository.fill_one("k3", self.CONSTRAINTS, 10)
        np.testing.assert_array_equal(refilled.samples, batched["k3"].samples)
        np.testing.assert_array_equal(refilled.weights, batched["k3"].weights)

    def test_fill_many_with_no_jobs_is_a_noop(self):
        repository = repo()
        assert repository.fill_many([]) == {}
        assert repository.fill_batches == 0

    def test_describe_reports_topology(self):
        repository = repo()
        repository.pin("a", make_pool())
        repository.put("b", make_pool())
        repository.fill_one("k", self.CONSTRAINTS, 5)
        assert repository.describe() == {
            "capacity": 16,
            "entries": 2,
            "pinned": 1,
            "fills": 1,
            "samples_filled": 5,
            "fill_batches": 0,
        }

    def test_capacity_must_not_be_negative(self):
        with pytest.raises(ValueError, match="capacity"):
            repo(capacity=-1)


# ================================================================ apex alarm
class TestApexSeedAlarm:
    """Every fill passes ``record_fill``, which alarms on apex-seeded chains."""

    def _engine(self, **config_overrides):
        catalog = ItemCatalog(np.random.default_rng(11).random((30, 3)))
        telemetry = Telemetry.disabled()
        engine = RecommendationEngine(
            catalog,
            AggregateProfile(["sum", "avg", "max"]),
            EngineConfig(
                elicitation=fast_elicitation_config(sampler="rejection"),
                seed=1,
                **config_overrides,
            ),
            telemetry=telemetry,
        )
        return engine, telemetry

    def test_an_empty_interior_cone_raises_the_alarm(self):
        """``[d; -d]`` leaves only a hyperplane: the batch sampler falls back
        to MCMC, and no rung finds an interior point to seed the chain."""
        engine, telemetry = self._engine()
        direction = np.array([[0.5, -0.2, 0.1]])
        cone = ConstraintSet(np.vstack([direction, -direction]))
        key = engine._pool_key(cone, 20)
        pool = engine.pool_repository.fill_many([PoolFillJob(key, cone, 20)])[key]
        assert pool.stats["chain_seed"] == "apex"
        assert telemetry.alarm_count("pool_apex_seed") == 1

    def test_a_rejection_filled_pool_raises_no_alarm(self):
        engine, telemetry = self._engine(use_batch_sampler=False)
        engine.recommend(engine.create_session(seed=5))
        assert engine.pool_repository.fills == 1
        assert telemetry.alarm_count("pool_apex_seed") == 0


# ============================================================ fills in process
def _process_pool_imports(path):
    """Imports of ``multiprocessing`` or ``concurrent.futures`` in ``path``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [
            module
            for module in modules
            if module.split(".")[0] == "multiprocessing"
            or module.startswith("concurrent.futures")
        ]
    return found


class TestFillsStayInProcess:
    """The AST form of ruff's ``TID251`` ban on process pools in ``src/``."""

    def test_no_library_module_imports_a_process_pool(self):
        offenders = {}
        for directory, _subdirs, files in os.walk(SRC_ROOT):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    found = _process_pool_imports(path)
                    if found:
                        offenders[os.path.relpath(path, SRC_ROOT)] = found
        assert offenders == {}

    def test_the_scan_sees_every_import_form(self, tmp_path):
        source = tmp_path / "probe.py"
        source.write_text(
            "import multiprocessing.pool\n"
            "from concurrent import futures\n"
            "def f():\n"
            "    from concurrent.futures import ProcessPoolExecutor\n"
        )
        assert _process_pool_imports(str(source)) == [
            "multiprocessing.pool",
            "concurrent.futures",
            "concurrent.futures",
            "concurrent.futures.ProcessPoolExecutor",
        ]

    def test_import_repro_loads_no_process_pool(self):
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro; print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'multiprocessing'"
                " or m == 'concurrent.futures.process'))",
            ],
            env={**os.environ, "PYTHONPATH": SRC_ROOT},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"


# ============================================================ engine-level fills
@pytest.fixture
def serving_catalog() -> ItemCatalog:
    rng = np.random.default_rng(11)
    return ItemCatalog(rng.random((30, 3)))


@pytest.fixture
def serving_profile() -> AggregateProfile:
    return AggregateProfile(["sum", "avg", "max"])


def fast_elicitation_config(**overrides) -> ElicitationConfig:
    defaults = dict(
        k=2,
        num_random=2,
        max_package_size=2,
        num_samples=40,
        sampler="mcmc",
        search_sample_budget=3,
        search_beam_width=60,
        search_items_cap=25,
        seed=0,
    )
    defaults.update(overrides)
    return ElicitationConfig(**defaults)


def make_engine(catalog, profile, elicitation=None, **config_overrides):
    config = EngineConfig(
        elicitation=elicitation or fast_elicitation_config(),
        seed=1,
        **config_overrides,
    )
    return RecommendationEngine(catalog, profile, config)


def run_heterogeneous(engine, num_sessions=6, rounds=3):
    """Drive distinct-prefix sessions batched; returns every presented list."""
    ids = [engine.create_session(seed=100 + i) for i in range(num_sessions)]
    presented = []
    for _round in range(rounds):
        rounds_ = engine.recommend_many(ids)
        presented.append(
            [[p.items for p in round_.presented] for round_ in rounds_]
        )
        for index, (sid, round_) in enumerate(zip(ids, rounds_)):
            engine.feedback(sid, index % len(round_.presented))
    return presented


class TestShardedEngineEquivalence:
    """Engine fills agree bit for bit: batched with serial, refill with fill."""

    def test_sharded_batched_matches_sharded_serial(
        self, serving_catalog, serving_profile
    ):
        batched = make_engine(serving_catalog, serving_profile)
        serial = make_engine(serving_catalog, serving_profile)
        ids_b = [batched.create_session(seed=4) for _ in range(3)]
        ids_s = [serial.create_session(seed=4) for _ in range(3)]
        rounds_b = batched.recommend_many(ids_b)
        rounds_s = [serial.recommend(sid) for sid in ids_s]
        assert [[p.items for p in r.presented] for r in rounds_b] == [
            [p.items for p in r.presented] for r in rounds_s
        ]

    def test_refill_after_eviction_reproduces_the_pool(
        self, serving_catalog, serving_profile
    ):
        """Key-derived fill seeds: an evicted pool rebuilds bit-identically."""
        engine = make_engine(serving_catalog, serving_profile)
        a = engine.create_session(seed=5)
        engine.recommend(a)
        key = engine.sessions.acquire(a).pool_key
        first = engine.pool_repository.peek(key).samples.copy()
        engine.pool_repository.evict(key)
        b = engine.create_session(seed=6)
        engine.recommend(b)  # same empty-prefix fingerprint: refills the key
        np.testing.assert_array_equal(
            engine.pool_repository.peek(key).samples, first
        )


# ================================================================ warm start
class TestWarmStart:
    def _warm_engine(self, catalog, profile, first_clicks=2, **overrides):
        engine = make_engine(
            catalog,
            profile,
            elicitation=fast_elicitation_config(num_random=0),
            **overrides,
        )
        engine.warm_start(first_clicks)
        return engine

    def test_cold_sessions_never_sample(self, serving_catalog, serving_profile):
        engine = self._warm_engine(serving_catalog, serving_profile)
        sid = engine.create_session(seed=5)
        engine.recommend(sid)
        engine.feedback(sid, 0)  # click a recommended package
        engine.recommend(sid)
        stats = engine.stats()
        assert stats.pools_sampled == 0
        assert stats.pools_maintained == 0
        assert stats.pools_warmed == 3  # empty prefix + 2 first-click pools
        assert stats.pool_cache["hits"] >= 2

    def test_warm_topk_list_matches_session_compute(
        self, serving_catalog, serving_profile
    ):
        warm = self._warm_engine(serving_catalog, serving_profile)
        cold = make_engine(
            serving_catalog,
            serving_profile,
            elicitation=fast_elicitation_config(num_random=0),
        )
        rw = warm.recommend(warm.create_session(seed=5))
        rc = cold.recommend(cold.create_session(seed=5))
        assert [p.items for p in rw.presented] == [p.items for p in rc.presented]
        assert warm.stats().topk_cache["hits"] == 1  # served from the warm list
        assert cold.stats().topk_cache["hits"] == 0

    def test_warm_pools_are_pinned_against_eviction(
        self, serving_catalog, serving_profile
    ):
        engine = self._warm_engine(
            serving_catalog, serving_profile, pool_cache_size=4
        )
        warmed = set(engine.pool_repository.pinned_keys())
        assert len(warmed) == 3
        run_heterogeneous(engine, num_sessions=6, rounds=2)  # eviction pressure
        assert warmed <= set(engine.pool_repository.pinned_keys())

    def test_every_first_click_yields_a_distinct_warm_pool(
        self, serving_catalog, serving_profile
    ):
        engine = self._warm_engine(serving_catalog, serving_profile, first_clicks=2)
        sids = [engine.create_session(seed=20 + i) for i in range(2)]
        for index, sid in enumerate(sids):
            engine.recommend(sid)
            engine.feedback(sid, index)  # click choice = recommended[index]
            engine.recommend(sid)
        assert engine.stats().pools_sampled == 0

    def test_warm_start_zero_warms_only_the_empty_prefix_pool(
        self, serving_catalog, serving_profile
    ):
        engine = self._warm_engine(serving_catalog, serving_profile, first_clicks=0)
        assert engine.stats().pools_warmed == 1

    def test_exploration_configs_skip_unreachable_first_click_pools(
        self, serving_catalog, serving_profile
    ):
        """Review regression: with num_random > 0 every real first click
        includes preferences against private exploration packages, so no
        enumerated first-click fingerprint can ever be hit — the planner
        must warm only the empty-prefix pool instead of pinning dead
        weight."""
        engine = make_engine(
            serving_catalog,
            serving_profile,
            elicitation=fast_elicitation_config(num_random=2),
        )
        report = engine.warm_start(first_clicks=2)
        assert report.first_clicks_skipped
        assert report.first_click_sets == 0
        assert engine.stats().pools_warmed == 1
        assert len(engine.pool_repository.pinned_keys()) == 1
        # The empty-prefix warm pool is still a genuine win for round one.
        engine.recommend(engine.create_session(seed=5))
        assert engine.stats().pools_sampled == 0

    def test_rewarming_after_traffic_does_not_duplicate_pools(
        self, serving_catalog, serving_profile
    ):
        """warm_start() on an engine whose caches already hold the hot pools
        must pin them in place, not double-store them."""
        engine = make_engine(
            serving_catalog,
            serving_profile,
            elicitation=fast_elicitation_config(num_random=0),
        )
        engine.recommend(engine.create_session(seed=5))  # caches empty-prefix
        entries_before = len(engine.pool_repository)
        report = engine.warm_start(first_clicks=0)
        assert report.pools_filled == 0  # reused the cached pool
        assert len(engine.pool_repository) == entries_before

    def test_warm_round_respects_the_catalog_predicate(self):
        """The warm top-k list is searched over eligible items only, like a
        cold session's: a warmed engine serves no ineligible item."""
        catalog = ItemCatalog(np.random.default_rng(3).random((120, 3)))
        profile = AggregateProfile(["sum", "avg", "max"])
        predicate = NumericRangePredicate(0, high=0.5)
        config = EngineConfig(
            elicitation=ElicitationConfig(
                num_samples=32, k=3, max_package_size=2, num_random=0
            ),
            seed=4,
        )
        rounds = []
        for warm in (False, True):
            engine = RecommendationEngine(
                catalog, profile, config, catalog_predicate=predicate
            )
            if warm:
                engine.warm_start()
            rounds.append(engine.recommend(engine.create_session(seed=11)))
        eligible = predicate.eligible_mask(catalog)
        cold, warmed = rounds
        assert all(eligible[list(p.items)].all() for p in warmed.presented)
        assert [p.items for p in warmed.presented] == [
            p.items for p in cold.presented
        ]

    def test_warm_start_requires_a_pool_cache(self, serving_catalog, serving_profile):
        engine = make_engine(serving_catalog, serving_profile, pool_cache_size=0)
        with pytest.raises(ValueError, match="pool_cache_size"):
            engine.warm_start(1)
