"""Tests for the pool-fill seam (FillSpec).

The contract under test: a :class:`FillSpec` is plain data,
:func:`build_sampler` resolves it over a prior identically every time, and
the result matches a sampler constructed directly from the engine's prior,
seed root and configuration — the property key-deterministic fills rest on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.sampling.base import ConstraintSet
from repro.sampling.fillspec import (
    SAMPLER_KINDS,
    FillSpec,
    _SAMPLER_BUILDERS,
    derive_fill_seed,
    execute_fill,
)
from repro.sampling.batch import BatchRejectionSampler
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.importance import ImportanceSampler
from repro.sampling.mcmc import MetropolisHastingsSampler
from repro.sampling.rejection import RejectionSampler
from repro.service import EngineConfig, RecommendationEngine
from repro.core.elicitation import ElicitationConfig

NUM_FEATURES = 3
CONSTRAINTS = ConstraintSet(np.array([[1.0, -0.5, 0.25], [0.0, 1.0, -1.0]]))


@pytest.fixture
def prior():
    return GaussianMixture.default_prior(NUM_FEATURES, rng=0)


def make_spec(key="n20:abc", sampler="batch", **overrides):
    defaults = dict(sampler=sampler, seed_root=7)
    defaults.update(overrides)
    return FillSpec.for_fill(key, CONSTRAINTS, 20, **defaults)


# ======================================================================= specs
class TestFillSpec:
    def test_spec_is_picklable_plain_data(self):
        spec = make_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_constraint_set_round_trip(self):
        spec = make_spec()
        rebuilt = spec.constraint_set()
        np.testing.assert_array_equal(rebuilt.directions, CONSTRAINTS.directions)
        assert rebuilt.fingerprint() == CONSTRAINTS.fingerprint()

    def test_empty_constraints(self):
        spec = FillSpec.for_fill(
            "n5:empty",
            ConstraintSet.empty(NUM_FEATURES),
            5,
            sampler="batch",
            seed_root=0,
        )
        assert spec.constraint_rows == ()
        assert len(spec.constraint_set()) == 0
        assert spec.constraint_set().num_features == NUM_FEATURES

    def test_seed_is_derived_from_root_and_key(self):
        a = make_spec(key="n20:a")
        b = make_spec(key="n20:b")
        assert a.seed != b.seed
        assert a.seed == derive_fill_seed(7, "n20:a")

    def test_validation(self):
        with pytest.raises(ValueError, match="sampler"):
            make_spec(sampler="nope")
        with pytest.raises(ValueError, match="count"):
            FillSpec(
                key="k",
                count=-1,
                num_features=NUM_FEATURES,
                constraint_rows=(),
                sampler="batch",
                seed=0,
            )
        with pytest.raises(ValueError, match="entries"):
            FillSpec(
                key="k",
                count=1,
                num_features=NUM_FEATURES,
                constraint_rows=((1.0, 2.0),),
                sampler="batch",
                seed=0,
            )


# ================================================================== resolution
class TestBuildSampler:
    @pytest.mark.parametrize(
        "kind", ["batch", "rejection", "importance", "mcmc"]
    )
    def test_execute_fill_is_deterministic(self, prior, kind):
        spec = make_spec(sampler=kind)
        a = execute_fill(spec, prior)
        b = execute_fill(spec, prior)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.size == 20

    def test_invalid_builder_kind_rejected(self):
        """The builder table is fixed: a kind outside it is refused."""
        assert tuple(_SAMPLER_BUILDERS) == SAMPLER_KINDS
        with pytest.raises(ValueError, match="sampler must be one of"):
            make_spec(sampler="constant")


# ============================================================== engine parity
def reference_fill_sampler(engine, key):
    """The fill sampler for ``key``, built from the live engine's state.

    :func:`~repro.sampling.fillspec.build_sampler` must reproduce it from a
    spec and the engine's prior: the engine's configuration, with an RNG
    seeded from the engine's seed root and the key.
    """
    rng = np.random.default_rng(derive_fill_seed(engine._fill_seed_root, key))
    elicitation = engine.config.elicitation
    if engine.config.use_batch_sampler:
        return BatchRejectionSampler(
            engine.prior, rng=rng, noise_probability=elicitation.noise_psi
        )
    sampler_cls = {
        "rejection": RejectionSampler,
        "importance": ImportanceSampler,
        "mcmc": MetropolisHastingsSampler,
    }[elicitation.sampler]
    return sampler_cls(engine.prior, rng=rng, noise_probability=elicitation.noise_psi)


class TestEngineParity:
    """The engine's spec factory resolves to the reference sampler."""

    @pytest.fixture
    def engine(self):
        rng = np.random.default_rng(11)
        catalog = ItemCatalog(rng.random((30, NUM_FEATURES)))
        profile = AggregateProfile(["sum", "avg", "max"])
        config = EngineConfig(
            elicitation=ElicitationConfig(
                k=2,
                num_random=2,
                max_package_size=2,
                num_samples=30,
                search_sample_budget=3,
                search_beam_width=60,
                search_items_cap=25,
                seed=0,
            ),
            seed=1,
        )
        return RecommendationEngine(catalog, profile, config)

    def test_spec_fill_matches_legacy_sampler_fill(self, engine):
        key = engine._pool_key(CONSTRAINTS, 30)
        spec = engine._fill_spec(key, CONSTRAINTS, 30)
        from_spec = execute_fill(spec, engine.prior)
        reference = reference_fill_sampler(engine, key).sample(30, CONSTRAINTS)
        np.testing.assert_array_equal(from_spec.samples, reference.samples)
        np.testing.assert_array_equal(from_spec.weights, reference.weights)

    def test_spec_survives_pickling_and_still_matches(self, engine):
        key = engine._pool_key(CONSTRAINTS, 30)
        spec = pickle.loads(pickle.dumps(engine._fill_spec(key, CONSTRAINTS, 30)))
        from_spec = execute_fill(spec, engine.prior)
        reference = reference_fill_sampler(engine, key).sample(30, CONSTRAINTS)
        np.testing.assert_array_equal(from_spec.samples, reference.samples)
