"""Tests for the serializable pool-fill seam (FillSpec / FillContext).

The contract under test: a :class:`FillSpec` is pure picklable data, the
module-level :func:`build_sampler` resolves it identically in any process,
and the result matches a sampler constructed directly from the engine's
prior, seed root and configuration — the property every process-parallel
fill rests on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.items import ItemCatalog
from repro.core.profiles import AggregateProfile
from repro.sampling.base import ConstraintSet
from repro.sampling.fillspec import (
    FillContext,
    FillSpec,
    PriorSpec,
    _SAMPLER_BUILDERS,
    build_sampler,
    derive_fill_seed,
    execute_fill,
    get_fill_context,
    register_fill_context,
    register_sampler_builder,
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


@pytest.fixture
def context_digest(prior):
    return register_fill_context(FillContext(prior=PriorSpec.from_mixture(prior)))


def make_spec(context_digest, key="n20:abc", sampler="batch", **overrides):
    defaults = dict(sampler=sampler, seed_root=7, context_digest=context_digest)
    defaults.update(overrides)
    return FillSpec.for_fill(key, CONSTRAINTS, 20, **defaults)


# ==================================================================== contexts
class TestPriorSpec:
    def test_round_trip_is_binary_exact(self, prior):
        rebuilt = PriorSpec.from_mixture(prior).build()
        np.testing.assert_array_equal(rebuilt.means, prior.means)
        np.testing.assert_array_equal(rebuilt.covariances, prior.covariances)
        np.testing.assert_array_equal(rebuilt.weights, prior.weights)

    def test_context_digest_is_content_addressed(self, prior):
        a = FillContext(prior=PriorSpec.from_mixture(prior))
        b = FillContext(prior=PriorSpec.from_mixture(prior))
        assert a.digest == b.digest
        other = GaussianMixture.default_prior(NUM_FEATURES, 3, 1.5, rng=1)
        c = FillContext(prior=PriorSpec.from_mixture(other))
        assert c.digest != a.digest

    def test_registration_is_idempotent(self, prior):
        context = FillContext(prior=PriorSpec.from_mixture(prior))
        digest = register_fill_context(context)
        assert register_fill_context(context) == digest
        assert get_fill_context(digest) is not None

    def test_unknown_digest_raises_helpfully(self):
        with pytest.raises(KeyError, match="initializer"):
            get_fill_context("no-such-digest")


# ======================================================================= specs
class TestFillSpec:
    def test_spec_is_picklable_plain_data(self, context_digest):
        spec = make_spec(context_digest)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_constraint_set_round_trip(self, context_digest):
        spec = make_spec(context_digest)
        rebuilt = spec.constraint_set()
        np.testing.assert_array_equal(rebuilt.directions, CONSTRAINTS.directions)
        assert rebuilt.fingerprint() == CONSTRAINTS.fingerprint()

    def test_empty_constraints(self, context_digest):
        spec = FillSpec.for_fill(
            "n5:empty",
            ConstraintSet.empty(NUM_FEATURES),
            5,
            sampler="batch",
            seed_root=0,
            context_digest=context_digest,
        )
        assert spec.constraint_rows == ()
        assert len(spec.constraint_set()) == 0
        assert spec.constraint_set().num_features == NUM_FEATURES

    def test_seed_is_derived_from_root_and_key(self, context_digest):
        a = make_spec(context_digest, key="n20:a")
        b = make_spec(context_digest, key="n20:b")
        assert a.seed != b.seed
        assert a.seed == derive_fill_seed(7, "n20:a")

    def test_validation(self, context_digest):
        with pytest.raises(ValueError, match="sampler"):
            make_spec(context_digest, sampler="nope")
        with pytest.raises(ValueError, match="count"):
            FillSpec(
                key="k",
                count=-1,
                num_features=NUM_FEATURES,
                constraint_rows=(),
                sampler="batch",
                seed=0,
                context_digest=context_digest,
            )
        with pytest.raises(ValueError, match="entries"):
            FillSpec(
                key="k",
                count=1,
                num_features=NUM_FEATURES,
                constraint_rows=((1.0, 2.0),),
                sampler="batch",
                seed=0,
                context_digest=context_digest,
            )


# ================================================================== resolution
class TestBuildSampler:
    @pytest.mark.parametrize(
        "kind", ["batch", "rejection", "importance", "mcmc"]
    )
    def test_execute_fill_is_deterministic(self, context_digest, kind):
        spec = make_spec(context_digest, sampler=kind)
        a = execute_fill(spec)
        b = execute_fill(spec)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.size == 20

    def test_explicit_context_registers_itself(self, prior):
        context = FillContext(prior=PriorSpec.from_mixture(prior))
        spec = make_spec(context.digest)
        pool = execute_fill(spec, context)  # works even before registration
        assert pool.size == 20

    def test_custom_sampler_kind(self, context_digest):
        calls = []

        def builder(spec, prior_mixture, rng):
            class ConstantSampler:
                def sample(self, count, constraints):
                    calls.append(spec.key)
                    from repro.sampling.base import SamplePool

                    return SamplePool.unweighted(
                        np.full((count, spec.num_features), 0.5)
                    )

            return ConstantSampler()

        register_sampler_builder("constant", builder)
        try:
            spec = make_spec(context_digest, sampler="constant")
            pool = execute_fill(spec)
            assert pool.size == 20
            assert calls == [spec.key]
        finally:
            _SAMPLER_BUILDERS.pop("constant", None)

    def test_invalid_builder_kind_rejected(self):
        with pytest.raises(ValueError):
            register_sampler_builder("", lambda *a: None)


# ============================================================== engine parity
def reference_fill_sampler(engine, key):
    """The fill sampler for ``key``, built from the live engine's state.

    The reference :func:`build_sampler` must reproduce from a spec alone:
    the engine's prior and configuration, with an RNG seeded from the
    engine's seed root and the key.
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
        from_spec = execute_fill(spec)
        reference = reference_fill_sampler(engine, key).sample(30, CONSTRAINTS)
        np.testing.assert_array_equal(from_spec.samples, reference.samples)
        np.testing.assert_array_equal(from_spec.weights, reference.weights)

    def test_spec_survives_pickling_and_still_matches(self, engine):
        key = engine._pool_key(CONSTRAINTS, 30)
        spec = pickle.loads(pickle.dumps(engine._fill_spec(key, CONSTRAINTS, 30)))
        from_spec = execute_fill(spec)
        reference = reference_fill_sampler(engine, key).sample(30, CONSTRAINTS)
        np.testing.assert_array_equal(from_spec.samples, reference.samples)

    def test_engine_registers_its_context(self, engine):
        context = get_fill_context(engine._fill_context_digest)
        rebuilt = context.prior.build()
        np.testing.assert_array_equal(rebuilt.means, engine.prior.means)
