"""SciPy is loaded only where a density or an LP is evaluated.

The serving path samples the prior and walks sorted lists; it never
evaluates a density.  ``scipy.stats`` alone costs a serving process about
64 MB of RSS, so the prior builds its SciPy components on the first density
call and the importance sampler imports its proposal on use.  The densities
stay SciPy's own, bit for bit, and a bad covariance is still refused when
the prior is built.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.sampling.gaussian_mixture import GaussianMixture

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Serves identical-prefix rounds on perfbench's stack definition (catalog,
#: elicitation config, default engine), then reports the loaded SciPy
#: modules before and after one importance-sampler fill.
SERVE_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.path.insert(0, "perfbench")

    import repro
    from driver import (
        CATALOG_FEATURES, CATALOG_ITEMS, CATALOG_SEED, ELICITATION,
    )
    from repro.core.items import ItemCatalog
    from repro.data.generators import generate_uniform
    from repro.experiments.harness import default_profile
    from repro.sampling.base import ConstraintSet
    from repro.sampling.importance import ImportanceSampler
    from repro.service import EngineConfig, RecommendationEngine
    from repro.simulation.traffic import build_user_population, session_seed_for

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    assert not scipy_modules(), scipy_modules()[:5]
    catalog = ItemCatalog(
        generate_uniform(CATALOG_ITEMS, CATALOG_FEATURES, rng=CATALOG_SEED)
    )
    engine = RecommendationEngine(
        catalog,
        default_profile(CATALOG_FEATURES),
        EngineConfig(elicitation=ELICITATION),
    )
    users = build_user_population(engine.evaluator, 4, True, 0)
    for user in users:
        session_id = engine.create_session(seed=session_seed_for(0, 0, True))
        for _ in range(4):
            round_ = engine.recommend(session_id)
            engine.feedback(session_id, user.click(round_.presented))
    stats = engine.stats()
    print("pools_built", stats.pools_built)
    print("topk_hits", stats.topk_cache["hits"])
    print("served", len(scipy_modules()))
    ImportanceSampler(engine.prior, rng=0).sample(
        8, ConstraintSet.empty(CATALOG_FEATURES)
    )
    print("importance", len(scipy_modules()))
    """
)


def _run_serve_script() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SERVE_SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return {
        name: int(value)
        for name, value in (line.split() for line in completed.stdout.splitlines())
    }


class TestServingLoadsNoScipy:
    def test_cache_hit_serving_loads_no_scipy_and_importance_does(self):
        report = _run_serve_script()
        # Four identical-prefix sessions of four rounds: the first builds
        # every pool, the other three hit both caches.
        assert report["pools_built"] == 4
        assert report["topk_hits"] > 0
        assert report["served"] == 0
        # Positive control: the importance proposal is a SciPy density.
        assert report["importance"] > 0


def _mixture() -> GaussianMixture:
    means = np.array([[0.1, -0.2, 0.3], [-0.4, 0.0, 0.2]])
    covariances = np.stack(
        [
            np.array([[0.3, 0.05, 0.0], [0.05, 0.2, 0.01], [0.0, 0.01, 0.25]]),
            np.eye(3) * 0.15,
        ]
    )
    return GaussianMixture(means, covariances, weights=np.array([0.35, 0.65]))


class TestLazyComponents:
    def test_components_are_built_on_the_first_density_only(self):
        mixture = _mixture()
        mixture.sample(50, rng=0)
        assert "_components" not in vars(mixture)
        mixture.pdf(np.zeros(3))
        components = vars(mixture)["_components"]
        mixture.logpdf(np.zeros(3))
        assert mixture._components is components

    def test_densities_are_bit_equal_to_eager_scipy_components(self):
        from scipy.stats import multivariate_normal

        mixture = _mixture()
        eager = [
            multivariate_normal(mean=mean, cov=cov, allow_singular=False)
            for mean, cov in zip(mixture.means, mixture.covariances)
        ]
        points = np.random.default_rng(3).normal(scale=0.5, size=(40, 3))
        pdf = np.zeros(len(points))
        for weight, component in zip(mixture.weights, eager):
            pdf += weight * component.pdf(points)
        log_terms = np.stack(
            [
                np.log(weight) + component.logpdf(points)
                for weight, component in zip(mixture.weights, eager)
            ]
        )
        top = log_terms.max(axis=0)
        logpdf = top + np.log(np.exp(log_terms - top).sum(axis=0))
        terms = np.stack(
            [w * c.pdf(points) for w, c in zip(mixture.weights, eager)], axis=1
        )
        responsibilities = terms / terms.sum(axis=1, keepdims=True)
        assert np.array_equal(mixture.pdf(points), pdf)
        assert np.array_equal(mixture.logpdf(points), logpdf)
        assert np.array_equal(mixture.responsibilities(points), responsibilities)
        assert mixture.pdf(points[0]) == pdf[0]
        assert mixture.logpdf(points[0]) == logpdf[0]


#: Covariances SciPy's ``allow_singular=False`` refuses, with the error it
#: raises: singular (a zero eigenvalue, or one under its relative
#: tolerance), indefinite, and non-finite.
BAD_COVARIANCES = [
    ("rank one", np.array([[1.0, 1.0], [1.0, 1.0]]), np.linalg.LinAlgError),
    ("zero", np.zeros((2, 2)), np.linalg.LinAlgError),
    ("under tolerance", np.diag([1.0, 1e-11]), np.linalg.LinAlgError),
    ("indefinite", np.array([[1.0, 2.0], [2.0, 1.0]]), ValueError),
    ("negative diagonal", np.diag([1.0, -0.5]), ValueError),
    ("nan", np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError),
]


class TestConstructionCheck:
    @pytest.mark.parametrize(
        "covariance,error",
        [(cov, error) for _, cov, error in BAD_COVARIANCES],
        ids=[name for name, _, _ in BAD_COVARIANCES],
    )
    def test_bad_covariances_raise_at_construction(self, covariance, error):
        from scipy.stats import multivariate_normal

        with pytest.raises(error):
            multivariate_normal(np.zeros(2), covariance, allow_singular=False)
        with pytest.raises(error):
            GaussianMixture(np.zeros((1, 2)), covariance[None])

    def test_a_bad_component_among_good_ones_is_named(self):
        covariances = np.stack([np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]])])
        with pytest.raises(np.linalg.LinAlgError, match="covariance 1"):
            GaussianMixture(np.zeros((2, 2)), covariances)

    def test_small_but_definite_covariances_are_accepted(self):
        from scipy.stats import multivariate_normal

        covariance = np.diag([1.0, 1e-9])
        multivariate_normal(np.zeros(2), covariance, allow_singular=False)
        mixture = GaussianMixture(np.zeros((1, 2)), covariance[None])
        assert np.isfinite(mixture.logpdf(np.zeros(2)))
