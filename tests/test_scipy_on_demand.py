"""No SciPy at runtime.

The prior's densities are NumPy (SciPy's closed form, evaluated with the
same operations), the importance proposal is a NumPy mixture, and the
Chebyshev seed ``ConstraintSet.interior_point()`` is a NumPy simplex: no
module in ``src/`` imports SciPy, and serving, rejection-seeded,
LP-seeded and apex MCMC fills and importance fills all run in an
interpreter where ``import scipy`` fails.  ``scipy.stats`` alone costs a
process about 60 MB of RSS and ``scipy.optimize`` about 40 MB.  The
densities match eager SciPy components bit for bit on every prior the
library builds, and a bad covariance is still refused when the prior is
built.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.sampling.gaussian_mixture import GaussianMixture

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: With ``import scipy`` made to fail, serves identical-prefix rounds on
#: perfbench's stack definition (catalog, elicitation config, default
#: engine), then runs a rejection-seeded MCMC fill, an importance fill, an
#: LP-seeded MCMC fill and an apex-seeded MCMC fill.
SERVE_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None  # any SciPy import now raises ImportError
    sys.path.insert(0, "perfbench")

    import numpy as np

    import repro
    from driver import (
        CATALOG_FEATURES, CATALOG_ITEMS, CATALOG_SEED, ELICITATION,
    )
    from repro.core.items import ItemCatalog
    from repro.data.generators import generate_uniform
    from repro.experiments.harness import default_profile
    from repro.sampling.base import ConstraintSet
    from repro.sampling.batch import BatchRejectionSampler
    from repro.sampling.gaussian_mixture import GaussianMixture
    from repro.sampling.importance import ImportanceSampler
    from repro.sampling.mcmc import MetropolisHastingsSampler
    from repro.service import EngineConfig, RecommendationEngine
    from repro.simulation.traffic import build_user_population, session_seed_for

    def report(name, value):
        print(name, value)

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
    report("pools_built", stats.pools_built)
    report("topk_hits", stats.topk_cache["hits"])

    # A thin cone around the first axis: one shared block cannot fill it,
    # so the batch sampler falls back to MCMC, which rejection seeds.
    spokes = np.eye(CATALOG_FEATURES)[1:] * 10.0
    thin = ConstraintSet(np.vstack([spokes + np.eye(CATALOG_FEATURES)[0],
                                    np.eye(CATALOG_FEATURES)[0] - spokes]))
    pool = BatchRejectionSampler(
        engine.prior, rng=0, block_size=8, max_blocks=1
    ).sample(16, thin)
    report("thin_fell_back", int(pool.stats["fell_back"]))
    report("thin_chain_seed", pool.stats["chain_seed"])
    report("thin_valid", int(thin.valid_mask(pool.samples).all()))

    pool = ImportanceSampler(engine.prior, rng=0).sample(
        8, ConstraintSet.empty(CATALOG_FEATURES)
    )
    report("importance_size", pool.size)

    # Eighty constraints in ten dimensions: rejection seeding exhausts its
    # budget and the Chebyshev LP seeds the chain.
    rng = np.random.default_rng(3)
    hidden = rng.uniform(-1, 1, 10)
    directions = rng.normal(size=(80, 10))
    directions[directions @ hidden < 0] *= -1
    lp_cone = ConstraintSet(directions)
    pool = MetropolisHastingsSampler(
        GaussianMixture.default_prior(10, rng=0), rng=1
    ).sample(8, lp_cone)
    report("lp_chain_seed", pool.stats["chain_seed"])
    report("lp_valid", int(lp_cone.valid_mask(pool.samples).all()))

    # [d; -d] leaves only a hyperplane: the LP finds no interior.
    direction = np.array([[0.5, -0.2, 0.1, 0.3]])
    pool = MetropolisHastingsSampler(
        GaussianMixture.default_prior(4, rng=0), rng=1
    ).sample(8, ConstraintSet(np.vstack([direction, -direction])))
    report("apex_chain_seed", pool.stats["chain_seed"])
    report("scipy_loaded", int(any(
        module is not None and name.split(".")[0] == "scipy"
        for name, module in sys.modules.items()
    )))
    """
)


def _run_serve_script() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
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
    report = dict(line.split() for line in completed.stdout.splitlines())
    return {
        name: int(value) if value.isdigit() else value
        for name, value in report.items()
    }


@pytest.fixture(scope="module")
def serve_report() -> dict:
    return _run_serve_script()


class TestServingLoadsNoScipy:
    """Each step ran in an interpreter where ``import scipy`` raises, so
    reaching its report line means it needed no SciPy."""

    def test_cache_hit_serving_loads_no_scipy(self, serve_report):
        # Four identical-prefix sessions of four rounds: the first builds
        # every pool, the other three hit both caches.
        assert serve_report["pools_built"] == 4
        assert serve_report["topk_hits"] > 0
        assert serve_report["scipy_loaded"] == 0

    def test_rejection_seeded_mcmc_fill_loads_no_scipy(self, serve_report):
        assert serve_report["thin_fell_back"] == 1
        assert serve_report["thin_chain_seed"] == "rejection"
        assert serve_report["thin_valid"] == 1

    def test_importance_fill_loads_no_scipy(self, serve_report):
        assert serve_report["importance_size"] == 8

    def test_lp_seeded_fill_loads_no_scipy(self, serve_report):
        assert serve_report["lp_chain_seed"] == "interior_point"
        assert serve_report["lp_valid"] == 1

    def test_apex_fill_loads_no_scipy(self, serve_report):
        assert serve_report["apex_chain_seed"] == "apex"


def _scipy_imports(path: str):
    """``(enclosing qualified name, scipy module)`` for each SciPy import."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            modules = []
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module and not child.level:
                modules = [child.module] + [
                    f"{child.module}.{alias.name}" for alias in child.names
                ]
            for module in modules:
                if module == "scipy" or module.startswith("scipy."):
                    found.append((".".join(scope), module))
            visit(child, scope)

    visit(tree, ())
    return found


class TestImportRules:
    """The AST form of the ruff rule in ``pyproject.toml`` (TID251)."""

    def _imports(self):
        imports = {}
        for directory, _subdirs, files in os.walk(SRC_ROOT):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    found = _scipy_imports(path)
                    if found:
                        imports[os.path.relpath(path, SRC_ROOT)] = found
        return imports

    def test_no_module_imports_scipy_stats(self):
        offenders = {
            path: found
            for path, found in self._imports().items()
            if any(module.startswith("scipy.stats") for _, module in found)
        }
        assert offenders == {}

    def test_no_module_imports_scipy(self):
        assert self._imports() == {}

    def test_the_scan_sees_every_import_form(self, tmp_path):
        source = tmp_path / "probe.py"
        source.write_text(
            textwrap.dedent(
                """
                import scipy.stats
                from scipy import stats

                class Holder:
                    def method(self):
                        from scipy.stats import norm
                """
            )
        )
        assert _scipy_imports(str(source)) == [
            ("", "scipy.stats"),
            ("", "scipy"),
            ("", "scipy.stats"),
            ("Holder.method", "scipy.stats"),
            ("Holder.method", "scipy.stats.norm"),
        ]


def _scipy_densities(mixture: GaussianMixture, points: np.ndarray):
    """``pdf``, ``logpdf`` and ``responsibilities`` from eager SciPy components."""
    from scipy.stats import multivariate_normal

    eager = [
        multivariate_normal(mean=mean, cov=cov, allow_singular=False)
        for mean, cov in zip(mixture.means, mixture.covariances)
    ]
    pdf = np.zeros(len(points))
    for weight, component in zip(mixture.weights, eager):
        pdf += weight * component.pdf(points)
    log_terms = np.stack(
        [
            np.log(weight) + np.atleast_1d(component.logpdf(points))
            for weight, component in zip(mixture.weights, eager)
        ]
    )
    top = log_terms.max(axis=0)
    logpdf = top + np.log(np.exp(log_terms - top).sum(axis=0))
    terms = np.stack(
        [w * np.atleast_1d(c.pdf(points)) for w, c in zip(mixture.weights, eager)],
        axis=1,
    )
    responsibilities = terms / terms.sum(axis=1, keepdims=True)
    return pdf, logpdf, responsibilities


def _assert_bit_equal(mixture: GaussianMixture, points: np.ndarray) -> None:
    pdf, logpdf, responsibilities = _scipy_densities(mixture, points)
    assert np.array_equal(mixture.pdf(points), pdf)
    assert np.array_equal(mixture.logpdf(points), logpdf)
    assert np.array_equal(mixture.responsibilities(points), responsibilities)
    for point in points[:3]:
        single_pdf, single_logpdf, _ = _scipy_densities(mixture, point[None])
        assert mixture.pdf(point) == single_pdf[0]
        assert mixture.logpdf(point) == single_logpdf[0]


class TestNumpyDensities:
    def test_default_priors_are_bit_equal_to_scipy(self):
        """Every default prior: m 2-10, K 1-4, two spreads, two seeds."""
        for m in range(2, 11):
            points = np.random.default_rng(m).normal(scale=0.7, size=(25, m))
            for num_components in range(1, 5):
                for spread in (0.2, 1.3):
                    for seed in range(2):
                        prior = GaussianMixture.default_prior(
                            m, num_components, spread, rng=seed
                        )
                        _assert_bit_equal(prior, points)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_diagonal_covariances_are_bit_equal(self, m):
        rng = np.random.default_rng(m)
        for num_components in range(1, 5):
            mixture = GaussianMixture(
                rng.uniform(-0.5, 0.5, size=(num_components, m)),
                np.exp(rng.uniform(-4, 2, size=(num_components, m))),
                weights=rng.uniform(0.1, 1.0, size=num_components),
            )
            _assert_bit_equal(mixture, rng.normal(size=(25, m)))

    def test_two_dimensional_diagonal_covariances_agree_to_rounding(self):
        """SciPy's default ``evr`` driver perturbs the eigenvalues of a 2x2
        diagonal matrix with distinct entries by an ulp; NumPy's are exact."""
        rng = np.random.default_rng(2)
        for num_components in range(1, 5):
            mixture = GaussianMixture(
                rng.uniform(-0.5, 0.5, size=(num_components, 2)),
                np.exp(rng.uniform(-4, 2, size=(num_components, 2))),
                weights=rng.uniform(0.1, 1.0, size=num_components),
            )
            points = rng.normal(size=(25, 2))
            expected = _scipy_densities(mixture, points)
            got = (
                mixture.pdf(points),
                mixture.logpdf(points),
                mixture.responsibilities(points),
            )
            for value, reference in zip(got, expected):
                np.testing.assert_allclose(value, reference, rtol=1e-12, atol=0)

    def test_general_covariances_agree_within_rtol(self):
        """NumPy's ``eigh`` runs a different LAPACK driver from
        ``scipy.linalg.eigh``, so a non-diagonal covariance agrees to about
        1e-11 relative, not bit for bit."""
        rng = np.random.default_rng(7)
        for m in range(2, 11):
            for num_components in range(1, 5):
                factors = rng.normal(size=(num_components, m, m))
                covariances = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(m)
                mixture = GaussianMixture(
                    rng.normal(size=(num_components, m)), covariances
                )
                points = rng.normal(size=(25, m))
                expected = _scipy_densities(mixture, points)
                got = (
                    mixture.pdf(points),
                    mixture.logpdf(points),
                    mixture.responsibilities(points),
                )
                for value, reference in zip(got, expected):
                    np.testing.assert_allclose(value, reference, rtol=1e-9, atol=0)
                assert mixture.pdf(points[0]) == pytest.approx(expected[0][0], rel=1e-9)


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
