"""Tests for ConstraintSet, its Chebyshev simplex, and SamplePool."""

import copy
import hashlib

import numpy as np
import pytest

from repro.core.packages import Package
from repro.core.preferences import Preference, PreferenceStore
from repro.sampling import base
from repro.sampling.base import ConstraintSet, SamplePool, SimplexError, chebyshev_centre
from repro.sampling.gaussian_mixture import GaussianMixture
from repro.sampling.mcmc import MetropolisHastingsSampler


class TestConstraintSet:
    def test_empty_constraints_accept_everything(self):
        constraints = ConstraintSet.empty(3)
        assert constraints.is_empty()
        assert constraints.is_valid(np.array([0.5, -0.5, 0.1]))
        assert constraints.violations(np.array([1.0, 1.0, 1.0])) == 0

    def test_requires_dimension_when_empty(self):
        with pytest.raises(ValueError):
            ConstraintSet(None)

    def test_is_valid_half_space(self):
        constraints = ConstraintSet(np.array([[1.0, -1.0]]))
        assert constraints.is_valid(np.array([0.5, 0.2]))
        assert not constraints.is_valid(np.array([0.1, 0.5]))

    def test_valid_mask_and_violation_counts(self):
        constraints = ConstraintSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        samples = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5]])
        assert np.array_equal(constraints.valid_mask(samples), [True, False, False])
        assert np.array_equal(constraints.violation_counts(samples), [0, 1, 2])

    def test_extended_appends_constraints(self):
        constraints = ConstraintSet(np.array([[1.0, 0.0]]))
        extended = constraints.extended(np.array([0.0, 1.0]))
        assert len(extended) == 2
        assert len(constraints) == 1  # original untouched

    def test_extended_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ConstraintSet(np.array([[1.0, 0.0]])).extended(np.array([1.0]))

    def test_from_preferences_and_store(self, paper_example_evaluator):
        p4, p3 = Package.of([0, 1]), Package.of([2])
        preference = Preference.from_packages(paper_example_evaluator, p4, p3)
        from_prefs = ConstraintSet.from_preferences([preference])
        assert len(from_prefs) == 1

        store = PreferenceStore(2)
        store.add(preference)
        from_store = ConstraintSet.from_store(store)
        assert len(from_store) == 1
        assert np.allclose(from_store.directions, from_prefs.directions)

    def test_from_empty_preferences_needs_dimension(self):
        constraints = ConstraintSet.from_preferences([], num_features=4)
        assert constraints.num_features == 4


class TestSamplePool:
    def test_content_digest_is_memoized_only_while_read_only(self):
        samples = np.random.default_rng(0).random((6, 3))
        pool = SamplePool(samples, np.ones(6))
        writable = pool.content_digest()
        pool.weights[0] = 2.0  # writable arrays are hashed on every call
        assert pool.content_digest() != writable
        assert pool._digest_memo is None
        pool.samples.flags.writeable = False
        pool.weights.flags.writeable = False
        frozen = pool.content_digest()
        assert pool._digest_memo[2] == frozen
        assert SamplePool(samples.copy(), pool.weights.copy()).content_digest() == frozen
        # A deep copy carries the memo but its arrays are writable again.
        thawed = copy.deepcopy(pool)
        thawed.weights[0] = 1.0
        assert thawed.content_digest() == writable
        pool.weights = np.ones(6)  # a new array is hashed afresh
        assert pool.content_digest() == writable

    def test_unweighted_pool(self):
        pool = SamplePool.unweighted(np.zeros((5, 3)))
        assert pool.size == 5
        assert pool.num_features == 3
        assert np.allclose(pool.weights, 1.0)
        assert pool.effective_sample_size() == pytest.approx(5.0)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SamplePool(np.zeros((3, 2)), np.ones(2))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            SamplePool(np.zeros((2, 2)), np.array([1.0, -1.0]))

    def test_normalised_weights(self):
        pool = SamplePool(np.zeros((2, 2)), np.array([1.0, 3.0]))
        assert np.allclose(pool.normalised_weights(), [0.25, 0.75])

    def test_normalised_weights_all_zero_fall_back_to_uniform(self):
        pool = SamplePool(np.zeros((4, 2)), np.zeros(4))
        assert np.allclose(pool.normalised_weights(), 0.25)

    def test_subset_by_mask(self):
        pool = SamplePool(np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0]))
        subset = pool.subset(np.array([True, False, True]))
        assert subset.size == 2
        assert np.allclose(subset.weights, [1.0, 3.0])

    def test_concatenate(self):
        first = SamplePool.unweighted(np.zeros((2, 2)))
        second = SamplePool.unweighted(np.ones((3, 2)))
        combined = first.concatenate(second)
        assert combined.size == 5
        assert np.allclose(combined.samples[-1], 1.0)

    def test_concatenate_with_empty(self):
        empty = SamplePool.empty(2)
        pool = SamplePool.unweighted(np.ones((2, 2)))
        assert empty.concatenate(pool).size == 2
        assert pool.concatenate(empty).size == 2

    def test_mean_weight_vector_importance_weighted(self):
        samples = np.array([[0.0, 0.0], [1.0, 1.0]])
        pool = SamplePool(samples, np.array([1.0, 3.0]))
        assert np.allclose(pool.mean_weight_vector(), [0.75, 0.75])

    def test_mean_of_empty_pool_raises(self):
        with pytest.raises(ValueError):
            SamplePool.empty(3).mean_weight_vector()

    def test_effective_sample_size_degrades_with_skewed_weights(self):
        balanced = SamplePool(np.zeros((4, 1)), np.ones(4))
        skewed = SamplePool(np.zeros((4, 1)), np.array([100.0, 1.0, 1.0, 1.0]))
        assert skewed.effective_sample_size() < balanced.effective_sample_size()


#: A cone a seed-1 ``noisy_churn`` run (perfbench) filled three times: eight
#: contradictory clicks in four features leave only the origin, so every
#: fill starts its chain at the apex.
NOISY_CHURN_APEX_CONE = np.array(
    [
        [-0.11143238453122373, 0.008409485624114033, 0.0, 0.0],
        [0.012272348423537638, 0.010850826231965427, 0.0, 0.12019398177127952],
        [0.570775967341717, 0.24238609805939781, 0.6845899157656842, -0.27401207237673114],
        [0.4165189643101169, 0.9454593706823563, 0.21939763064115414, -0.053539721223361175],
        [-0.0071860824987125815, -0.5531989606500882, -0.4872387947095805, -0.35991893077929404],
        [0.1012236074827311, -0.48933348261507675, -0.4872387947095805, -0.4870323027126453],
        [0.051281143994678646, -0.5440963739547491, -0.4872387947095805, -0.35155920042835964],
        [-0.02006722520241494, -0.47566475367690136, -0.36047824942898105, 0.46977564739530764],
    ]
)


def seeded_cone(rng, family):
    """A random cone in 2-10 features with 1-80 rows: consistent (family 0),
    with one row's antipode added (1), or with a negated positive
    combination of up to three rows added (2).  Families 1 and 2 have no
    interior."""
    m = int(rng.integers(2, 11))
    rows = rng.normal(size=(int(rng.integers(1, 81)), m))
    rows[rows @ rng.normal(size=m) < 0] *= -1
    if family == 1:
        rows = np.vstack([rows, -rows[rng.integers(len(rows))]])
    elif family == 2:
        picked = rng.choice(len(rows), min(len(rows), int(rng.integers(1, 4))), replace=False)
        rows = np.vstack([rows, -(rng.uniform(0.1, 2.0, len(picked)) @ rows[picked])])
    rng.shuffle(rows)
    return rows


def highs_centre(unit):
    """The same Chebyshev LP solved by SciPy's HiGHS, as ``(w, t)``."""
    from scipy.optimize import linprog

    m = unit.shape[1]
    objective = np.zeros(m + 1)
    objective[-1] = -1.0
    result = linprog(
        objective,
        A_ub=np.hstack([-unit, np.ones((len(unit), 1))]),
        b_ub=np.zeros(len(unit)),
        bounds=[(-1.0, 1.0)] * m + [(0.0, 1.0)],
        method="highs",
    )
    assert result.success
    return result.x[:m], result.x[m]


class TestInteriorPoint:
    def test_empty_constraints_give_the_origin(self):
        point = ConstraintSet.empty(3).interior_point()
        assert np.allclose(point, np.zeros(3))

    def test_interior_point_is_strictly_valid(self):
        rng = np.random.default_rng(0)
        hidden = rng.uniform(-1, 1, 8)
        hidden /= np.linalg.norm(hidden)
        directions = rng.normal(size=(40, 8))
        directions[directions @ hidden < 0] *= -1  # consistent feedback cone
        constraints = ConstraintSet(directions)
        point = constraints.interior_point()
        assert point is not None
        assert constraints.is_valid(point)
        # Strict slack against every constraint, not just boundary validity.
        assert (directions @ point > 0).all()

    def test_degenerate_cone_returns_none(self):
        flat = ConstraintSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert flat.interior_point() is None

    def test_noisy_churn_apex_cone_returns_none(self):
        assert ConstraintSet(NOISY_CHURN_APEX_CONE).interior_point() is None

    def test_zero_rows_are_ignored(self):
        only_zero = ConstraintSet(np.zeros((3, 2)))
        assert np.array_equal(only_zero.interior_point(), np.zeros(2))
        half = ConstraintSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert half.interior_point()[0] > 0


class TestChebyshevSimplex:
    def test_agrees_with_highs_on_seeded_cones(self, monkeypatch):
        """1002 cones of the three families: the same verdict as HiGHS, the
        same optimal slack, and a strictly valid point whenever one exists."""
        solved = []

        def recording_centre(unit):
            solved.append(chebyshev_centre(unit))
            return solved[-1]

        monkeypatch.setattr(base, "chebyshev_centre", recording_centre)
        rng = np.random.default_rng(2014)
        interiors = 0
        for index in range(1002):
            rows = seeded_cone(rng, index % 3)
            point = ConstraintSet(rows).interior_point()
            reference_point, reference_slack = highs_centre(
                rows / np.linalg.norm(rows, axis=1)[:, None]
            )
            reference_has_interior = reference_slack > 0 and (rows @ reference_point >= 0).all()
            assert (point is not None) == reference_has_interior, index
            assert abs(solved[-1][1] - reference_slack) <= 1e-9, index
            if point is not None:
                interiors += 1
                assert (rows @ point > 0).all(), index
        assert interiors == 334  # every consistent cone, and only those

    def test_terminates_on_a_highly_degenerate_input(self):
        """Duplicated rows, zero rows and an all-zero right-hand side: every
        cone row ties in every ratio test at the origin."""
        rng = np.random.default_rng(5)
        unit = rng.normal(size=(3, 6))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        _, slack = chebyshev_centre(np.vstack([unit] * 20))
        assert slack == pytest.approx(highs_centre(unit)[1], abs=1e-9)
        # A zero row reads 0 >= t: the optimum is t = 0 at the origin.
        point, slack = chebyshev_centre(np.vstack([unit] * 20 + [np.zeros((5, 6))]))
        assert slack == 0.0
        cone = ConstraintSet(np.vstack([unit] * 20 + [np.zeros((5, 6)), -unit[:1]] * 3))
        assert cone.interior_point() is None

    def test_the_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(base, "SIMPLEX_PIVOTS_PER_ROW", 0)
        with pytest.raises(SimplexError):
            ConstraintSet(np.array([[1.0, 0.0]])).interior_point()


def _seed_order_cones():
    """Rejection cones (some under a noise model) and cones with no
    interior, which seed at the apex, plus the ``noisy_churn`` apex cone."""
    rng = np.random.default_rng(2014)
    cones = []
    for index in range(12):
        m = 2 + index % 4
        rows = rng.normal(size=(1 + index % 3, m))
        rows[rows @ rng.normal(size=m) < 0] *= -1
        noisy = index % 4 == 3
        cones.append((rows, 0.7 if noisy else None))
        if not noisy:
            negated = -rows[:1] if index % 2 else -rows.sum(axis=0)[None]
            cones.append((np.vstack([rows, negated]), None))
    cones.append((NOISY_CHURN_APEX_CONE, None))
    return cones


class TestChainSeedOrder:
    def test_pools_are_unchanged_from_the_rejection_first_order(self):
        """MCMC pools over rejection-seeded and apex-seeded cones hash to the
        literal computed when every chain tried 200k rejection draws before
        the LP.  Skipping those draws on a cone with no interior leaves the
        chain's RNG elsewhere, but a chain at the apex of such a cone never
        moves, so its pool and statistics are the same.  LP-seeded pools are
        left out: the simplex may pick another optimal vertex than the
        solver the literal was computed with."""
        digest = hashlib.blake2b(digest_size=16)
        rungs = []
        for seed, (rows, noise) in enumerate(_seed_order_cones()):
            prior = GaussianMixture.default_prior(rows.shape[1], rng=0)
            pool = MetropolisHastingsSampler(prior, rng=seed, noise_probability=noise).sample(
                20, ConstraintSet(rows)
            )
            rungs.append(pool.stats["chain_seed"])
            digest.update(pool.samples.tobytes())
            digest.update(repr(sorted(pool.stats.items())).encode())
        assert rungs.count("rejection") == 12 and rungs.count("apex") == 10
        assert digest.hexdigest() == "41f4c2d1b40572190ca45d85fb47fccc"

    def test_a_cone_without_interior_skips_rejection(self, monkeypatch):
        def refuse(self, constraints):
            raise AssertionError("rejection seeding ran on a cone with no interior")

        monkeypatch.setattr("repro.sampling.mcmc.RejectionSampler.sample_one_valid", refuse)
        pool = MetropolisHastingsSampler(GaussianMixture.default_prior(4, rng=0), rng=0).sample(
            5, ConstraintSet(NOISY_CHURN_APEX_CONE)
        )
        assert pool.stats["chain_seed"] == "apex"
        assert not pool.samples.any()


class TestFingerprintAndCopy:
    def test_fingerprint_is_order_and_sign_of_zero_invariant(self):
        a = ConstraintSet(np.array([[1.0, -0.5], [0.0, 0.25]]))
        b = ConstraintSet(np.array([[-0.0, 0.25], [1.0, -0.5]]))
        assert a.fingerprint() == b.fingerprint()

    def test_pool_copy_is_deep(self):
        pool = SamplePool.unweighted(np.ones((2, 2)), {"sampler": "RS"})
        clone = pool.copy()
        clone.samples[0, 0] = 9.0
        clone.stats["sampler"] = "other"
        assert pool.samples[0, 0] == 1.0
        assert pool.stats["sampler"] == "RS"
