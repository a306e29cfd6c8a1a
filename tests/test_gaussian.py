import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from scmkit.errors import InvalidArgumentError, SingularConditioningError
from scmkit.exogenous import DigitStream, uniform_list
from scmkit.gaussian import (
    _CERTIFIED_SIZE,
    GaussianLaw,
    LinearGaussianScm,
    lg_condition,
    lg_intervene,
    lg_moments,
    lg_sample,
    lord_component,
    norm_ppf,
    simpson_cont_model,
)
from scmkit.graph import Dag, topological_order

from structures import (
    lord_report,
    reference_lg_moments,
    reference_psd_verdict,
    simpson_cont_report,
)

REFERENCE = dict(alpha=1.0, beta=0.2, gamma=1.0, mu=0.0, sigma1=1.0, sigma2=1.0, sigma3=1.0)


def random_lg(seed: int, n: int = 6, p: float = 0.4) -> LinearGaussianScm:
    rng = np.random.default_rng(seed)
    names = [f"N{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    dag = Dag(names, edges)
    return LinearGaussianScm(
        dag,
        intercepts={nd: float(rng.normal()) for nd in names},
        coefficients={
            nd: {pa: float(rng.normal()) for pa in dag.parents(nd)} for nd in names
        },
        noise_vars={nd: float(rng.uniform(0.1, 2.0)) for nd in names},
    )


def wide_lg(
    seed: int, n: int, k: int, coef=float, zero_noise: float = 0.0
) -> LinearGaussianScm:
    """n nodes, each with min(i, k) random earlier parents listed in draw
    order, not sorted; `coef` turns a draw in [-0.7, 0.7] into a
    coefficient, and about a `zero_noise` share of nodes have no noise."""
    rng = np.random.default_rng(seed)
    names = [f"N{i:03d}" for i in range(n)]
    parents = {
        nd: [names[j] for j in rng.choice(i, size=min(i, k), replace=False)] if i else []
        for i, nd in enumerate(names)
    }
    return LinearGaussianScm(
        Dag(names, [(p, nd) for nd, ps in parents.items() for p in ps]),
        intercepts={nd: float(rng.normal()) for nd in names},
        coefficients={
            nd: {p: coef(float(rng.uniform(-0.7, 0.7))) for p in ps}
            for nd, ps in parents.items()
        },
        noise_vars={
            nd: 0.0 if rng.random() < zero_noise else float(rng.uniform(0.5, 1.5))
            for nd in names
        },
    )


def assert_reference_moments(model: LinearGaussianScm) -> None:
    """lg_moments equals the scalar recursion bit for bit, signed zeros included."""
    law = lg_moments(model)
    order, mean, cov = reference_lg_moments(model)
    assert law.order == order
    assert law.mean.shape == mean.shape and law.mean.tobytes() == mean.tobytes()
    assert law.covariance.shape == cov.shape and law.covariance.tobytes() == cov.tobytes()


def matrix_moments(model: LinearGaussianScm):
    """Independent whole-system route: X = (I-C)^-1 (a + noise)."""
    order = topological_order(model.dag)
    pos = {nd: i for i, nd in enumerate(order)}
    k = len(order)
    coef = np.zeros((k, k))
    for nd in order:
        for pa, c in model.coefficients[nd].items():
            coef[pos[nd], pos[pa]] = c
    inv = np.linalg.inv(np.eye(k) - coef)
    mean = inv @ np.array([model.intercepts[nd] for nd in order])
    noise = np.diag([model.noise_vars[nd] for nd in order])
    return order, mean, inv @ noise @ inv.T


PPF_GRID = np.concatenate(
    [
        np.linspace(1e-6, 1 - 1e-6, 2001),
        np.array([1e-12, 1e-9, 0.02425, 0.5, 0.97575, 1 - 1e-9]),
    ]
)


class TestNormPpf:
    def test_matches_reference_quantile(self):
        assert np.max(np.abs(norm_ppf(PPF_GRID) - ndtri(PPF_GRID))) <= 1e-9

    def test_round_trip_through_cdf(self):
        grid = np.linspace(0.001, 0.999, 999)
        assert np.max(np.abs(ndtr(norm_ppf(grid)) - grid)) < 1e-12

    def test_symmetry(self):
        # Away from the extreme tails, where float(1 - p) is well conditioned.
        grid = np.linspace(1e-4, 0.5, 500)
        assert np.max(np.abs(norm_ppf(1 - grid) + norm_ppf(grid))) < 1e-9

    def test_scalar_form(self):
        out = norm_ppf(0.975)
        assert isinstance(out, float)
        assert out == pytest.approx(1.959963984540054, abs=1e-9)

    def test_equals_ndtri(self):
        assert np.array_equal(norm_ppf(PPF_GRID), ndtri(PPF_GRID))
        assert norm_ppf(0.975) == float(ndtri(0.975))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5, math.nan, [0.5, math.nan]])
    def test_domain(self, bad):
        with pytest.raises(InvalidArgumentError, match=re.escape("strictly in (0, 1)")):
            norm_ppf(bad)


class TestLgMoments:
    def test_dose_response_second_moments(self):
        law = lg_moments(simpson_cont_model(**REFERENCE))
        assert law.var_of("X") == pytest.approx(3.0, abs=1e-12)
        assert law.cov_of("X", "T") == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert law.var_of("T") == pytest.approx(2.0, abs=1e-12)
        assert law.mean_of("R") == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [-2.0, 1.5])
    def test_dose_response_treatment_mean_is_mu(self, mu):
        law = lg_moments(simpson_cont_model(**{**REFERENCE, "gamma": 2.0, "mu": mu}))
        assert law.mean_of("X") == pytest.approx(2.0 * mu, abs=1e-12)
        assert law.mean_of("T") == pytest.approx(mu, abs=1e-12)

    def test_zero_coefficients_give_diagonal_covariance(self):
        dag = Dag(("A", "B"), (("A", "B"),))
        model = LinearGaussianScm(
            dag,
            intercepts={"A": 1.0, "B": 2.0},
            coefficients={"A": {}, "B": {"A": 0.0}},
            noise_vars={"A": 0.5, "B": 1.5},
        )
        law = lg_moments(model)
        assert np.allclose(law.covariance, np.diag([0.5, 1.5]))

    @pytest.mark.parametrize("seed", range(20))
    def test_whole_system_matrix_route_agrees(self, seed):
        model = random_lg(seed)
        law = lg_moments(model)
        order, mean, cov = matrix_moments(model)
        assert law.order == tuple(order)
        assert np.max(np.abs(law.mean - mean)) < 1e-9
        assert np.max(np.abs(law.covariance - cov)) < 1e-9

    def test_missing_coefficient_rejected(self):
        dag = Dag(("A", "B"), (("A", "B"),))
        with pytest.raises(InvalidArgumentError):
            LinearGaussianScm(
                dag,
                intercepts={"A": 0.0, "B": 0.0},
                coefficients={"A": {}, "B": {}},
                noise_vars={"A": 1.0, "B": 1.0},
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, label",
        [
            ("intercepts", "intercept"),
            ("coefficients", "coefficient of 'A'"),
            ("noise_vars", "noise variance"),
        ],
    )
    def test_non_finite_parameter_rejected(self, bad, field, label):
        params = {
            "intercepts": {"A": 0.0, "B": 0.0},
            "coefficients": {"A": {}, "B": {"A": 1.0}},
            "noise_vars": {"A": 1.0, "B": 1.0},
        }
        params[field]["B"] = {"A": bad} if field == "coefficients" else bad
        with pytest.raises(InvalidArgumentError, match=re.escape(f"non-finite {label} at 'B'")):
            LinearGaussianScm(Dag(("A", "B"), (("A", "B"),)), **params)

    def test_negative_variance_rejected(self):
        dag = Dag(("A",), ())
        with pytest.raises(InvalidArgumentError):
            LinearGaussianScm(
                dag, intercepts={"A": 0.0}, coefficients={"A": {}}, noise_vars={"A": -1.0}
            )


class TestRowMoments:
    """The row-vectorized moments against the scalar recursion they replaced."""

    @pytest.mark.parametrize("n, k", [(100, 2), (100, 3), (200, 2), (200, 3)])
    def test_wide_models(self, n, k):
        model = wide_lg(n + k, n, k)
        assert any(list(c) != sorted(c) for c in model.coefficients.values())
        assert_reference_moments(model)

    def test_zero_noise_nodes(self):
        model = wide_lg(5, 60, 3, zero_noise=0.3)
        assert 0.0 in model.noise_vars.values()
        assert_reference_moments(model)

    @pytest.mark.parametrize("seed", range(3))
    def test_intervened_models(self, seed):
        model = wide_lg(seed, 100, 3)
        for node in ("N000", "N017", "N050", "N099"):
            assert_reference_moments(lg_intervene(model, node, 1.5 - seed))

    def test_parentless_nodes(self):
        dag = Dag(("A", "B", "C"), (("A", "C"),))
        model = LinearGaussianScm(
            dag,
            intercepts={"A": -0.0, "B": 2.0, "C": 0.5},
            coefficients={"A": {}, "B": {}, "C": {"A": -0.0}},
            noise_vars={"A": 1.0, "B": 0.25, "C": 0.0},
        )
        assert_reference_moments(model)
        single = LinearGaussianScm(Dag(("A",), ()), {"A": 1.0}, {"A": {}}, {"A": 2.0})
        assert_reference_moments(single)

    def test_empty_model(self):
        model = LinearGaussianScm(Dag((), ()), {}, {}, {})
        assert lg_moments(model).order == ()
        assert_reference_moments(model)

    @pytest.mark.parametrize("coef", [lambda x: round(2 * x), lambda x: Fraction(round(10 * x), 10)])
    def test_exact_coefficients(self, coef):
        model = wide_lg(11, 40, 3, coef=coef, zero_noise=0.2)
        kinds = {type(c) for cs in model.coefficients.values() for c in cs.values()}
        assert kinds == {type(coef(0.3))}
        assert_reference_moments(model)


class TestGaussianLaw:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GaussianLaw(("A", "B"), np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GaussianLaw(("A", "B"), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
    def test_indefinite_covariance_rejected_at_any_scale(self, scale):
        with pytest.raises(InvalidArgumentError, match="positive semidefinite"):
            GaussianLaw(("A", "B"), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]) * scale)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_symmetry_tolerance_is_relative_to_scale(self, scale):
        base = np.array([[1.0, 0.5], [0.5, 1.0]]) * scale
        GaussianLaw(("A", "B"), np.zeros(2), base)
        rounded = base.copy()
        rounded[0, 1] *= 1 + 1e-12
        GaussianLaw(("A", "B"), np.zeros(2), rounded)
        skewed = base.copy()
        skewed[0, 1] *= 1 + 1e-6
        with pytest.raises(InvalidArgumentError, match="covariance must be symmetric"):
            GaussianLaw(("A", "B"), np.zeros(2), skewed)

    def test_symmetry_tolerance_examples(self):
        GaussianLaw(("A", "B"), np.zeros(2), np.array([[1e12, 5e11 + 1e-3], [5e11, 1e12]]))
        with pytest.raises(InvalidArgumentError, match="covariance must be symmetric"):
            GaussianLaw(("A", "B"), np.zeros(2), np.array([[1e-6, 0.0], [5e-10, 1e-6]]))

    def test_symmetry_tolerance_reads_the_source_scale(self):
        cov = np.array([[1.0, 0.5 + 1e-7], [0.5, 1.0]])
        with pytest.raises(InvalidArgumentError, match="covariance must be symmetric"):
            GaussianLaw(("A", "B"), np.zeros(2), cov)
        GaussianLaw(("A", "B"), np.zeros(2), cov, np.array([1e4, 1e4]))

    def test_exactly_symmetric_zero_covariance_accepted(self):
        law = GaussianLaw(("A", "B"), np.zeros(2), np.zeros((2, 2)))
        assert law.var_of("B") == 0.0
        with pytest.raises(InvalidArgumentError, match="covariance must be symmetric"):
            GaussianLaw(("A", "B"), np.zeros(2), np.array([[0.0, 1e-300], [0.0, 0.0]]))

    @pytest.mark.parametrize("var", [1.0, 1e4, 1e6, 1e8, 1e10, 1e12])
    def test_rank_deficient_model_accepted_at_any_scale(self, var):
        # B copies A and Y triples it without noise; rounding leaves the
        # least eigenvalue slightly below 0, by an amount that grows with var.
        dag = Dag(("A", "B", "Y"), (("A", "B"), ("A", "Y")))
        model = LinearGaussianScm(
            dag,
            intercepts={"A": 0.0, "B": 0.0, "Y": 0.0},
            coefficients={"A": {}, "B": {"A": 1.0}, "Y": {"A": 3.0}},
            noise_vars={"A": var, "B": 0.0, "Y": 0.0},
        )
        law = lg_moments(model)
        assert law.var_of("Y") == pytest.approx(9 * var)

    @pytest.mark.parametrize(
        "sigma, rho",
        [(1.0, 0.2), (1.0, 0.45), (0.7, 0.1), (10.0, 0.7), (1e4, 0.7), (1e5, 0.2), (1e5, 0.5)],
    )
    def test_cancelled_conditional_variance_accepted(self, sigma, rho):
        # G = R - X, so given X and R its variance cancels to within rounding
        # of 0, and the rounding grows with the variances past sigma = 10.
        law = lg_condition(lg_moments(lord_component(0.0, sigma, rho)), {"X": 0.3, "R": 1.0})
        assert abs(law.var_of("G")) < 1e-12 * max(1.0, sigma / 10) ** 2

    @pytest.mark.parametrize("mean, cov", [(np.zeros(3), np.eye(2)), (np.zeros(2), np.eye(3))])
    def test_shape_mismatch_rejected(self, mean, cov):
        with pytest.raises(InvalidArgumentError, match="shapes do not match order"):
            GaussianLaw(("A", "B"), mean, cov)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="non-finite mean at 'B'"):
            GaussianLaw(("A", "B"), np.array([0.0, bad]), np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i, j", [(0, 1), (1, 1)])
    def test_non_finite_covariance_rejected(self, bad, i, j):
        cov = np.eye(2)
        cov[i, j] = cov[j, i] = bad
        at = re.escape(f"non-finite covariance at {('A', 'B')[min(i, j)]!r}, 'B'")
        with pytest.raises(InvalidArgumentError, match=at):
            GaussianLaw(("A", "B"), np.zeros(2), cov)

    def test_unknown_node(self):
        law = GaussianLaw(("A",), np.zeros(1), np.eye(1))
        with pytest.raises(InvalidArgumentError):
            law.mean_of("Z")


# The least eigenvalue, in units of the floor; 0.999 to 1.001 straddle it.
FLOOR_MULTIPLES = (0.0, 0.5, 0.999, 1.0, 1.001, 1.1, 2.0, 10.0)
SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)


def placed_covariances(n: int, seed: int):
    """(covariance, _scale or None) pairs whose least eigenvalue sits at each
    of FLOOR_MULTIPLES times the floor, at every scale when n is small and at
    one scale per multiple when it is large.  About a quarter of the other
    eigenvalues are 0, as in a model with deterministic nodes, and every
    other matrix carries an asymmetry far inside the tolerance."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    rest = rng.uniform(1e-3, 1.0, n - 1) * (rng.random(n - 1) > 0.25)
    rest[0] = 1.0
    for i, m in enumerate(FLOOR_MULTIPLES):
        for j, scale in enumerate(SCALES if n <= 100 else SCALES[i % len(SCALES):][:1]):
            given = (i + j) % 2 == 0
            values = np.concatenate(([0.0], rest)) * scale
            if not given:
                scale = float(np.max(((q * values) @ q.T).diagonal()))
            values[0] = -1e-9 * m * scale
            cov = (q * values) @ q.T
            cov = (cov + cov.T) / 2
            if i % 2:
                cov[0, -1] += 1e-12 * scale
            yield cov, np.full(n, scale) if given else None


def law_verdict(cov, scale) -> bool:
    k = len(cov)
    try:
        GaussianLaw(tuple(f"N{i}" for i in range(k)), np.zeros(k), cov, scale)
    except InvalidArgumentError as exc:
        assert str(exc) == "covariance must be positive semidefinite"
        return False
    return True


class TestPsdCertificate:
    """The Cholesky certificate with its eigvalsh fallback against eigvalsh alone."""

    @pytest.mark.parametrize("n", [2, 3, 8, 40, 100, 250, _CERTIFIED_SIZE, _CERTIFIED_SIZE + 1])
    def test_verdicts_equal_the_reference(self, n):
        certified = fallback = 0
        verdicts = set()
        for cov, scale in placed_covariances(n, seed=n):
            want = reference_psd_verdict(cov, scale)
            with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
                assert law_verdict(cov, scale) == want
            if spy.call_count:
                fallback += 1
            else:
                certified += 1
                assert want
            verdicts.add(want)
        assert verdicts == {True, False}
        assert fallback
        assert bool(certified) == (n <= _CERTIFIED_SIZE)

    def test_certificate_skips_eigvalsh_on_model_laws(self):
        model = wide_lg(3, 60, 3, zero_noise=0.3)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            law = lg_moments(model)
        assert spy.call_count == 0
        assert reference_psd_verdict(law.covariance)

    def test_failed_factorization_falls_back_to_eigvalsh(self):
        # The least eigenvalue is about -7e-10: below half the floor, so the
        # shifted factorization fails, and above the floor, so eigvalsh accepts.
        cov = np.array([[1.0, 1.0], [1.0, 1.0 - 1.4e-9]])
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as spy:
            GaussianLaw(("A", "B"), np.zeros(2), cov)
        assert spy.call_count == 1


class TestLgCondition:
    def test_dose_response_observed_slope(self):
        law = lg_moments(simpson_cont_model(**REFERENCE))
        slope = (
            lg_condition(law, {"T": 1.0}).mean_of("R")
            - lg_condition(law, {"T": 0.0}).mean_of("R")
        )
        assert slope == pytest.approx(math.sqrt(3.0) / 2 - 0.2, abs=1e-9)

    def test_bivariate_closed_form(self):
        law = GaussianLaw(
            ("A", "B"),
            np.array([1.0, -2.0]),
            np.array([[4.0, 1.2], [1.2, 2.0]]),
        )
        cond = lg_condition(law, {"A": 3.0})
        assert cond.mean_of("B") == pytest.approx(-2.0 + (1.2 / 4.0) * (3.0 - 1.0))
        assert cond.var_of("B") == pytest.approx(2.0 - 1.2**2 / 4.0)

    def test_independent_node_is_inert(self):
        law = GaussianLaw(
            ("A", "B"),
            np.array([0.0, 5.0]),
            np.array([[1.0, 0.0], [0.0, 2.0]]),
        )
        cond = lg_condition(law, {"A": 9.0})
        assert cond.mean_of("B") == 5.0
        assert cond.var_of("B") == 2.0

    def test_singular_block(self):
        law = GaussianLaw(
            ("A", "B", "C"),
            np.zeros(3),
            np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]]),
        )
        with pytest.raises(SingularConditioningError):
            lg_condition(law, {"A": 0.0, "B": 0.0})

    @pytest.mark.parametrize("sd", [1e-3, 1.0, 1e3])
    def test_small_independent_parents_are_not_singular(self, sd):
        # The block's determinant is sd**6, which is 1e-18 at sd = 1e-3.
        dag = Dag(["A", "B", "C", "Y"], [("A", "Y"), ("B", "Y"), ("C", "Y")])
        model = LinearGaussianScm(
            dag,
            {n: 0.0 for n in "ABCY"},
            {"A": {}, "B": {}, "C": {}, "Y": {"A": 1.0, "B": 1.0, "C": 1.0}},
            {"A": sd**2, "B": sd**2, "C": sd**2, "Y": 1.0},
        )
        cond = lg_condition(lg_moments(model), {"A": 1.0, "B": 0.0, "C": 0.0})
        assert cond.mean_of("Y") == pytest.approx(1.0, rel=1e-12)
        assert cond.var_of("Y") == pytest.approx(1.0, rel=1e-9)

    def test_near_collinear_block_at_large_scale_is_singular(self):
        # B = A + N(0, w) with var(A) = 1e6: the block's determinant is about
        # 1e-4 but its condition number is about 3e16, so inverting it gives
        # a wrong mean for Y = A + N(0, 1).
        v, w = 1e6, 4e6 / 3e16
        cov = np.array([[v, v, v], [v, v + w, v], [v, v, v + 1.0]])
        law = GaussianLaw(("A", "B", "Y"), np.zeros(3), cov)
        with pytest.raises(SingularConditioningError):
            lg_condition(law, {"A": 1.0, "B": 1.0})

    def test_conditioning_everything_rejected(self):
        law = GaussianLaw(("A",), np.zeros(1), np.eye(1))
        with pytest.raises(InvalidArgumentError):
            lg_condition(law, {"A": 1.0})

    def test_empty_conditioning_is_identity(self):
        law = lg_moments(random_lg(3))
        assert lg_condition(law, {}) is law

    @pytest.mark.parametrize("seed", range(10))
    def test_posterior_covariance_stays_psd(self, seed):
        law = lg_moments(random_lg(seed))
        cond = lg_condition(law, {law.order[0]: 0.7, law.order[-1]: -1.1})
        assert float(np.linalg.eigvalsh(cond.covariance).min()) >= -1e-9


class TestLgIntervene:
    def test_causal_slope_is_direct_coefficient(self):
        model = simpson_cont_model(**REFERENCE)
        slope = (
            lg_moments(lg_intervene(model, "T", 1.0)).mean_of("R")
            - lg_moments(lg_intervene(model, "T", 0.0)).mean_of("R")
        )
        assert slope == pytest.approx(-0.2, abs=1e-12)

    def test_sink_intervention_leaves_upstream(self):
        model = simpson_cont_model(**REFERENCE)
        law = lg_moments(model)
        forced = lg_moments(lg_intervene(model, "R", 10.0))
        for node in ("X", "T"):
            assert forced.mean_of(node) == law.mean_of(node)
            assert forced.var_of(node) == law.var_of(node)
        assert forced.var_of("R") == 0.0

    def test_double_intervention_commutes(self):
        model = random_lg(7)
        nodes = sorted(model.dag.nodes)
        a, b = nodes[0], nodes[3]
        one = lg_moments(lg_intervene(lg_intervene(model, a, 1.0), b, -2.0))
        two = lg_moments(lg_intervene(lg_intervene(model, b, -2.0), a, 1.0))
        assert np.allclose(one.mean, two.mean)
        assert np.allclose(one.covariance, two.covariance)

    def test_unknown_node(self):
        with pytest.raises(InvalidArgumentError):
            lg_intervene(simpson_cont_model(**REFERENCE), "Z", 0.0)


class TestSimpsonContReport:
    def test_reference_parameters(self):
        report = simpson_cont_report(**REFERENCE)
        assert report["observational_slope"] == pytest.approx(
            math.sqrt(3.0) / 2 - 0.2, abs=1e-9
        )
        assert report["causal_slope"] == pytest.approx(-0.2, abs=1e-12)
        assert report["paradox"] is True

    def test_strong_treatment_kills_reversal(self):
        report = simpson_cont_report(**{**REFERENCE, "beta": 10.0})
        assert report["paradox"] is False
        assert report["observational_slope"] < 0

    def test_boundary_slope(self):
        boundary = math.sqrt(3.0) / 2
        report = simpson_cont_report(**{**REFERENCE, "beta": boundary})
        assert abs(report["observational_slope"]) < 1e-12
        assert report["paradox"] is False

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "sigma1", "sigma2", "sigma3"])
    def test_positivity_required(self, name):
        with pytest.raises(InvalidArgumentError):
            simpson_cont_report(**{**REFERENCE, name: 0.0})


class TestLordReport:
    def test_reference_parameters(self):
        report = lord_report(mu1=0.0, mu2=1.0, sigma=1.0, p=0.5, rho=0.5)
        gain_mean, gain_var = report["gain_law"]
        assert gain_mean == pytest.approx(0.0, abs=1e-12)
        assert gain_var == pytest.approx(1.0, abs=1e-9)
        assert report["direct_difference"] == pytest.approx(-0.5, abs=1e-9)
        assert report["mean_response"] == pytest.approx(0.5, abs=1e-9)
        assert report["var_response"] == pytest.approx(1.25, abs=1e-9)
        assert report["group_laws"][1] == pytest.approx((0.0, 1.0), abs=1e-9)
        assert report["group_laws"][2] == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_gain_law_identical_across_groups(self):
        report = lord_report(mu1=-1.3, mu2=2.4, sigma=1.7, p=0.3, rho=0.62)
        one = report["gain_law_by_group"][1]
        two = report["gain_law_by_group"][2]
        assert one == pytest.approx(two, abs=1e-12)
        assert one[1] == pytest.approx(2 * (1 - 0.62) * 1.7**2, abs=1e-9)

    def test_equal_means_remove_difference(self):
        report = lord_report(mu1=0.7, mu2=0.7, sigma=2.0, p=0.4, rho=0.3)
        assert report["direct_difference"] == pytest.approx(0.0, abs=1e-12)
        assert report["group_laws"][1] == pytest.approx(report["group_laws"][2])

    def test_high_persistence_shrinks_gain(self):
        report = lord_report(mu1=0.0, mu2=1.0, sigma=1.0, p=0.5, rho=0.9999)
        assert report["gain_law"][1] == pytest.approx(2e-4, rel=1e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu1=0.0, mu2=1.0, sigma=0.0, p=0.5, rho=0.5),
            dict(mu1=0.0, mu2=1.0, sigma=1.0, p=0.0, rho=0.5),
            dict(mu1=0.0, mu2=1.0, sigma=1.0, p=1.0, rho=0.5),
            dict(mu1=0.0, mu2=1.0, sigma=1.0, p=0.5, rho=1.0),
        ],
    )
    def test_parameter_ranges(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            lord_report(**kwargs)


class TestLgSample:
    def test_rows_follow_the_ndtri_formula(self):
        # intercept + sqrt(noise) * ndtri(u) + sum of c * parent, parents in
        # coefficient order; node j of the topological order reads row j+1.
        dag = Dag(("A", "B", "C"), (("A", "C"), ("B", "C"), ("A", "B")))
        model = LinearGaussianScm(
            dag,
            intercepts={"A": 0.3, "B": -1.0, "C": 2.5},
            coefficients={"A": {}, "B": {"A": 0.7}, "C": {"B": -1.3, "A": 0.45}},
            noise_vars={"A": 2.0, "B": 0.5, "C": 1.7},
        )
        n, top = 300, np.nextafter(1.0, 0.0)
        order = topological_order(dag)
        draws = [uniform_list(DigitStream(8), j + 1, 0, n) for j in range(len(order))]
        want = []
        for i in range(n):
            values = {}
            for j, node in enumerate(order):
                u = min(max(draws[j][i], 5e-17), top)
                x = model.intercepts[node] + math.sqrt(model.noise_vars[node]) * float(ndtri(u))
                for parent, c in model.coefficients[node].items():
                    x += c * values[parent]
                values[node] = x
            want.append(tuple(values[node] for node in order))
        data = lg_sample(model, DigitStream(8), n)
        assert data.columns == tuple(order)
        assert data.rows == want

    def test_empty(self):
        data = lg_sample(simpson_cont_model(**REFERENCE), DigitStream(1), 0)
        assert data.rows == []

    def test_reproducible(self):
        model = simpson_cont_model(**REFERENCE)
        assert lg_sample(model, DigitStream(5), 40).rows == lg_sample(
            model, DigitStream(5), 40
        ).rows

    def test_monte_carlo_regression_slope(self):
        model = simpson_cont_model(**REFERENCE)
        data = lg_sample(model, DigitStream(314159), 100_000)
        t = np.array(data.column("T"))
        r = np.array(data.column("R"))
        slope_hat = float(np.cov(t, r, bias=True)[0, 1] / np.var(t))
        resid = r - r.mean() - slope_hat * (t - t.mean())
        se = float(np.std(resid) / (np.std(t) * math.sqrt(len(t))))
        want = math.sqrt(3.0) / 2 - 0.2
        assert abs(slope_hat - want) <= 3 * se

    def test_marginal_moments(self):
        model = simpson_cont_model(**REFERENCE)
        data = lg_sample(model, DigitStream(27), 50_000)
        x = np.array(data.column("X"))
        assert abs(x.mean()) <= 3 * math.sqrt(3.0 / len(x))
        assert np.var(x) == pytest.approx(3.0, rel=0.05)
