import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from copulagree import (
    CopulaModel,
    NumericalError,
    Objective,
    bivariate_normal_cdf,
    build_structure,
    gradient,
    hessian,
    loglik_cml,
    loglik_dt,
    loglik_ml,
    loglik_smp,
    parse_labels,
    prepare,
)
from copulagree.marginals import Categorical
from copulagree.structure import pair_list

from conftest import nominal_matrix


def pair_structure(n_units=1):
    labs = parse_labels(["c.1.1", "c.2.1"]).labels
    return build_structure(labs, np.ones((n_units, 2), dtype=bool))


def scipy_rect(y1, y2, fam, rho):
    """Exact joint pmf of a categorical pair via scipy's bivariate normal cdf."""
    def z(v):
        p = float(fam.cdf(v))
        return np.inf if p >= 1.0 else (-np.inf if p <= 0.0 else ndtri(p))

    cov = [[1.0, rho], [rho, 1.0]]

    def cdf2(a, b):
        if a == -np.inf or b == -np.inf:
            return 0.0
        a = min(a, 37.0)
        b = min(b, 37.0)
        return float(stats.multivariate_normal.cdf([a, b], cov=cov,
                                                   abseps=1e-12, releps=0.0))

    return (cdf2(z(y1), z(y2)) - cdf2(z(y1), z(y2 - 1))
            - cdf2(z(y1 - 1), z(y2)) + cdf2(z(y1 - 1), z(y2 - 1)))


class TestBivariateNormalCdf:
    def test_orthant_identity(self):
        for rho in [-0.9, -0.5, 0.0, 0.3, 0.6, 0.9, 0.93, 0.999]:
            assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(
                0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-7
            )

    def test_marginalization_at_infinity(self):
        assert bivariate_normal_cdf(np.inf, 0.31, 0.5) == pytest.approx(stats.norm.cdf(0.31))
        assert bivariate_normal_cdf(-1.2, np.inf, -0.4) == pytest.approx(stats.norm.cdf(-1.2))
        assert bivariate_normal_cdf(-np.inf, 1.0, 0.2) == 0.0
        assert bivariate_normal_cdf(np.inf, np.inf, 0.7) == 1.0

    def test_independence_and_zero_point(self):
        assert bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=2)
            assert bivariate_normal_cdf(a, b, 0.0) == pytest.approx(
                stats.norm.cdf(a) * stats.norm.cdf(b), abs=1e-12
            )

    def test_against_scipy_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            a, b = rng.normal(size=2) * 2.0
            rho = rng.uniform(-0.995, 0.995)
            ref = stats.multivariate_normal.cdf(
                [a, b], cov=[[1, rho], [rho, 1]], abseps=1e-13, releps=0.0
            )
            assert bivariate_normal_cdf(a, b, rho) == pytest.approx(ref, abs=1e-7)

    def test_rejects_degenerate_correlation(self):
        with pytest.raises(ValueError):
            bivariate_normal_cdf(0.0, 0.0, 1.0)

    def test_vectorized_broadcast(self):
        z = np.array([-0.5, 0.0, 1.5])
        out = bivariate_normal_cdf(z, 0.0, 0.4)
        assert out.shape == (3,)
        for i, v in enumerate(out):
            assert v == pytest.approx(bivariate_normal_cdf(z[i], 0.0, 0.4))


class TestMlObjective:
    def test_independence_reduces_to_marginal_loglik(self):
        rng = np.random.default_rng(2)
        y = rng.normal(1.0, 2.0, size=12)
        model = CopulaModel(pair_structure(6), "gaussian", y)
        theta = np.array([0.0, 1.0, 2.0])
        assert loglik_ml(theta, model) == pytest.approx(
            stats.norm.logpdf(y, 1.0, 2.0).sum(), rel=1e-12
        )

    def test_single_unit_closed_form(self):
        # z = 0 kills the quadratic form; the copula part is -log|Omega|/2
        model = CopulaModel(pair_structure(1), "gaussian", np.zeros(2))
        value = loglik_ml(np.array([0.5, 0.0, 1.0]), model)
        expected = -0.5 * np.log(0.75) + 2.0 * stats.norm.logpdf(0.0)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_invariant_under_unit_reordering(self):
        rng = np.random.default_rng(3)
        grid = rng.normal(size=(9, 2))
        # missing cells give three distinct blocks: 3x3, intra 2x2, inter 2x2
        gappy = rng.normal(size=(12, 3))
        gappy[[1, 4, 7], 2] = gappy[[2, 8], 0] = gappy[[5, 10], 1] = np.nan
        cases = [
            (grid, ["c.1.1", "c.2.1"], [0.6, 0.2, 1.1], 1),
            (gappy, ["c.1.1", "c.1.2", "c.2.1"], [0.5, 0.3, 0.2, 1.1], 3),
        ]
        for scores, headers, theta, n_groups in cases:
            labs = parse_labels(headers).labels
            n = len(scores)
            values = []
            for order in (np.arange(n), rng.permutation(n)):
                sm = prepare(scores[order], labs, "interval")
                structure = build_structure(sm.labels, sm.observed)
                model = CopulaModel(structure, "gaussian", sm.scores_flat())
                values.append(loglik_ml(np.array(theta), model))
            assert len(structure.groups) == n_groups
            assert values[0] == values[1]

    def test_infeasible_psi_gives_minus_inf(self):
        model = CopulaModel(pair_structure(2), "gaussian", np.zeros(4))
        assert loglik_ml(np.array([0.2, 0.0, -1.0]), model) == -np.inf


class TestDtObjective:
    def test_independence_value(self):
        labs = parse_labels(["c.1.1", "c.2.1"]).labels
        sm = prepare(np.array([[1.0, 2.0]]), labs, "nominal")
        model = CopulaModel(build_structure(sm.labels, sm.observed), "categorical",
                            sm.scores_flat(), 2)
        assert loglik_dt(np.array([0.0, 0.5]), model) == pytest.approx(2 * np.log(0.5))

    def test_agreement_raises_likelihood(self):
        labs = parse_labels(["c.1.1", "c.2.1"]).labels
        sm = prepare(np.array([[3.0, 3.0]]), labs, "nominal", n_categories=5)
        model = CopulaModel(build_structure(sm.labels, sm.observed), "categorical",
                            sm.scores_flat(), 5)
        psi = np.full(4, 0.2)
        low = loglik_dt(np.concatenate([[0.0], psi]), model)
        high = loglik_dt(np.concatenate([[0.9], psi]), model)
        assert high > low

    def test_non_pd_multi_method_is_minus_inf(self):
        headers = ["m1.c.1.1", "m1.c.2.1", "m2.c.1.1", "m2.c.2.1"]
        labs = parse_labels(headers).labels
        sm = prepare(np.array([[1.0, 2.0, 1.0, 2.0]]), labs, "nominal")
        model = CopulaModel(build_structure(sm.labels, sm.observed), "categorical",
                            sm.scores_flat(), 2)
        theta = np.array([0.0, 0.0, 0.99, 0.5])
        assert loglik_dt(theta, model) == -np.inf


class TestCmlObjective:
    def make_pair_model(self, y1, y2, k):
        labs = parse_labels(["c.1.1", "c.2.1"]).labels
        sm = prepare(np.array([[float(y1), float(y2)]]), labs, "nominal", n_categories=k)
        return CopulaModel(build_structure(sm.labels, sm.observed), "categorical",
                           sm.scores_flat(), k)

    def test_independence_factorizes(self):
        model = self.make_pair_model(1, 2, 2)
        value = loglik_cml(np.array([0.0, 0.3]), model)
        assert value == pytest.approx(np.log(0.3 * 0.7), abs=1e-10)

    def test_binary_orthant_identity(self):
        model = self.make_pair_model(1, 1, 2)
        value = loglik_cml(np.array([0.5, 0.5]), model)
        expected = np.log(0.25 + np.arcsin(0.5) / (2 * np.pi))
        assert value == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.6, 0.9])
    def test_matches_exact_enumeration(self, rho):
        for p in ([0.4, 0.6], [0.25, 0.45, 0.3]):
            k = len(p)
            fam = Categorical(np.array(p))
            total = 0.0
            for y1 in range(1, k + 1):
                for y2 in range(1, k + 1):
                    model = self.make_pair_model(y1, y2, k)
                    value = loglik_cml(np.concatenate([[rho], p[:-1]]), model)
                    ref = scipy_rect(y1, y2, fam, rho)
                    assert value == pytest.approx(np.log(ref), abs=1e-8)
                    total += np.exp(value)
            assert total == pytest.approx(1.0, abs=1e-9)  # rectangles tile the support

    def test_pairs_follow_structure(self, nominal_data):
        s = build_structure(nominal_data.labels, nominal_data.observed)
        model = CopulaModel(s, "categorical", nominal_data.scores_flat(), 5)
        obj = Objective("cml", model)
        assert obj._pairs.shape == pair_list(s).shape


class TestSmpObjective:
    def test_independence_is_half_norm(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=8)
        s = pair_structure(4)
        assert loglik_smp([0.0], s, z) == pytest.approx(-0.5 * z @ z, rel=1e-12)

    def test_two_by_two_closed_form(self):
        s = pair_structure(1)
        value = loglik_smp([0.5], s, np.ones(2))
        assert value == pytest.approx(-0.5 * np.log(0.75) - 1.0 / 1.5, rel=1e-12)

    def test_rank_invariance_of_standardized_scores(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=20)
        from copulagree import empirical_cdf
        from copulagree.objectives import _probit

        z1 = _probit(empirical_cdf(y).cdf(y))
        z2 = _probit(empirical_cdf(np.exp(y)).cdf(np.exp(y)))
        assert z1 == pytest.approx(z2, abs=1e-14)


class TestDerivatives:
    def test_gradient_exact_on_quadratic(self):
        a = np.array([1.5, -2.0, 0.5])

        def f(t):
            return -np.sum(a * (t - 1.0) ** 2)

        theta = np.array([0.3, 2.0, -1.0])
        expected = -2.0 * a * (theta - 1.0)
        assert gradient(f, theta) == pytest.approx(expected, abs=1e-8)

    def test_ml_location_gradient_matches_analytic(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(10):
            y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=30)
            mu, sigma = rng.uniform(-1, 1), rng.uniform(0.8, 1.5)
            model = CopulaModel(pair_structure(15), "gaussian", y)
            obj = Objective("ml", model)
            g = gradient(obj, np.array([0.0, mu, sigma]))
            analytic = np.sum(y - mu) / sigma**2
            worst = max(worst, abs(g[1] - analytic) / max(1.0, abs(analytic)))
        assert worst < 1e-4

    def test_gradient_vanishes_at_dt_maximizer(self, nominal_fit):
        obj = Objective("dt", nominal_fit.model)
        g = gradient(obj, nominal_fit.theta)
        assert np.max(np.abs(g)) < 1e-4 * max(1.0, abs(nominal_fit.objective))

    def test_gradient_error_when_not_finite(self):
        model = CopulaModel(pair_structure(1), "gaussian", np.zeros(2))
        obj = Objective("ml", model)
        with pytest.raises(NumericalError):
            gradient(obj, np.array([0.5, 0.0, 1e-7]))  # sigma stencil crosses zero

    def test_hessian_exact_on_quadratic(self):
        h_true = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(t):
            return -0.5 * t @ h_true @ t

        h = hessian(f, np.array([0.2, -0.4]))
        assert h == pytest.approx(-h_true, abs=1e-6)


def test_objective_kind_family_consistency(nominal_data):
    s = build_structure(nominal_data.labels, nominal_data.observed)
    cat = CopulaModel(s, "categorical", nominal_data.scores_flat(), 5)
    with pytest.raises(ValueError):
        Objective("ml", cat)
    cont = CopulaModel(pair_structure(2), "gaussian", np.zeros(4))
    with pytest.raises(ValueError):
        Objective("dt", cont)
    with pytest.raises(ValueError):
        Objective("smp", cont)
    with pytest.raises(ValueError):
        Objective("nope", cont)


def test_objectives_return_minus_inf_never_raise():
    headers = ["m1.c.1.1", "m1.c.2.1", "m2.c.1.1", "m2.c.2.1"]
    labs = parse_labels(headers).labels
    sm = prepare(np.array([[1.0, 2.0, 2.0, 1.0]] * 3), labs, "nominal")
    s = build_structure(sm.labels, sm.observed)
    bad_omega = np.array([0.0, 0.0, 0.99])

    cat = CopulaModel(s, "categorical", sm.scores_flat(), 2)
    assert loglik_dt(np.concatenate([bad_omega, [0.5]]), cat) == -np.inf
    assert loglik_cml(np.concatenate([bad_omega, [1.5]]), cat) == -np.inf

    cont = CopulaModel(s, "gaussian", sm.scores_flat())
    assert loglik_ml(np.concatenate([bad_omega, [0.0, 1.0]]), cont) == -np.inf
    assert loglik_smp(bad_omega, s, np.zeros(s.n)) == -np.inf
