import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

from copulagree import (
    CopulaModel,
    NumericalError,
    Objective,
    bivariate_normal_cdf,
    build_structure,
    empirical_cdf,
    gradient,
    hessian,
    loglik_cml,
    loglik_dt,
    loglik_ml,
    loglik_smp,
    parse_labels,
    prepare,
)
from copulagree.marginals import DELTA_P, Categorical
from copulagree.objectives import _probit, stencil
from copulagree.structure import pair_list, weighted_fsum

from conftest import nominal_matrix
from oracle import gaussian_core, materialize_block, ml_oracle, smp_oracle


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


@st.composite
def bvn_points(draw):
    """(z1, z2, rho) with rho on either side of the 0.925 branch point and
    occasional infinite arguments."""
    z = st.one_of(st.floats(-8.0, 8.0), st.sampled_from([np.inf, -np.inf]))
    rho = st.one_of(st.floats(-0.924, 0.924), st.floats(0.925, 0.9999),
                    st.floats(-0.9999, -0.925))
    return draw(z), draw(z), draw(rho)


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

    @settings(max_examples=200, deadline=None)
    @given(bvn_points())
    def test_against_scipy_reference(self, point):
        a, b, rho = point
        cov = [[1, rho], [rho, 1]]
        if a == -np.inf or b == -np.inf:
            ref = 0.0
        else:
            ref = stats.multivariate_normal.cdf(
                [min(a, 37.0), min(b, 37.0)], cov=cov, abseps=1e-13, releps=0.0
            )
        assert bivariate_normal_cdf(a, b, rho) == pytest.approx(ref, abs=1e-7)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(bvn_points(), max_size=40), st.integers(0, 2**32 - 1), st.randoms())
    def test_value_does_not_depend_on_the_batch(self, points, seed, rnd):
        # drawn points plus generic ones, whose sums round in their last bits
        rng = np.random.default_rng(seed)
        points = points + list(zip(rng.normal(0.0, 2.0, 30), rng.normal(0.0, 2.0, 30),
                                   rng.uniform(-0.999, 0.999, 30)))
        z1, z2, rho = map(np.array, zip(*points))
        batch = bivariate_normal_cdf(z1, z2, rho)
        alone = [bivariate_normal_cdf(a, b, r) for a, b, r in points]
        perm = np.array(rnd.sample(range(len(points)), len(points)))
        permuted = np.empty_like(batch)
        permuted[perm] = bivariate_normal_cdf(z1[perm], z2[perm], rho[perm])
        assert np.array_equal(batch, alone)
        assert np.array_equal(batch, permuted)

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

    def test_overflowing_log_density_sum_gives_minus_inf(self):
        # each of the 80 log-densities is about -5e307, finite, but their sum
        # is below the float range
        model = CopulaModel(pair_structure(40), "gaussian", np.ones(80))
        theta = np.array([0.5, 0.0, 1e-154])
        assert np.isfinite(model.family_of(theta).logpdf(model.y)).all()
        assert loglik_ml(theta, model) == -np.inf


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
        assert obj.counts[3].sum() == len(pair_list(s))


@st.composite
def nominal_layouts(draw):
    """Nominal scores (K = 2..4) under 1-2 methods, 1-3 coders and 1-2
    replicates, with missing cells; each unit observes at least two."""
    n_methods = draw(st.integers(1, 2))
    n_coders = draw(st.integers(1, 3))
    n_reps = draw(st.integers(1, 2))
    headers = [f"m{m}.c.{c}.{r}" for m in range(1, n_methods + 1)
               for c in range(1, n_coders + 1) for r in range(1, n_reps + 1)]
    if len(headers) < 2:
        return None
    k = draw(st.integers(2, 4))
    cell = st.one_of(st.integers(1, k).map(float), st.just(np.nan))
    row = st.lists(cell, min_size=len(headers), max_size=len(headers))
    grid = draw(st.lists(row.filter(lambda r: np.isfinite(r).sum() >= 2),
                         min_size=1, max_size=12))
    omega = draw(st.lists(st.floats(0.0, 0.95), min_size=9, max_size=9))
    p = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    return parse_labels(headers).labels, np.array(grid), k, omega, np.array(p) / sum(p)


def cml_model(labels, grid, k):
    sm = prepare(grid, labels, "nominal", n_categories=k)
    return CopulaModel(build_structure(sm.labels, sm.observed), "categorical",
                       sm.scores_flat(), k)


def pair_rectangles(theta, model):
    """Every pair's rectangle probability, evaluated on its own."""
    omega, _ = model.unpack(theta)
    fam = model.family_of(theta)
    z0, z1 = _probit(fam.cdf(model.y)), _probit(fam.cdf(model.y - 1))
    i, j, q = pair_list(model.structure).T
    rho = omega[q]
    return (bivariate_normal_cdf(z0[i], z0[j], rho) - bivariate_normal_cdf(z0[i], z1[j], rho)
            - bivariate_normal_cdf(z1[i], z0[j], rho) + bivariate_normal_cdf(z1[i], z1[j], rho))


@settings(max_examples=100, deadline=None)
@given(nominal_layouts().filter(lambda case: case is not None), st.randoms())
def test_cml_equals_per_pair_sum_and_ignores_unit_order(case, rnd):
    labels, grid, k, omega, p = case
    model = cml_model(labels, grid, k)
    theta = np.concatenate([omega[: model.n_omega], p[:-1]])
    # oracle: every pair evaluated on its own, summed exactly
    rect = pair_rectangles(theta, model)
    expected = math.fsum(np.log(rect)) if (rect > 0.0).all() else -np.inf
    assert loglik_cml(theta, model) == expected
    order = rnd.sample(range(len(grid)), len(grid))
    assert loglik_cml(theta, cml_model(labels, grid[order], k)) == expected


def dt_oracle(theta, model):
    """The per-unit DT path: the Gaussian core on the probits of each score's
    jump midpoint, plus the exactly summed log-mass."""
    omega, _ = model.unpack(theta)
    fam = model.family_of(theta)
    if fam is None:
        return -np.inf
    z = _probit(fam.dt_cdf(model.y))
    return gaussian_core(model.structure, omega, z) + math.fsum(fam.logpdf(model.y))


def close(value, expected, rounding=0.0):
    """Equal within 1e-12 max(1, |expected|) plus ``rounding``; -inf only
    where expected is."""
    if expected == -np.inf or value == -np.inf:
        return value == expected
    return abs(value - expected) <= 1e-12 * max(1.0, abs(expected)) + rounding


def well_posed(structure, omega, margin=1e-2):
    """Every block's eigenvalues keep ``margin`` away from zero.  Near a
    singular block, whether it factors and what the core is depend on the
    rounding of the factorization, which differs between block layouts and
    column orders, so objectives are compared only on well-posed blocks."""
    return all(np.abs(np.linalg.eigvalsh(materialize_block(code, omega))).min() >= margin
               for code, _ in structure.groups)


@settings(max_examples=150, deadline=None)
@given(nominal_layouts().filter(lambda case: case is not None), st.randoms())
def test_dt_tally_equals_per_unit_path_and_ignores_unit_order(case, rnd):
    labels, grid, k, omega, p = case
    model = cml_model(labels, grid, k)
    theta = np.concatenate([omega[: model.n_omega], p[:-1]])
    value = loglik_dt(theta, model)
    order = rnd.sample(range(len(grid)), len(grid))
    assert loglik_dt(theta, cml_model(labels, grid[order], k)) == value
    if well_posed(model.structure, theta[: model.n_omega]):
        assert close(value, dt_oracle(theta, model))


@st.composite
def interval_layouts(draw):
    """Interval scores under 1-2 methods, 1-3 coders, 1-2 replicates and an
    optional gold column per method, with missing cells; each unit observes
    at least two.  Also omega, a family and its (location, scale)."""
    n_methods = draw(st.integers(1, 2))
    n_coders = draw(st.integers(1, 3))
    n_reps = draw(st.integers(1, 2))
    gold = draw(st.booleans())
    headers = []
    for m in range(1, n_methods + 1):
        headers += [f"g.m{m}"] * gold
        headers += [f"m{m}.c.{c}.{r}" for c in range(1, n_coders + 1)
                    for r in range(1, n_reps + 1)]
    if len(headers) < 2:
        return None
    cell = st.one_of(st.floats(-4.0, 4.0), st.just(np.nan))
    row = st.lists(cell, min_size=len(headers), max_size=len(headers))
    grid = draw(st.lists(row.filter(lambda r: np.isfinite(r).sum() >= 2),
                         min_size=1, max_size=12))
    omega = draw(st.lists(st.floats(0.0, 0.95), min_size=11, max_size=11))
    psi = [draw(st.floats(-2.0, 2.0)), draw(st.floats(0.2, 3.0))]
    family = draw(st.sampled_from(["gaussian", "laplace"]))
    return parse_labels(headers).labels, np.array(grid), np.array(omega), family, psi


def interval_objectives(labels, grid, family):
    """The ML model and the standardized scores of SMP for one grid."""
    sm = prepare(grid, labels, "interval")
    s = build_structure(sm.labels, sm.observed)
    y = sm.scores_flat()
    return CopulaModel(s, family, y), _probit(empirical_cdf(y).cdf(y))


@settings(max_examples=150, deadline=None)
@given(interval_layouts().filter(lambda case: case is not None), st.randoms())
def test_moment_core_equals_per_unit_oracle_and_ignores_unit_order(case, rnd):
    labels, grid, omega, family, psi = case
    model, zhat = interval_objectives(labels, grid, family)
    s = model.structure
    omega = omega[: s.n_params]
    theta = np.concatenate([omega, psi])
    ml = loglik_ml(theta, model)
    smp = loglik_smp(omega, s, zhat)
    assert Objective("ml", model)(theta) == ml
    assert Objective("smp", CopulaModel(s, "empirical", zhat))(omega) == smp
    order = rnd.sample(range(len(grid)), len(grid))
    model_p, zhat_p = interval_objectives(labels, grid[order], family)
    assert loglik_ml(theta, model_p) == ml
    assert loglik_smp(omega, model_p.structure, zhat_p) == smp
    if well_posed(s, omega):
        assert close(ml, ml_oracle(theta, model))
        assert close(smp, smp_oracle(omega, s, zhat))


# each continuous family's support, reached from a score x in [-4, 4], and
# a feasible psi from a (location, scale) pair
FAMILY_CASES = {
    "gaussian": (lambda x: x, lambda loc, sc: [loc, sc]),
    "laplace": (lambda x: x, lambda loc, sc: [loc, sc]),
    "t": (lambda x: x, lambda loc, sc: [sc + 1.0, loc]),
    "gamma": (lambda x: np.exp(x / 2.0), lambda loc, sc: [sc + 0.5, sc]),
    "beta": (lambda x: ndtr(x / 2.0), lambda loc, sc: [sc + 0.5, 3.5 - sc]),
    "kumaraswamy": (lambda x: ndtr(x / 2.0), lambda loc, sc: [sc + 0.5, 3.5 - sc]),
}


def omega_score_error(obj, theta):
    """The largest gap between the omega-part of ``obj.score`` and central
    differences (``gradient``), relative to max(1, |difference|); None when
    the value is not finite.  The score's value is the objective's.
    Callers keep every block's eigenvalues 0.1 from zero: the differences'
    own error grows like 1/eigenvalue^3 near a singular block."""
    value, g = obj.score(theta)
    assert value == obj(theta)
    if not np.isfinite(value):
        assert (g == 0.0).all()
        return None
    q = obj.model.n_omega
    fd = gradient(obj, theta)[:q]
    return np.max(np.abs(g[:q] - fd) / np.maximum(1.0, np.abs(fd)), initial=0.0)


@settings(max_examples=150, deadline=None)
@given(interval_layouts().filter(lambda case: case is not None),
       st.sampled_from(sorted(FAMILY_CASES)))
def test_omega_score_matches_central_differences_for_ml_and_smp(case, family):
    labels, grid, omega, _, (loc, scale) = case
    to_support, make_psi = FAMILY_CASES[family]
    model, zhat = interval_objectives(labels, grid, family)
    model = CopulaModel(model.structure, family, to_support(model.y))
    omega = omega[: model.n_omega]
    if not well_posed(model.structure, omega, margin=0.1):
        return
    for obj, theta in ((Objective("ml", model), np.concatenate([omega, make_psi(loc, scale)])),
                       (Objective("smp", CopulaModel(model.structure, "empirical", zhat)), omega)):
        error = omega_score_error(obj, theta)
        assert error is None or error <= 1e-6


@settings(max_examples=150, deadline=None)
@given(nominal_layouts().filter(lambda case: case is not None))
def test_omega_score_matches_central_differences_for_dt(case):
    labels, grid, k, omega, p = case
    model = cml_model(labels, grid, k)
    omega = np.asarray(omega[: model.n_omega])
    if not well_posed(model.structure, omega, margin=0.1):
        return
    error = omega_score_error(Objective("dt", model), np.concatenate([omega, p[:-1]]))
    assert error is None or error <= 1e-6


def stencil_optimizer_gradient(objective, t, big=1e10):
    """The optimizer's gradient before the omega-score: central differences
    of the negated objective over every coordinate, with the penalty ``big``
    for -inf and one-sided differences next to the feasibility cliff."""
    def neg(x):
        v = objective(x)
        return big if not np.isfinite(v) else -v

    f0 = neg(t)
    if f0 >= big:
        return f0, np.zeros_like(t)
    fp, fm, h = stencil(neg, t)
    ok_p, ok_m = fp < big, fm < big
    g = np.where(ok_p & ok_m, (fp - fm) / (2.0 * h),
                 np.where(ok_p, (fp - f0) / h, np.where(ok_m, (f0 - fm) / h, 0.0)))
    return f0, g


@settings(max_examples=100, deadline=None)
@given(nominal_layouts().filter(lambda case: case is not None),
       st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
def test_cml_score_is_the_stencil_bit_for_bit(case, gap):
    # a non-zero ``gap`` puts p_K that far above the probability floor;
    # below the step h (about 6e-6) the + points of psi cross the
    # feasibility cliff and take the one-sided branch
    labels, grid, k, omega, p = case
    model = cml_model(labels, grid, k)
    psi = p[:-1] * (1.0 - DELTA_P - gap) / p[:-1].sum() if gap else p[:-1]
    theta = np.concatenate([omega[: model.n_omega], psi])
    obj = Objective("cml", model)
    value, g = obj.score(theta)
    f0, expected = stencil_optimizer_gradient(obj, theta)
    if np.isfinite(value):
        assert -value == f0
        assert np.array_equal(-g, expected)
    else:
        assert f0 == 1e10 and (g == 0.0).all() and (expected == 0.0).all()


def test_minus_inf_point_has_the_zero_score():
    headers = ["m1.c.1.1", "m1.c.2.1", "m2.c.1.1", "m2.c.2.1"]
    labs = parse_labels(headers).labels
    sm = prepare(np.array([[1.0, 2.0, 2.0, 1.0]] * 3), labs, "nominal")
    s = build_structure(sm.labels, sm.observed)
    bad_omega = np.array([0.0, 0.0, 0.99])  # between 0.99 with no intra: not PD
    cat = CopulaModel(s, "categorical", sm.scores_flat(), 2)
    cont = CopulaModel(s, "gaussian", sm.scores_flat())
    cases = [
        (Objective("dt", cat), np.concatenate([bad_omega, [0.5]])),
        (Objective("dt", cat), np.array([0.1, 0.1, 0.1, 1.5])),  # p_K < 0
        (Objective("cml", cat), np.concatenate([bad_omega, [1.5]])),
        (Objective("ml", cont), np.concatenate([bad_omega, [0.0, 1.0]])),
        (Objective("ml", cont), np.array([0.1, 0.1, 0.1, 0.0, -1.0])),  # sigma < 0
        (Objective("smp", CopulaModel(s, "empirical", np.zeros(s.n))), bad_omega),
    ]
    for obj, theta in cases:
        value, g = obj.score(theta)
        assert value == -np.inf
        assert g.shape == theta.shape and (g == 0.0).all()


@settings(max_examples=100, deadline=None)
@given(nominal_layouts().filter(lambda case: case is not None), st.randoms())
def test_objectives_ignore_column_order(case, rnd):
    labels, grid, k, omega, p = case
    perm = rnd.sample(range(len(labels)), len(labels))
    values = []
    for labs, scores in ((labels, grid), (tuple(labels[j] for j in perm), grid[:, perm])):
        cat = cml_model(labs, scores, k)
        omega_q = np.asarray(omega[: cat.n_omega])
        theta = np.concatenate([omega_q, p[:-1]])
        sm = prepare(scores, labs, "interval")
        s = build_structure(sm.labels, sm.observed)
        y = sm.scores_flat()
        values.append({
            "ml": loglik_ml(np.concatenate([omega_q, [2.5, 1.2]]), CopulaModel(s, "gaussian", y)),
            "dt": loglik_dt(theta, cat),
            "cml": loglik_cml(theta, cat),
            "smp": loglik_smp(omega_q, s, _probit(empirical_cdf(y).cdf(y))),
        })
        rect = pair_rectangles(theta, cat)
    before, after = values
    if well_posed(cat.structure, omega_q):
        for kind in ("ml", "dt", "smp"):
            assert close(after[kind], before[kind])
    # a CML rectangle is v00 - v01 - v10 + v11; swapping a pair's columns
    # swaps its middle terms, which moves the rectangle by up to 3 eps
    eps = np.finfo(float).eps
    if (rect > 4.0 * eps).all():
        assert close(after["cml"], before["cml"], 4.0 * eps * np.sum(1.0 / rect))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) > 1e-200),
                          st.integers(1, 2**26 - 1)), max_size=30))
def test_weighted_fsum_is_the_exact_weighted_sum(terms):
    x = np.array([v for v, _ in terms], dtype=float)
    counts = np.array([c for _, c in terms], dtype=np.int64)
    # float(Fraction) and fsum both round the exact sum correctly
    assert weighted_fsum(x, counts) == float(sum(Fraction(v) * c for v, c in terms))
    few = np.minimum(counts, 50)
    assert weighted_fsum(x, few) == math.fsum(np.repeat(x, few))


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
