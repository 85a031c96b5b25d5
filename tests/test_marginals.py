import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import betainc, betaln, xlogy

from copulagree import (
    DegenerateDataError,
    empirical_cdf,
    initial_params,
    make_family,
    median_unbiased_quantile,
)
from copulagree.marginals import CONTINUOUS_FAMILIES, Categorical, winsor_eps

from conftest import nominal_matrix


def test_cdf_basic_values():
    assert Categorical([0.5, 0.5]).cdf(1) == pytest.approx(0.5)
    assert make_family("gaussian", [0.0, 1.0]).cdf(0.0) == pytest.approx(0.5)
    assert Categorical([0.25] * 4).cdf(3) == pytest.approx(0.75)
    assert Categorical([0.3, 0.7]).cdf(0) == 0.0


def test_dt_cdf_midpoints():
    assert Categorical([0.5, 0.5]).dt_cdf(1) == pytest.approx(0.25)
    assert Categorical([0.5, 0.5]).dt_cdf(2) == pytest.approx(0.75)
    assert Categorical([0.2, 0.3, 0.5]).dt_cdf(2) == pytest.approx(0.35)


def test_initial_params_gamma_moment_formula():
    psi0 = initial_params([1.0, 2.0, 3.0], "gamma")
    assert psi0 == pytest.approx([4.0, 2.0])


def test_initial_params_kumaraswamy_is_unit():
    assert initial_params([0.1, 0.5, 0.9], "kumaraswamy") == pytest.approx([1.0, 1.0])


def test_initial_params_beta_moment_formula():
    # ybar = 0.4, s2 = 0.04, f = 0.4*0.6/0.04 - 1 = 5 -> (2, 3)
    psi0 = initial_params([0.2, 0.4, 0.6], "beta")
    assert psi0 == pytest.approx([2.0, 3.0])


def test_initial_params_location_scale_families():
    y = np.array([1.0, 3.0, 5.0, 11.0])
    for fam in ("gaussian", "laplace"):
        psi0 = initial_params(y, fam)
        assert psi0 == pytest.approx([y.mean(), y.std(ddof=1)])
    nu0, mu0 = initial_params(y, "t")
    assert mu0 == pytest.approx(np.median(y))
    assert nu0 == pytest.approx(1.4826 * np.median(np.abs(y - np.median(y))))


def test_initial_params_categorical_empirical_probabilities():
    sm = nominal_matrix()
    # all 41 observed scores, including the later-dropped single-score row
    all41 = np.concatenate([sm.scores_flat(), [3.0]])
    p41 = initial_params(all41, "categorical", 5)
    assert p41 == pytest.approx(np.array([9, 13, 11, 5, 3]) / 41.0)
    assert np.round(p41, 2) == pytest.approx([0.22, 0.32, 0.27, 0.12, 0.07])
    # on retained rows only (the values the fit actually starts from); the
    # drop of the single-score row moves each cell by at most 0.02
    p40 = initial_params(sm.scores_flat(), "categorical", 5)
    assert p40 == pytest.approx([0.225, 0.325, 0.25, 0.125, 0.075])
    assert np.max(np.abs(p40 - p41)) <= 0.02


def test_initial_params_degenerate_variance():
    with pytest.raises(DegenerateDataError):
        initial_params([2.0, 2.0, 2.0], "gamma")
    with pytest.raises(DegenerateDataError):
        initial_params([0.4, 0.4], "beta")
    for fam in CONTINUOUS_FAMILIES:
        with pytest.raises(DegenerateDataError, match="zero sample variance"):
            initial_params([0.4, 0.4, 0.4], fam)  # a mean that rounds off 0.4


def test_initial_params_single_category():
    with pytest.raises(DegenerateDataError, match="needs at least 2"):
        initial_params([1.0, 1.0, 1.0], "categorical")
    with pytest.raises(DegenerateDataError, match="needs at least 2"):
        initial_params([1.0, 1.0], "categorical", 1)
    # one observed category of a declared K = 2 still has a feasible start
    assert initial_params([2.0, 2.0], "categorical", 2).sum() == pytest.approx(1.0)


def test_empirical_cdf_plain_clamps():
    fam = empirical_cdf([1.0, 2.0, 3.0, 4.0])
    assert fam.cdf(2.0) == pytest.approx(0.5)
    assert fam.cdf(0.0) == pytest.approx(1.0 / 5.0)
    fam2 = empirical_cdf([1.0, 2.0])
    assert fam2.cdf(2.0) == pytest.approx(2.0 / 3.0)


def test_empirical_cdf_winsorized_clamps():
    fam = empirical_cdf(np.arange(1.0, 11.0), variant="winsorized", eps=0.05)
    assert fam.cdf(10.0) == pytest.approx(0.95)
    assert fam.cdf(0.0) == pytest.approx(0.05)
    assert fam.cdf(5.0) == pytest.approx(0.5)


def test_winsor_eps_default_in_range():
    for n in (2, 10, 100, 10_000):
        assert 0.0 < winsor_eps(n) < 0.5


def test_median_unbiased_quantile_type8():
    assert median_unbiased_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert median_unbiased_quantile([7.0], 0.3) == pytest.approx(7.0)
    assert median_unbiased_quantile([0.0, 10.0], 0.5) == pytest.approx(5.0)


def _random_families(rng):
    return [
        make_family("gaussian", [rng.normal(), 0.2 + rng.random()]),
        make_family("laplace", [rng.normal(), 0.2 + rng.random()]),
        make_family("t", [2.0 + 5.0 * rng.random(), rng.normal()]),
        make_family("gamma", [0.5 + 2.0 * rng.random(), 0.5 + rng.random()]),
        make_family("beta", [0.5 + 2.0 * rng.random(), 0.5 + 2.0 * rng.random()]),
        make_family("kumaraswamy", [0.5 + 2.0 * rng.random(), 0.5 + 2.0 * rng.random()]),
    ]


def _support_grid(fam):
    if fam.tag in ("beta", "kumaraswamy"):
        return np.linspace(1e-4, 1 - 1e-4, 41)
    if fam.tag == "gamma":
        return np.linspace(1e-4, 30.0, 41)
    return np.linspace(-20.0, 20.0, 41)


def test_cdf_monotone_with_unit_range():
    rng = np.random.default_rng(11)
    for fam in _random_families(rng):
        grid = _support_grid(fam)
        values = np.asarray(fam.cdf(grid))
        assert (np.diff(values) >= -1e-14).all()
        assert values.min() >= 0.0 and values.max() <= 1.0
    cat = Categorical([0.2, 0.3, 0.5])
    values = cat.cdf(np.arange(0, 5))
    assert (np.diff(values) >= 0).all()
    assert values[0] == 0.0 and values[-1] == 1.0


def test_quantile_inverts_cdf_for_continuous_families():
    rng = np.random.default_rng(3)
    for fam in _random_families(rng):
        grid = np.asarray(fam.quantile(np.linspace(0.02, 0.98, 33)))
        back = np.asarray(fam.quantile(fam.cdf(grid)))
        assert np.max(np.abs(back - grid)) < 1e-10


def test_dt_cdf_between_adjacent_cdf_values():
    p = np.array([0.1, 0.4, 0.2, 0.3])
    fam = Categorical(p)
    for y in range(1, 5):
        lo, hi = fam.cdf(y - 1), fam.cdf(y)
        mid = fam.dt_cdf(y)
        assert lo < mid < hi


def test_density_integrates_to_one():
    rng = np.random.default_rng(29)
    for _ in range(5):
        for fam in _random_families(rng):
            if fam.tag in ("beta", "kumaraswamy"):
                lo, hi = 0.0, 1.0
            elif fam.tag == "gamma":
                lo, hi = 0.0, np.inf
            else:
                lo, hi = -np.inf, np.inf
            total, _err = integrate.quad(
                lambda y: np.exp(fam.logpdf(y)), lo, hi, limit=200
            )
            assert total == pytest.approx(1.0, abs=1e-6)


def test_categorical_quantile_inverts_cdf():
    fam = Categorical([0.2, 0.3, 0.5])
    assert fam.quantile(0.1) == 1
    assert fam.quantile(0.2) == 1
    assert fam.quantile(0.21) == 2
    assert fam.quantile(0.9999) == 3
    assert fam.quantile(1.0) == 3


def test_make_family_feasibility():
    assert make_family("categorical", [0.3, 0.3]) is not None
    assert make_family("categorical", [0.6, 0.4]) is None  # derived p3 below floor
    assert make_family("gaussian", [0.0, -1.0]) is None
    assert make_family("t", [np.nan, 0.0]) is None
    fam = make_family("gamma", [2.0, 0.5])
    assert fam.cdf(1.0) == pytest.approx(
        integrate.quad(lambda y: np.exp(fam.logpdf(y)), 0, 1.0)[0], abs=1e-9
    )


def test_empirical_quantile_is_median_unbiased():
    sample = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    fam = empirical_cdf(sample)
    u = np.array([0.1, 0.5, 0.9])
    assert np.asarray(fam.quantile(u)) == pytest.approx(
        median_unbiased_quantile(sample, u)
    )


def _scipy_reference(tag, a, b):
    """(cdf, logpdf, quantile) of family ``tag`` at psi = (a, b) from scipy.stats."""
    frozen = {
        "gaussian": lambda: stats.norm(loc=a, scale=b),
        "laplace": lambda: stats.laplace(loc=a, scale=b),
        "t": lambda: stats.t(df=a, loc=b),
        "gamma": lambda: stats.gamma(a, scale=1.0 / b),
        "beta": lambda: stats.beta(a, b),
    }
    if tag in frozen:
        dist = frozen[tag]()
        return dist.cdf, dist.logpdf, dist.ppf
    # scipy.stats has no Kumaraswamy family; if Y ~ Kumaraswamy(a, b) then
    # Y**a ~ Beta(1, b)
    t = stats.beta(1.0, b)

    def logpdf(y):
        with np.errstate(all="ignore"):
            inner = t.logpdf(y**a) + np.log(a) + xlogy(a - 1.0, y)
        return np.where((y < 0.0) | (y > 1.0), -np.inf, inner)

    return (lambda y: t.cdf(np.sign(y) * np.abs(y) ** a), logpdf,
            lambda u: t.ppf(u) ** (1.0 / a))


_LOCATION = st.floats(-5.0, 5.0)
_SCALE = st.floats(0.2, 5.0)
_SHAPE = st.floats(0.3, 10.0)
# psi strategies and a window of points that reaches past the support
_ORACLE_CASES = {
    "gaussian": ((_LOCATION, _SCALE), st.floats(-60.0, 60.0)),
    "laplace": ((_LOCATION, _SCALE), st.floats(-60.0, 60.0)),
    "t": ((st.floats(0.5, 30.0), _LOCATION), st.floats(-60.0, 60.0)),
    "gamma": ((_SHAPE, _SCALE), st.floats(-2.0, 40.0)),
    "beta": ((_SHAPE, _SHAPE), st.floats(-0.5, 1.5)),
    "kumaraswamy": ((_SHAPE, _SHAPE), st.floats(-0.5, 1.5)),
}


@st.composite
def _family_and_points(draw):
    tag = draw(st.sampled_from(CONTINUOUS_FAMILIES))
    psi_strategies, y_window = _ORACLE_CASES[tag]
    psi = [draw(s) for s in psi_strategies]
    y = np.array(draw(st.lists(y_window, min_size=1, max_size=12)))
    # below about 1e-19 the root finder behind scipy.stats.beta.ppf gives up
    # and returns values off by orders of magnitude (betaincinv returns NaN);
    # test_beta_quantile_follows_the_series_below_1e_15 covers smaller u
    u = np.array(draw(st.lists(st.floats(1e-15, 1.0) | st.just(0.0), min_size=1, max_size=12)))
    return tag, psi, y, u


@settings(max_examples=300, deadline=None)
@given(_family_and_points())
def test_table_matches_scipy_stats(case):
    """cdf and quantile within 1e-12 relative of scipy.stats (absolute below the
    smallest normal number); logpdf within 1e-12 * (1 + |logpdf|), which is
    1e-12 relative in the density where the log-density is small.  Out of
    support the cdf is exactly 0 or 1 and the logpdf exactly -inf; the
    Gaussian family matches bit for bit."""
    tag, psi, y, u = case
    fam = make_family(tag, psi)
    ref_cdf, ref_logpdf, ref_ppf = _scipy_reference(tag, *psi)
    got = (fam.cdf(y), fam.logpdf(y), fam.quantile(u))
    want = (ref_cdf(y), ref_logpdf(y), ref_ppf(u))
    if tag == "gaussian":
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        return
    tiny = np.finfo(float).tiny
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=tiny)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=tiny)
    lo, hi = {"gamma": (0.0, np.inf), "beta": (0.0, 1.0), "kumaraswamy": (0.0, 1.0)}.get(
        tag, (-np.inf, np.inf))
    assert (got[0][y < lo] == 0.0).all() and (got[0][y > hi] == 1.0).all()
    assert (got[1][(y < lo) | (y > hi)] == -np.inf).all()


@settings(max_examples=300, deadline=None)
@given(_SHAPE, _SHAPE, st.floats(1e-300, 1e-15))
def test_beta_quantile_follows_the_series_below_1e_15(a, b, u):
    """Where scipy's inverse fails, check the beta quantile x against the
    small-x series I_x(a, b) = x^a / (a B(a, b)) (1 + a (1 - b) / (a + 1) x + ...):
    its leading term x0 gives x within a relative 2 |1 - b| / (a + 1) x0 once
    x0 is small, and the table's cdf maps x back to u."""
    fam = make_family("beta", [a, b])
    x = float(fam.quantile(u))
    assert 0.0 <= x < 1.0
    x0 = np.exp((np.log(a) + betaln(a, b) + np.log(u)) / a)
    if x0 < 1e-6:
        assert x == pytest.approx(x0, rel=2.0 * abs(1.0 - b) / (a + 1.0) * x0 + 1e-12,
                                  abs=np.finfo(float).tiny)
    if x > 1e-290:
        assert betainc(a, b, x) / u == pytest.approx(1.0, rel=1e-12)
        assert fam.cdf(x) / u == pytest.approx(1.0, rel=1e-12)
