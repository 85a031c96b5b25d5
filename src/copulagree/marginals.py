"""Marginal distribution families: cdf, density/mass, quantile, starting values.

Supported families (selected by tag): ``categorical``, the six continuous
families of ``_TABLE`` (``gaussian``, ``laplace``, ``t``, ``gamma``, ``beta``,
``kumaraswamy``) and ``empirical``.

``_TABLE`` is the single place that defines the continuous families: each
entry holds the names of psi = (a, b), the level of measurement the family
serves, its support, and its cdf, log-density and quantile written with
``scipy.special`` ufuncs.  ``Parametric(tag, a, b)`` evaluates an entry, and
parameter names, bounds, feasibility, the level check, the CLI's family list
and the sampler's proposals are all read from the table: a parameter named
``mu`` is a free location, every other one is strictly positive.  The Student
t is the two-parameter location form (df ``nu``, location ``mu``, unit
scale); the gamma uses a rate parameter ``beta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sc

from .errors import ConfigError, DegenerateDataError

# Probability floor for categorical cells during optimization.
DELTA_P = 1e-4
# Lower bound for strictly positive shape/scale parameters.
POS_MIN = 1e-6
# The one free (real-valued) marginal parameter name; all others are > 0.
LOCATION = "mu"


@dataclass(frozen=True)
class Categorical:
    """Categorical distribution on {1,...,K} with P(Y=k) = p[k-1]."""

    p: np.ndarray
    tag = "categorical"
    discrete = True

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "_cum", np.concatenate(([0.0], np.cumsum(self.p))))

    @property
    def k(self) -> int:
        return len(self.p)

    def cdf(self, y):
        idx = np.clip(np.floor(np.asarray(y, dtype=float)).astype(int), 0, self.k)
        return self._cum[idx]

    def dt_cdf(self, y):
        """Midpoint {F(y-1) + F(y)}/2 of the jump at y."""
        return 0.5 * (self.cdf(np.asarray(y) - 1) + self.cdf(y))

    def logpdf(self, y):
        idx = np.asarray(y, dtype=float).astype(int) - 1
        with np.errstate(divide="ignore"):
            return np.log(self.p[idx])

    def quantile(self, u):
        k = np.searchsorted(self._cum[1:], np.asarray(u, dtype=float), side="left") + 1
        return np.clip(k, 1, self.k).astype(float)


@dataclass(frozen=True)
class _Family:
    """One continuous family: ``cdf``/``logpdf`` take (y, a, b) on the support
    and ``ppf`` takes (u, a, b) on (0, 1)."""

    psi: tuple[str, str]
    level: str
    support: tuple[float, float]
    cdf: Callable
    logpdf: Callable
    ppf: Callable


_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))
# Beta quantiles below this come from the small-x series of the cdf.
_BETA_SERIES_MAX = 1e-15


def _laplace_cdf(y, mu, sigma):
    x = (y - mu) / sigma
    half_tail = 0.5 * np.exp(-np.abs(x))
    return np.where(x > 0, 1.0 - half_tail, half_tail)


def _beta_ppf(u, alpha, beta):
    # betaincinv fails (NaN, or a value stuck near 1.4e-17) where the quantile
    # is below about 1e-15; there the leading term x^a / (a B(a, b)) of
    # I_x(a, b) inverts it to within a relative |1 - b| / (a + 1) * x
    log_x = (np.log(alpha) + sc.betaln(alpha, beta) + np.log(u)) / alpha
    return np.where(log_x < np.log(_BETA_SERIES_MAX),
                    (alpha * sc.beta(alpha, beta) * u) ** (1.0 / alpha),
                    sc.betaincinv(alpha, beta, u))


# The gaussian, t, gamma and beta entries repeat the arithmetic of scipy.stats
# step for step (the gamma divides by its scale 1/beta), so they return its
# values bit for bit, except beta quantiles below _BETA_SERIES_MAX.  The
# laplace log-density is the closed form, where scipy.stats takes
# log(0.5 exp(-|x|)), which is -inf beyond |x| of about 745.
_TABLE = {
    "gaussian": _Family(
        ("mu", "sigma"), "interval", (-np.inf, np.inf),
        cdf=lambda y, mu, sigma: sc.ndtr((y - mu) / sigma),
        logpdf=lambda y, mu, sigma: -((y - mu) / sigma) ** 2 / 2.0 - _LOG_SQRT_2PI - np.log(sigma),
        ppf=lambda u, mu, sigma: sc.ndtri(u) * sigma + mu,
    ),
    "laplace": _Family(
        ("mu", "sigma"), "interval", (-np.inf, np.inf),
        cdf=_laplace_cdf,
        logpdf=lambda y, mu, sigma: -np.abs((y - mu) / sigma) - np.log(2.0 * sigma),
        ppf=lambda u, mu, sigma: (np.where(u > 0.5, -np.log(2 * (1 - u)), np.log(2 * u)) * sigma
                                  + mu),
    ),
    "t": _Family(
        ("nu", "mu"), "interval", (-np.inf, np.inf),
        cdf=lambda y, nu, mu: sc.stdtr(nu, y - mu),
        logpdf=lambda y, nu, mu: (
            np.log(sc.poch(0.5 * nu, 0.5)) - 0.5 * (np.log(nu) + np.log(np.pi))
            - (nu + 1) / 2 * np.log1p((y - mu) ** 2 / nu)),
        ppf=lambda u, nu, mu: sc.stdtrit(nu, u) + mu,
    ),
    "gamma": _Family(
        ("alpha", "beta"), "interval", (0.0, np.inf),
        cdf=lambda y, alpha, beta: sc.gammainc(alpha, y / (1.0 / beta)),
        logpdf=lambda y, alpha, beta: (sc.xlogy(alpha - 1.0, y / (1.0 / beta)) - y / (1.0 / beta)
                                       - sc.gammaln(alpha) - np.log(1.0 / beta)),
        ppf=lambda u, alpha, beta: sc.gammaincinv(alpha, u) * (1.0 / beta),
    ),
    "beta": _Family(
        ("alpha", "beta"), "ratio", (0.0, 1.0),
        cdf=lambda y, alpha, beta: sc.betainc(alpha, beta, y),
        logpdf=lambda y, alpha, beta: (sc.xlog1py(beta - 1.0, -y) + sc.xlogy(alpha - 1.0, y)
                                       - sc.betaln(alpha, beta)),
        ppf=_beta_ppf,
    ),
    "kumaraswamy": _Family(
        ("a", "b"), "ratio", (0.0, 1.0),
        cdf=lambda y, a, b: -np.expm1(b * np.log1p(-(y**a))),
        logpdf=lambda y, a, b: np.log(a * b) + sc.xlogy(a - 1.0, y) + sc.xlog1py(b - 1.0, -(y**a)),
        ppf=lambda u, a, b: (-np.expm1(np.log1p(-u) / b)) ** (1.0 / a),
    ),
}

CONTINUOUS_FAMILIES = tuple(_TABLE)


@dataclass(frozen=True)
class Parametric:
    """The continuous family ``_TABLE[tag]`` at psi = (a, b).

    As in ``scipy.stats``, the cdf is exactly 0 below the support and 1 above
    it, the log-density is -inf outside the closed support, the quantile maps
    0 and 1 to the support's ends, and NaN stays NaN.
    """

    tag: str
    a: float
    b: float
    discrete = False

    def _at(self, x, name):
        """x as floats, the support, and the table's ``name`` function at x."""
        fam = _TABLE[self.tag]
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return x, fam.support, getattr(fam, name)(x, self.a, self.b)

    def cdf(self, y):
        y, (lo, hi), f = self._at(y, "cdf")
        return np.where(y <= lo, 0.0, np.where(y >= hi, 1.0, f))[()]

    def logpdf(self, y):
        y, (lo, hi), f = self._at(y, "logpdf")
        return np.where((y < lo) | (y > hi), -np.inf, f)[()]

    def quantile(self, u):
        u, (lo, hi), f = self._at(u, "ppf")
        return np.where(u == 0.0, lo, np.where(u == 1.0, hi, f))[()]


@dataclass(frozen=True)
class Empirical:
    """ECDF-backed family; ``plain`` clamps into [1/(n+1), n/(n+1)], ``winsorized``
    into [eps, 1-eps] so the probit transform stays finite."""

    sample: np.ndarray
    variant: str = "plain"
    eps: float = 0.0
    tag = "empirical"
    discrete = False

    def __post_init__(self):
        object.__setattr__(self, "sample", np.sort(np.asarray(self.sample, dtype=float)))
        if self.variant not in ("plain", "winsorized"):
            raise ValueError(f"unknown empirical variant {self.variant!r}")
        if self.variant == "winsorized" and not 0.0 < self.eps < 0.5:
            raise ValueError("winsorized truncation must lie in (0, 1/2)")

    @property
    def n(self) -> int:
        return len(self.sample)

    def cdf(self, y):
        f = np.searchsorted(self.sample, np.asarray(y, dtype=float), side="right") / self.n
        if self.variant == "plain":
            return np.clip(f, 1.0 / (self.n + 1), self.n / (self.n + 1.0))
        return np.clip(f, self.eps, 1.0 - self.eps)

    def logpdf(self, y):
        raise TypeError("empirical families have no density")

    def quantile(self, u):
        return median_unbiased_quantile(self.sample, u)


def winsor_eps(n: int) -> float:
    """Default ECDF truncation 1/(4 n^(1/4) sqrt(pi log n))."""
    if n < 2:
        return 0.25
    return 1.0 / (4.0 * n**0.25 * np.sqrt(np.pi * np.log(n)))


def empirical_cdf(sample, variant: str = "plain", eps: float | None = None) -> Empirical:
    """Build the plain or Winsorized ECDF family from a sample."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise ValueError("sample must be nonempty")
    if variant == "winsorized" and eps is None:
        eps = winsor_eps(sample.size)
    return Empirical(sample, variant, 0.0 if eps is None else eps)


def median_unbiased_quantile(sample, prob):
    """Median-unbiased (Hyndman-Fan type 8) sample quantile."""
    return np.quantile(np.asarray(sample, dtype=float), prob, method="median_unbiased")


def family_param_names(family: str, n_categories: int | None = None) -> tuple[str, ...]:
    """Reported parameter names (full probability vector for categorical)."""
    if family == "categorical":
        if n_categories is None:
            raise ValueError("categorical needs n_categories")
        return tuple(f"p{k}" for k in range(1, n_categories + 1))
    if family == "empirical":
        return ()
    return _TABLE[family].psi


def psi_bounds(family: str, n_categories: int | None = None) -> list[tuple[float | None, float | None]]:
    if family == "categorical":
        return [(DELTA_P, 1.0 - DELTA_P)] * (n_categories - 1)
    return [(None, None) if nm == LOCATION else (POS_MIN, None)
            for nm in family_param_names(family)]


def check_level(family: str, level: str) -> str:
    """Return ``family`` if it is a continuous family for ``level`` scores."""
    allowed = tuple(tag for tag, fam in _TABLE.items() if fam.level == level)
    if family not in allowed:
        raise ConfigError(f"dist {family!r} does not model {level} scores; use one of {allowed}")
    return family


def make_family(family: str, psi, n_categories: int | None = None):
    """Instantiate a family from its free parameters; None if psi is infeasible.

    Infeasibility (derived p_K below the probability floor, non-positive
    shape/scale) is an in-band result so objectives can map it to -inf.
    """
    psi = np.asarray(psi, dtype=float)
    if not np.isfinite(psi).all():
        return None
    if family == "categorical":
        p = np.append(psi, 1.0 - psi.sum())
        if (p < DELTA_P).any() or (p > 1.0 - DELTA_P).any():
            return None
        return Categorical(p)
    if family not in _TABLE:
        raise ValueError(f"unknown family {family!r}")
    positive = [v for nm, v in zip(_TABLE[family].psi, psi) if nm != LOCATION]
    return Parametric(family, *psi) if min(positive) > 0 else None


def initial_params(data, family: str, n_categories: int | None = None) -> np.ndarray:
    """Data-driven starting values.

    Gaussian/Laplace use (mean, sd); the t uses (mad, median) for (nu, mu);
    gamma and beta use moment formulas; Kumaraswamy starts at (1, 1); a
    categorical family starts at the empirical probabilities (full vector).
    A categorical family needs K >= 2 categories: with one, no probability
    vector is feasible, which is a ``DegenerateDataError``; so is zero sample
    variance under any continuous family.
    """
    y = np.asarray(data, dtype=float)
    if y.size < 2:
        raise ValueError("need at least 2 observed values for starting values")

    if family == "categorical":
        yi = y.astype(int)
        k = n_categories if n_categories is not None else int(yi.max())
        if k < 2:
            raise DegenerateDataError(
                f"K = {k} category; a categorical marginal needs at least 2")
        p = np.bincount(yi, minlength=k + 1)[1:].astype(float) / yi.size
        # floor at 2*DELTA_P so renormalization cannot push an unobserved
        # category below the optimizer's probability floor
        p = np.clip(p, 2.0 * DELTA_P, 1.0 - DELTA_P)
        return p / p.sum()
    if family not in _TABLE:
        raise ValueError(f"unknown family {family!r}")
    s2 = y.var(ddof=1)
    if (y == y[0]).all() or s2 <= 0.0:
        raise DegenerateDataError(f"zero sample variance: {family} starting values undefined")
    if family in ("gaussian", "laplace"):
        return np.array([y.mean(), max(y.std(ddof=1), POS_MIN)])
    if family == "t":
        med = np.median(y)
        mad = 1.4826 * np.median(np.abs(y - med))
        return np.array([max(mad, POS_MIN), med])
    if family in ("gamma", "beta"):
        ybar = y.mean()
        if family == "gamma":
            return np.array([max(ybar**2 / s2, POS_MIN), max(ybar / s2, POS_MIN)])
        f = ybar * (1.0 - ybar) / s2 - 1.0
        return np.array([max(ybar * f, POS_MIN), max((1.0 - ybar) * f, POS_MIN)])
    return np.array([1.0, 1.0])  # kumaraswamy
