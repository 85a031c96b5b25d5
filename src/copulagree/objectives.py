"""Log-objectives for copula agreement models: ML, DT, CML, and the
two-stage semiparametric form, plus the numerical derivatives they need.

All objectives are pure functions of a packed parameter vector
theta = (omega, psi) and return -inf (never raise) when theta leaves the
positive-definite region or makes a marginal infeasible, so optimizers can
penalize and recover.

ML, DT and SMP share one Gaussian core that reads of the data only each
pattern group's second moment S_g = Z_g'Z_g (``block_logdet_quadform``; the
per-unit path is kept in the tests, as its oracle).  ML forms S_g on each
evaluation, in a canonical unit order (``CopulaModel.unit_order``).  SMP,
CML and DT count what they need once per dataset: S_g of the fixed scores,
each distinct pair cell (``cml_cells``), or category tallies (``dt_tally``).
omega enters ML, DT and SMP only through the core, which gives its score in
closed form (``grad``); ``Objective.score`` adds differences in psi."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from . import marginals
from .errors import NumericalError
from .structure import (
    OMEGA_MAX,
    AgreementStructure,
    block_logdet_quadform,
    second_moments,
    sorted_positions,
    weighted_fsum,
)

# Probit arguments are clamped before inversion: DT midpoints can hit 0/1
# when a categorical cell collapses during optimization.
_PROBIT_CLIP = 1e-12

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _probit(p):
    return ndtri(np.clip(p, _PROBIT_CLIP, 1.0 - _PROBIT_CLIP))


def _gl_sum(t):
    """Gauss-Legendre sum of t[:, g] * w[g] in a fixed order, so each row's
    value does not depend on the rows beside it (a BLAS matvec may round
    rows differently by their place in the batch)."""
    acc = t[:, 0] * _GL_W[0]
    for g in range(1, _GL_W.size):
        acc = acc + t[:, g] * _GL_W[g]
    return acc


def _bvnu_small_r(h, k, r):
    # P(X>h, Y>k) for |r| < 0.925 via Gauss-Legendre on the Drezner identity.
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = np.arcsin(r)
    sn = np.sin(0.5 * asr[:, None] * (1.0 + _GL_X[None, :]))
    integrand = np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn))
    bvn = _gl_sum(integrand) * asr / (4.0 * np.pi)
    return bvn + ndtr(-h) * ndtr(-k)


def _bvnu_large_r(h, k, r):
    # |r| >= 0.925 tail expansion (Genz), vectorized.
    twopi = 2.0 * np.pi
    k = np.where(r < 0.0, -k, k)
    hk = h * k
    asq = (1.0 - r) * (1.0 + r)
    a = np.sqrt(asq)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / asq + hk) / 2.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bvn = np.where(
            asr > -100.0,
            a * np.exp(asr) * (1.0 - c * (bs - asq) * (1.0 - d * bs / 5.0) / 3.0
                               + c * d * asq * asq / 5.0),
            0.0,
        )
        sp = np.sqrt(twopi) * ndtr(-np.sqrt(bs) / a)
        bvn = np.where(
            hk > -100.0,
            bvn - np.exp(-hk / 2.0) * sp * np.sqrt(bs)
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            bvn,
        )
        a2 = a / 2.0
        xs = (a2[:, None] * (1.0 + _GL_X[None, :])) ** 2
        rs = np.sqrt(1.0 - xs)
        asr1 = -(bs[:, None] / xs + hk[:, None]) / 2.0
        sp1 = 1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)
        ep = np.exp(-hk[:, None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        terms = np.where(asr1 > -100.0, np.exp(asr1) * (ep - sp1), 0.0)
        bvn = bvn + a2 * _gl_sum(terms)
    bvn = -bvn / twopi
    bvn = np.where(
        r > 0.0,
        bvn + ndtr(-np.maximum(h, k)),
        -bvn + np.maximum(0.0, ndtr(-h) - ndtr(-k)),
    )
    return np.clip(bvn, 0.0, 1.0)


def bivariate_normal_cdf(z1, z2, rho):
    """Standard bivariate normal P(Z1 <= z1, Z2 <= z2) with correlation rho.

    Vectorized; +-inf arguments are allowed; |rho| must be < 1.  Absolute
    accuracy is well below 1e-7 (Gauss-Legendre / tail expansion).  The value
    at each point is a pure function of that point: it is the same bits alone,
    in any batch and in any position within one.
    """
    z1, z2, rho = np.broadcast_arrays(
        np.asarray(z1, dtype=float), np.asarray(z2, dtype=float), np.asarray(rho, dtype=float)
    )
    scalar = z1.ndim == 0
    z1, z2, rho = np.atleast_1d(z1), np.atleast_1d(z2), np.atleast_1d(rho)
    if (np.abs(rho) >= 1.0).any():
        raise ValueError("correlation must lie in (-1, 1)")

    # orientation: P(X > h, Y > k) with h = -z1, k = -z2
    h, k = -z1, -z2
    out = np.empty(h.shape, dtype=float)
    neg_inf = (h == np.inf) | (k == np.inf)      # some z at -inf
    h_inf = np.isneginf(h) & ~neg_inf            # z1 at +inf
    k_inf = np.isneginf(k) & ~neg_inf
    out[neg_inf] = 0.0
    out[h_inf & k_inf] = 1.0
    only_h = h_inf & ~k_inf
    only_k = k_inf & ~h_inf
    out[only_h] = ndtr(-k[only_h])
    out[only_k] = ndtr(-h[only_k])

    core = ~(neg_inf | h_inf | k_inf)
    if core.any():
        hc, kc, rc = h[core], k[core], rho[core]
        res = np.empty(hc.shape, dtype=float)
        small = np.abs(rc) < 0.925
        if small.any():
            res[small] = _bvnu_small_r(hc[small], kc[small], rc[small])
        if (~small).any():
            res[~small] = _bvnu_large_r(hc[~small], kc[~small], rc[~small])
        out[core] = res
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(z1.shape)


@dataclass(eq=False)
class CopulaModel:
    """Packing of an agreement model: structure, marginal family, flat scores.

    For the semiparametric kind the ``y`` slot holds the standardized scores
    z-hat instead of raw data and the family tag is ``empirical`` (no free
    marginal parameters).
    """

    structure: AgreementStructure
    family: str
    y: np.ndarray
    n_categories: int | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != (self.structure.n,):
            raise ValueError(
                f"expected {self.structure.n} flat scores, got {self.y.shape}"
            )

    @property
    def n_omega(self) -> int:
        return self.structure.n_params

    @property
    def theta_dim(self) -> int:
        return len(self.bounds())

    def bounds(self) -> list[tuple[float | None, float | None]]:
        return [(0.0, OMEGA_MAX)] * self.n_omega + marginals.psi_bounds(
            self.family, self.n_categories
        )

    def unpack(self, theta) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        return theta[: self.n_omega], theta[self.n_omega:]

    def family_of(self, theta):
        """Marginal instance at theta, or None when psi is infeasible."""
        _, psi = self.unpack(theta)
        return marginals.make_family(self.family, psi, self.n_categories)

    def initial_theta(self) -> np.ndarray:
        omega0 = np.full(self.n_omega, 0.5)
        if self.family == "empirical":
            return omega0
        psi0 = marginals.initial_params(self.y, self.family, self.n_categories)
        if self.family == "categorical":
            psi0 = psi0[:-1]
        return np.concatenate([omega0, psi0])

    def param_names(self) -> tuple[str, ...]:
        """Reported names: agreement parameters, then the full marginal vector."""
        if self.family == "empirical":
            return self.structure.param_names
        return self.structure.param_names + marginals.family_param_names(
            self.family, self.n_categories
        )

    def expand(self, theta) -> np.ndarray:
        """Reported estimates; appends the derived p_K for categorical."""
        theta = np.asarray(theta, dtype=float)
        if self.family == "categorical":
            _, psi = self.unpack(theta)
            return np.concatenate([theta, [1.0 - psi.sum()]])
        return theta.copy()

    def expand_matrix(self) -> np.ndarray:
        """Jacobian of the reported vector in the packed theta (delta method)."""
        a = np.eye(self.theta_dim)
        if self.family == "categorical":
            row = np.zeros(self.theta_dim)
            row[self.n_omega:] = -1.0
            a = np.vstack([a, row])
        return a

    @cached_property
    def unit_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The structure's ``positions`` with each group's units sorted by
        their scores, and the sorted scores; the same for any unit order of
        the same data.  Built on first use (an ML objective's first call)."""
        return sorted_positions(self.structure, self.y), np.sort(self.y)

    def face_constraint(self) -> tuple[int, float] | None:
        """Linear feasibility face of the derived p_K, for the optimizer."""
        if self.family == "categorical":
            return self.n_omega, 1.0 - marginals.DELTA_P
        return None


@dataclass(eq=False)
class Objective:
    """A log-objective of packed theta; kind in {ml, dt, cml, smp}."""

    kind: str
    model: CopulaModel

    def __post_init__(self):
        fam = self.model.family
        if self.kind == "ml" and fam not in marginals.CONTINUOUS_FAMILIES:
            raise ValueError("ml objective requires a continuous marginal family")
        if self.kind in ("dt", "cml") and fam != "categorical":
            raise ValueError(f"{self.kind} objective requires a categorical marginal")
        if self.kind == "smp" and fam != "empirical":
            raise ValueError("smp objective requires empirically standardized scores")
        if self.kind not in ("ml", "dt", "cml", "smp"):
            raise ValueError(f"unknown objective kind {self.kind!r}")

    @cached_property
    def counts(self):
        """The ``cml_cells``, ``dt_tally`` or ``second_moments`` (SMP), built on first use."""
        if self.kind == "cml":
            return cml_cells(self.model)
        if self.kind == "dt":
            return dt_tally(self.model)
        if self.kind == "smp":
            return second_moments(self.model.structure, self.model.y, self.model.unit_order[0])

    def __call__(self, theta, grad=None) -> float:
        if self.kind == "ml":
            return loglik_ml(theta, self.model, grad)
        if self.kind == "dt":
            return loglik_dt(theta, self.model, self.counts, grad)
        if self.kind == "cml":
            return loglik_cml(theta, self.model, self.counts)
        return loglik_smp(theta, self.model.structure, self.model.y, self.counts, grad)

    def score(self, theta) -> tuple[float, np.ndarray]:
        """``(value, gradient)``: omega-part from the core, the rest from ``stencil_score``."""
        if self.kind == "cml":
            return stencil_score(self, theta)
        omega_grad = np.zeros(self.model.n_omega)
        value, g = stencil_score(self, theta, self(theta, omega_grad), omega_grad.size)
        g[:omega_grad.size] = omega_grad if np.isfinite(value) else 0.0
        return value, g


def loglik_ml(theta, model: CopulaModel, grad=None) -> float:
    """Exact log-likelihood for a continuous marginal: the log-density plus
    the Gaussian core at z = probit(F(y)).  Every sum over scores runs in
    ``model.unit_order``, so reordering units gives the same bits.  ``grad``
    receives the omega-score when given (see ``block_logdet_quadform``)."""
    omega, _ = model.unpack(theta)
    fam = model.family_of(theta)
    if fam is None:
        return -np.inf
    positions, y_sorted = model.unit_order
    with np.errstate(over="ignore"):  # finite terms whose sum leaves the float range
        logf = float(np.sum(fam.logpdf(y_sorted)))
    if not np.isfinite(logf):
        return -np.inf
    s = second_moments(model.structure, _probit(fam.cdf(model.y)), positions)
    sq = math.fsum(np.diagonal(s, axis1=1, axis2=2).ravel())
    core = block_logdet_quadform(model.structure, omega, s, sq, grad)
    return -np.inf if core is None else core + logf


def _categories(model: CopulaModel) -> np.ndarray:
    """The flat scores as 0-based categories; ValueError unless every score
    is an integer category 1..K."""
    k = model.n_categories
    y = model.y.astype(np.intp) - 1
    if not (np.array_equal(y + 1, model.y) and ((y >= 0) & (y < k)).all()):
        raise ValueError(f"categorical scores must be integer categories 1..{k}")
    return y


@dataclass(frozen=True, eq=False)
class DtTally:
    """A dataset's integer counts for the DT objective.

    ``cell`` is a flat (g, a, b) position in the structure's block stack
    with a <= b, ``pair`` a flat category pair (c, d), and ``count`` the
    number of units of group g with categories c at position a and d at b,
    doubled when a < b (the upper triangle carries the symmetric inner
    product).  ``n_cat`` counts the scores of each category.
    """

    cell: np.ndarray
    pair: np.ndarray
    count: np.ndarray
    n_cat: np.ndarray


def dt_tally(model: CopulaModel) -> DtTally:
    """Count the categories of ``model`` by pattern group and block position."""
    k = model.n_categories
    y = _categories(model)
    s = model.structure
    size = s.lookup.shape[1]
    a, b = np.nonzero(np.triu(np.ones((size, size), dtype=bool)))
    group = np.repeat(np.arange(len(s.n_group)), s.n_group)
    unit_cell = (group[:, None] * size + a) * size + b
    # each unit's categories by block position; padding reads a dummy 0
    units = s.positions.T
    yu = np.append(y, 0)[units]
    keys = (unit_cell * k + yu[:, a]) * k + yu[:, b]
    key, count = np.unique(keys[units[:, b] < s.n], return_counts=True)
    cell, pair = np.divmod(key, k * k)
    row, col = np.divmod(cell % (size * size), size)
    return DtTally(cell, pair, np.where(row < col, 2.0, 1.0) * count,
                   np.bincount(y, minlength=k))


def loglik_dt(theta, model: CopulaModel, tally: DtTally | None = None, grad=None) -> float:
    """Distributional-transform approximation: the categorical log-mass plus
    the Gaussian core at the probits of the jump midpoints, from ``tally``
    (``dt_tally(model)`` when not given).  The log-mass and sum of squares
    are exactly rounded count-weighted sums over the K categories and S_g is
    one weighted ``bincount``, so reordering units gives the same bits.  ``grad`` as for ML.
    """
    omega, _ = model.unpack(theta)
    fam = model.family_of(theta)
    if fam is None:
        return -np.inf
    if tally is None:
        tally = dt_tally(model)
    categories = np.arange(1.0, model.n_categories + 1.0)
    logf = weighted_fsum(fam.logpdf(categories), tally.n_cat)
    t = _probit(fam.dt_cdf(categories))
    sq = weighted_fsum(t * t, tally.n_cat)
    lookup = model.structure.lookup
    s = np.bincount(tally.cell, tally.count * np.outer(t, t).ravel()[tally.pair],
                    minlength=lookup.size).reshape(lookup.shape)
    core = block_logdet_quadform(model.structure, omega, s, sq, grad)
    return -np.inf if core is None else core + logf


def cml_cells(model: CopulaModel):
    """Distinct CML pair cells ``(ci, cj, param, counts)``.

    A pair's rectangle probability depends only on its two categories and its
    parameter, since one categorical marginal serves every column, so the
    within-block nonzero pairs (i < j flat) are tallied by that cell: ``ci``
    and ``cj`` are the 0-based categories of scores i and j, ``counts`` the
    number of pairs.  Cells come in ascending (ci, cj, param) order.
    """
    k, q, s = model.n_categories, model.n_omega, model.structure
    a, b = np.triu_indices(s.lookup.shape[1], 1)
    # each unit's pair parameters; padding and structural zeros are negative
    param = s.lookup[:, a, b].repeat(s.n_group, axis=0)
    yu = np.append(_categories(model), 0)[s.positions.T]
    cells = (yu[:, a] * k + yu[:, b]) * q + param
    counts = np.bincount(cells[param >= 0], minlength=k * k * q)
    nz = np.flatnonzero(counts)
    ci, rest = np.divmod(nz, k * q)
    cj, param = np.divmod(rest, q)
    return ci, cj, param, counts[nz]


def loglik_cml(theta, model: CopulaModel, cells=None) -> float:
    """Pairwise composite log-likelihood over all nonzero-correlation pairs.

    Each distinct cell of ``cml_cells`` (computed here when not given) is
    evaluated once and its log-rectangle weighted by its pair count; the
    result equals the exactly rounded sum over the pairs one by one.
    """
    omega, _ = model.unpack(theta)
    fam = model.family_of(theta)
    if fam is None:
        return -np.inf
    if cells is None:
        cells = cml_cells(model)
    if not np.isfinite(omega).all() or (np.abs(omega) >= 1.0).any():
        return -np.inf
    ci, cj, param, counts = cells
    # probits of F(0), ..., F(K): category c spans (cut[c], cut[c + 1]]
    cut = _probit(fam.cdf(np.arange(model.n_categories + 1.0)))
    a0, a1, b0, b1 = cut[ci + 1], cut[ci], cut[cj + 1], cut[cj]
    v = bivariate_normal_cdf(
        np.concatenate((a0, a0, a1, a1)), np.concatenate((b0, b1, b0, b1)),
        np.tile(omega[param], 4),
    ).reshape(4, len(ci))
    rect = v[0] - v[1] - v[2] + v[3]
    if (rect <= 0.0).any():
        return -np.inf
    return weighted_fsum(np.log(rect), counts)


def loglik_smp(omega, structure: AgreementStructure, zhat, moments=None, grad=None) -> float:
    """Copula-only objective for pre-standardized scores (no -I correction),
    from the ``second_moments`` of zhat (formed here when not given); ``grad`` as for ML."""
    if moments is None:
        moments = second_moments(structure, zhat, sorted_positions(structure, zhat))
    core = block_logdet_quadform(structure, omega, moments, grad=grad)
    return -np.inf if core is None else core


def stencil(fn, theta, start=0):
    """``fn`` at theta +- h e_j for every coordinate j >= ``start``, with the
    step h = cbrt(eps) * max(1, |theta_j|); returns ``(fp, fm, h)`` as arrays."""
    theta = np.asarray(theta, dtype=float)
    h = _CBRT_EPS * np.maximum(1.0, np.abs(theta))
    steps = np.diag(h)[start:]
    return (np.array([fn(theta + e) for e in steps], dtype=float),
            np.array([fn(theta - e) for e in steps], dtype=float), h[start:])


def stencil_score(fn, theta, f0=None, start=0) -> tuple[float, np.ndarray]:
    """``(f0, g)``: ``fn`` at theta (``f0`` when given) and its gradient on
    the ``stencil`` points from ``start`` on (zeros before).  Next to the
    feasibility cliff a difference is one-sided, or zero with no finite side,
    so a line search is never poisoned by the jump; a non-finite f0 gives 0."""
    theta = np.asarray(theta, dtype=float)
    f0 = fn(theta) if f0 is None else f0
    g = np.zeros(theta.size)
    if np.isfinite(f0):
        fp, fm, h = stencil(fn, theta, start)
        ok_p, ok_m = np.isfinite(fp), np.isfinite(fm)
        with np.errstate(invalid="ignore"):  # -inf - -inf in the branches not taken
            g[start:] = np.where(ok_p & ok_m, (fp - fm) / (2.0 * h), np.where(
                ok_p, (fp - f0) / h, np.where(ok_m, (f0 - fm) / h, 0.0)))
    return f0, g


def gradient(fn, theta) -> np.ndarray:
    """Central finite-difference gradient on the ``stencil`` points."""
    fp, fm, h = stencil(fn, theta)
    finite = np.isfinite(fp) & np.isfinite(fm)
    if not finite.all():
        raise NumericalError(
            f"objective not finite within the gradient stencil at coordinate {finite.argmin()}"
        )
    return (fp - fm) / (2.0 * h)


def hessian(fn, theta) -> np.ndarray:
    """Central finite-difference Hessian: the diagonal on the ``stencil``
    points, entry (i, j) on the corners theta +- h_i e_i +- h_j e_j."""
    theta = np.asarray(theta, dtype=float)
    f0 = fn(theta)
    if not np.isfinite(f0):
        raise NumericalError("objective not finite at the expansion point")
    fpp, fmm, h = stencil(fn, theta)
    finite = np.isfinite(fpp) & np.isfinite(fmm)
    if not finite.all():
        raise NumericalError(
            f"objective not finite within the Hessian stencil at coordinate {finite.argmin()}"
        )
    hess = np.diag((fpp - 2.0 * f0 + fmm) / (h * h))
    steps = np.diag(h)
    for i, j in zip(*np.triu_indices(theta.size, 1)):
        ei, ej = steps[i], steps[j]
        vals = [fn(theta + ei + ej), fn(theta + ei - ej),
                fn(theta - ei + ej), fn(theta - ei - ej)]
        if not np.all(np.isfinite(vals)):
            raise NumericalError(
                f"objective not finite within the Hessian stencil at ({i}, {j})"
            )
        hess[i, j] = hess[j, i] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4.0 * h[i] * h[j])
    return hess
