"""Frequentist estimation: method selection, box-constrained optimization,
and asymptotic/sandwich/bootstrap interval estimation.

There is one fitting path.  ``fit_point`` builds the model for a dataset
(parametric marginal, or probit-transformed ECDF scores for the two-stage
semiparametric method) and maximizes its objective; ``fit_agreement``, every
bootstrap refit and every influence refit go through it.  One parametric
bootstrap serves all four methods: it simulates from the fitted marginal,
which for the semiparametric method is the ECDF with its median-unbiased
quantile.

Replicated computations (parametric bootstrap, sandwich score covariance)
draw replicate j from an independent RNG stream derived from
(seed, purpose-tag, j), so results are identical for any thread count and
reduce in replicate order.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr, ndtri

from . import marginals
from .errors import ConfigError, DataError, DegenerateDataError, IntervalError, NumericalError
from .objectives import (
    CopulaModel,
    Objective,
    _probit,
    gradient,
    hessian,
    stencil_score,
)
from .scores import ScoreMatrix
from .structure import build_structure, simulate_latent

# Objective value handed to the minimizer when the log-objective is -inf.
_BIG = 1e10

DEFAULT_BOOTSTRAP_NB = 1000
DEFAULT_SANDWICH_NB = 100

_TAG_SANDWICH = 1
_TAG_BOOT = 2
_TAG_SMP_BOOT = 3
_TAG_ALPHA = 5


def resolve_seed(seed) -> int:
    """Missing seeds become fresh entropy so replicate streams stay independent."""
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return int(seed)


def replicate_rng(seed: int, tag: int, j: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, j)))


def check_replicates(n_b: int) -> None:
    if n_b < 2:
        raise ConfigError(f"at least 2 bootstrap replicates are needed, got {n_b}")


def parallel_map(worker, payload, n: int, threads: int = 1) -> list:
    """Apply ``worker(payload, j)`` for j in 0..n-1, optionally over processes.

    Results come back in replicate order regardless of scheduling.
    """
    if threads is None or threads <= 1 or n <= 1:
        return [worker(payload, j) for j in range(n)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        chunk = max(1, n // (threads * 8))
        return list(pool.map(functools.partial(worker, payload), range(n), chunksize=chunk))


def select_method(level: str, n_categories: int | None = None, override: str | None = None) -> str:
    """Default inference route: ml for continuous scores, cml for K <= 4, dt for K >= 5."""
    if override is not None:
        if override not in ("ml", "dt", "cml", "smp"):
            raise ConfigError(f"unknown method {override!r}")
        if override in ("dt", "cml") and level not in ("nominal", "ordinal"):
            raise ConfigError(f"method {override!r} requires nominal or ordinal scores")
        if override in ("ml", "smp") and level not in ("interval", "ratio"):
            raise ConfigError(f"method {override!r} requires interval or ratio scores")
        return override
    if level in ("interval", "ratio"):
        return "ml"
    if n_categories is None:
        raise ValueError("nominal/ordinal method selection needs the category count")
    return "cml" if n_categories <= 4 else "dt"


@dataclass
class OptimizeFit:
    theta: np.ndarray
    value: float
    iterations: int
    converged: bool


def optimize_objective(objective, theta0, bounds, face_constraint=None) -> OptimizeFit:
    """Maximize a log-objective under box constraints (limited-memory
    quasi-Newton); deterministic given the starting point.

    Each point reads one ``(value, gradient)``: the objective's ``score``
    when it has one (``Objective``), else ``stencil_score`` over every
    coordinate, which falls back to one-sided differences next to the
    feasibility cliff.  Infeasible evaluations (-inf objectives) become a
    large penalty with the zero gradient.

    ``face_constraint = (start, budget)`` declares the derived-probability
    face sum(theta[start:]) <= budget of categorical models.  When the
    optimum sits on that face the box line search stalls against the cliff;
    a sequential quadratic fallback with the explicit linear constraint then
    finishes the job (still deterministic).
    """
    lo = np.array([-np.inf if b is None else b for b, _ in bounds])
    hi = np.array([np.inf if b is None else b for _, b in bounds])
    theta0 = np.clip(np.asarray(theta0, dtype=float), lo + 1e-10, hi - 1e-10)

    score = getattr(objective, "score", None) or functools.partial(stencil_score, objective)

    def neg_with_grad(t):
        v, g = score(t)
        return (-v, -g) if np.isfinite(v) else (_BIG, g)

    res = minimize(neg_with_grad, theta0, method="L-BFGS-B", jac=True, bounds=bounds)
    nit = int(res.nit)
    stationary = False
    # the line search can stall and report convergence early; restart up to
    # three times with fresh curvature memory until first-order conditions hold
    for restart in range(4):
        if not np.isfinite(res.fun) or res.fun >= _BIG:
            break
        x = res.x
        f, g = neg_with_grad(x)
        # the largest violation of the first-order conditions in the box
        kkt = np.nanmax(np.where(x <= lo + 1e-9, -g, np.where(x >= hi - 1e-9, g, np.abs(g))),
                        initial=0.0)
        stationary = kkt < 1e-4 * max(1.0, abs(f))
        if stationary or restart == 3:
            break
        res2 = minimize(neg_with_grad, x, method="L-BFGS-B", jac=True, bounds=bounds)
        nit += int(res2.nit)
        if not res2.fun <= res.fun:
            break
        res = res2

    value = float(objective(res.x))
    converged = bool(res.success and np.isfinite(value) and stationary)
    best = OptimizeFit(res.x, value, nit, converged)
    if converged or face_constraint is None:
        return best
    start, budget = face_constraint
    cons = ({"type": "ineq", "fun": lambda t: budget - t[start:].sum()},)
    with warnings.catch_warnings():
        # SLSQP probes marginally outside the box and clips back; harmless
        warnings.simplefilter("ignore", RuntimeWarning)
        res2 = minimize(
            neg_with_grad, theta0, method="SLSQP", jac=True, bounds=bounds, constraints=cons
        )
    value2 = float(objective(res2.x))
    if bool(res2.success) and np.isfinite(value2) and value2 >= value:
        return OptimizeFit(res2.x, value2, int(res2.nit), True)
    return best


@dataclass(eq=False)
class FitResult:
    """A fitted agreement model with optional interval estimates.

    ``theta`` is the packed internal vector; ``estimates`` expands it to the
    reported parameters (the derived p_K included for categorical marginals).
    ``family_obj`` is the fitted marginal, and ``smp_variant``/``smp_eps``
    the ECDF of a semiparametric fit.  ``fit_agreement`` adds the data, the
    seed and the intervals.  Interval bounds are unclamped Wald bounds and
    may leave [0, 1].
    """

    method: str
    model: CopulaModel
    theta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    family_obj: object = None
    smp_variant: str | None = None
    smp_eps: float | None = None
    data: ScoreMatrix | None = None
    seed: int | None = None
    interval_kind: str = "none"
    conf_level: float = 0.95
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    covariance: np.ndarray | None = None
    score_cov: np.ndarray | None = None
    boot_draws: np.ndarray | None = None
    boot_mcse: np.ndarray | None = None
    boot_dropped: int = 0
    boot_warning: bool = False
    boot_interval: str | None = None

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.model.param_names()

    @property
    def estimates(self) -> np.ndarray:
        return self.model.expand(self.theta)

    @property
    def family(self) -> str:
        return self.model.family

    @property
    def n_scores(self) -> int:
        return self.model.structure.n


def fit_point(structure, y, method, dist, n_categories, variant, eps) -> FitResult:
    """Build the model for flat scores ``y`` and maximize its objective.

    The semiparametric method standardizes ``y`` through its ECDF (``variant``
    and ``eps`` as in ``marginals.empirical_cdf``) and its marginal is that
    ECDF; every other method fits the ``dist`` marginal jointly, and its
    marginal is taken at the optimum.
    """
    if method == "smp":
        if (y == y[0]).all():
            raise DegenerateDataError("zero sample variance: every semiparametric score is tied")
        marginal = marginals.empirical_cdf(y, variant, eps)
        model = CopulaModel(structure, "empirical", _probit(marginal.cdf(y)))
    else:
        model = CopulaModel(structure, dist, y, n_categories)
    opt = optimize_objective(Objective(method, model), model.initial_theta(),
                             model.bounds(), model.face_constraint())
    if method != "smp":
        marginal = model.family_of(opt.theta)
    return FitResult(method, model, opt.theta, opt.value, opt.iterations, opt.converged,
                     marginal, variant, eps)


def simulate_flat(structure, omega, family, rng) -> np.ndarray:
    """One dataset from the fitted copula: Z ~ N(0, Omega), U = Phi(Z), Y = F^{-1}(U)."""
    if family is None:
        raise NumericalError("the fitted marginal is infeasible; there is nothing to simulate")
    z = simulate_latent(structure, omega, rng)
    return np.asarray(family.quantile(ndtr(z)), dtype=float)


def _invert_information(info: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(info)):
        raise IntervalError("information matrix has non-finite entries")
    cond = np.linalg.cond(info)
    if not np.isfinite(cond) or cond > 1e12:
        raise IntervalError(f"singular information matrix (condition number {cond:.3e})")
    return np.linalg.inv(info)


def _sandwich_worker(payload, j):
    fit, seed = payload
    model = fit.model
    omega, _ = model.unpack(fit.theta)
    y = simulate_flat(model.structure, omega, fit.family_obj,
                      replicate_rng(seed, _TAG_SANDWICH, j))
    simulated = CopulaModel(model.structure, model.family, y, model.n_categories)
    g = gradient(Objective(fit.method, simulated), fit.theta)
    return np.outer(g, g)


def sandwich_score_cov(fit: FitResult, n_b: int = DEFAULT_SANDWICH_NB,
                       seed: int | None = None, threads: int = 1) -> np.ndarray:
    """Parametric-bootstrap estimate of the score covariance J at theta-hat:
    the mean outer product of the objective gradient over simulated datasets."""
    check_replicates(n_b)
    seed = resolve_seed(seed if seed is not None else fit.seed)
    outers = parallel_map(_sandwich_worker, (fit, seed), n_b, threads)
    j_hat = np.mean(outers, axis=0)
    return 0.5 * (j_hat + j_hat.T)


def asymptotic_interval(fit: FitResult, conf_level: float = 0.95,
                        n_b: int = DEFAULT_SANDWICH_NB, seed: int | None = None,
                        threads: int = 1):
    """Wald intervals: inverse observed information for ML, the sandwich
    I^{-1} J I^{-1} for the misspecified DT/CML objectives.

    Returns ``(lower, upper, reported_covariance, score_cov)``; the score
    covariance is None for ML fits.
    """
    if fit.method == "smp":
        raise ConfigError("the semiparametric path supports bootstrap intervals only")
    inv_info = _invert_information(-hessian(Objective(fit.method, fit.model), fit.theta))
    score_cov = None
    if fit.method in ("dt", "cml"):
        score_cov = sandwich_score_cov(fit, n_b=n_b, seed=seed, threads=threads)
        cov_theta = inv_info @ score_cov @ inv_info
    else:
        cov_theta = inv_info
    a = fit.model.expand_matrix()
    cov_rep = a @ cov_theta @ a.T
    cov_rep = 0.5 * (cov_rep + cov_rep.T)
    se = np.sqrt(np.clip(np.diag(cov_rep), 0.0, None))
    z = ndtri(0.5 + conf_level / 2.0)
    est = fit.estimates
    return est - z * se, est + z * se, cov_rep, score_cov


def _boot_worker(payload, j):
    fit, seed = payload
    structure = fit.model.structure
    omega, _ = fit.model.unpack(fit.theta)
    tag = _TAG_SMP_BOOT if fit.method == "smp" else _TAG_BOOT
    y = simulate_flat(structure, omega, fit.family_obj, replicate_rng(seed, tag, j))
    try:
        refit = fit_point(structure, y, fit.method, fit.family, fit.model.n_categories,
                          fit.smp_variant, fit.smp_eps)
    except DataError:
        return None
    return refit.estimates if refit.converged else None


def bootstrap_intervals(draws: np.ndarray, center: np.ndarray, interval: str,
                        conf_level: float = 0.95):
    """Gaussian (center +- z * sd) or median-unbiased quantile interval from draws."""
    alpha = 1.0 - conf_level
    if interval == "gaussian":
        z = ndtri(0.5 + conf_level / 2.0)
        sd = draws.std(axis=0, ddof=1)
        return center - z * sd, center + z * sd
    if interval == "quantile":
        lower = np.quantile(draws, alpha / 2.0, axis=0, method="median_unbiased")
        upper = np.quantile(draws, 1.0 - alpha / 2.0, axis=0, method="median_unbiased")
        return np.atleast_1d(lower), np.atleast_1d(upper)
    raise ConfigError(f"unknown bootstrap interval method {interval!r}")


def full_bootstrap(fit: FitResult, n_b: int = DEFAULT_BOOTSTRAP_NB,
                   interval: str = "gaussian", conf_level: float = 0.95,
                   seed: int | None = None, threads: int = 1):
    """Parametric bootstrap: refit n_b datasets simulated at theta-hat.

    Each dataset is drawn through the fitted copula and marginal; for a
    semiparametric fit that marginal is the ECDF, so this is the copula
    resampling bootstrap (U* at omega-hat mapped through median-unbiased
    empirical quantiles, then re-standardized and re-estimated).
    Replicates that fail to start or converge are dropped and counted; losing
    more than 10% raises the warning flag, and keeping fewer than 2 is an
    ``IntervalError``.  Returns ``(draws, lower, upper, mcse, dropped,
    warning)`` in reported-parameter space.
    """
    check_replicates(n_b)
    seed = resolve_seed(seed if seed is not None else fit.seed)
    rows = parallel_map(_boot_worker, (fit, seed), n_b, threads)
    kept = [r for r in rows if r is not None]
    dropped = n_b - len(kept)
    if len(kept) < 2:
        raise IntervalError(f"{len(kept)} of {n_b} bootstrap replicates converged; "
                            "an interval needs at least 2")
    draws = np.asarray(kept)
    lower, upper = bootstrap_intervals(draws, fit.estimates, interval, conf_level)
    mcse = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    return draws, lower, upper, mcse, dropped, dropped > 0.1 * n_b


def _default_dist(level: str, dist: str | None) -> str:
    if level in ("nominal", "ordinal"):
        if dist not in (None, "categorical"):
            raise ConfigError("nominal/ordinal scores use the categorical marginal")
        return "categorical"
    return marginals.check_level(dist or ("gaussian" if level == "interval" else "beta"), level)


def fit_agreement(data: ScoreMatrix, *, method: str | None = None, dist: str | None = None,
                  confint: str = "asymptotic", bootit: int | None = None,
                  interval: str = "gaussian", conf_level: float = 0.95,
                  seed: int | None = None, threads: int = 1,
                  smp_variant: str = "plain", smp_eps: float | None = None) -> FitResult:
    """Fit the agreement model appropriate for the data's level of measurement.

    Every method (ml, dt, cml, smp) takes the same path: build the structure,
    ``fit_point`` for the estimate, then the requested intervals.  ``confint``
    is one of none/asymptotic/bootstrap.  ``method="smp"`` is the two-stage
    semiparametric fit: probit-transformed ECDF scores (``smp_variant`` and
    ``smp_eps`` choose the ECDF), then the copula-only objective, with
    none/bootstrap intervals only (the copula-resampling bootstrap of
    ``full_bootstrap``); it ignores ``dist``.  ``bootit`` sets the replicate
    count where one is needed, at least 2 (defaults: 1000 for the full
    bootstrap, 100 for the sandwich score covariance).
    """
    if confint not in ("none", "asymptotic", "bootstrap"):
        raise ConfigError(f"unknown confint {confint!r}")
    method = select_method(data.level, data.n_categories, override=method)
    y = data.scores_flat()
    if method == "smp":
        if confint == "asymptotic":
            raise ConfigError("the semiparametric path supports bootstrap intervals only")
        if y.size < 30:
            warnings.warn(
                f"only {y.size} observed scores; the ECDF stage is unreliable below 30",
                stacklevel=2,
            )
    else:
        dist = _default_dist(data.level, dist)
        smp_variant = smp_eps = None
    seed = resolve_seed(seed)

    structure = build_structure(data.labels, data.observed)
    fit = fit_point(structure, y, method, dist, data.n_categories, smp_variant, smp_eps)
    fit.data, fit.seed, fit.conf_level = data, seed, conf_level
    if confint == "asymptotic":
        n_b = bootit if bootit is not None else DEFAULT_SANDWICH_NB
        fit.lower, fit.upper, fit.covariance, fit.score_cov = asymptotic_interval(
            fit, conf_level=conf_level, n_b=n_b, seed=seed, threads=threads
        )
        fit.interval_kind = "asymptotic"
    elif confint == "bootstrap":
        n_b = bootit if bootit is not None else DEFAULT_BOOTSTRAP_NB
        (fit.boot_draws, fit.lower, fit.upper, fit.boot_mcse,
         fit.boot_dropped, fit.boot_warning) = full_bootstrap(
            fit, n_b=n_b, interval=interval, conf_level=conf_level,
            seed=seed, threads=threads,
        )
        fit.interval_kind = "bootstrap"
        fit.boot_interval = interval
    return fit
