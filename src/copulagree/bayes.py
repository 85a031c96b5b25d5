"""Random-walk Metropolis-Hastings posterior sampling for interval/ratio
scores, with fixed-width stopping and DIC.

Positive parameters random-walk on the log scale (log-normal proposals with
the matching Hastings correction); agreement parameters random-walk on the
logit scale with the logistic Jacobian, proposed per-component but accepted
or rejected jointly so the copula factorization is computed once per sweep.
Location parameters use a plain Gaussian walk.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, gammaln

from . import marginals
from .errors import ConfigError, NumericalError
from .objectives import CopulaModel, Objective
from .scores import ScoreMatrix
from .structure import build_structure

_MINIT_FLOOR = 1000


@dataclass
class SamplerControl:
    """Chain controls; proposal standard deviations default to 0.1."""

    dist: str = "gaussian"
    minit: int = 1000
    maxit: int = 10000
    tol: float = 0.1
    sigma_1: float = 0.1
    sigma_2: float = 0.1
    sigma_omega: float | tuple[float, ...] = 0.1

    def __post_init__(self):
        if self.dist not in marginals.CONTINUOUS_FAMILIES:
            raise ConfigError(f"posterior sampling needs a continuous family, got {self.dist!r}")
        if self.minit < _MINIT_FLOOR:
            raise ConfigError(f"minit must be at least {_MINIT_FLOOR}")
        if self.maxit < self.minit:
            raise ConfigError("maxit must be at least minit")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if self.sigma_1 <= 0.0 or self.sigma_2 <= 0.0:
            raise ConfigError("proposal standard deviations must be positive")
        sw = np.atleast_1d(np.asarray(self.sigma_omega, dtype=float))
        if (sw <= 0.0).any():
            raise ConfigError("sigma_omega entries must be positive")

    def omega_sigmas(self, m: int) -> np.ndarray:
        sw = np.atleast_1d(np.asarray(self.sigma_omega, dtype=float))
        if sw.size == 1:
            return np.full(m, sw[0])
        if sw.size != m:
            raise ConfigError(f"sigma_omega has {sw.size} entries for {m} agreement parameters")
        return sw.copy()


@dataclass(eq=False)
class PosteriorResult:
    samples: np.ndarray
    param_names: tuple[str, ...]
    means: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    mcse_values: np.ndarray
    accept: dict[str, float]
    dic: float
    draws_taken: int
    converged: bool
    control: SamplerControl
    loglik_draws: np.ndarray = field(repr=False, default=None)

    def save_draws(self, path) -> None:
        """Dump retained draws as ``csv.writer`` would, header = parameter names,
        formatting a value once per run of bitwise-equal draws in its column."""
        bits = self.samples.view(np.int64)
        new = np.ones(bits.shape, dtype=bool)
        new[1:] = bits[1:] != bits[:-1]
        cols = [np.array([repr(v) for v in col[run].tolist()], dtype=object)[np.cumsum(run) - 1]
                for col, run in zip(self.samples.T, new.T)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerow(self.param_names)
            fh.writelines(",".join(row) + "\n" for row in zip(*cols))


def mcse(chain) -> float:
    """Monte Carlo standard error by non-overlapping batch means.

    Batch size floor(sqrt(n)); the standard error is the standard deviation
    of the batch means divided by sqrt(number of batches).
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    if n < 100:
        raise ValueError("mcse needs at least 100 draws")
    b = int(np.sqrt(n))
    a = n // b
    # correctly-rounded batch sums, centered before the spread computation,
    # so a constant chain yields exactly zero
    means = np.array([math.fsum(batch) / b for batch in x[: a * b].reshape(a, b)])
    return float((means - means[0]).std(ddof=1) / np.sqrt(a))


def fixed_width_check(means, mcses, tol: float) -> bool:
    """Stop when every coefficient of variation mcse_j / |mean_j| is below tol.

    A zero mean cannot be certified; its coefficient of variation is +inf.
    """
    means = np.atleast_1d(np.asarray(means, dtype=float))
    mcses = np.atleast_1d(np.asarray(mcses, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(means == 0.0, np.inf, mcses / np.abs(means))
    return bool((cv < tol).all())


def dic(samples, loglik) -> float:
    """Deviance information criterion with the posterior-mean plug-in:
    D(theta) = -2 log L; DIC = 2 * mean(D) - D(theta-bar)."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    d_draws = np.array([-2.0 * loglik(s) for s in samples])
    if not np.isfinite(d_draws).all():
        raise NumericalError("non-finite deviance along the chain")
    d_hat = -2.0 * loglik(samples.mean(axis=0))
    if not np.isfinite(d_hat):
        raise NumericalError("non-finite deviance at the posterior mean")
    return float(2.0 * d_draws.mean() - d_hat)


_GAMMA_A = 0.01
_GAMMA_B = 0.01
_MU_SD = 1000.0
_LOG_GAMMA_NORM = _GAMMA_A * np.log(_GAMMA_B) - gammaln(_GAMMA_A)


def _log_prior_positive(x: float) -> float:
    # Gamma(0.01, 0.01) rate parametrization
    return _LOG_GAMMA_NORM + (_GAMMA_A - 1.0) * np.log(x) - _GAMMA_B * x


def _log_prior_mu(x: float) -> float:
    return -0.5 * (x / _MU_SD) ** 2 - 0.5 * np.log(2.0 * np.pi) - np.log(_MU_SD)


def run_chain(loglik, omega_names, psi_updates, omega0, psi0, control: SamplerControl,
              seed=None):
    """Drive the MH chain; ``loglik(omega, psi) -> float`` is the data term.

    ``psi_updates`` is a sequence of (name, kind, sigma, log_prior) tuples;
    an empty sequence samples the agreement parameters alone.  Returns
    ``(samples, loglik_draws, accept_counts, draws_taken, converged)``.
    """
    rng = np.random.default_rng(seed)
    m = len(omega_names)
    sigma_omega = control.omega_sigmas(m)
    omega = np.asarray(omega0, dtype=float).copy()
    psi = np.asarray(psi0, dtype=float).copy()
    cur_ll = loglik(omega, psi)
    if not np.isfinite(cur_ll):
        raise NumericalError("log-likelihood not finite at the chain start")

    accept_omega = 0
    accept_psi = np.zeros(len(psi_updates), dtype=int)

    draws = np.empty((control.maxit, m + len(psi_updates)))
    lls = np.empty(control.maxit)
    taken = 0
    converged = False

    for t in range(control.maxit):
        if m:
            eta = np.log(omega) - np.log1p(-omega)
            eta_star = eta + rng.normal(0.0, sigma_omega)
            omega_star = expit(eta_star)
            ll_star = loglik(omega_star, psi)
            # standard-uniform priors cancel; logistic Jacobian remains
            log_acc = (
                ll_star - cur_ll
                + np.sum(np.log(omega_star) + np.log1p(-omega_star))
                - np.sum(np.log(omega) + np.log1p(-omega))
            )
            if np.log(rng.uniform()) < log_acc:
                omega = omega_star
                cur_ll = ll_star
                accept_omega += 1
        for i, (nm, kind, sigma, log_prior) in enumerate(psi_updates):
            x = psi[i]
            if kind == "walk":
                x_star = x + rng.normal(0.0, sigma)
                hastings = 0.0
            else:
                x_star = x * np.exp(rng.normal(0.0, sigma))
                hastings = np.log(x_star) - np.log(x)
            psi_star = psi.copy()
            psi_star[i] = x_star
            ll_star = loglik(omega, psi_star)
            log_acc = ll_star - cur_ll + log_prior(x_star) - log_prior(x) + hastings
            if np.log(rng.uniform()) < log_acc:
                psi = psi_star
                cur_ll = ll_star
                accept_psi[i] += 1
        draws[t, :m] = omega
        draws[t, m:] = psi
        lls[t] = cur_ll
        taken = t + 1
        if taken >= control.minit and taken % control.minit == 0:
            cols = draws[:taken]
            means = cols.mean(axis=0)
            ses = np.array([mcse(cols[:, j]) for j in range(cols.shape[1])])
            if fixed_width_check(means, ses, control.tol):
                converged = True
                break

    samples = draws[:taken].copy()
    counts = {"omega": accept_omega}
    for i, (nm, *_rest) in enumerate(psi_updates):
        counts[nm] = int(accept_psi[i])
    return samples, lls[:taken].copy(), counts, taken, converged


def sample_posterior(data: ScoreMatrix, control: SamplerControl | None = None,
                     seed=None) -> PosteriorResult:
    """Posterior sampling for interval or ratio scores.

    The chain targets the copula likelihood times independent noninformative
    priors: standard uniform on each agreement parameter, Gamma(0.01, 0.01)
    on positive marginal parameters, N(0, 1000^2) on locations.  It starts at
    the data-driven values used for optimization (omega at 0.5) and stops by
    the fixed-width rule, checked every ``minit`` draws.
    """
    control = control or SamplerControl()
    if data.level not in ("interval", "ratio"):
        raise ConfigError("posterior sampling requires interval or ratio scores")
    marginals.check_level(control.dist, data.level)

    structure = build_structure(data.labels, data.observed)
    model = CopulaModel(structure, control.dist, data.scores_flat())
    objective = Objective("ml", model)
    m = structure.n_params

    def loglik(omega, psi):
        return objective(np.concatenate([omega, psi]))

    psi0 = marginals.initial_params(model.y, control.dist)
    # location: plain walk, normal prior; positive: log-normal step, gamma prior
    updates = [
        (nm, "walk", sigma, _log_prior_mu) if nm == marginals.LOCATION
        else (nm, "lognormal", sigma, _log_prior_positive)
        for nm, sigma in zip(marginals.family_param_names(control.dist),
                             (control.sigma_1, control.sigma_2))
    ]

    samples, lls, counts, taken, converged = run_chain(
        loglik, structure.param_names, updates, np.full(m, 0.5), psi0, control, seed
    )

    means = samples.mean(axis=0)
    lower, upper = np.quantile(samples, [0.025, 0.975], axis=0, method="median_unbiased")
    ses = np.array([mcse(samples[:, j]) for j in range(samples.shape[1])])

    d_draws = -2.0 * lls
    d_hat = -2.0 * loglik(means[:m], means[m:])
    if not np.isfinite(d_hat):
        raise NumericalError("non-finite deviance at the posterior mean")
    dic_value = float(2.0 * d_draws.mean() - d_hat)

    accept = {}
    omega_key = structure.param_names[0] if m == 1 else "omega"
    accept[omega_key] = counts["omega"] / taken
    for nm, *_rest in updates:
        accept[nm] = counts[nm] / taken

    names = structure.param_names + marginals.family_param_names(control.dist)
    return PosteriorResult(
        samples=samples, param_names=names, means=means, lower=lower, upper=upper,
        mcse_values=ses, accept=accept, dic=dic_value, draws_taken=taken,
        converged=converged, control=control, loglik_draws=lls,
    )
