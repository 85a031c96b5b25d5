"""Influence statistics, model-based simulation, information criteria,
model probabilities, and the Krippendorff's-alpha baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import marginals
from .errors import ConfigError, DataError
from .fit import (
    _TAG_ALPHA,
    FitResult,
    check_replicates,
    fit_point,
    parallel_map,
    replicate_rng,
    resolve_seed,
    simulate_flat,
)
from .scores import ScoreMatrix, embed_original, prepare
from .structure import build_structure


def simulate_scores(fit: FitResult, seed=None) -> ScoreMatrix:
    """Simulate one dataset from a fitted model, preserving the missingness
    pattern of the retained data (drawn blockwise through the copula)."""
    rng = np.random.default_rng(seed)
    omega, _ = fit.model.unpack(fit.theta)
    flat = simulate_flat(fit.model.structure, omega, fit.family_obj, rng)
    return fit.data.with_scores_flat(flat)


def aic_bic(loglik: float, q: int, n: int) -> tuple[float, float]:
    """AIC = 2q - 2l, BIC = q log(n) - 2l with n the observed-score count."""
    return 2.0 * q - 2.0 * loglik, q * np.log(n) - 2.0 * loglik


def information_criteria(fit: FitResult) -> tuple[float, float]:
    """AIC and BIC of a maximum-likelihood fit.

    Refused for DT/CML/SMP fits: their objectives are not proper likelihoods,
    so the criteria are undefined.
    """
    if fit.method != "ml":
        raise ConfigError(
            f"information criteria require a proper likelihood; the {fit.method} "
            "objective is misspecified"
        )
    return aic_bic(fit.objective, len(fit.theta), fit.n_scores)


def model_probability(criteria) -> float:
    """Relative likelihood exp((min - max)/2) of the worst model in a set of
    information-criterion values."""
    criteria = np.asarray(criteria, dtype=float)
    if criteria.size < 2:
        raise ValueError("need at least two criterion values to compare")
    return float(np.exp((criteria.min() - criteria.max()) / 2.0))


@dataclass(eq=False)
class InfluenceReport:
    """DFBETA rows theta_full - theta_without_entity over the reported parameters."""

    param_names: tuple[str, ...]
    unit_indices: tuple[int, ...]
    dfbeta_units: np.ndarray
    coder_indices: tuple[int, ...]
    dfbeta_coders: np.ndarray
    failed_units: tuple[int, ...] = ()
    failed_coders: tuple[int, ...] = ()


def _refit_without(fit: FitResult, drop_unit: int | None = None,
                   drop_coder: int | None = None) -> dict[str, float]:
    values, observed = embed_original(fit.data)
    grid = np.where(observed, values, np.nan)
    labels = list(fit.data.labels)
    if drop_unit is not None:
        keep = [r for r in range(grid.shape[0]) if r != drop_unit - 1]
        grid = grid[keep]
    if drop_coder is not None:
        cols = [
            j for j, lab in enumerate(labels)
            if not (lab.kind == "coder" and lab.coder == drop_coder)
        ]
        if not cols:
            raise DataError(f"dropping coder {drop_coder} removes every column")
        grid = grid[:, cols]
        labels = [labels[j] for j in cols]
    data = prepare(grid, labels, fit.data.level, fit.data.n_categories)
    structure = build_structure(data.labels, data.observed)
    refit = fit_point(structure, data.scores_flat(), fit.method, fit.family,
                      data.n_categories, fit.smp_variant, fit.smp_eps)
    if not refit.converged:
        raise DataError("refit did not converge")
    estimates = dict(zip(refit.param_names, refit.estimates))
    # with one score left per coder the refit names its inter-coder parameter
    # plain ``inter``; it is the full fit's single-method ``inter.m<method>``
    method_inter = f"inter.m{data.labels[0].method}"
    if "inter" in estimates and method_inter in fit.param_names:
        estimates[method_inter] = estimates.pop("inter")
    return estimates


def influence(fit: FitResult, units=(), coders=()) -> InfluenceReport:
    """Refit the model without each requested unit (1-based original row
    number) or coder (coder index), reporting DFBETA = theta_full - theta_drop.

    A unit outside the input's rows or a coder without a column is a
    ``ConfigError``.  Rows are matched by parameter name: a parameter absent
    from a refit (dropping a coder can remove its intra parameter) reads NaN.
    A failed refit flags its entity and leaves NaN in its row; the other
    entities are still returned.
    """
    n_rows = fit.data.n_rows_original
    coder_ids = sorted({lab.coder for lab in fit.data.labels if lab.kind == "coder"})
    for u in units:
        if not 1 <= u <= n_rows:
            raise ConfigError(f"unit {u} is not a row of the input (1..{n_rows})")
    for c in coders:
        if c not in coder_ids:
            raise ConfigError(f"coder {c} is not a coder of the input {tuple(coder_ids)}")
    names = fit.param_names

    def dfbeta(entities, key):
        rows = np.full((len(entities), len(names)), np.nan)
        failed = []
        for i, e in enumerate(entities):
            try:
                refit = _refit_without(fit, **{key: int(e)})
            except (DataError, ValueError):
                failed.append(int(e))
                continue
            rows[i] = fit.estimates - [refit.get(nm, np.nan) for nm in names]
        return rows, tuple(failed)

    du, failed_units = dfbeta(units, "drop_unit")
    dc, failed_coders = dfbeta(coders, "drop_coder")
    return InfluenceReport(
        names, tuple(int(u) for u in units), du,
        tuple(int(c) for c in coders), dc,
        failed_units, failed_coders,
    )


def _alpha_value(unit_values: list[np.ndarray]) -> float:
    """Krippendorff's alpha with the discrete metric from per-unit score lists.

    Observed disagreement averages ordered within-unit pairs weighted by
    1/(m_u - 1); expected disagreement uses the with-replacement margins
    (sampling pairs from the pooled values), the convention that reproduces
    the reference results for this baseline.
    """
    n_total = sum(len(v) for v in unit_values)
    if n_total == 0:
        return 1.0
    do_sum = 0.0
    counts: dict[float, int] = {}
    for vals in unit_values:
        m = len(vals)
        if m >= 2:
            _, cnt = np.unique(vals, return_counts=True)
            disagree = m * (m - 1) - np.sum(cnt * (cnt - 1))
            do_sum += disagree / (m - 1)
        for v in vals:
            counts[v] = counts.get(v, 0) + 1
    d_o = do_sum / n_total
    nk = np.array(list(counts.values()), dtype=float)
    d_e = (n_total**2 - np.sum(nk**2)) / float(n_total**2)
    if d_e <= 0.0:
        return 1.0
    return 1.0 - d_o / d_e


@dataclass(eq=False)
class AlphaResult:
    alpha: float
    n_boot: int
    draws: np.ndarray
    gaussian: tuple[float, float]
    quantile: tuple[float, float]
    mcse: float


def _alpha_worker(payload, j):
    unit_values, seed = payload
    rng = replicate_rng(seed, _TAG_ALPHA, j)
    pick = rng.integers(0, len(unit_values), size=len(unit_values))
    return _alpha_value([unit_values[i] for i in pick])


def krippendorff_alpha(data: ScoreMatrix, n_b: int = 1000, seed=None,
                       threads: int = 1, conf_level: float = 0.95) -> AlphaResult:
    """Krippendorff's alpha under the discrete metric d(x, y) = 1{x != y},
    with a nonparametric bootstrap over units for the confidence interval."""
    if data.level != "nominal":
        raise ConfigError("the discrete-metric alpha baseline applies to nominal data")
    if data.n_units < 2:
        raise DataError("alpha is undefined for fewer than two units")
    check_replicates(n_b)
    seed = resolve_seed(seed)
    unit_values = [data.values[i][data.observed[i]] for i in range(data.n_units)]
    alpha = _alpha_value(unit_values)
    draws = np.asarray(parallel_map(_alpha_worker, (unit_values, seed), n_b, threads))
    z = ndtri(0.5 + conf_level / 2.0)
    sd = draws.std(ddof=1)
    lo_q, hi_q = marginals.median_unbiased_quantile(
        draws, [0.5 - conf_level / 2.0, 0.5 + conf_level / 2.0]
    )
    return AlphaResult(
        alpha=float(alpha),
        n_boot=n_b,
        draws=draws,
        gaussian=(float(alpha - z * sd), float(alpha + z * sd)),
        quantile=(float(lo_q), float(hi_q)),
        mcse=float(sd / np.sqrt(n_b)),
    )
