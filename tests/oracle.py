"""The per-unit Gaussian core, kept as a test oracle.

The library evaluates the copula core from each pattern group's second
moment S_g in one stacked Cholesky call (``structure.block_logdet_quadform``).
This module evaluates it the direct way: each group's block is built on its
own, factored, and every unit's scores are forward-solved against it, so it
shares no code with that path beyond the structure itself.
"""

import math

import numpy as np

from copulagree.objectives import _probit
from copulagree.structure import DIAG, ZERO


def materialize_block(code, omega):
    omega = np.asarray(omega, dtype=float)
    out = np.empty(code.shape, dtype=float)
    out[code == DIAG] = 1.0
    out[code == ZERO] = 0.0
    sel = code >= 0
    out[sel] = omega[code[sel]]
    return out


def _solve_lower_batched(chol, z_rows):
    """Forward substitution for many right-hand sides (rows of ``z_rows``)."""
    m = chol.shape[0]
    w = np.empty_like(z_rows)
    for k in range(m):
        acc = z_rows[:, k].copy()
        for j in range(k):
            acc -= chol[k, j] * w[:, j]
        w[:, k] = acc / chol[k, k]
    return w


def unit_logdet_quadform(structure, omega, z):
    """Blockwise log|Omega| and z' Omega^{-1} z via per-pattern Cholesky and
    per-unit forward solves; None when some block is not positive definite."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.shape != (structure.n_params,):
        raise ValueError(
            f"expected {structure.n_params} agreement parameters, got {omega.shape}"
        )
    if not np.isfinite(omega).all():
        return None
    z = np.asarray(z, dtype=float)
    logdet_parts = []
    quad_parts = []
    for code, idx in structure.groups:
        try:
            chol = np.linalg.cholesky(materialize_block(code, omega))
        except np.linalg.LinAlgError:
            return None
        logdet_parts.append(idx.shape[0] * 2.0 * math.fsum(np.log(np.diag(chol))))
        w = _solve_lower_batched(chol, z[idx])
        quad_parts.extend(np.sum(w * w, axis=1))
    return math.fsum(logdet_parts), math.fsum(quad_parts)


def gaussian_core(structure, omega, z):
    """-log|Omega|/2 - z'(Omega^{-1} - I)z/2, or -inf off the PD region."""
    ld = unit_logdet_quadform(structure, omega, z)
    if ld is None:
        return -np.inf
    logdet, quad = ld
    return -0.5 * logdet - 0.5 * (quad - math.fsum(z * z))


def ml_oracle(theta, model):
    """The exact ML log-likelihood, unit by unit, with exactly rounded sums."""
    omega, _ = model.unpack(theta)
    fam = model.family_of(theta)
    if fam is None:
        return -np.inf
    try:
        logf = math.fsum(fam.logpdf(model.y))
    except OverflowError:
        return -np.inf
    if not np.isfinite(logf):
        return -np.inf
    return gaussian_core(model.structure, omega, _probit(fam.cdf(model.y))) + logf


def smp_oracle(omega, structure, zhat):
    """The SMP objective -log|Omega|/2 - zhat' Omega^{-1} zhat/2, unit by unit."""
    ld = unit_logdet_quadform(structure, omega, zhat)
    if ld is None:
        return -np.inf
    logdet, quad = ld
    return -0.5 * logdet - 0.5 * quad
