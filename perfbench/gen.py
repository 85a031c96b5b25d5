"""Seeded score CSVs for the benchmark, drawn with numpy alone.

Every workload uses the same five columns: coders 1 and 2 score each unit
twice, coder 3 once.  The latent vector is Gaussian with intra-coder
correlation 0.8 (coder 1) and 0.75 (coder 2) and inter-coder correlation 0.6;
scores are that vector pushed through a categorical or Gaussian marginal, and
each cell is then missing with probability 0.15.  The library's own
simulators are never used, so a change to them cannot change the inputs.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

LABELS = ("c.1.1", "c.1.2", "c.2.1", "c.2.2", "c.3.1")
TRUE_OMEGA = {"intra.m1.c1": 0.8, "intra.m1.c2": 0.75, "inter.m1": 0.6}
MISSING = 0.15
GAUSS_MU, GAUSS_SIGMA = 10.0, 2.0

# category probabilities by K; both are symmetric so no category is rare
CATEGORY_P = {
    4: (0.2, 0.3, 0.3, 0.2),
    6: (0.1, 0.15, 0.25, 0.25, 0.15, 0.1),
}


def latent_corr() -> np.ndarray:
    coder = np.array([1, 1, 2, 2, 3])
    corr = np.where(coder[:, None] == coder[None, :], 0.0, TRUE_OMEGA["inter.m1"])
    corr[0, 1] = corr[1, 0] = TRUE_OMEGA["intra.m1.c1"]
    corr[2, 3] = corr[3, 2] = TRUE_OMEGA["intra.m1.c2"]
    np.fill_diagonal(corr, 1.0)
    return corr


def score_grid(seed: int, stream: int, index: int, n_units: int, marginal: str,
               k: int = 0) -> np.ndarray:
    """Units-by-columns scores with NaN for missing cells.

    ``stream`` separates workloads that share a seed and ``index`` the
    datasets of one run; ``marginal`` is ``categorical`` (scores 1..k) or
    ``gaussian``.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
    rng = np.random.default_rng(ss)
    z = rng.standard_normal((n_units, len(LABELS))) @ np.linalg.cholesky(latent_corr()).T
    if marginal == "categorical":
        cuts = np.array([NormalDist().inv_cdf(c) for c in np.cumsum(CATEGORY_P[k])[:-1]])
        y = 1.0 + (z[:, :, None] > cuts).sum(axis=2)
    elif marginal == "gaussian":
        y = GAUSS_MU + GAUSS_SIGMA * z
    else:
        raise ValueError(f"unknown marginal {marginal!r}")
    y[rng.random(y.shape) < MISSING] = np.nan
    return y


def csv_text(grid: np.ndarray) -> str:
    lines = [",".join(LABELS)]
    for row in grid:
        cells = []
        for v in row:
            if np.isnan(v):
                cells.append("NA")
            elif float(v).is_integer():
                cells.append(str(int(v)))
            else:
                cells.append(repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
