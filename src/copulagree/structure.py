"""Symbolic block-diagonal copula correlation structure.

A unit's correlation block depends only on which columns it observed, so the
structure holds one block per distinct pattern, with the flat positions of
the units that share it.  Entries are diagonal ones, structural zeros, or
references to a named agreement parameter.  All linear algebra is done
blockwise, and each distinct pattern is factorized once per parameter value.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import StructureError
from .scores import ColumnLabel

# Box for agreement parameters: [0, 1 - OMEGA_DELTA].  The lower bound is 0
# because the coefficients measure agreement; the upper gap keeps blocks
# positive definite and gradients finite.
OMEGA_DELTA = 1e-3
OMEGA_MAX = 1.0 - OMEGA_DELTA

DIAG = -1
ZERO = -2


@dataclass(frozen=True, eq=False)
class AgreementStructure:
    """One correlation block per distinct pattern, with named agreement parameters.

    ``groups`` holds one ``(code, idx)`` pair per distinct block, ordered by
    the first unit that has it.  ``code`` is an integer grid over the
    pattern's observed scores: DIAG on the diagonal, ZERO for structural
    zeros, otherwise an index into ``param_names``.  Each row of ``idx`` is
    one unit's flat score positions, units in ascending order; flat score
    vectors (length ``n``) are ordered unit-major, column-ascending.
    """

    param_names: tuple[str, ...]
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    n: int

    @property
    def n_params(self) -> int:
        return len(self.param_names)


def materialize_block(code: np.ndarray, omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    out = np.empty(code.shape, dtype=float)
    out[code == DIAG] = 1.0
    out[code == ZERO] = 0.0
    sel = code >= 0
    out[sel] = omega[code[sel]]
    return out


def _pair_param_name(a: ColumnLabel, b: ColumnLabel, plain_inter: bool) -> str | None:
    """Most-specific shared scope of two score columns; None = structural zero."""
    if a.kind == "gold" or b.kind == "gold":
        if a.method == b.method:
            return f"gold.m{a.method}"
        return None
    if a.method != b.method:
        return "between"
    if a.coder == b.coder:
        return f"intra.m{a.method}.c{a.coder}"
    return "inter" if plain_inter else f"inter.m{a.method}"


def _canonical_order(names: set[str], methods: list[int]) -> list[str]:
    ordered = []
    for m in methods:
        ordered.append(f"gold.m{m}")
        coders = sorted(
            int(nm.rsplit(".c", 1)[1])
            for nm in names
            if nm.startswith(f"intra.m{m}.c")
        )
        ordered.extend(f"intra.m{m}.c{c}" for c in coders)
        ordered.append(f"inter.m{m}")
    ordered.append("inter")
    ordered.append("between")
    return [nm for nm in ordered if nm in names]


def build_structure(labels, observed: np.ndarray) -> AgreementStructure:
    """Build the correlation template from column labels and the observed mask.

    Pair assignment: same coder -> intra; same method, different coders ->
    inter (plain ``inter`` for the single-method, single-score-per-coder,
    no-gold case); gold vs same-method score -> gold; different methods ->
    between; gold vs other-method score -> structural zero.
    """
    labels = tuple(labels)
    observed = np.asarray(observed, dtype=bool)
    if observed.ndim != 2 or observed.shape[1] != len(labels):
        raise ValueError("observed mask shape does not match labels")
    methods = sorted({lab.method for lab in labels})
    coder_methods = {lab.method for lab in labels if lab.kind == "coder"}
    for lab in labels:
        if lab.kind == "gold" and lab.method not in coder_methods:
            raise StructureError(
                f"gold column for method {lab.method} has no coder columns"
            )
    coder_cols = Counter((lab.method, lab.coder) for lab in labels if lab.kind == "coder")
    plain_inter = (
        len(methods) == 1
        and not any(lab.kind == "gold" for lab in labels)
        and all(v == 1 for v in coder_cols.values())
    )

    sizes = observed.sum(axis=1)
    short = np.flatnonzero(sizes < 2)
    if short.size:
        raise ValueError(f"unit {short[0]} has fewer than 2 observed scores")

    names = {
        (a, b): _pair_param_name(labels[a], labels[b], plain_inter)
        for a, b in combinations(range(len(labels)), 2)
    }
    # distinct mask rows in lexicographic order, each with its first unit (a
    # stable sort keeps the lowest index first in every run of equal rows)
    order = np.lexsort(observed.T[::-1])
    ordered = observed[order]
    run_start = np.ones(len(order), dtype=bool)
    run_start[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    masks, first = ordered[run_start], order[run_start]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(run_start) - 1
    together = masks.T @ masks
    param_names = _canonical_order(
        {nm for (a, b), nm in names.items() if nm is not None and together[a, b]},
        methods,
    )
    index = {nm: k for k, nm in enumerate(param_names)}
    full = np.full((len(labels), len(labels)), DIAG, dtype=np.int32)
    for (a, b), nm in names.items():
        full[a, b] = full[b, a] = index.get(nm, ZERO)

    # masks whose blocks coincide share a group; groups are numbered by first unit
    group_of: dict[bytes, int] = {}
    codes = []
    mask_group = np.empty(len(masks), dtype=int)
    for i in np.argsort(first):
        cols = np.flatnonzero(masks[i])
        code = full[cols[:, None], cols]
        key = code.tobytes()
        if key not in group_of:
            group_of[key] = len(codes)
            code.flags.writeable = False
            codes.append(code)
        mask_group[i] = group_of[key]
    unit_group = mask_group[inverse]
    starts = np.cumsum(sizes) - sizes
    groups = tuple(
        (code, starts[np.flatnonzero(unit_group == g), None] + np.arange(len(code)))
        for g, code in enumerate(codes)
    )
    return AgreementStructure(tuple(param_names), groups, int(sizes.sum()))


def _solve_lower_batched(chol: np.ndarray, z_rows: np.ndarray) -> np.ndarray:
    """Forward substitution for many right-hand sides (rows of ``z_rows``).

    Scalar recurrence order is fixed, so each unit's solution is bitwise
    independent of which other units share the batch; combined with the
    order-independent reductions below this makes the objective exactly
    invariant under unit reordering.
    """
    m = chol.shape[0]
    w = np.empty_like(z_rows)
    for k in range(m):
        acc = z_rows[:, k].copy()
        for j in range(k):
            acc -= chol[k, j] * w[:, j]
        w[:, k] = acc / chol[k, k]
    return w


def block_logdet_quadform(structure: AgreementStructure, omega, z):
    """Blockwise log|Omega| and z' Omega^{-1} z via per-pattern Cholesky.

    Returns ``(logdet, quadform)``, or None when some block is not positive
    definite (an in-band result callers map to an infinite objective).
    """
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
        m = materialize_block(code, omega)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return None
        logdet_parts.append(idx.shape[0] * 2.0 * math.fsum(np.log(np.diag(chol))))
        w = _solve_lower_batched(chol, z[idx])
        quad_parts.extend(np.sum(w * w, axis=1))
    return math.fsum(logdet_parts), math.fsum(quad_parts)


def simulate_latent(structure: AgreementStructure, omega, rng) -> np.ndarray:
    """Draw the flat latent Gaussian vector Z ~ N(0, Omega(omega)) blockwise."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    z = np.empty(structure.n)
    for code, idx in structure.groups:
        m = materialize_block(code, omega)
        chol = np.linalg.cholesky(m)
        draws = rng.standard_normal((idx.shape[0], code.shape[0]))
        z[idx] = draws @ chol.T
    return z


def pair_list(structure: AgreementStructure) -> np.ndarray:
    """All within-block nonzero pairs as rows (i, j, param_index), i < j flat,
    in ascending (i, j) order."""
    parts = [np.empty((0, 3), dtype=int)]
    for code, idx in structure.groups:
        r, c = np.nonzero(np.triu(code >= 0, 1))
        parts.append(np.column_stack(
            (idx[:, r].ravel(), idx[:, c].ravel(), np.tile(code[r, c], len(idx)))
        ))
    rows = np.concatenate(parts)
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]
