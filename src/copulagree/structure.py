"""Symbolic block-diagonal copula correlation structure.

Each retained unit contributes one block over its observed scores.  Entries
are diagonal ones, structural zeros, or references to a named agreement
parameter.  The blocks are never assembled into the full matrix; all linear
algebra is done blockwise, with identical blocks grouped so each distinct
pattern is factorized once per parameter value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Per-unit correlation blocks with named agreement parameters.

    ``blocks[i]`` is an integer grid over unit i's observed scores: DIAG on
    the diagonal, ZERO for structural zeros, otherwise an index into
    ``param_names``.  ``block_cols[i]`` holds the score-column indices the
    block rows refer to, in ascending order; flat score vectors are ordered
    unit-major, column-ascending.
    """

    param_names: tuple[str, ...]
    blocks: tuple[np.ndarray, ...]
    block_cols: tuple[np.ndarray, ...]
    n: int
    _groups: list = field(init=False, repr=False)

    def __post_init__(self):
        offsets = np.concatenate(([0], np.cumsum([len(b) for b in self.blocks])))
        groups: dict[bytes, list[int]] = {}
        for i, code in enumerate(self.blocks):
            groups.setdefault(code.tobytes() + bytes([code.shape[0]]), []).append(i)
        packed = []
        for members in groups.values():
            code = self.blocks[members[0]]
            m = code.shape[0]
            idx = np.empty((len(members), m), dtype=int)
            for r, i in enumerate(members):
                idx[r] = np.arange(offsets[i], offsets[i] + m)
            packed.append((code, idx))
        object.__setattr__(self, "_groups", packed)
        object.__setattr__(self, "_offsets", offsets)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def n_units(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> list[int]:
        return [len(b) for b in self.blocks]

    def materialize(self, i: int, omega) -> np.ndarray:
        return materialize_block(self.blocks[i], omega)

    def summary(self) -> str:
        sizes = " ".join(str(s) for s in self.block_sizes())
        return (
            f"parameters: {' '.join(self.param_names)}\n"
            f"unit block sizes: {sizes}"
        )


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
    coder_cols: dict[tuple[int, int], int] = {}
    for lab in labels:
        if lab.kind == "coder":
            key = (lab.method, lab.coder)
            coder_cols[key] = coder_cols.get(key, 0) + 1
    plain_inter = (
        len(methods) == 1
        and not any(lab.kind == "gold" for lab in labels)
        and all(v == 1 for v in coder_cols.values())
    )

    used: set[str] = set()
    unit_pairs = []
    for u in range(observed.shape[0]):
        cols = np.flatnonzero(observed[u])
        if len(cols) < 2:
            raise ValueError(f"unit {u} has fewer than 2 observed scores")
        pairs = {}
        for r in range(len(cols)):
            for c in range(r + 1, len(cols)):
                nm = _pair_param_name(labels[cols[r]], labels[cols[c]], plain_inter)
                pairs[(r, c)] = nm
                if nm is not None:
                    used.add(nm)
        unit_pairs.append((cols, pairs))

    param_names = _canonical_order(used, methods)
    index = {nm: k for k, nm in enumerate(param_names)}

    blocks, block_cols = [], []
    total = 0
    for cols, pairs in unit_pairs:
        m = len(cols)
        code = np.full((m, m), DIAG, dtype=np.int32)
        for (r, c), nm in pairs.items():
            code[r, c] = code[c, r] = ZERO if nm is None else index[nm]
        code.flags.writeable = False
        blocks.append(code)
        block_cols.append(cols)
        total += m
    return AgreementStructure(tuple(param_names), tuple(blocks), tuple(block_cols), total)


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
    for code, idx in structure._groups:
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
    for code, idx in structure._groups:
        m = materialize_block(code, omega)
        chol = np.linalg.cholesky(m)
        draws = rng.standard_normal((idx.shape[0], code.shape[0]))
        z[idx] = draws @ chol.T
    return z


def pair_list(structure: AgreementStructure) -> np.ndarray:
    """All within-block nonzero pairs as rows (i, j, param_index), i < j flat."""
    rows = []
    offsets = structure._offsets
    for u, code in enumerate(structure.blocks):
        base = offsets[u]
        m = code.shape[0]
        for r in range(m):
            for c in range(r + 1, m):
                k = code[r, c]
                if k >= 0:
                    rows.append((base + r, base + c, k))
    if not rows:
        return np.empty((0, 3), dtype=int)
    return np.asarray(rows, dtype=int)
