"""Symbolic block-diagonal copula correlation structure.

A unit's correlation block depends only on which columns it observed, so the
structure holds one block per distinct pattern, with the flat positions of
the units that share it.  Entries are diagonal ones, structural zeros, or
references to a named agreement parameter.  The blocks are also kept as one
padded stack: the Gaussian core (``block_logdet_quadform``) factors them in
one call and reads of the data only each pattern group's second moment
S_g = Z_g'Z_g, as Hartley & Hocking (1971) group the normal likelihood by
missingness pattern.  The per-unit path is kept in the tests, as its oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
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

    The padded stack: ``lookup`` (G, M, M) holds the codes padded with
    identity to the largest block size M, ``n_group`` each group's unit
    count, and column u of ``positions`` (M, units) one unit's flat
    positions, group by group, padded with ``n`` (index of an appended 0).
    """

    param_names: tuple[str, ...]
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    n: int
    lookup: np.ndarray = field(init=False, repr=False)
    n_group: np.ndarray = field(init=False, repr=False)
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_group = np.array([len(idx) for _, idx in self.groups], dtype=np.intp)
        size = max(len(code) for code, _ in self.groups)
        lookup = np.full((len(self.groups), size, size), ZERO, dtype=np.intp)
        lookup[:, range(size), range(size)] = DIAG
        positions = np.full((size, n_group.sum()), self.n, dtype=np.intp)
        starts = np.cumsum(n_group) - n_group
        for g, (code, idx) in enumerate(self.groups):
            lookup[g, :len(code), :len(code)] = code
            positions[:len(code), starts[g]:starts[g] + len(idx)] = idx.T
        for name, value in zip(("lookup", "n_group", "positions"), (lookup, n_group, positions)):
            object.__setattr__(self, name, value)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def blocks(self, omega) -> np.ndarray:
        """The (G, M, M) stack of correlation blocks at ``omega``."""
        # block codes ZERO = -2 and DIAG = -1 index the trailing 0 and 1
        return np.concatenate((omega, [0.0, 1.0]))[self.lookup]


def weighted_fsum(x, counts) -> float:
    """``math.fsum(np.repeat(x, counts))`` without the repeat.

    Each x splits exactly into hi + lo with 26-bit halves (Veltkamp), so
    ``counts * hi`` and ``counts * lo`` are exact for counts below 2**26 and
    fsum of them is the correctly rounded weighted sum.
    """
    t = x * (2.0 ** 27 + 1.0)
    hi = t - (t - x)
    lo = x - hi
    return math.fsum(np.concatenate((counts * hi, counts * lo)))


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


def block_logdet_quadform(structure: AgreementStructure, omega, s, sq=0.0, grad=None):
    """The Gaussian core -(sum_g n_g log|Omega_g| + <Omega_g^{-1}, S_g> - sq)/2.

    ``s`` is the (G, M, M) stack of ``second_moments``; ``sq`` the sum of
    squares of the -I correction.  Returns None when some block is not
    positive definite (an in-band result callers map to an infinite
    objective).  Sums across blocks are exact, so group order does not matter.
    A given ``grad`` receives the omega-score -1/2 sum_g <n_g A_g - A_g S_g A_g,
    E_gk> (A_g = Omega_g^{-1}, E_gk marks parameter k in block g) when PD.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.shape != (structure.n_params,):
        raise ValueError(f"expected {structure.n_params} agreement parameters, got {omega.shape}")
    if not np.isfinite(omega).all():
        return None
    try:
        chol = np.linalg.cholesky(structure.blocks(omega))
    except np.linalg.LinAlgError:
        return None
    inv_chol = np.linalg.inv(chol)
    a = inv_chol.mT @ inv_chol
    quad = math.fsum((a * s).sum(axis=(1, 2)))
    log_diag = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    logdet = 2.0 * weighted_fsum(log_diag, structure.n_group)
    if grad is not None:  # s holds upper triangles, so S_g = (s + s')/2
        d = structure.n_group[:, None, None] * a - a @ (0.5 * (s + s.mT)) @ a
        free = structure.lookup >= 0
        grad[:] = -0.5 * np.bincount(structure.lookup[free], d[free], minlength=omega.size)
    return -0.5 * logdet - 0.5 * (quad - sq)


def sorted_positions(structure: AgreementStructure, values) -> np.ndarray:
    """``structure.positions`` with each group's units lexsorted by their flat
    ``values``: the same columns for any unit order of the same data."""
    rows = np.append(values, 0.0)[structure.positions]
    group = np.repeat(np.arange(len(structure.n_group)), structure.n_group)
    return structure.positions[:, np.lexsort((*rows[::-1], group))]


def second_moments(structure: AgreementStructure, z, positions) -> np.ndarray:
    """Each group's S_g = Z_g'Z_g of the flat scores ``z``, summed over units in
    the column order of ``positions``, as the upper triangles of a (G, M, M)
    stack with off-diagonal entries doubled."""
    rows = np.append(z, 0.0)[positions]
    m = len(rows)
    starts = np.cumsum(structure.n_group) - structure.n_group
    s = np.zeros((len(starts), m, m))
    for a, b in zip(*np.triu_indices(m)):
        s[:, a, b] = (1.0 if a == b else 2.0) * np.add.reduceat(rows[a] * rows[b], starts)
    return s


def simulate_latent(structure: AgreementStructure, omega, rng) -> np.ndarray:
    """Draw the flat latent Gaussian vector Z ~ N(0, Omega(omega)) blockwise;
    each block is factored unpadded, since padding can move the last bit."""
    blocks = structure.blocks(np.atleast_1d(np.asarray(omega, dtype=float)))
    z = np.empty(structure.n)
    for block, (code, idx) in zip(blocks, structure.groups):
        m = len(code)
        chol = np.linalg.cholesky(block[:m, :m])
        z[idx] = rng.standard_normal((idx.shape[0], m)) @ chol.T
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
