"""Score-matrix data model: column-label grammar, validation, missingness bookkeeping.

The expected input is a units-by-columns grid of scores.  Column labels tell
the model who produced each column:

* ``g``                       gold standard (method 1)
* ``g.m<m>``                  gold standard for method ``m``
* ``c.<coder>.<score>``       score replicate of a coder (method 1)
* ``m<m>.c.<coder>.<score>``  score replicate of a coder of method ``m``

Labels are case-sensitive and indices are positive integers.  Duplicate
labels pass the (rudimentary) check; each column is treated as a distinct
score replicate.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DataError, LevelError

LEVELS = ("nominal", "ordinal", "interval", "ratio")

_GOLD_RE = re.compile(r"^g(?:\.m([1-9][0-9]*))?$")
_CODER_RE = re.compile(r"^(?:m([1-9][0-9]*)\.)?c\.([1-9][0-9]*)\.([1-9][0-9]*)$")


@dataclass(frozen=True)
class ColumnLabel:
    """A parsed column label; ``coder``/``score`` are None for gold columns."""

    kind: str  # "gold" | "coder"
    method: int = 1
    coder: int | None = None
    score: int | None = None

    def __post_init__(self):
        if self.kind not in ("gold", "coder"):
            raise ValueError(f"unknown label kind {self.kind!r}")
        if self.kind == "gold" and (self.coder is not None or self.score is not None):
            raise ValueError("gold labels carry no coder/score indices")
        if self.kind == "coder" and (self.coder is None or self.score is None):
            raise ValueError("coder labels need coder and score indices")

    def text(self) -> str:
        """Canonical text form; ``parse_labels([label.text()])`` round-trips."""
        if self.kind == "gold":
            return "g" if self.method == 1 else f"g.m{self.method}"
        if self.method == 1:
            return f"c.{self.coder}.{self.score}"
        return f"m{self.method}.c.{self.coder}.{self.score}"


@dataclass(frozen=True)
class LabelCheck:
    """Result of the rudimentary column-name check."""

    success: bool
    labels: tuple[ColumnLabel, ...] | None
    bad_columns: tuple[int, ...]  # 1-based indices of offending columns


def parse_label(header: str) -> ColumnLabel | None:
    m = _GOLD_RE.match(header)
    if m:
        return ColumnLabel("gold", method=int(m.group(1) or 1))
    m = _CODER_RE.match(header)
    if m:
        return ColumnLabel(
            "coder",
            method=int(m.group(1) or 1),
            coder=int(m.group(2)),
            score=int(m.group(3)),
        )
    return None


def parse_labels(headers) -> LabelCheck:
    """Check column names and parse them into :class:`ColumnLabel` values.

    Failures are reported in-band: ``success`` is False and ``bad_columns``
    holds the 1-based indices of the offending columns.  Duplicates are not
    rejected.
    """
    headers = list(headers)
    if not headers:
        raise ValueError("headers must be nonempty")
    labels, bad = [], []
    for i, h in enumerate(headers, start=1):
        lab = parse_label(h)
        if lab is None:
            bad.append(i)
        else:
            labels.append(lab)
    if bad:
        return LabelCheck(False, None, tuple(bad))
    return LabelCheck(True, tuple(labels), ())


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Retained units-by-columns scores with an explicit observedness mask.

    ``values`` holds the scores of retained rows (rows with >= 2 observed
    scores); entries where ``observed`` is False are meaningless.  Missing
    data are carried by the mask, never by a sentinel value.
    ``retained_rows`` maps retained rows back to 0-based rows of the
    original grid so derived data can be re-embedded in the original shape.
    """

    values: np.ndarray
    observed: np.ndarray
    labels: tuple[ColumnLabel, ...]
    level: str
    retained_rows: tuple[int, ...]
    n_rows_original: int
    n_categories: int | None

    @property
    def n_units(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def n_scores(self) -> int:
        return int(self.observed.sum())

    def scores_flat(self) -> np.ndarray:
        """Observed scores in row-major (unit, column) order."""
        return self.values[self.observed]

    def with_scores_flat(self, flat: np.ndarray) -> "ScoreMatrix":
        """Same shape and mask, observed cells replaced by ``flat`` (row-major)."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_scores,):
            raise ValueError(f"expected {self.n_scores} scores, got {flat.shape}")
        values = np.zeros_like(self.values)
        values[self.observed] = flat
        values.flags.writeable = False
        return ScoreMatrix(
            values, self.observed, self.labels, self.level,
            self.retained_rows, self.n_rows_original, self.n_categories,
        )


def prepare(values, labels, level: str, n_categories: int | None = None) -> ScoreMatrix:
    """Validate a raw grid and drop rows with fewer than two observed scores.

    ``values`` is an array-like of floats with NaN marking missing entries.
    ``n_categories`` pins K for nominal/ordinal data (used by refits that
    must keep the parameter dimension of a base fit); by default K is the
    maximum observed value.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    labels = tuple(labels)
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"score grid must be 2-D, got shape {arr.shape}")
    if arr.shape[1] != len(labels):
        raise DataError(
            f"grid has {arr.shape[1]} columns but {len(labels)} labels were given"
        )
    if np.isinf(arr).any():
        raise DataError("score grid contains infinite values")

    observed = ~np.isnan(arr)
    keep = observed.sum(axis=1) >= 2
    if not keep.any():
        raise DataError("no unit has two or more observed scores; nothing to fit")
    retained = np.flatnonzero(keep)
    vals = np.where(observed[retained], arr[retained], 0.0)
    mask = observed[retained]

    if level in ("nominal", "ordinal"):
        obs = vals[mask]
        if not np.allclose(obs, np.round(obs), rtol=0.0, atol=0.0):
            raise LevelError(f"{level} scores must be integers")
        obs = obs.astype(int)
        if (obs < 1).any():
            raise LevelError(f"{level} scores must be positive integers (1..K)")
        k_max = int(obs.max())
        if n_categories is None:
            n_categories = k_max
        elif k_max > n_categories:
            raise LevelError(
                f"observed category {k_max} exceeds declared n_categories={n_categories}"
            )
    else:
        n_categories = None

    vals = vals.copy()
    vals.flags.writeable = False
    mask = mask.copy()
    mask.flags.writeable = False
    return ScoreMatrix(
        vals, mask, labels, level,
        tuple(retained.tolist()), arr.shape[0], n_categories,
    )


def embed_original(matrix: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Place retained rows back into the original grid shape.

    Returns ``(values, observed)`` of shape ``(n_rows_original, n_cols)``;
    rows that were dropped during preparation come back fully unobserved.
    """
    values = np.zeros((matrix.n_rows_original, matrix.n_cols))
    observed = np.zeros_like(values, dtype=bool)
    rows = np.asarray(matrix.retained_rows, dtype=int)
    values[rows] = matrix.values
    observed[rows] = matrix.observed
    return values, observed


def read_score_csv(source, level: str, n_categories: int | None = None) -> ScoreMatrix:
    """Read the CSV score format: label header row, units as rows, NA/empty = missing."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        # utf-8-sig drops the byte order mark that spreadsheet exports write
        with open(source, newline="", encoding="utf-8-sig") as fh:
            return read_score_csv(fh, level, n_categories)
    rows = list(csv.reader(source))
    if not rows:
        raise DataError("empty CSV file")
    check = parse_labels(rows[0])
    if not check.success:
        cols = " ".join(str(c) for c in check.bad_columns)
        raise DataError(f"column labels failed check: cols {cols}")
    body, width = rows[1:], len(check.labels)
    grid = None
    if set(map(len, body)) == {width}:
        # one pass; float() strips whitespace as str.strip() does (" NA" fails)
        cells = [*chain.from_iterable(body)]
        with contextlib.suppress(ValueError):
            grid = np.array([*map(float, map({"": "nan", "NA": "nan"}.get, cells, cells))])
            grid = grid.reshape(-1, width)
    if grid is None:  # cell by cell, to name the first row and column that do not parse
        grid = []
        for r, row in enumerate(body, start=2):
            if len(row) != width:
                raise DataError(f"row {r} has {len(row)} cells, expected {width}")
            parsed = []
            for c, cell in enumerate(row, start=1):
                cell = cell.strip()
                if cell == "" or cell == "NA":
                    parsed.append(np.nan)
                    continue
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(f"row {r}, column {c}: cannot parse {cell!r} as a score")
            grid.append(parsed)
        if not grid:
            raise DataError("CSV has a header but no data rows")
    return prepare(np.asarray(grid), check.labels, level, n_categories)


def format_score_csv(labels, values: np.ndarray, observed: np.ndarray) -> str:
    """Render a grid in the CSV score format (NA for missing cells)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([lab.text() for lab in labels])
    for i in range(values.shape[0]):
        row = []
        for j in range(values.shape[1]):
            if not observed[i, j]:
                row.append("NA")
            else:
                v = values[i, j]
                row.append(str(int(v)) if float(v).is_integer() else repr(float(v)))
        writer.writerow(row)
    return buf.getvalue()
