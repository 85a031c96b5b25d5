import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulagree import ColumnLabel, DataError, LevelError, parse_labels, prepare, read_score_csv
from copulagree import scores
from copulagree.scores import embed_original, format_score_csv

from conftest import FOUR_CODERS, NOMINAL_GRID


def test_parse_labels_accepts_the_four_coder_header():
    check = parse_labels(FOUR_CODERS)
    assert check.success
    assert check.bad_columns == ()
    assert [lab.coder for lab in check.labels] == [1, 2, 3, 4]
    assert all(lab.kind == "coder" and lab.method == 1 and lab.score == 1
               for lab in check.labels)


def test_parse_labels_reports_offending_columns():
    check = parse_labels(["c.a.1", "c.2.1", "c.3.1", "C.4.1"])
    assert not check.success
    assert check.labels is None
    assert check.bad_columns == (1, 4)


def test_parse_labels_allows_duplicates_and_gold():
    check = parse_labels(["g", "c.2.1", "c.1.47", "c.2.1"])
    assert check.success
    assert check.labels[0] == ColumnLabel("gold", method=1)
    assert check.labels[2] == ColumnLabel("coder", method=1, coder=1, score=47)
    assert check.labels[1] == check.labels[3]


def test_parse_labels_multi_method_grammar():
    check = parse_labels(["g", "g.m2", "m2.c.1.1", "m2.c.1.2", "c.3.4"])
    assert check.success
    gold2 = check.labels[1]
    assert gold2.kind == "gold" and gold2.method == 2
    assert check.labels[2] == ColumnLabel("coder", method=2, coder=1, score=1)


@pytest.mark.parametrize("bad", ["c.0.1", "c.1.0", "m0.c.1.1", "g.m0", "G", "C.1.1",
                                 "c.1", "c.1.1.1", "gold", "", "g.", "m1.c.1"])
def test_parse_labels_rejects_malformed(bad):
    check = parse_labels([bad, "c.1.1"])
    assert not check.success
    assert check.bad_columns == (1,)


def test_canonical_text_round_trips():
    cases = [
        ColumnLabel("gold"),
        ColumnLabel("gold", method=3),
        ColumnLabel("coder", method=1, coder=2, score=9),
        ColumnLabel("coder", method=4, coder=11, score=2),
    ]
    for lab in cases:
        parsed = parse_labels([lab.text()])
        assert parsed.success
        assert parsed.labels[0] == lab
    assert ColumnLabel("gold").text() == "g"
    assert ColumnLabel("coder", coder=1, score=2).text() == "c.1.2"
    assert ColumnLabel("coder", method=2, coder=1, score=2).text() == "m2.c.1.2"


def test_prepare_drops_single_score_rows(nominal_data):
    assert nominal_data.n_units == 11
    assert nominal_data.n_scores == 40
    assert nominal_data.retained_rows == tuple(range(11))
    assert nominal_data.n_rows_original == 12
    assert nominal_data.n_categories == 5


def test_prepare_identity_for_complete_grid():
    labels = parse_labels(["c.1.1", "c.2.1"]).labels
    grid = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]])
    sm = prepare(grid, labels, "nominal")
    assert sm.n_units == 3
    assert sm.observed.all()
    assert np.array_equal(sm.values, grid)


def test_prepare_keeps_only_rows_with_two_scores():
    labels = parse_labels(["c.1.1", "c.2.1", "c.3.1"]).labels
    grid = np.array([[1, 2, np.nan], [np.nan, np.nan, 1.0]])
    sm = prepare(grid, labels, "nominal")
    assert sm.n_units == 1
    assert sm.retained_rows == (0,)


def test_prepare_errors():
    labels = parse_labels(["c.1.1", "c.2.1"]).labels
    with pytest.raises(DataError):
        prepare(np.array([[1.0, np.nan], [np.nan, 2.0]]), labels, "nominal")
    with pytest.raises(LevelError):
        prepare(np.array([[1.0, 2.5]]), labels, "nominal")
    with pytest.raises(LevelError):
        prepare(np.array([[0.0, 2.0]]), labels, "ordinal")
    with pytest.raises(LevelError):
        prepare(np.array([[1.0, 7.0]]), labels, "nominal", n_categories=5)
    with pytest.raises(DataError):
        prepare(np.array([[1.0, np.inf]]), labels, "interval")


def test_prepare_is_idempotent(nominal_data):
    again = prepare(nominal_data.grid_with_nan(), nominal_data.labels, "nominal")
    assert again.n_units == nominal_data.n_units
    assert np.array_equal(again.observed, nominal_data.observed)
    assert np.array_equal(again.scores_flat(), nominal_data.scores_flat())
    assert again.n_categories == nominal_data.n_categories


def test_retained_rows_always_have_two_scores():
    labels = parse_labels(["c.1.1", "c.2.1", "c.3.1", "c.4.1"]).labels
    rng = np.random.default_rng(5)
    for _ in range(25):
        grid = rng.integers(1, 4, size=(8, 4)).astype(float)
        grid[rng.random(grid.shape) < 0.55] = np.nan
        try:
            sm = prepare(grid, labels, "nominal")
        except DataError:
            continue
        assert (sm.observed.sum(axis=1) >= 2).all()


def test_with_scores_flat_roundtrip(nominal_data):
    flat = nominal_data.scores_flat()
    other = nominal_data.with_scores_flat(flat[::-1])
    assert np.array_equal(other.scores_flat(), flat[::-1])
    assert np.array_equal(other.observed, nominal_data.observed)


def test_embed_original_restores_shape(nominal_data):
    values, observed = embed_original(nominal_data)
    assert values.shape == (12, 4)
    assert not observed[11].any()  # dropped single-score row comes back unobserved
    assert np.array_equal(observed[:11], nominal_data.observed)
    assert np.array_equal(values[:11][nominal_data.observed], nominal_data.scores_flat())


def test_read_score_csv_matches_prepare(nominal_data, tmp_path):
    path = tmp_path / "scores.csv"
    rows = ["c.1.1,c.2.1,c.3.1,c.4.1"]
    for row in NOMINAL_GRID:
        rows.append(",".join("NA" if np.isnan(v) else str(int(v)) for v in row))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    sm = read_score_csv(path, "nominal")
    assert np.array_equal(sm.observed, nominal_data.observed)
    assert np.array_equal(sm.scores_flat(), nominal_data.scores_flat())


def test_read_score_csv_empty_cell_is_missing():
    sm = read_score_csv(io.StringIO("c.1.1,c.2.1\n1,2\n,3\n2,1\n"), "nominal")
    assert sm.n_units == 2  # second row has a single score


def test_read_score_csv_rejects_bad_headers_and_cells():
    with pytest.raises(DataError, match="cols 1"):
        read_score_csv(io.StringIO("x.1,c.2.1\n1,2\n"), "nominal")
    with pytest.raises(DataError, match="row 2"):
        read_score_csv(io.StringIO("c.1.1,c.2.1\n1,abc\n"), "nominal")
    with pytest.raises(DataError):
        read_score_csv(io.StringIO(""), "nominal")
    # lowercase na is not a missing marker
    with pytest.raises(DataError):
        read_score_csv(io.StringIO("c.1.1,c.2.1\n1,na\n"), "nominal")


CELLS = st.one_of(
    st.sampled_from(["", " ", "NA", " NA ", "\tNA", "na", "nan", " NaN", "-nan", "inf", "-inf",
                     "1e400", "1_000", "1__0", "_1", "1_", "x", "\t2.5 ", "\x0b7\u3000", "+3",
                     "-0", "\u0661"]),
    st.floats().map(repr),
    st.integers(-9, 9).map(str),
    st.text(alphabet=" \t\xa0_.-+0123456789eNAnif", max_size=6),
)


def parse_cell_by_cell(rows, width):
    """The grid of CSV body ``rows`` parsed one stripped cell at a time, or
    the DataError text that names the first row and column that fail."""
    grid = []
    for r, row in enumerate(rows, start=2):
        if len(row) != width:
            return f"row {r} has {len(row)} cells, expected {width}"
        parsed = []
        for c, cell in enumerate(row, start=1):
            cell = cell.strip()
            if cell == "" or cell == "NA":
                parsed.append(np.nan)
                continue
            try:
                parsed.append(float(cell))
            except ValueError:
                return f"row {r}, column {c}: cannot parse {cell!r} as a score"
        grid.append(parsed)
    return np.asarray(grid) if grid else "CSV has a header but no data rows"


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.lists(CELLS, min_size=width, max_size=width)
             | st.lists(CELLS, min_size=1, max_size=width + 1), max_size=6))))
def test_read_score_csv_parses_as_the_cell_loop(case):
    # the one-pass parse must give the per-cell loop's grid, NaN mask and
    # error text
    width, body = case
    header = ",".join(f"c.{j}.1" for j in range(1, width + 1))
    text = "\n".join([header] + [",".join(row) for row in body]) + "\n"
    with mock.patch.object(scores, "prepare", lambda grid, *args: grid):
        try:
            fast = read_score_csv(io.StringIO(text), "interval")
        except DataError as exc:
            fast = str(exc)
    loop = parse_cell_by_cell(list(csv.reader(io.StringIO(text)))[1:], width)
    if isinstance(loop, str):
        assert fast == loop
    else:
        assert fast.shape == loop.shape
        assert np.array_equal(np.isnan(fast), np.isnan(loop))
        assert np.array_equal(fast, loop, equal_nan=True)


def test_format_score_csv_round_trip(nominal_data):
    values, observed = embed_original(nominal_data)
    text = format_score_csv(nominal_data.labels, values, observed)
    sm = read_score_csv(io.StringIO(text), "nominal")
    assert np.array_equal(sm.observed, nominal_data.observed)
    assert np.array_equal(sm.scores_flat(), nominal_data.scores_flat())
