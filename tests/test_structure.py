import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulagree import StructureError, block_logdet_quadform, build_structure, pair_list, parse_labels
from copulagree.structure import (
    DIAG,
    ZERO,
    AgreementStructure,
    _pair_param_name,
    simulate_latent,
)

from conftest import nominal_matrix
from oracle import materialize_block, unit_logdet_quadform


def labels_of(headers):
    return parse_labels(headers).labels


def unit_codes(structure):
    """Per-unit block codes in unit order, read back from the pattern groups."""
    by_start = {}
    for code, idx in structure.groups:
        for row in idx:
            by_start[row[0]] = code
    return [by_start[k] for k in sorted(by_start)]


def dense_from_codes(codes, omega):
    """Dense block-diagonal oracle matrix from per-unit codes."""
    blocks = [materialize_block(code, omega) for code in codes]
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        m = b.shape[0]
        out[at:at + m, at:at + m] = b
        at += m
    return out


def dense_omega(structure, omega):
    return dense_from_codes(unit_codes(structure), omega)


def block_sizes(structure):
    return [len(code) for code in unit_codes(structure)]


def test_four_coder_structure_matches_reference_listing():
    sm = nominal_matrix()
    s = build_structure(sm.labels, sm.observed)
    assert s.param_names == ("inter",)
    assert block_sizes(s) == [3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 2]
    assert s.n == 40
    # first 7x7 corner of the dense matrix with the dummy value 0.1
    corner = dense_omega(s, [0.1])[:7, :7]
    expected = np.array([
        [1.0, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0],
        [0.1, 1.0, 0.1, 0.0, 0.0, 0.0, 0.0],
        [0.1, 0.1, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.1, 0.1, 0.1],
        [0.0, 0.0, 0.0, 0.1, 1.0, 0.1, 0.1],
        [0.0, 0.0, 0.0, 0.1, 0.1, 1.0, 0.1],
        [0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 1.0],
    ])
    assert corner == pytest.approx(expected)


def test_gold_standard_block():
    labs = labels_of(["g", "c.1.1", "c.2.1"])
    s = build_structure(labs, np.ones((1, 3), dtype=bool))
    assert s.param_names == ("gold.m1", "inter.m1")
    block = materialize_block(unit_codes(s)[0], [0.3, 0.7])
    expected = np.array([
        [1.0, 0.3, 0.3],
        [0.3, 1.0, 0.7],
        [0.3, 0.7, 1.0],
    ])
    assert block == pytest.approx(expected)


def test_multi_method_structure():
    headers = ["g.m1", "m1.c.1.1", "m1.c.1.2", "m1.c.2.1", "m1.c.2.2",
               "m2.c.1.1", "m2.c.1.2", "m2.c.2.1", "m2.c.2.2"]
    labs = labels_of(headers)
    s = build_structure(labs, np.ones((1, 9), dtype=bool))
    assert s.param_names == (
        "gold.m1", "intra.m1.c1", "intra.m1.c2", "inter.m1",
        "intra.m2.c1", "intra.m2.c2", "inter.m2", "between",
    )
    code = unit_codes(s)[0]
    # gold vs method-2 scores is a structural zero
    assert (code[0, 5:] == ZERO).all()
    assert (code[5:, 0] == ZERO).all()
    # gold vs every method-1 score shares the gold parameter
    assert (code[0, 1:5] == s.param_names.index("gold.m1")).all()
    # same coder, same method -> intra
    assert code[1, 2] == s.param_names.index("intra.m1.c1")
    assert code[7, 8] == s.param_names.index("intra.m2.c2")
    # cross coders within a method -> inter; across methods -> between
    assert code[1, 3] == s.param_names.index("inter.m1")
    assert code[5, 7] == s.param_names.index("inter.m2")
    assert code[1, 5] == s.param_names.index("between")
    assert (np.diag(code) == DIAG).all()


def test_single_method_with_replicates_uses_method_scoped_names():
    labs = labels_of(["c.1.1", "c.1.2", "c.2.1"])
    s = build_structure(labs, np.ones((1, 3), dtype=bool))
    assert s.param_names == ("intra.m1.c1", "inter.m1")


def test_gold_without_coders_is_an_error():
    labs = labels_of(["g.m2", "c.1.1", "c.2.1"])
    with pytest.raises(StructureError):
        build_structure(labs, np.ones((1, 3), dtype=bool))


def test_logdet_quadform_identity_at_zero():
    sm = nominal_matrix()
    s = build_structure(sm.labels, sm.observed)
    rng = np.random.default_rng(0)
    z = rng.normal(size=s.n)
    logdet, quad = unit_logdet_quadform(s, [0.0], z)
    assert logdet == 0.0
    assert quad == pytest.approx(z @ z, rel=1e-14)


def test_compound_symmetry_closed_form_logdet():
    rng = np.random.default_rng(1)
    for m in (2, 3, 4, 6):
        labs = labels_of([f"c.{j}.1" for j in range(1, m + 1)])
        s = build_structure(labs, np.ones((1, m), dtype=bool))
        for omega in rng.uniform(0.0, 0.95, size=8):
            z = rng.normal(size=m)
            logdet, _ = unit_logdet_quadform(s, [omega], z)
            closed = (m - 1) * np.log(1 - omega) + np.log(1 + (m - 1) * omega)
            assert logdet == pytest.approx(closed, abs=1e-10)


def test_non_positive_definite_is_in_band():
    headers = ["m1.c.1.1", "m1.c.2.1", "m2.c.1.1", "m2.c.2.1"]
    labs = labels_of(headers)
    s = build_structure(labs, np.ones((1, 4), dtype=bool))
    assert s.param_names == ("inter.m1", "inter.m2", "between")
    omega = np.array([0.0, 0.0, 0.99])
    dense = dense_omega(s, omega)
    assert np.linalg.eigvalsh(dense).min() < 0  # oracle: truly not PD
    assert block_logdet_quadform(s, omega, np.zeros(s.lookup.shape)) is None


def test_blockwise_matches_dense_oracle():
    sm = nominal_matrix()
    s = build_structure(sm.labels, sm.observed)
    rng = np.random.default_rng(2)
    for omega in rng.uniform(0.0, 0.95, size=10):
        z = rng.normal(size=s.n)
        logdet, quad = unit_logdet_quadform(s, [omega], z)
        dense = dense_omega(s, [omega])
        sign, ref_logdet = np.linalg.slogdet(dense)
        assert sign == 1.0
        assert logdet == pytest.approx(ref_logdet, abs=1e-9)
        assert quad == pytest.approx(z @ np.linalg.solve(dense, z), abs=1e-9)


def test_structure_invariant_to_column_order():
    sm = nominal_matrix()
    s = build_structure(sm.labels, sm.observed)
    perm = [2, 0, 3, 1]
    labs_p = tuple(sm.labels[j] for j in perm)
    s_p = build_structure(labs_p, sm.observed[:, perm])
    assert s_p.param_names == s.param_names
    assert sorted(block_sizes(s_p)) == sorted(block_sizes(s))
    rng = np.random.default_rng(3)
    z_grid = np.where(sm.observed, rng.normal(size=sm.observed.shape), 0.0)
    z = z_grid[sm.observed]
    z_p = z_grid[:, perm][sm.observed[:, perm]]
    for omega in (0.2, 0.7):
        assert unit_logdet_quadform(s, [omega], z) == pytest.approx(
            unit_logdet_quadform(s_p, [omega], z_p), abs=1e-10
        )


def test_pair_list_counts():
    labs = labels_of(["c.1.1", "c.2.1", "c.3.1"])
    s = build_structure(labs, np.ones((1, 3), dtype=bool))
    assert pair_list(s).shape == (3, 3)

    sm = nominal_matrix()
    s2 = build_structure(sm.labels, sm.observed)
    m = sm.observed.sum(axis=1)
    expected = int(np.sum(m * (m - 1) // 2))  # combinatorial oracle from the mask
    assert expected == 55
    pairs = pair_list(s2)
    assert pairs.shape == (expected, 3)
    assert (pairs[:, 2] == 0).all()
    assert (pairs[:, 0] < pairs[:, 1]).all()


def test_pair_list_skips_structural_zeros_and_lone_blocks():
    # two isolated 1x1 blocks, assembled directly
    one = np.array([[DIAG]], dtype=np.int32)
    s = AgreementStructure(("inter",), ((one, np.array([[0], [1]])),), 2)
    assert pair_list(s).size == 0

    headers = ["g.m1", "m1.c.1.1", "m2.c.1.1"]
    s2 = build_structure(labels_of(headers), np.ones((1, 3), dtype=bool))
    pairs = pair_list(s2)
    # gold vs method-2 pair is a structural zero and must be absent
    assert len(pairs) == 2
    kinds = {s2.param_names[k] for k in pairs[:, 2]}
    assert kinds == {"gold.m1", "between"}


def test_simulate_latent_matches_target_correlation():
    labs = labels_of(["c.1.1", "c.2.1"])
    s = build_structure(labs, np.ones((4000, 2), dtype=bool))
    z = simulate_latent(s, [0.8], np.random.default_rng(4)).reshape(4000, 2)
    assert np.corrcoef(z[:, 0], z[:, 1])[0, 1] == pytest.approx(0.8, abs=0.03)
    assert z[:, 0].std() == pytest.approx(1.0, abs=0.05)


def test_simulate_latent_draws_each_block_from_its_own_factor():
    sm = nominal_matrix()
    s = build_structure(sm.labels, sm.observed)
    rng = np.random.default_rng(5)
    expected = np.empty(s.n)
    for code, idx in s.groups:
        chol = np.linalg.cholesky(materialize_block(code, [0.6]))
        expected[idx] = rng.standard_normal(idx.shape) @ chol.T
    assert np.array_equal(simulate_latent(s, [0.6], np.random.default_rng(5)), expected)


def test_omega_dimension_checked(nominal_data):
    s = build_structure(nominal_data.labels, nominal_data.observed)
    with pytest.raises(ValueError):
        block_logdet_quadform(s, [0.1, 0.2], np.zeros(s.lookup.shape))
    assert block_logdet_quadform(s, [np.nan], np.zeros(s.lookup.shape)) is None


@st.composite
def labelled_masks(draw):
    """Labels (1-2 methods, 1-3 coders, 1-2 replicates, optional gold), a
    mask whose rows each observe at least two columns, and a seed."""
    n_methods = draw(st.integers(1, 2))
    n_coders = draw(st.integers(1, 3))
    n_reps = draw(st.integers(1, 2))
    gold = draw(st.booleans())
    headers = []
    for m in range(1, n_methods + 1):
        headers += [f"g.m{m}"] * gold
        headers += [f"m{m}.c.{c}.{r}" for c in range(1, n_coders + 1)
                    for r in range(1, n_reps + 1)]
    if len(headers) < 2:
        return None
    row = st.lists(st.booleans(), min_size=len(headers), max_size=len(headers))
    mask = draw(st.lists(row.filter(lambda r: sum(r) >= 2), min_size=1, max_size=8))
    plain = n_methods == 1 and not gold and n_reps == 1
    return labels_of(headers), np.array(mask, dtype=bool), plain, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=50, deadline=None)
@given(labelled_masks().filter(lambda case: case is not None))
def test_groups_match_per_unit_enumeration(case):
    labels, mask, plain, seed = case
    s = build_structure(labels, mask)
    # per-unit reference codes and pairs, straight from the pair-naming rule
    expected_codes, expected_pairs, used = [], [], set()
    base = 0
    for row in mask:
        cols = np.flatnonzero(row)
        code = np.full((len(cols), len(cols)), DIAG)
        for r in range(len(cols)):
            for c in range(r + 1, len(cols)):
                nm = _pair_param_name(labels[cols[r]], labels[cols[c]], plain)
                code[r, c] = code[c, r] = ZERO if nm is None else s.param_names.index(nm)
                if nm is not None:
                    used.add(nm)
                    expected_pairs.append((base + r, base + c, code[r, c]))
        expected_codes.append(code)
        base += len(cols)
    assert set(s.param_names) == used
    assert s.n == base
    got = unit_codes(s)
    assert len(got) == len(expected_codes)
    for a, b in zip(got, expected_codes):
        assert np.array_equal(a, b)
    firsts = [idx[0, 0] for _, idx in s.groups]
    assert firsts == sorted(firsts)
    expected_pairs = np.array(expected_pairs, dtype=int).reshape(-1, 3)
    assert np.array_equal(pair_list(s), expected_pairs)

    # entries below 1/(k-1) make every block strictly diagonally dominant,
    # hence positive definite
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 0.9 / (mask.shape[1] - 1), size=s.n_params)
    z = rng.normal(size=s.n)
    logdet, quad = unit_logdet_quadform(s, omega, z)
    dense = dense_from_codes(expected_codes, omega)
    sign, ref_logdet = np.linalg.slogdet(dense)
    assert sign == 1.0
    assert logdet == pytest.approx(ref_logdet, abs=1e-9)
    assert quad == pytest.approx(z @ np.linalg.solve(dense, z), abs=1e-9)
