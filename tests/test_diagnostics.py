import numpy as np
import pytest

from copulagree import (
    ConfigError,
    DataError,
    DegenerateDataError,
    aic_bic,
    build_structure,
    fit_agreement,
    influence,
    information_criteria,
    krippendorff_alpha,
    model_probability,
    parse_labels,
    prepare,
    simulate_flat,
    simulate_scores,
)
from copulagree.diagnostics import _alpha_value
from copulagree.marginals import Categorical

from conftest import NOMINAL_GRID, nominal_matrix, make_pair_data


def brute_alpha(unit_values):
    """Independent oracle: direct double loops over pairs, with-replacement margins."""
    units = [list(v) for v in unit_values if len(v) >= 2]
    n = sum(len(u) for u in units)
    do = sum(
        sum(1.0 for a in u for b in u if a != b) / (len(u) - 1) for u in units
    ) / n
    allv = [v for u in units for v in u]
    de = sum(1.0 for a in allv for b in allv if a != b) / (n * n)
    return 1.0 - do / de if de > 0 else 1.0


class TestInfluence:
    def test_reference_unit_and_coder_rows(self, nominal_fit):
        rep = influence(nominal_fit, units=[6, 11], coders=[2, 3])
        assert rep.param_names == ("inter", "p1", "p2", "p3", "p4", "p5")
        assert rep.dfbeta_units[0][0] == pytest.approx(-0.07914843, abs=5e-3)
        assert rep.dfbeta_units[1][0] == pytest.approx(0.01096758, abs=5e-3)
        assert rep.dfbeta_coders[0][0] == pytest.approx(0.0579843781, abs=5e-3)
        assert rep.dfbeta_coders[1][0] == pytest.approx(-0.0008664934, abs=5e-3)
        # relative influence of the discordant unit
        delta = abs(rep.dfbeta_units[0][0]) / nominal_fit.estimates[0]
        assert delta == pytest.approx(0.09, abs=0.01)
        assert not rep.failed_units and not rep.failed_coders

    def test_absent_entity_is_a_no_op(self, nominal_fit):
        rep = influence(nominal_fit, units=[12])  # row 12 was dropped at preparation
        assert np.array_equal(rep.dfbeta_units[0], np.zeros(6))

    def test_failed_refit_is_flagged(self, nominal_fit):
        rep = influence(nominal_fit, coders=[2], units=[])
        assert rep.failed_coders == ()
        # dropping coder 1 leaves the method-2 gold column without coders
        labels = parse_labels(["g.m2", "m2.c.1.1", "m1.c.1.1", "m1.c.2.1"]).labels
        grid = NOMINAL_GRID[:, [0, 3, 1, 2]]
        multi = fit_agreement(prepare(grid, labels, "nominal"), confint="none", seed=7)
        rep3 = influence(multi, coders=[1])
        assert rep3.failed_coders == (1,)
        assert np.isnan(rep3.dfbeta_coders[0]).all()

    @pytest.mark.parametrize("units, coders, named", [
        ([999], [], "unit 999"), ([0], [], "unit 0"), ([-1], [], "unit -1"),
        ([13], [], "unit 13"), ([], [9], "coder 9"), ([], [0], "coder 0"),
    ])
    def test_indices_outside_the_input_are_config_errors(self, nominal_fit, units,
                                                         coders, named):
        # the input has rows 1..12 and coders 1..4
        with pytest.raises(ConfigError, match=f"^{named} "):
            influence(nominal_fit, units=units, coders=coders)

    def test_coder_owning_an_intra_parameter_is_compared_by_name(self):
        # coders 1 and 2 score twice and own intra.m1.c1 / intra.m1.c2, which
        # vanish when they are dropped; the shared parameters still get DFBETAs
        headers = ["c.1.1", "c.1.2", "c.2.1", "c.2.2", "c.3.1"]
        corr = np.full((5, 5), 0.6)
        corr[:2, :2] = 0.8
        corr[2:4, 2:4] = 0.75
        np.fill_diagonal(corr, 1.0)
        rng = np.random.default_rng(1)
        grid = 10.0 + 2.0 * rng.standard_normal((200, 5)) @ np.linalg.cholesky(corr).T
        grid[rng.random(grid.shape) < 0.15] = np.nan
        data = prepare(grid, parse_labels(headers).labels, "interval")
        fit = fit_agreement(data, confint="none", seed=1)
        assert fit.param_names[:3] == ("intra.m1.c1", "intra.m1.c2", "inter.m1")
        rep = influence(fit, coders=[1, 2, 3])
        assert rep.failed_coders == ()
        missing = np.isnan(rep.dfbeta_coders)
        assert missing[0].tolist() == [True, False] + [False] * (len(fit.param_names) - 2)
        assert missing[1].tolist() == [False, True] + [False] * (len(fit.param_names) - 2)
        assert not missing[2].any()

    def test_plain_inter_refit_matches_the_method_inter_parameter(self):
        # without coder 1, each remaining coder scores once, so the refit's
        # structure names the inter-coder parameter plain ``inter``
        headers = ["c.1.1", "c.1.2", "c.2.1", "c.3.1"]
        corr = np.full((4, 4), 0.6)
        corr[:2, :2] = 0.8
        np.fill_diagonal(corr, 1.0)
        rng = np.random.default_rng(2)
        grid = 10.0 + 2.0 * rng.standard_normal((80, 4)) @ np.linalg.cholesky(corr).T
        fit = fit_agreement(prepare(grid, parse_labels(headers).labels, "interval"),
                            confint="none", seed=1)
        assert fit.param_names[:2] == ("intra.m1.c1", "inter.m1")
        rep = influence(fit, coders=[1])
        assert rep.failed_coders == ()
        assert np.isnan(rep.dfbeta_coders[0]).tolist() == (
            [True] + [False] * (len(fit.param_names) - 1))


class TestSimulate:
    def test_degenerate_marginal_gives_constant_scores(self):
        labs = parse_labels(["c.1.1", "c.2.1", "c.3.1"]).labels
        structure = build_structure(labs, np.ones((6, 3), dtype=bool))
        fam = Categorical([1.0, 0.0, 0.0, 0.0, 0.0])
        flat = simulate_flat(structure, [0.0], fam, np.random.default_rng(0))
        assert np.array_equal(flat, np.ones(18))

    def test_single_category_fit_is_degenerate_data(self):
        # K = 1 leaves no feasible probability vector, so there is nothing to fit
        labs = parse_labels(["c.1.1", "c.2.1"]).labels
        for method in ("dt", "cml"):
            with pytest.raises(DegenerateDataError, match="needs at least 2"):
                fit_agreement(prepare(np.ones((20, 2)), labs, "nominal"), method=method,
                              confint="none", seed=1)

    def test_comonotone_limit_duplicates_scores(self):
        # at the box maximum omega = 0.999 the latent spread is ~0.045, which
        # leaves ~10% of units straddling a category cut; the seeded fraction
        # of fully identical units is 0.89 and grows monotonically in omega
        labs = parse_labels([f"c.{j}.1" for j in range(1, 5)]).labels
        structure = build_structure(labs, np.ones((100, 4), dtype=bool))
        fam = Categorical([0.2] * 5)

        def identical_fraction(omega):
            flat = simulate_flat(structure, [omega], fam, np.random.default_rng(1))
            units = flat.reshape(100, 4)
            return np.mean([len(np.unique(u)) == 1 for u in units])

        high = identical_fraction(0.999)
        assert high >= 0.85
        assert high > identical_fraction(0.7) > identical_fraction(0.2)

    def test_missingness_pattern_preserved(self, nominal_fit, nominal_data):
        sim = simulate_scores(nominal_fit, seed=42)
        assert np.array_equal(sim.observed, nominal_data.observed)
        assert sim.labels == nominal_data.labels
        values = sim.scores_flat()
        assert np.array_equal(values, np.round(values))
        assert values.min() >= 1 and values.max() <= 5

    def test_seeded_simulation_is_deterministic(self, nominal_fit):
        a = simulate_scores(nominal_fit, seed=7)
        b = simulate_scores(nominal_fit, seed=7)
        assert np.array_equal(a.values, b.values)


class TestInformationCriteria:
    def test_reference_arithmetic(self):
        aic, bic = aic_bic(-593.5, 3, 200)
        assert aic == pytest.approx(1193.0, abs=1e-9)
        assert round(bic) == 1203
        assert aic_bic(0.0, 0, 10) == (0.0, 0.0)

    def test_requires_proper_likelihood(self, nominal_fit):
        with pytest.raises(ConfigError):
            information_criteria(nominal_fit)

    def test_ml_fit_values(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=60)
        sm = make_pair_data(30, y)
        fit = fit_agreement(sm, confint="none", seed=1)
        aic, bic = information_criteria(fit)
        assert aic == pytest.approx(2 * 3 - 2 * fit.objective)
        assert bic == pytest.approx(3 * np.log(60) - 2 * fit.objective)


class TestModelProbability:
    def test_rounded_pair(self):
        assert model_probability([1193.0, 1223.0]) == pytest.approx(np.exp(-15.0))

    def test_unrounded_pair_magnitude(self):
        # identity semantics: exactly exp((min - max)/2) for any pair
        pair = [1193.41, 1223.83]
        assert model_probability(pair) == np.exp((min(pair) - max(pair)) / 2.0)
        # the reference value 2.516706e-07 corresponds to a criterion gap of
        # -2 log(2.516706e-07) = 30.3902895
        assert model_probability([1193.41, 1193.41 + 30.3902895]) == pytest.approx(
            2.516706e-7, rel=1e-6
        )

    def test_equal_and_validation(self):
        assert model_probability([10.0, 10.0, 10.0]) == 1.0
        with pytest.raises(ValueError):
            model_probability([5.0])


class TestKrippendorffAlpha:
    def test_reference_values(self, nominal_data):
        res = krippendorff_alpha(nominal_data, n_b=50, seed=4)
        assert res.alpha == pytest.approx(0.74, abs=0.005)
        labs = nominal_data.labels
        minus6 = prepare(np.delete(NOMINAL_GRID, 5, axis=0), labs, "nominal")
        res6 = krippendorff_alpha(minus6, n_b=10, seed=4)
        assert res6.alpha == pytest.approx(0.85, abs=0.005)
        delta = abs(res6.alpha - res.alpha) / res.alpha
        assert delta == pytest.approx(0.15, abs=0.01)

    def test_matches_brute_force_oracle(self, nominal_data):
        units = [nominal_data.values[i][nominal_data.observed[i]]
                 for i in range(nominal_data.n_units)]
        assert _alpha_value(units) == pytest.approx(brute_alpha(units), rel=1e-12)

    def test_perfect_agreement(self):
        labs = parse_labels(["c.1.1", "c.2.1", "c.3.1"]).labels
        grid = np.tile(np.arange(1.0, 6.0)[:, None], (1, 3))
        sm = prepare(grid, labs, "nominal")
        assert krippendorff_alpha(sm, n_b=5, seed=1).alpha == 1.0

    def test_invariant_to_relabeling(self, nominal_data):
        relabel = {1: 4, 2: 5, 3: 1, 4: 3, 5: 2}
        grid = NOMINAL_GRID.copy()
        mask = ~np.isnan(grid)
        grid[mask] = np.vectorize(relabel.get)(grid[mask].astype(int))
        sm = prepare(grid, nominal_data.labels, "nominal")
        base = krippendorff_alpha(nominal_data, n_b=5, seed=2).alpha
        assert krippendorff_alpha(sm, n_b=5, seed=2).alpha == pytest.approx(base, rel=1e-12)

    def test_guards(self, nominal_data):
        labs = parse_labels(["c.1.1", "c.2.1"]).labels
        one = prepare(np.array([[1.0, 2.0]]), labs, "nominal")
        with pytest.raises(DataError):
            krippendorff_alpha(one, n_b=5)
        interval = prepare(np.array([[1.0, 2.0], [2.0, 1.0]]), labs, "interval")
        with pytest.raises(ConfigError):
            krippendorff_alpha(interval, n_b=5)

    @pytest.mark.parametrize("n_b", [-1, 0, 1])
    def test_fewer_than_two_replicates_is_a_config_error(self, nominal_data, n_b):
        with pytest.raises(ConfigError, match="at least 2 bootstrap replicates"):
            krippendorff_alpha(nominal_data, n_b=n_b, seed=1)

    def test_bootstrap_outputs(self, nominal_data):
        res = krippendorff_alpha(nominal_data, n_b=200, seed=5)
        assert res.draws.shape == (200,)
        assert res.mcse > 0
        assert res.quantile[0] <= res.alpha <= res.quantile[1]
        r2 = krippendorff_alpha(nominal_data, n_b=200, seed=5, threads=2)
        assert np.array_equal(res.draws, r2.draws)


class TestSimulateRefitLoop:
    def test_dt_recovery_roundtrip(self, nominal_fit):
        sim = simulate_scores(nominal_fit, seed=11)
        refit = fit_agreement(sim, confint="none", seed=11)
        assert refit.method == "dt"
        assert abs(refit.estimates[0] - nominal_fit.estimates[0]) < 0.25  # tiny data, loose

    def test_recovery_at_scale(self):
        labs = parse_labels([f"c.{j}.1" for j in range(1, 5)]).labels
        structure = build_structure(labs, np.ones((200, 4), dtype=bool))
        fam = Categorical([0.25, 0.25, 0.2, 0.15, 0.15])
        flat = simulate_flat(structure, [0.7], fam, np.random.default_rng(12))
        sm = prepare(flat.reshape(200, 4), labs, "nominal", n_categories=5)
        refit = fit_agreement(sm, confint="none", seed=12)
        assert refit.estimates[0] == pytest.approx(0.7, abs=0.05)
