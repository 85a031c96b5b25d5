import numpy as np
import pytest

from copulagree import (
    ConfigError,
    CopulaModel,
    IntervalError,
    Objective,
    build_structure,
    fit_agreement,
    full_bootstrap,
    optimize_objective,
    parse_labels,
    prepare,
    sandwich_score_cov,
    select_method,
    simulate_flat,
)
from copulagree.fit import _invert_information, observed_information
from copulagree.marginals import make_family

from conftest import make_pair_data


def simulate_pair_scores(n_units, omega, family, seed, labels=("c.1.1", "c.2.1")):
    parsed = parse_labels(labels).labels
    structure = build_structure(parsed, np.ones((n_units, len(labels)), dtype=bool))
    rng = np.random.default_rng(seed)
    return simulate_flat(structure, np.atleast_1d(omega), family, rng)


class TestSelectMethod:
    def test_defaults(self):
        assert select_method("nominal", 5) == "dt"
        assert select_method("ordinal", 7) == "dt"
        assert select_method("nominal", 2) == "cml"
        assert select_method("ordinal", 4) == "cml"
        assert select_method("interval") == "ml"
        assert select_method("ratio") == "ml"

    def test_override(self):
        assert select_method("nominal", 5, override="cml") == "cml"
        assert select_method("interval", override="smp") == "smp"

    def test_override_level_consistency(self):
        with pytest.raises(ConfigError):
            select_method("interval", override="dt")
        with pytest.raises(ConfigError):
            select_method("nominal", 5, override="ml")
        with pytest.raises(ConfigError):
            select_method("nominal", 5, override="bogus")


class TestOptimize:
    def test_concave_quadratic_with_box(self):
        def f(t):
            return -((t[0] - 2.0) ** 2)

        inside = optimize_objective(f, np.array([0.5]), [(0.0, 3.0)])
        assert inside.converged
        assert inside.theta[0] == pytest.approx(2.0, abs=1e-6)
        clipped = optimize_objective(f, np.array([0.5]), [(0.0, 1.0)])
        assert clipped.theta[0] == pytest.approx(1.0, abs=1e-8)

    def test_convergence_flag_is_a_python_bool(self):
        # an objective that is -inf everywhere ends at a non-finite value
        fit = optimize_objective(lambda t: -np.inf, np.array([0.5]), [(0.0, 1.0)])
        assert fit.converged is False

    def test_reference_dt_fit(self, nominal_fit):
        assert nominal_fit.converged
        assert nominal_fit.estimates[0] == pytest.approx(0.8942, abs=2e-4)
        assert nominal_fit.estimates[1:] == pytest.approx(
            [0.2517, 0.2407, 0.2274, 0.1888, 0.09136], abs=3e-4
        )
        assert nominal_fit.objective == pytest.approx(-40.42, abs=0.01)
        assert nominal_fit.iterations > 0

    def test_estimates_respect_boxes(self, nominal_fit):
        for value, (lo, hi) in zip(nominal_fit.theta, nominal_fit.model.bounds()):
            assert lo is None or value >= lo - 1e-12
            assert hi is None or value <= hi + 1e-12

    def test_gaussian_mle_closed_form_at_independence(self):
        rng = np.random.default_rng(10)
        y = rng.normal(3.0, 1.7, size=40)
        model = CopulaModel(
            build_structure(parse_labels(["c.1.1", "c.2.1"]).labels,
                            np.ones((20, 2), dtype=bool)),
            "gaussian", y,
        )
        obj = Objective("ml", model)

        def psi_only(psi):
            return obj(np.concatenate([[0.0], psi]))

        opt = optimize_objective(psi_only, model.initial_theta()[1:],
                                 model.bounds()[1:])
        n = y.size
        assert opt.theta[0] == pytest.approx(y.mean(), abs=1e-6)
        assert opt.theta[1] == pytest.approx(
            y.std(ddof=1) * np.sqrt((n - 1) / n), abs=1e-6
        )

    def test_independence_recovered_from_null_data(self):
        y = simulate_pair_scores(500, 0.0, make_family("gaussian", [0.0, 1.0]), seed=11)
        sm = make_pair_data(500, y)
        fit = fit_agreement(sm, confint="none", seed=1)
        assert fit.method == "ml"
        assert fit.estimates[0] < 0.1


class TestAsymptoticIntervals:
    def test_reference_sandwich_interval(self, nominal_data):
        fit = fit_agreement(nominal_data, confint="asymptotic", bootit=300, seed=12)
        assert fit.interval_kind == "asymptotic"
        assert fit.lower[0] == pytest.approx(0.7627, abs=0.03)
        assert fit.upper[0] == pytest.approx(1.026, abs=0.03)
        assert fit.lower.shape == (6,)
        # unclamped Wald bounds may leave [0, 1]
        assert fit.upper[0] > 1.0
        cov = fit.covariance
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert (np.diag(cov) >= 0.0).all()
        assert (fit.lower <= fit.estimates).all() and (fit.estimates <= fit.upper).all()

    def test_interval_width_scales_with_root_n(self):
        widths = {}
        for n_units in (50, 200):
            y = simulate_pair_scores(n_units, 0.4, make_family("gaussian", [1.0, 2.0]), seed=21)
            sm = make_pair_data(n_units, y)
            fit = fit_agreement(sm, confint="asymptotic", seed=2)
            widths[n_units] = fit.upper[1] - fit.lower[1]  # mu interval
        ratio = widths[50] / widths[200]
        assert ratio == pytest.approx(2.0, rel=0.10)

    def test_singular_information_raises(self):
        def flat(t):
            return -t[0] ** 2  # no dependence on t[1]

        info = observed_information(flat, np.array([0.1, 0.3]))
        with pytest.raises(IntervalError, match="singular"):
            _invert_information(info)

    def test_smp_has_no_asymptotic_contract(self):
        y = simulate_pair_scores(40, 0.5, make_family("gaussian", [0.0, 1.0]), seed=3)
        sm = make_pair_data(40, y)
        with pytest.raises(ConfigError):
            fit_agreement(sm, method="smp", confint="asymptotic")


class TestSandwich:
    def test_score_cov_shape_and_symmetry(self, nominal_fit):
        j = sandwich_score_cov(nominal_fit, n_b=60, seed=5)
        assert j.shape == (5, 5)
        assert np.allclose(j, j.T, atol=1e-12)
        assert (np.diag(j) >= 0.0).all()

    def test_independence_decorrelates_scores(self):
        y = simulate_pair_scores(300, 0.0, make_family("gaussian", [0.0, 1.0]), seed=31)
        sm = make_pair_data(300, y)
        fit = fit_agreement(sm, confint="none", seed=4)
        fit.theta[0] = 0.05  # interior point so gradients exist on both sides
        j = sandwich_score_cov(fit, n_b=200, seed=6)
        corr = j[0, 1:] / np.sqrt(j[0, 0] * np.diag(j)[1:])
        assert np.max(np.abs(corr)) < 0.2

    def test_monte_carlo_stability_under_doubling(self, nominal_fit):
        j1 = sandwich_score_cov(nominal_fit, n_b=300, seed=7)
        j2 = sandwich_score_cov(nominal_fit, n_b=600, seed=8)
        rel = np.abs(j2 - j1) / np.maximum(np.abs(j1), 1e-8)
        assert np.median(rel) < 0.2


class TestFullBootstrap:
    def test_tiny_bootstrap_reports_huge_mcse(self, nominal_fit):
        draws, lower, upper, mcse, dropped, warn = full_bootstrap(
            nominal_fit, n_b=2, seed=9
        )
        assert draws.shape[0] <= 2
        assert np.isfinite(mcse).all() or (mcse > 0).all()

    @pytest.mark.parametrize("n_b", [-1, 0, 1])
    def test_fewer_than_two_replicates_is_a_config_error(self, nominal_fit, n_b):
        with pytest.raises(ConfigError, match="at least 2 bootstrap replicates"):
            full_bootstrap(nominal_fit, n_b=n_b, seed=1)
        with pytest.raises(ConfigError, match="at least 2 bootstrap replicates"):
            sandwich_score_cov(nominal_fit, n_b=n_b, seed=1)

    def test_one_converged_replicate_is_an_interval_error(self, nominal_fit, monkeypatch):
        import copulagree.fit as fit_module

        worker = fit_module._boot_worker
        monkeypatch.setattr(fit_module, "_boot_worker",
                            lambda payload, j: worker(payload, j) if j == 0 else None)
        with pytest.raises(IntervalError, match="^1 of 3 bootstrap replicates converged"):
            full_bootstrap(nominal_fit, n_b=3, seed=1)

    def test_independence_interval_contains_zero(self):
        y = simulate_pair_scores(200, 0.0, make_family("gaussian", [0.0, 1.0]), seed=41)
        sm = make_pair_data(200, y)
        fit = fit_agreement(sm, confint="bootstrap", bootit=60, seed=10)
        assert fit.lower[0] <= 0.0 <= fit.upper[0]

    def test_seeded_bootstrap_is_reproducible_across_thread_counts(self, nominal_fit):
        d1, *_ = full_bootstrap(nominal_fit, n_b=8, seed=11, threads=1)
        d2, *_ = full_bootstrap(nominal_fit, n_b=8, seed=11, threads=1)
        d3, *_ = full_bootstrap(nominal_fit, n_b=8, seed=11, threads=2)
        assert np.array_equal(d1, d2)
        assert np.array_equal(d1, d3)
        # the semiparametric fit shares the worker and the reducer
        y = simulate_pair_scores(40, 0.6, make_family("gaussian", [0.0, 1.0]), seed=15)
        smp_fit = fit_agreement(make_pair_data(40, y), method="smp", confint="none", seed=11)
        s1, *_ = full_bootstrap(smp_fit, n_b=8, seed=11, threads=1)
        s2, *_ = full_bootstrap(smp_fit, n_b=8, seed=11, threads=1)
        s3, *_ = full_bootstrap(smp_fit, n_b=8, seed=11, threads=2)
        assert s1.shape == (8, 1)
        assert np.array_equal(s1, s2)
        assert np.array_equal(s1, s3)

    def test_quantile_interval_option(self, nominal_fit):
        draws, lower, upper, *_ = full_bootstrap(
            nominal_fit, n_b=40, interval="quantile", seed=12
        )
        from copulagree import median_unbiased_quantile

        assert lower[0] == pytest.approx(median_unbiased_quantile(draws[:, 0], 0.025))
        assert upper[0] == pytest.approx(median_unbiased_quantile(draws[:, 0], 0.975))


class TestSemiparametric:
    def test_monotone_transform_invariance(self):
        y = simulate_pair_scores(60, 0.6, make_family("gaussian", [2.0, 1.0]), seed=51)
        sm = make_pair_data(60, y)
        sm_t = make_pair_data(60, np.exp(y))
        fit = fit_agreement(sm, method="smp", confint="none")
        fit_t = fit_agreement(sm_t, method="smp", confint="none")
        assert fit.theta[0] == fit_t.theta[0]

    def test_recovers_simulated_agreement(self):
        y = simulate_pair_scores(300, 0.8, make_family("gaussian", [26.5, 4.7]), seed=52)
        sm = make_pair_data(300, y)
        fit = fit_agreement(sm, method="smp", confint="none")
        assert fit.estimates[0] == pytest.approx(0.8, abs=0.05)
        assert fit.param_names == ("inter",)

    def test_bootstrap_interval_and_variants(self):
        y = simulate_pair_scores(120, 0.7, make_family("laplace", [0.0, 1.0]), seed=53)
        sm = make_pair_data(120, y)
        fit = fit_agreement(sm, method="smp", confint="bootstrap", bootit=60, seed=13)
        assert fit.interval_kind == "bootstrap"
        assert fit.lower[0] < fit.estimates[0] < fit.upper[0]
        fitw = fit_agreement(sm, method="smp", smp_variant="winsorized", confint="none")
        assert 0.0 <= fitw.estimates[0] <= 1.0

    def test_interval_methods_cover_the_truth(self):
        # Seeded coverage of the true agreement by both bootstrap interval
        # flavors; the gaussian method should do at least as well as the
        # quantile method (whose upper-quantile estimator is the noisier).
        from copulagree.fit import bootstrap_intervals

        cov_gauss = cov_quant = 0
        for run in range(20):
            y = simulate_pair_scores(150, 0.7, make_family("gaussian", [0.0, 1.0]), seed=1000 + run)
            sm = make_pair_data(150, y)
            fit = fit_agreement(sm, method="smp", confint="bootstrap", bootit=150, seed=3000 + run)
            glo, ghi = bootstrap_intervals(fit.boot_draws, fit.estimates, "gaussian")
            qlo, qhi = bootstrap_intervals(fit.boot_draws, fit.estimates, "quantile")
            cov_gauss += glo[0] <= 0.7 <= ghi[0]
            cov_quant += qlo[0] <= 0.7 <= qhi[0]
        assert cov_gauss >= cov_quant
        assert cov_gauss >= 16 and cov_quant >= 16

    def test_small_sample_warns(self):
        y = simulate_pair_scores(8, 0.5, make_family("gaussian", [0.0, 1.0]), seed=54)
        sm = make_pair_data(8, y)
        with pytest.warns(UserWarning, match="ECDF"):
            fit_agreement(sm, method="smp", confint="none")

    def test_level_guard(self, nominal_data):
        with pytest.raises(ConfigError):
            fit_agreement(nominal_data, method="smp", confint="bootstrap")


class TestFitConfig:
    def test_dist_level_compatibility(self, nominal_data):
        with pytest.raises(ConfigError):
            fit_agreement(nominal_data, dist="gaussian")
        y = simulate_pair_scores(30, 0.5, make_family("gaussian", [0.5, 0.1]), seed=61)
        y = np.clip(np.abs(y), 0.01, 0.99)
        sm = make_pair_data(30, y, level="ratio")
        with pytest.raises(ConfigError):
            fit_agreement(sm, dist="gaussian")
        fit = fit_agreement(sm, confint="none", seed=3)  # defaults to beta
        assert fit.family == "beta"
        with pytest.raises(ConfigError):
            fit_agreement(sm, confint="maybe")

    def test_bootstrap_mcse_reported(self, nominal_data):
        fit = fit_agreement(nominal_data, confint="bootstrap", bootit=25, seed=14)
        assert fit.boot_mcse is not None
        assert fit.boot_mcse.shape == (6,)
        assert fit.boot_interval == "gaussian"
