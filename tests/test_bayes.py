import csv
import io

import numpy as np
import pytest
from scipy import integrate, stats

from copulagree import (
    ConfigError,
    NumericalError,
    PosteriorResult,
    SamplerControl,
    build_structure,
    fixed_width_check,
    mcse,
    parse_labels,
    sample_posterior,
    simulate_flat,
)
from copulagree import bayes
from copulagree.bayes import run_chain, _log_prior_mu, _log_prior_positive
from copulagree.marginals import CONTINUOUS_FAMILIES, make_family

from conftest import make_pair_data
from oracle import dic


def laplace_pairs(n_units=300, omega=0.8, mu=26.5, sigma=4.7, seed=77):
    labs = parse_labels(["c.1.1", "c.2.1"]).labels
    structure = build_structure(labs, np.ones((n_units, 2), dtype=bool))
    y = simulate_flat(structure, [omega], make_family("laplace", [mu, sigma]),
                      np.random.default_rng(seed))
    return make_pair_data(n_units, y)


class TestMcse:
    def test_iid_normal_scale(self):
        x = np.random.default_rng(0).standard_normal(10_000)
        assert mcse(x) == pytest.approx(0.01, rel=0.30)

    def test_constant_chain(self):
        assert mcse(np.full(500, 3.3)) == 0.0

    def test_duplication_inflates_mcse(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(10_000)
        duplicated = np.repeat(base[:5_000], 2)
        assert mcse(duplicated) > mcse(base)

    def test_needs_enough_draws(self):
        with pytest.raises(ValueError):
            mcse(np.arange(50.0))


class TestFixedWidth:
    def test_all_small_stops(self):
        assert fixed_width_check([1.0, -2.0], [0.04, 0.09], tol=0.1)

    def test_one_large_continues(self):
        assert not fixed_width_check([1.0, 2.0], [0.05, 0.41], tol=0.1)

    def test_zero_mean_cannot_certify(self):
        assert not fixed_width_check([0.0, 1.0], [1e-9, 1e-3], tol=0.1)


class TestSamplerControl:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplerControl(minit=500)
        with pytest.raises(ConfigError):
            SamplerControl(minit=2000, maxit=1500)
        with pytest.raises(ConfigError):
            SamplerControl(tol=0.0)
        with pytest.raises(ConfigError):
            SamplerControl(sigma_1=-0.1)
        with pytest.raises(ConfigError):
            SamplerControl(dist="categorical")
        with pytest.raises(ConfigError):
            SamplerControl(sigma_omega=(0.1, -0.2))

    def test_sigma_omega_broadcast(self):
        ctrl = SamplerControl(sigma_omega=0.3)
        assert ctrl.omega_sigmas(3) == pytest.approx([0.3, 0.3, 0.3])
        ctrl2 = SamplerControl(sigma_omega=(0.1, 0.2))
        assert ctrl2.omega_sigmas(2) == pytest.approx([0.1, 0.2])
        with pytest.raises(ConfigError):
            ctrl2.omega_sigmas(3)


class TestChainMechanics:
    def test_prior_only_omega_mean_is_half(self):
        ctrl = SamplerControl(minit=1000, maxit=20_000, tol=1e-12, sigma_omega=1.0)
        samples, _lls, _counts, taken, _conv = run_chain(
            lambda omega, psi: 0.0, ("inter",), (), [0.5], [], ctrl, seed=2
        )
        assert taken == 20_000
        assert samples[:, 0].mean() == pytest.approx(0.5, abs=0.02)
        assert (samples[:, 0] > 0).all() and (samples[:, 0] < 1).all()

    def test_vanishing_proposal_accepts_everything(self):
        ctrl = SamplerControl(minit=1000, maxit=1000, sigma_omega=1e-9)
        _s, _l, counts, taken, _c = run_chain(
            lambda omega, psi: 0.0, ("inter",), (), [0.5], [], ctrl, seed=3
        )
        assert counts["omega"] / taken > 0.999

    def test_detailed_balance_against_quadrature(self):
        # discretize the omega posterior into two bins and compare the chain's
        # occupancy with the exact target mass computed by quadrature
        def log_target(omega, psi):
            return float(2.0 * np.log(omega[0]) + 4.0 * np.log1p(-omega[0]))

        ctrl = SamplerControl(minit=1000, maxit=100_000, tol=1e-12, sigma_omega=1.2)
        samples, *_ = run_chain(log_target, ("inter",), (), [0.5], [], ctrl, seed=4)
        norm, _ = integrate.quad(lambda w: w**2 * (1 - w) ** 4, 0.0, 1.0)
        below, _ = integrate.quad(lambda w: w**2 * (1 - w) ** 4, 0.0, 0.5)
        target = below / norm
        empirical = float(np.mean(samples[:, 0] < 0.5))
        assert abs(empirical - target) < 0.02

    def test_gamma_prior_density(self):
        for x in (0.1, 1.0, 7.0):
            assert _log_prior_positive(x) == pytest.approx(
                stats.gamma.logpdf(x, a=0.01, scale=100.0), rel=1e-10
            )


class TestPosterior:
    def test_recovers_simulated_laplace_model(self):
        data = laplace_pairs()
        ctrl = SamplerControl(dist="laplace", minit=1000, maxit=4000, tol=0.02,
                              sigma_1=1.0, sigma_2=0.1, sigma_omega=0.2)
        post = sample_posterior(data, ctrl, seed=99)
        sds = post.samples.std(axis=0, ddof=1)
        truth = np.array([0.8, 26.5, 4.7])
        assert np.all(np.abs(post.means - truth) <= 3.0 * sds + 0.02)
        assert post.param_names == ("inter", "mu", "sigma")
        assert (post.lower <= post.means).all() and (post.means <= post.upper).all()
        assert post.draws_taken >= 1000
        assert set(post.accept) == {"inter", "mu", "sigma"}
        assert all(0.0 <= v <= 1.0 for v in post.accept.values())
        # transform guarantees
        assert (post.samples[:, 0] > 0).all() and (post.samples[:, 0] < 1).all()
        assert (post.samples[:, 2] > 0).all()

    def test_chain_is_bit_reproducible(self):
        data = laplace_pairs(n_units=60)
        ctrl = SamplerControl(dist="laplace", minit=1000, maxit=1000)
        a = sample_posterior(data, ctrl, seed=12345)
        b = sample_posterior(data, ctrl, seed=12345)
        assert np.array_equal(a.samples, b.samples)
        assert a.dic == b.dic
        c = sample_posterior(data, ctrl, seed=54321)
        assert not np.array_equal(a.samples, c.samples)

    def test_omega_block_is_all_or_none(self):
        # two agreement parameters via a gold-standard structure
        labs = ["g", "c.1.1", "c.2.1"]
        parsed = parse_labels(labs).labels
        structure = build_structure(parsed, np.ones((80, 3), dtype=bool))
        rng = np.random.default_rng(6)
        y = simulate_flat(structure, [0.6, 0.5], make_family("laplace", [0.0, 1.0]), rng)
        data = make_pair_data(80, y, labels=tuple(labs))
        ctrl = SamplerControl(dist="laplace", minit=1000, maxit=1000, sigma_omega=0.4)
        post = sample_posterior(data, ctrl, seed=7)
        omega_draws = post.samples[:, :2]
        changed = omega_draws[1:] != omega_draws[:-1]
        mixed = np.logical_xor(changed[:, 0], changed[:, 1])
        assert not mixed.any()
        assert changed.any()  # the block does move

    def test_level_and_family_guards(self, nominal_data):
        with pytest.raises(ConfigError):
            sample_posterior(nominal_data, SamplerControl())
        data = laplace_pairs(n_units=40)
        with pytest.raises(ConfigError):
            sample_posterior(data, SamplerControl(dist="beta"))

    def test_fixed_width_certified_when_converged(self):
        data = laplace_pairs(n_units=200)
        ctrl = SamplerControl(dist="laplace", minit=1000, maxit=10_000, tol=0.05,
                              sigma_1=0.5, sigma_2=0.1, sigma_omega=0.3)
        post = sample_posterior(data, ctrl, seed=8)
        assert post.converged
        cv = post.mcse_values / np.abs(post.means)
        assert (cv < ctrl.tol).all()
        assert post.draws_taken % ctrl.minit == 0


# The per-family proposal table that sample_posterior read before the marginal
# families were defined in one table: (name, kind, tuning slot), where slot 1
# is sigma_1 and slot 2 is sigma_2; the location prior goes with "mu".
_FORMER_PSI_PROPOSALS = {
    "gaussian": (("mu", "walk", 1), ("sigma", "lognormal", 2)),
    "laplace": (("mu", "walk", 1), ("sigma", "lognormal", 2)),
    "t": (("nu", "lognormal", 1), ("mu", "walk", 2)),
    "gamma": (("alpha", "lognormal", 1), ("beta", "lognormal", 2)),
    "beta": (("alpha", "lognormal", 1), ("beta", "lognormal", 2)),
    "kumaraswamy": (("a", "lognormal", 1), ("b", "lognormal", 2)),
}


class _ChainStarted(Exception):
    pass


def test_psi_updates_match_the_former_proposal_table(monkeypatch):
    def capture(loglik, omega_names, psi_updates, *args):
        raise _ChainStarted(psi_updates)

    monkeypatch.setattr(bayes, "run_chain", capture)
    interval = laplace_pairs(n_units=40)
    labs = parse_labels(["c.1.1", "c.2.1"]).labels
    structure = build_structure(labs, np.ones((40, 2), dtype=bool))
    y = simulate_flat(structure, [0.8], make_family("beta", [2.0, 3.0]), np.random.default_rng(5))
    ratio = make_pair_data(40, y, level="ratio")
    slot = {0.11: 1, 0.22: 2}
    assert set(_FORMER_PSI_PROPOSALS) == set(CONTINUOUS_FAMILIES)
    for dist, expected in _FORMER_PSI_PROPOSALS.items():
        data = ratio if dist in ("beta", "kumaraswamy") else interval
        with pytest.raises(_ChainStarted) as started:
            sample_posterior(data, SamplerControl(dist=dist, sigma_1=0.11, sigma_2=0.22), seed=1)
        built = [(nm, kind, slot[sigma], prior) for nm, kind, sigma, prior in started.value.args[0]]
        assert built == [
            (nm, kind, s, _log_prior_mu if nm == "mu" else _log_prior_positive)
            for nm, kind, s in expected
        ], dist


class TestDic:
    def test_single_draw_has_no_complexity_penalty(self):
        def loglik(theta):
            return -0.5 * float(theta @ theta)

        theta = np.array([[0.3, -1.2]])
        assert dic(theta, loglik) == pytest.approx(-2.0 * loglik(theta[0]))

    def test_matches_posterior_result(self):
        # the sampler's cached per-draw deviances must agree with evaluating
        # the likelihood again through the oracle's dic()
        data = laplace_pairs(n_units=80)
        ctrl = SamplerControl(dist="laplace", minit=1000, maxit=1000)
        post = sample_posterior(data, ctrl, seed=9)
        from copulagree import CopulaModel, Objective

        model = CopulaModel(
            build_structure(data.labels, data.observed), "laplace", data.scores_flat()
        )
        objective = Objective("ml", model)
        assert dic(post.samples, objective) == pytest.approx(post.dic, rel=1e-10)

    def test_non_finite_deviance_raises(self):
        with pytest.raises(NumericalError):
            dic(np.array([[0.5]]), lambda t: -np.inf)


def test_save_draws_csv(tmp_path):
    data = laplace_pairs(n_units=40)
    ctrl = SamplerControl(dist="laplace", minit=1000, maxit=1000)
    post = sample_posterior(data, ctrl, seed=10)
    out = tmp_path / "draws.csv"
    post.save_draws(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "inter,mu,sigma"
    assert len(lines) == post.draws_taken + 1
    first = np.array([float(v) for v in lines[1].split(",")])
    assert first == pytest.approx(post.samples[0])
    assert (post.samples[1:] == post.samples[:-1]).any()  # rejected proposals repeat
    assert out.read_bytes() == csv_writer_bytes(post.samples, post.param_names)


def saved_draws(tmp_path, samples, names):
    post = PosteriorResult(
        samples=np.asarray(samples, dtype=float), param_names=names, means=None,
        lower=None, upper=None, mcse_values=None, accept={}, dic=0.0,
        draws_taken=len(samples), converged=True, control=None,
    )
    post.save_draws(tmp_path / "draws.csv")
    return (tmp_path / "draws.csv").read_bytes()


def csv_writer_bytes(samples, names):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(np.asarray(samples, dtype=float).tolist())
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("samples", [
    # runs of repeated values, as after rejected proposals, in every column
    [[0.5, 1.0, 2.0], [0.5, 1.0, 2.5], [0.5, 1.25, 2.5], [0.7, 1.25, 2.5],
     [0.7, 1.25, 2.5], [0.1 + 0.2, 1e-300, np.inf]],
    # -0.0 and 0.0 are equal but print differently
    [[0.0, -0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [np.nan, 0.0]],
    # one draw
    [[0.25, -3.5e-17, 12.0]],
])
def test_save_draws_bytes_equal_csv_writer(tmp_path, samples):
    names = tuple(f"p{j}" for j in range(len(samples[0])))
    assert saved_draws(tmp_path, samples, names) == csv_writer_bytes(samples, names)

