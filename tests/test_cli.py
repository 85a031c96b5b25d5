import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copulagree
from copulagree.cli import _build_parser, _echoed_call, _fmt, default_threads, main

FIXTURE = str(Path(__file__).parent / "data" / "nominal_scores.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pairs_csv(path, n=60, omega=0.7, seed=3):
    from copulagree import build_structure, parse_labels, simulate_flat
    from copulagree.marginals import make_family

    labs = parse_labels(["c.1.1", "c.2.1"]).labels
    structure = build_structure(labs, np.ones((n, 2), dtype=bool))
    y = simulate_flat(structure, [omega], make_family("gaussian", [20.0, 3.0]),
                      np.random.default_rng(seed)).reshape(n, 2)
    # float() first: under numpy >= 2 the repr of a numpy scalar is
    # "np.float64(...)", which is not a score.
    lines = ["c.1.1,c.2.1"] + [f"{float(a)!r},{float(b)!r}" for a, b in y]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestFitCommand:
    def test_text_report_mirrors_reference_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "fit", FIXTURE, "--level", "nominal", "--confint", "asymptotic",
            "--bootit", "200", "--seed", "12", "--threads", "1",
        )
        assert code == 0 and err == ""
        assert "Call:" in out
        assert "Optimization converged at -40.42 after" in out
        assert "Control parameters:" in out
        assert "dist    categorical" in out.replace("  ", "  ")
        assert "Coefficients:" in out
        assert "Estimate" in out and "Lower" in out and "Upper" in out
        assert "inter" in out and "p5" in out
        assert "0.8942" in out

    def test_json_report_carries_every_text_number(self, capsys, tmp_path):
        args = ["fit", FIXTURE, "--level", "nominal", "--confint", "asymptotic",
                "--bootit", "100", "--seed", "12", "--threads", "1"]
        code, text_out, _ = run_cli(capsys, *args, "--format", "text")
        assert code == 0
        code, json_out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        report = json.loads(json_out)
        coef = report["coefficients"]
        assert coef["names"] == ["inter", "p1", "p2", "p3", "p4", "p5"]
        assert coef["estimate"][0] == pytest.approx(0.8942, abs=2e-4)
        for column in ("estimate", "lower", "upper"):
            for value in coef[column]:
                assert _fmt(value) in text_out
        conv = report["convergence"]
        assert _fmt(conv["objective"]) in text_out
        assert str(conv["iterations"]) in text_out

    def test_bootstrap_confint_and_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "fit", FIXTURE, "--level", "nominal", "--confint", "bootstrap",
            "--bootit", "30", "--seed", "99", "--threads", "1",
            "--format", "json", "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["boot"]["dropped"] >= 0
        assert len(report["coefficients"]["mcse"]) == 6

    def test_ml_fit_reports_information_criteria(self, capsys, tmp_path):
        csv = write_pairs_csv(tmp_path / "pairs.csv")
        code, out, _ = run_cli(
            capsys, "fit", csv, "--level", "interval", "--confint", "none",
            "--seed", "5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["aic"] == pytest.approx(2 * 3 - 2 * report["convergence"]["objective"])
        assert report["bic"] > report["aic"]

    def test_method_override_smp(self, capsys, tmp_path):
        csv = write_pairs_csv(tmp_path / "pairs.csv")
        code, out, _ = run_cli(
            capsys, "fit", csv, "--level", "interval", "--method", "smp",
            "--confint", "bootstrap", "--bootit", "40", "--seed", "5",
            "--threads", "1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["control"]["method"] == "smp"
        assert report["coefficients"]["names"] == ["inter"]


class TestAlphaCommand:
    def test_reference_alpha(self, capsys):
        # The replicate count comes from a binomial bound, not from the seed.
        # The reader keeps 11 units (the single-score row is not pairable) and
        # 8 of them agree fully, so a unit-bootstrap draw of alpha is exactly
        # 1.0 with probability p = (8/11)**11 = 0.0301; the largest draws
        # below it are about 0.94.  The type-8 97.5% quantile of n draws sits
        # at order statistic (n + 1/3) * 0.975 + 1/3, so it is >= 0.95 only if
        # at least about 0.025 n draws are 1.0.  Their count is Binomial(n, p),
        # which gives z = (p - 0.025) sqrt(n / (p (1 - p))) = 0.0298 sqrt(n):
        # z = 0.52 at n = 300 (fails for ~30% of seeds), 1.34 at 2000 (~8%),
        # and 3.78 at 16000, where P(fail) = 6e-5 for any seed.
        code, out, _ = run_cli(
            capsys, "alpha", FIXTURE, "--level", "nominal", "--bootit", "16000",
            "--seed", "42", "--threads", "1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == pytest.approx(0.74, abs=0.005)
        lo, hi = report["intervals"]["quantile"]
        assert lo == pytest.approx(0.39, abs=0.08)
        assert hi == pytest.approx(1.0, abs=0.05)

    def test_alpha_text_contains_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "alpha", FIXTURE, "--level", "nominal", "--bootit", "50",
            "--seed", "1", "--threads", "1",
        )
        assert code == 0
        assert "Krippendorff's alpha: 0.7368" in out


class TestSimulateCommand:
    def test_seeded_runs_are_byte_identical(self, capsys, tmp_path):
        # Where a report is written is not part of it: stdout and every
        # spelling of --output give the same bytes.
        for fmt in ("text", "json"):
            args = ["simulate", FIXTURE, "--level", "nominal", "--seed", "42",
                    "--format", fmt]
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            reports = [out.encode("utf-8")]
            for i, spelling in enumerate((["--output", "{}"], ["--output={}"],
                                          ["--out", "{}"])):
                out_path = tmp_path / f"{fmt}{i}.txt"
                code, out, _ = run_cli(
                    capsys, *args, *[tok.format(out_path) for tok in spelling])
                assert code == 0 and out == ""
                reports.append(out_path.read_bytes())
            assert all(r == reports[0] for r in reports[1:])

    def test_simulated_csv_embeds_original_shape(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", FIXTURE, "--level", "nominal",
                               "--seed", "7")
        assert code == 0
        block = out.split("Simulated scores:\n\n", 1)[1].strip().splitlines()
        assert block[0] == "c.1.1,c.2.1,c.3.1,c.4.1"
        assert len(block) == 13  # header + the original 12 rows
        assert block[12] == "NA,NA,NA,NA"  # dropped row comes back unobserved
        # missing cells stay missing
        assert block[1].split(",")[2] == "NA"

    def test_json_format_holds_values(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", FIXTURE, "--level", "nominal",
                               "--seed", "7", "--format", "json")
        report = json.loads(out)
        assert len(report["values"]) == 12
        assert report["values"][11] == [None] * 4


class TestEchoedCall:
    def call(self, *argv):
        parser = _build_parser()
        args = parser.parse_args(list(argv))
        return _echoed_call(list(argv), parser.commands[args.command].long_options)

    def test_drops_only_destinations(self):
        assert self.call("bayes", "in.csv", "--level", "interval",
                         "--dump-draws", "d.csv", "--du=e.csv", "--outp", "r.txt",
                         "--seed", "3") == \
            "copulagree bayes in.csv --level interval --seed 3"
        # --d is --dist here: fit has no --dump-draws
        assert self.call("fit", "in.csv", "--level", "interval", "--d", "gaussian") == \
            "copulagree fit in.csv --level interval --d gaussian"
        # after "--" every token is positional, the input path included
        assert self.call("alpha", "--level", "nominal", "--", "--output") == \
            "copulagree alpha --level nominal -- --output"


class TestInfluenceCommand:
    def test_reference_dfbeta(self, capsys):
        code, out, _ = run_cli(
            capsys, "influence", FIXTURE, "--level", "nominal",
            "--units", "6,11", "--coders", "2", "--seed", "1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["dfbeta_units"]["indices"] == [6, 11]
        assert report["dfbeta_units"]["dfbeta"][0][0] == pytest.approx(-0.0791, abs=5e-3)
        assert report["dfbeta_coders"]["dfbeta"][0][0] == pytest.approx(0.058, abs=5e-3)

    def test_text_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "influence", FIXTURE, "--level", "nominal", "--units", "6",
            "--seed", "1",
        )
        assert code == 0
        assert "DFBETA (units):" in out
        assert "-0.079" in out


class TestBayesCommand:
    def test_bayes_report_and_draw_dump(self, capsys, tmp_path):
        csv = write_pairs_csv(tmp_path / "pairs.csv", n=80)
        dump = tmp_path / "draws.csv"
        code, out, _ = run_cli(
            capsys, "bayes", csv, "--level", "interval", "--dist", "gaussian",
            "--maxit", "1000", "--seed", "11", "--format", "json",
            "--dump-draws", str(dump),
        )
        assert code == 0
        report = json.loads(out)
        assert report["draws"] == 1000
        assert report["coefficients"]["names"] == ["inter", "mu", "sigma"]
        assert set(report["accept"]) == {"inter", "mu", "sigma"}
        assert report["dic"] > 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "inter,mu,sigma"
        assert len(lines) == 1001

    def test_bayes_text_layout(self, capsys, tmp_path):
        csv = write_pairs_csv(tmp_path / "pairs.csv", n=80)
        code, out, _ = run_cli(
            capsys, "bayes", csv, "--level", "interval", "--maxit", "1000",
            "--seed", "11",
        )
        assert code == 0
        assert "Number of posterior samples: 1000" in out
        assert "MCSE" in out
        assert "DIC:" in out
        assert "sigma.omega" in out


class TestErrorPaths:
    def test_missing_file_is_a_data_error(self, capsys):
        code, _, err = run_cli(capsys, "fit", "/nonexistent.csv", "--level", "nominal")
        assert code == 2
        assert err.startswith("error: data:")

    def test_bad_labels_are_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        for text, reason in [
            ("x,c.2.1\n1,2\n3,4\n", "cols 1"),
            # well-formed labels, but the gold column's method has no coders
            ("g.m2,c.1.1,c.2.1\n1,2,2\n3,4,4\n",
             "error: data: gold column for method 2 has no coder columns"),
        ]:
            path.write_text(text, encoding="utf-8")
            code, _, err = run_cli(capsys, "fit", str(path), "--level", "nominal")
            assert code == 2
            assert reason in err

    def test_invalid_config_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "fit", FIXTURE, "--level", "metric")
        assert code == 1
        assert err.startswith("error: config:")
        code, _, err = run_cli(capsys, "fit", FIXTURE, "--level", "nominal",
                               "--seed", str(2**64))
        assert code == 1
        code, _, err = run_cli(capsys, "fit", FIXTURE, "--level", "nominal",
                               "--threads", "0")
        assert code == 1
        code, _, err = run_cli(capsys, "nonsense")
        assert code == 1
        # ml on nominal scores is inconsistent
        code, _, err = run_cli(capsys, "fit", FIXTURE, "--level", "nominal",
                               "--method", "ml")
        assert code == 1

    def test_parser_is_built_once_and_unchanged_by_an_error(self, capsys):
        assert _build_parser() is _build_parser()
        args = ["simulate", FIXTURE, "--level", "nominal", "--seed", "3"]
        code, alone, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        code, _, err = run_cli(capsys, *args, "--format", "yaml")
        assert code == 1 and err.startswith("error: config:")
        code, after_error, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        assert after_error == alone

    def test_numerical_failure_exits_three(self, capsys, tmp_path):
        # nearly constant scores (exactly constant ones are a data error):
        # the fitted sigma is so small that the Hessian stencil crosses 0
        path = tmp_path / "const.csv"
        path.write_text("c.1.1,c.2.1\n" + "5,5\n" * 3 + "5,5.000000001\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", str(path), "--level", "interval",
                               "--confint", "asymptotic", "--seed", "1")
        assert code == 3
        assert err.startswith("error: numeric:")

    def test_alpha_on_interval_is_config_error(self, capsys, tmp_path):
        csv = write_pairs_csv(tmp_path / "pairs.csv", n=10)
        code, _, err = run_cli(capsys, "alpha", csv, "--level", "interval")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["fit", FIXTURE, "--level", "nominal", "--bootit", "0"],  # CML sandwich
        ["fit", FIXTURE, "--level", "nominal", "--confint", "bootstrap", "--bootit", "0"],
        ["fit", FIXTURE, "--level", "nominal", "--confint", "bootstrap", "--bootit", "1"],
        ["alpha", FIXTURE, "--level", "nominal", "--bootit", "0"],
        ["alpha", FIXTURE, "--level", "nominal", "--bootit", "-1"],
    ])
    def test_fewer_than_two_replicates_exits_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "1", "--threads", "1")
        assert (code, out) == (1, "")
        assert err == "error: config: at least 2 bootstrap replicates are needed, " \
                      f"got {argv[-1]}\n"

    def test_unreadable_input_is_a_data_error(self, capsys, tmp_path):
        binary = tmp_path / "not_utf8.csv"
        binary.write_bytes(b"c.1.1,c.2.1\n\xff\xfe,1\n")
        for path in (tmp_path, binary):
            code, _, err = run_cli(capsys, "fit", str(path), "--level", "nominal")
            assert code == 2
            assert err == f"error: data: cannot read input file {str(path)!r}\n"

    def test_json_report_of_a_fit_at_a_non_finite_objective(self, capsys, tmp_path):
        # the second column lies outside the Kumaraswamy support (0, 1)
        rng = np.random.default_rng(4)
        rows = [f"{0.3 + 0.4 * a!r},{1.2 + 0.6 * b!r}" for a, b in rng.random((30, 2)).tolist()]
        path = tmp_path / "ratio.csv"
        path.write_text("\n".join(["c.1.1,c.2.1", *rows]) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "fit", str(path), "--level", "ratio", "--dist",
                               "kumaraswamy", "--confint", "none", "--format", "json")
        assert code == 0

        def not_json(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(out, parse_constant=not_json)
        assert report["convergence"]["converged"] is False
        assert report["convergence"]["objective"] is None
        assert (report["aic"], report["bic"]) == (None, None)
        code, text, _ = run_cli(capsys, "fit", str(path), "--level", "ratio", "--dist",
                                "kumaraswamy", "--confint", "none")
        assert code == 0
        assert "at -inf after" in text and "AIC: inf" in text

    def test_single_category_input_is_a_data_error(self, capsys, tmp_path):
        path = tmp_path / "k1.csv"
        path.write_text("c.1.1,c.2.1\n" + "1,1\n" * 20, encoding="utf-8")
        for command in (["fit"], ["simulate"], ["influence", "--units", "2"]):
            code, out, err = run_cli(capsys, *command, str(path), "--level", "nominal",
                                     "--seed", "1")
            assert (code, out) == (2, "")
            assert err.startswith("error: data:") and err.count("\n") == 1
            assert "needs at least 2" in err

    def test_constant_scores_are_a_data_error(self, capsys, tmp_path):
        # zero sample variance: the posterior is improper as sigma -> 0 and
        # the ML objective has no maximum
        path = tmp_path / "const.csv"
        path.write_text("c.1.1,c.2.1\n" + "1.0,1.0\n" * 40, encoding="utf-8")
        for command in ("bayes", "fit"):
            code, out, err = run_cli(capsys, command, str(path), "--level", "interval",
                                     "--seed", "1")
            assert (code, out) == (2, "")
            assert err.startswith("error: data:") and err.count("\n") == 1
            assert "zero sample variance" in err

    def test_constant_scores_under_smp_are_a_data_error(self, capsys, tmp_path):
        # every ECDF score is tied, so the copula-only objective grows
        # toward the upper bound of omega instead of having a maximum
        path = tmp_path / "const.csv"
        path.write_text("c.1.1,c.2.1\n" + "1.0,1.0\n" * 40, encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", str(path), "--level", "interval",
                                 "--method", "smp", "--confint", "none", "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: data:") and err.count("\n") == 1
        assert "zero sample variance" in err


def _fuzz_inputs(root: Path) -> dict:
    """Small input files for the fuzz test, each with the level it was made for."""
    rng = np.random.default_rng(8)
    nominal = "\n".join(["c.1.1,c.2.1,c.3.1"] + [",".join(map(str, r))
                                                 for r in rng.integers(1, 4, (30, 3))])
    files = {
        "nominal": ("nominal", nominal + "\n"),
        "constant": ("interval", "c.1.1,c.2.1\n" + "1.0,1.0\n" * 30),
        "k1": ("nominal", "c.1.1,c.2.1\n" + "1,1\n" * 30),
        "out_of_support": ("ratio", "c.1.1,c.2.1\n" + "".join(
            f"{0.3 + 0.4 * a!r},{1.2 + 0.6 * b!r}\n" for a, b in rng.random((30, 2)).tolist())),
        "ragged": ("nominal", "c.1.1,c.2.1\n1,2\n3\n"),
        "not_utf8": ("nominal", b"c.1.1,c.2.1\n\xff\xfe,1\n"),
    }
    out = {"interval": (write_pairs_csv(root / "interval.csv", n=30), "interval"),
           "directory": (str(root), "nominal")}
    for name, (level, text) in files.items():
        path = root / f"{name}.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        out[name] = (str(path), level)
    return out


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    return _fuzz_inputs(tmp_path_factory.mktemp("fuzz"))


_LEVELS = ("nominal", "ordinal", "interval", "ratio")
_BOOTIT = st.sampled_from(["-1", "0", "1", "2"])
_OPTIONS = {
    "fit": st.tuples(st.just("--confint"), st.sampled_from(["none", "asymptotic", "bootstrap"]),
                     st.just("--bootit"), _BOOTIT),
    "bayes": st.just(("--minit", "1000", "--maxit", "1000")),
    "simulate": st.just(()),
    "influence": st.tuples(st.just("--units"), st.sampled_from(["0", "-1", "999", "2"]),
                           st.just("--coders"), st.sampled_from(["1", "9"])),
    "alpha": st.tuples(st.just("--bootit"), _BOOTIT),
}


@st.composite
def _cli_calls(draw, inputs):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    path, level = inputs[draw(st.sampled_from(sorted(inputs)))]
    level = draw(st.just(level) | st.sampled_from(_LEVELS))
    return [command, path, "--level", level, *draw(_OPTIONS[command]),
            "--format", draw(st.sampled_from(["text", "json"])), "--seed", "1", "--threads", "1"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_calls_exit_with_one_error_line(fuzz_inputs, data):
    argv = data.draw(_cli_calls(fuzz_inputs))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestThreadsDefault:
    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("OMEGA_THREADS", "3")
        assert default_threads() == 3
        monkeypatch.setenv("OMEGA_THREADS", "zero")
        with pytest.raises(Exception):
            default_threads()
        monkeypatch.delenv("OMEGA_THREADS")
        assert default_threads() == (os.cpu_count() or 1)


def test_module_run_prints_version():
    env = dict(os.environ, PYTHONPATH=str(Path(copulagree.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "copulagree.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "copulagree 0.1.0\n"


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(copulagree.__file__).parents[1]))
    code = "import sys, copulagree; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
