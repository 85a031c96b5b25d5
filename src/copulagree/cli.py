"""Command-line front end: CSV in, seeded runs, text or JSON reports.

Subcommands: ``fit``, ``bayes``, ``simulate``, ``influence``, ``alpha``.
Text and JSON renderings are generated from one report value; text rounds to
4 significant figures, JSON carries full precision.  Both echo the call
without its output destinations (``--output``, and ``--dump-draws`` on
``bayes``), so a seeded report's bytes do not depend on where it is written.
Exit status 0 means a complete report was produced; 1 = invalid
configuration, 2 = data error, 3 = numerical failure, each with a one-line
machine-parsable reason.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bayes import SamplerControl, sample_posterior
from .diagnostics import (
    influence,
    information_criteria,
    krippendorff_alpha,
    simulate_scores,
)
from .errors import ConfigError, DataError, NumericalError
from .fit import fit_agreement, resolve_seed
from .marginals import CONTINUOUS_FAMILIES
from .scores import embed_original, format_score_csv, read_score_csv

_PROG = "copulagree"


# Options that only name where output is written; they are not part of the
# analysis, so the echoed call leaves them out.
_DESTINATIONS = ("--output", "--dump-draws")


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError instead of exiting, and records its long options."""

    long_options: tuple[str, ...] = ()

    def error(self, message):
        raise ConfigError(message)

    def add_argument(self, *names, **kwargs):
        self.long_options += tuple(n for n in names if n.startswith("--"))
        return super().add_argument(*names, **kwargs)


def default_threads() -> int:
    env = os.environ.get("OMEGA_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"OMEGA_THREADS must be an integer, got {env!r}")
        if value < 1:
            raise ConfigError("OMEGA_THREADS must be at least 1")
        return value
    return os.cpu_count() or 1


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}")


_DIST_HELP = f"marginal family ({'/'.join(CONTINUOUS_FAMILIES)})"


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG, description=__doc__)
    parser.add_argument("--version", action="version", version=f"{_PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, run, about, fitted=True):
        """A subcommand bound to its runner, with the options all commands
        share; a ``fitted`` one also takes the model choice of ``fit``."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(run=run)
        p.add_argument("input", help="score CSV: label header row, NA/empty = missing")
        p.add_argument("--level", required=True,
                       choices=["nominal", "ordinal", "interval", "ratio"])
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout "
                            "(not echoed in the report's call)")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if fitted:
            p.add_argument("--method", choices=["ml", "dt", "cml", "smp"], default=None)
            p.add_argument("--dist", default=None, help=_DIST_HELP)
        return p

    p_fit = command("fit", _run_fit, "frequentist point and interval estimation")
    p_fit.add_argument("--confint", choices=["none", "asymptotic", "bootstrap"],
                       default="asymptotic")
    p_fit.add_argument("--bootit", type=int, default=None,
                       help="bootstrap replicates (default 1000; 100 for the sandwich)")
    p_fit.add_argument("--interval", choices=["gaussian", "quantile"], default="gaussian",
                       help="bootstrap interval method")

    p_bayes = command("bayes", _run_bayes, "posterior sampling for interval/ratio scores",
                      fitted=False)
    p_bayes.add_argument("--dist", default="gaussian", help=_DIST_HELP)
    p_bayes.add_argument("--minit", type=int, default=1000)
    p_bayes.add_argument("--maxit", type=int, default=10000)
    p_bayes.add_argument("--tol", type=float, default=0.1)
    p_bayes.add_argument("--sigma-1", dest="sigma_1", type=float, default=0.1)
    p_bayes.add_argument("--sigma-2", dest="sigma_2", type=float, default=0.1)
    p_bayes.add_argument("--sigma-omega", dest="sigma_omega", type=_float_list, default=None)
    p_bayes.add_argument("--dump-draws", dest="dump_draws", default=None,
                         help="write retained draws to this CSV "
                              "(not echoed in the report's call)")

    command("simulate", _run_simulate, "simulate a dataset from the fitted model")

    p_inf = command("influence", _run_influence, "DFBETA for dropped units/coders")
    p_inf.add_argument("--units", type=_int_list, default=[])
    p_inf.add_argument("--coders", type=_int_list, default=[])

    p_alpha = command("alpha", _run_alpha, "Krippendorff's alpha baseline (nominal)",
                      fitted=False)
    p_alpha.add_argument("--bootit", type=int, default=1000)

    return parser


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.4g}"


def _table(headers, rows) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = []
    for row in cells:
        pads = [row[j].ljust(widths[j]) if j == 0 else row[j].rjust(widths[j])
                for j in range(len(row))]
        lines.append(" ".join(pads).rstrip())
    return "\n".join(lines)


def _aligned(block: dict) -> str:
    """One ``key value`` line per entry that is not None, values aligned."""
    rows = [(k, _fmt(v) if isinstance(v, (int, float, np.floating, np.integer)) else str(v))
            for k, v in block.items() if v is not None]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)} {v}" for k, v in rows)


def _coef_table(coef: dict) -> str:
    names = coef["names"]
    cols = [("Estimate", coef["estimate"])]
    if coef.get("lower") is not None:
        cols += [("Lower", coef["lower"]), ("Upper", coef["upper"])]
    if coef.get("mcse") is not None:
        cols.append(("MCSE", coef["mcse"]))
    headers = [""] + [h for h, _ in cols]
    rows = []
    for i, nm in enumerate(names):
        rows.append([nm] + [_fmt(vals[i]) for _, vals in cols])
    return _table(headers, rows)


def _render_text(report: dict) -> str:
    parts = [f"Call:\n\n{report['call']}"]
    cmd = report["command"]
    if cmd in ("fit", "simulate", "influence"):
        conv = report["convergence"]
        word = "converged" if conv["converged"] else "stopped (not converged)"
        parts.append(
            "Convergence:\n\nOptimization %s at %s after %d iterations."
            % (word, _fmt(conv["objective"]), conv["iterations"])
        )
        if not conv["converged"] and report.get("coefficients", {}).get("lower") is not None:
            parts.append("Warning: intervals were computed at a point that did not meet "
                         "the stopping rule.")
    if cmd == "bayes":
        parts.append(f"Number of posterior samples: {report['draws']}")
        if not report["converged"]:
            parts.append("Warning: fixed-width stopping did not certify convergence.")
    if "control" in report:
        parts.append("Control parameters:\n\n" + _aligned(report["control"]))
    if "coefficients" in report:
        parts.append("Coefficients:\n\n" + _coef_table(report["coefficients"]))
    if report.get("boot") is not None:
        boot = report["boot"]
        line = f"Bootstrap replicates dropped: {boot['dropped']}"
        if boot["warning"]:
            line += " (more than 10%; interpret intervals with care)"
        parts.append(line)
    if report.get("aic") is not None:
        parts.append(f"AIC: {_fmt(report['aic'])} \nBIC: {_fmt(report['bic'])}")
    if report.get("dic") is not None:
        parts.append(f"DIC: {_fmt(report['dic'])}")
    if report.get("accept") is not None:
        parts.append("Acceptance rates:\n\n" + _aligned(report["accept"]))
    if cmd == "alpha":
        parts.append(f"Krippendorff's alpha: {_fmt(report['alpha'])}")
        ci = report["intervals"]
        rows = [
            ["gaussian", _fmt(ci["gaussian"][0]), _fmt(ci["gaussian"][1])],
            ["quantile", _fmt(ci["quantile"][0]), _fmt(ci["quantile"][1])],
        ]
        parts.append(
            f"Bootstrap 95% intervals ({report['control']['bootit']} replicates):\n\n"
            + _table(["", "Lower", "Upper"], rows)
        )
        parts.append(f"MCSE: {_fmt(report['mcse'])}")
    if cmd == "influence":
        for key, idx_key, title in (
            ("dfbeta_units", "units", "DFBETA (units)"),
            ("dfbeta_coders", "coders", "DFBETA (coders)"),
        ):
            block = report[key]
            if not block["indices"]:
                continue
            rows = []
            for idx, row in zip(block["indices"], block["dfbeta"]):
                rows.append([str(idx)] + [_fmt(v) for v in row])
            parts.append(title + ":\n\n"
                         + _table([""] + list(report["param_names"]), rows))
        if report.get("failed"):
            parts.append("Failed refits: " + ", ".join(report["failed"]))
    if cmd == "simulate":
        parts.append("Simulated scores:\n\n" + report["csv"].rstrip("\n"))
    return "\n\n".join(parts) + "\n"


def _json_value(x):
    """``x`` with every non-finite float replaced by None (JSON null):
    ``Infinity`` and ``NaN`` are not JSON.  Text reports print them as is."""
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _unwritable(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path!r}: {exc.strerror or exc}")


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(_json_value(report), indent=2, allow_nan=False) + "\n"
    else:
        text = _render_text(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _unwritable(args.output, exc)
    else:
        sys.stdout.write(text)


def _floats(arr) -> list:
    return [v if math.isfinite(v) else None for v in np.asarray(arr, dtype=float).tolist()]


def _read_seeded(args):
    """The call's scores and its seed (fresh entropy when not given)."""
    try:
        data = read_score_csv(args.input, args.level)
    except (OSError, UnicodeDecodeError):
        raise DataError(f"cannot read input file {args.input!r}")
    if args.seed is not None and not 0 <= args.seed < 2**64:
        raise ConfigError("--seed must be an unsigned 64-bit integer")
    return data, resolve_seed(args.seed)


def _threads(args) -> int:
    return args.threads if args.threads is not None else default_threads()


def _head(args, call: str, fit, **control) -> dict:
    """Report head of a fitted command: its call, the optimizer's convergence
    and the control block, which ``control`` extends after the model choice."""
    return {
        "command": args.command,
        "call": call,
        "convergence": {
            "objective": float(fit.objective),
            "iterations": fit.iterations,
            "converged": fit.converged,
        },
        "control": {"level": args.level, "method": fit.method, "dist": fit.family, **control},
    }


def _run_fit(args, call: str) -> dict:
    data, seed = _read_seeded(args)
    threads = _threads(args)
    fit = fit_agreement(
        data, method=args.method, dist=args.dist, confint=args.confint,
        bootit=args.bootit, interval=args.interval, seed=seed, threads=threads,
    )
    report = _head(
        args, call, fit, confint=args.confint, bootit=args.bootit,
        interval=args.interval if args.confint == "bootstrap" else None,
        seed=seed, threads=threads,
    )
    report.update({
        "coefficients": {
            "names": list(fit.param_names),
            "estimate": _floats(fit.estimates),
            "lower": _floats(fit.lower) if fit.lower is not None else None,
            "upper": _floats(fit.upper) if fit.upper is not None else None,
        },
        "boot": None,
        "aic": None,
        "bic": None,
    })
    if fit.interval_kind == "bootstrap":
        report["boot"] = {
            "dropped": int(fit.boot_dropped),
            "warning": bool(fit.boot_warning),
            "mcse": _floats(fit.boot_mcse),
        }
        report["coefficients"]["mcse"] = _floats(fit.boot_mcse)
    if fit.method == "ml":
        aic, bic = information_criteria(fit)
        report["aic"], report["bic"] = float(aic), float(bic)
    return report


def _run_bayes(args, call: str) -> dict:
    data, seed = _read_seeded(args)
    control = SamplerControl(
        dist=args.dist, minit=args.minit, maxit=args.maxit, tol=args.tol,
        sigma_1=args.sigma_1, sigma_2=args.sigma_2,
        sigma_omega=0.1 if args.sigma_omega is None else tuple(args.sigma_omega),
    )
    post = sample_posterior(data, control, seed=seed)
    if args.dump_draws:
        try:
            post.save_draws(args.dump_draws)
        except OSError as exc:
            raise _unwritable(args.dump_draws, exc)
    return {
        "command": "bayes",
        "call": call,
        "draws": int(post.draws_taken),
        "converged": bool(post.converged),
        "control": {
            "level": args.level,
            "dist": args.dist,
            "minit": args.minit,
            "maxit": args.maxit,
            "tol": args.tol,
            "sigma.1": args.sigma_1,
            "sigma.2": args.sigma_2,
            "sigma.omega": args.sigma_omega if args.sigma_omega else 0.1,
            "seed": seed,
        },
        "coefficients": {
            "names": list(post.param_names),
            "estimate": _floats(post.means),
            "lower": _floats(post.lower),
            "upper": _floats(post.upper),
            "mcse": _floats(post.mcse_values),
        },
        "dic": float(post.dic),
        "accept": {k: float(v) for k, v in post.accept.items()},
    }


def _run_simulate(args, call: str) -> dict:
    data, seed = _read_seeded(args)
    fit = fit_agreement(data, method=args.method, dist=args.dist, confint="none", seed=seed)
    sim = simulate_scores(fit, seed=seed)
    values, observed = embed_original(sim)
    return {
        **_head(args, call, fit, seed=seed),
        "csv": format_score_csv(sim.labels, values, observed),
        "values": [[None if not observed[i, j] else float(values[i, j])
                    for j in range(values.shape[1])] for i in range(values.shape[0])],
    }


def _run_influence(args, call: str) -> dict:
    data, seed = _read_seeded(args)
    fit = fit_agreement(data, method=args.method, dist=args.dist, confint="none", seed=seed)
    rep = influence(fit, units=args.units, coders=args.coders)
    failed = [f"unit {u}" for u in rep.failed_units] + [f"coder {c}" for c in rep.failed_coders]
    return {
        **_head(args, call, fit, seed=seed),
        "param_names": list(rep.param_names),
        "dfbeta_units": {
            "indices": list(rep.unit_indices),
            "dfbeta": [_floats(row) for row in rep.dfbeta_units],
        },
        "dfbeta_coders": {
            "indices": list(rep.coder_indices),
            "dfbeta": [_floats(row) for row in rep.dfbeta_coders],
        },
        "failed": failed,
    }


def _run_alpha(args, call: str) -> dict:
    data, seed = _read_seeded(args)
    threads = _threads(args)
    res = krippendorff_alpha(data, n_b=args.bootit, seed=seed, threads=threads)
    return {
        "command": "alpha",
        "call": call,
        "control": {
            "level": args.level,
            "bootit": args.bootit,
            "seed": seed,
            "threads": threads,
        },
        "alpha": float(res.alpha),
        "intervals": {
            "gaussian": [float(res.gaussian[0]), float(res.gaussian[1])],
            "quantile": [float(res.quantile[0]), float(res.quantile[1])],
        },
        "mcse": float(res.mcse),
    }


def _echoed_call(argv: list[str], long_options: tuple[str, ...]) -> str:
    """The call a report echoes: ``argv`` of a parsed command without the
    destination options.

    ``long_options`` are the command's own.  Every spelling the parser
    accepts is dropped: ``--output PATH``, ``--output=PATH`` and unambiguous
    prefixes such as ``--out PATH``.  Tokens after ``--`` are positional.
    """
    kept = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            kept += [tok, *tokens]
            break
        name, eq, _ = tok.partition("=")
        # argparse's resolution: an exact name, else a unique prefix
        matches = [o for o in long_options if o == name] or \
            [o for o in long_options if o.startswith(name)]
        if name.startswith("--") and len(matches) == 1 and matches[0] in _DESTINATIONS:
            if not eq:
                next(tokens, None)  # the separate PATH token
            continue
        kept.append(tok)
    return " ".join([_PROG] + kept)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        call = _echoed_call(argv, parser.commands[args.command].long_options)
        report = args.run(args, call)
        _emit(report, args)
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
