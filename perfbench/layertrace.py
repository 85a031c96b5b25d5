"""Layer tracing from outside the library.

Named functions are wrapped by rebinding module attributes: a function is
replaced in its home module and in every ``copulagree`` module that imported
it under the same name, so calls through any of those bindings are seen.
The wrappers keep a span stack, which gives each span its self time (its
duration minus the time its wrapped children took).  A target that no longer
exists is reported as absent and skipped, so the trace survives renames.
Everything is restored when the ``with`` block ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

PKG = "copulagree"


def _bvn_points(args, kwargs):
    """Points in one bivariate_normal_cdf(z1, z2, rho) call."""
    return int(np.broadcast(*map(np.asarray, [*args, *kwargs.values()][:3])).size)


# (key, module, attribute); an attribute "*.name" means the method ``name``
# of every class defined in that module.
TARGETS = (
    ("cli.main", "cli", "main"),
    ("scores.read_score_csv", "scores", "read_score_csv"),
    ("structure.build_structure", "structure", "build_structure"),
    ("structure.pair_list", "structure", "pair_list"),
    ("structure.block_logdet_quadform", "structure", "block_logdet_quadform"),
    ("structure.simulate_latent", "structure", "simulate_latent"),
    ("marginals.cdf", "marginals", "*.cdf"),
    ("marginals.logpdf", "marginals", "*.logpdf"),
    ("marginals.make_family", "marginals", "make_family"),
    ("objectives.loglik_ml", "objectives", "loglik_ml"),
    ("objectives.loglik_dt", "objectives", "loglik_dt"),
    ("objectives.loglik_cml", "objectives", "loglik_cml"),
    ("objectives.bivariate_normal_cdf", "objectives", "bivariate_normal_cdf"),
    ("objectives.gradient", "objectives", "gradient"),
    ("objectives.hessian", "objectives", "hessian"),
    ("fit.optimize_objective", "fit", "optimize_objective"),
    ("fit.minimize", "fit", "minimize"),
    ("fit.asymptotic_interval", "fit", "asymptotic_interval"),
    ("fit.sandwich_score_cov", "fit", "sandwich_score_cov"),
    ("fit.full_bootstrap", "fit", "full_bootstrap"),
    ("bayes.run_chain", "bayes", "run_chain"),
    ("bayes.mcse", "bayes", "mcse"),
)

# objective evaluations are also counted under each of these enclosing spans
EVAL_KEYS = frozenset(k for k, _, _ in TARGETS if k.startswith("objectives.loglik_"))
EVAL_SCOPES = ("fit.optimize_objective", "bayes.run_chain")


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "none", "nonfinite", "items", "kinds")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0      # outermost calls only, so recursion is not counted twice
        self.self_s = 0.0
        self.none = 0          # calls that returned None
        self.nonfinite = 0     # calls that returned a non-finite number
        self.items = 0         # target-specific work count (points, rows)
        self.kinds = {}        # target-specific call classification


class Tracer:
    """Context manager that wraps every available target while it is active."""

    def __init__(self):
        self.stats = {key: Stat() for key, _, _ in TARGETS}
        self.absent: list[str] = []
        self.evals_under = dict.fromkeys(EVAL_SCOPES, 0)
        self.unconverged = 0
        self._stack: list[list] = []   # [key, child_seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------
    def _resolve(self, module: str, attr: str):
        """Return [(owner, name, original)] for the home bindings, or []."""
        try:
            mod = importlib.import_module(f"{PKG}.{module}")
        except ImportError:
            return []
        if attr.startswith("*."):
            meth = attr[2:]
            return [
                (cls, meth, cls.__dict__[meth])
                for cls in vars(mod).values()
                if isinstance(cls, type) and cls.__module__ == mod.__name__
                and callable(cls.__dict__.get(meth))
            ]
        fn = getattr(mod, attr, None)
        return [(mod, attr, fn)] if callable(fn) else []

    def __enter__(self):
        for key, module, attr in TARGETS:
            homes = self._resolve(module, attr)
            if not homes:
                self.absent.append(key)
                continue
            for owner, name, original in homes:
                wrapper = self._wrap(key, original)
                owners = [owner]
                if not isinstance(owner, type):
                    owners += [
                        m for n, m in list(sys.modules.items())
                        if (n == PKG or n.startswith(PKG + ".")) and m is not owner
                        and getattr(m, name, None) is original
                    ]
                for o in owners:
                    self._patches.append((o, name, original))
                    setattr(o, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        return False

    def _wrap(self, key, fn):
        stat = self.stats[key]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = all(frame[0] != key for frame in stack)
            if key == "objectives.bivariate_normal_cdf":
                stat.items += _bvn_points(args, kwargs)
            elif key == "fit.minimize":
                kind = str(kwargs.get("method", "")).lower()
                stat.kinds[kind] = stat.kinds.get(kind, 0) + 1
            elif key in EVAL_KEYS:
                for scope in EVAL_SCOPES:
                    if any(f[0] == scope for f in stack):
                        self.evals_under[scope] += 1
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - frame[1]
                if outermost:
                    stat.incl_s += dt
                if stack:
                    stack[-1][1] += dt
            if out is None:
                stat.none += 1
            elif isinstance(out, float) and not np.isfinite(out):
                stat.nonfinite += 1
            if key == "structure.pair_list":
                stat.items += len(out)
            elif key == "fit.optimize_objective" and not getattr(out, "converged", True):
                self.unconverged += 1
            return out

        return wrapper
