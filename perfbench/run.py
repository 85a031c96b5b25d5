"""End-to-end and layer benchmark for copulagree, driven through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Each timed operation is one in-process ``copulagree.cli.main``
call with ``--threads 1 --format json`` on a CSV the benchmark generated
(see ``gen.py``); the calls cycle over the first ``DATASETS`` datasets of
the seed, so every run times the same inputs however fast the code is.
Every report is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  Full results, with environment metadata, also go to
``.perfbench_out/`` in the checkout.  ``--workload all`` runs each workload
in a child process of its own, so ``peak_rss_mb`` belongs to that workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# pinned before numpy loads: one BLAS thread keeps timings comparable
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from layertrace import Tracer  # noqa: E402

DEFAULT_SEED = 1
DATASETS = 3           # datasets per run, each called at least once
MAIN_SELF_SHARE = 0.01  # cli.main's own time, as a share of the traced total
OMEGA_TOL = 0.15        # generic check: |omega - generator value|
REF_HALFWIDTH = 0.01    # estimates within 1% of the reference half-width
REF_OBJECTIVE = 1e-6    # maximized objective >= ref - 1e-6 |ref|
REF_MCSE = 3.0          # posterior means within 3 reference MCSEs


@dataclass(frozen=True)
class Workload:
    stream: int
    units: int
    marginal: str
    k: int
    level: str
    method: str          # objective the set-up builds
    argv: tuple          # CLI arguments after the input path
    bootit: int = 0      # bootstrap replicates per call (counted as operations)


WORKLOADS = {
    # the only CML path: pair_list and the bivariate-normal cdf, plus the
    # sandwich (FD Hessian and 10 simulated-score gradients)
    "cml_sandwich": Workload(0, 500, "categorical", 4, "nominal", "cml",
                             ("fit", "--method", "cml", "--confint", "asymptotic",
                              "--bootit", "10")),
    # large-n throughput of the exact likelihood; build_structure dominates set-up
    "ml_large": Workload(1, 10000, "gaussian", 0, "interval", "ml",
                         ("fit", "--confint", "asymptotic")),
    # per-call overhead: exactly 1000 MH sweeps of three small likelihood calls
    "mh_chain": Workload(2, 500, "gaussian", 0, "interval", "ml",
                         ("bayes", "--minit", "1000", "--maxit", "1000")),
    # many short DT fits on freshly simulated data (full_bootstrap)
    "dt_bootstrap": Workload(3, 400, "categorical", 6, "ordinal", "dt",
                             ("fit", "--confint", "bootstrap", "--bootit", "10"), bootit=10),
}

END_TO_END = {"total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: (name, unit, tracer key, quantity); quantity is a Stat
# field, a ratio of one, or a name handled in layer_metrics
LAYER = (
    ("scores.read_score_csv.s", "s", "scores.read_score_csv", "incl_s"),
    ("structure.build_structure.s", "s", "structure.build_structure", "incl_s"),
    ("structure.pair_list.calls", "count", "structure.pair_list", "calls"),
    ("structure.pair_list.rows", "count", "structure.pair_list", "items"),
    ("structure.pair_list.s", "s", "structure.pair_list", "incl_s"),
    ("structure.block_logdet_quadform.calls", "count", "structure.block_logdet_quadform", "calls"),
    ("structure.block_logdet_quadform.self_s", "s", "structure.block_logdet_quadform", "self_s"),
    ("structure.block_logdet_quadform.not_pd_ratio", "ratio",
     "structure.block_logdet_quadform", "none_ratio"),
    ("structure.simulate_latent.calls", "count", "structure.simulate_latent", "calls"),
    ("structure.simulate_latent.s", "s", "structure.simulate_latent", "incl_s"),
    ("marginals.cdf.self_s", "s", "marginals.cdf", "self_s"),
    ("marginals.logpdf.self_s", "s", "marginals.logpdf", "self_s"),
    ("marginals.make_family.infeasible_ratio", "ratio", "marginals.make_family", "none_ratio"),
    ("objectives.loglik_ml.calls", "count", "objectives.loglik_ml", "calls"),
    ("objectives.loglik_ml.self_s", "s", "objectives.loglik_ml", "self_s"),
    ("objectives.loglik_ml.ninf_ratio", "ratio", "objectives.loglik_ml", "nonfinite_ratio"),
    ("objectives.loglik_dt.calls", "count", "objectives.loglik_dt", "calls"),
    ("objectives.loglik_dt.self_s", "s", "objectives.loglik_dt", "self_s"),
    ("objectives.loglik_dt.ninf_ratio", "ratio", "objectives.loglik_dt", "nonfinite_ratio"),
    ("objectives.loglik_cml.calls", "count", "objectives.loglik_cml", "calls"),
    ("objectives.loglik_cml.self_s", "s", "objectives.loglik_cml", "self_s"),
    ("objectives.loglik_cml.ninf_ratio", "ratio", "objectives.loglik_cml", "nonfinite_ratio"),
    ("objectives.bivariate_normal_cdf.points", "count", "objectives.bivariate_normal_cdf", "items"),
    ("objectives.bivariate_normal_cdf.self_s", "s", "objectives.bivariate_normal_cdf", "self_s"),
    ("objectives.bivariate_normal_cdf.ns_per_point", "ns",
     "objectives.bivariate_normal_cdf", "ns_per_item"),
    ("objectives.gradient.calls", "count", "objectives.gradient", "calls"),
    ("objectives.gradient.s", "s", "objectives.gradient", "incl_s"),
    ("objectives.hessian.calls", "count", "objectives.hessian", "calls"),
    ("objectives.hessian.s", "s", "objectives.hessian", "incl_s"),
    ("fit.optimize_objective.calls", "count", "fit.optimize_objective", "calls"),
    ("fit.optimize_objective.self_s", "s", "fit.optimize_objective", "self_s"),
    ("fit.optimize_objective.evals_per_call", "count", "fit.optimize_objective", "evals_per_call"),
    ("fit.optimize_objective.unconverged", "count", "fit.optimize_objective", "unconverged"),
    ("fit.minimize.lbfgsb_calls", "count", "fit.minimize", "l-bfgs-b"),
    ("fit.minimize.slsqp_calls", "count", "fit.minimize", "slsqp"),
    ("fit.asymptotic_interval.s", "s", "fit.asymptotic_interval", "incl_s"),
    ("fit.sandwich_score_cov.s", "s", "fit.sandwich_score_cov", "incl_s"),
    ("fit.full_bootstrap.s", "s", "fit.full_bootstrap", "incl_s"),
    ("fit.bootstrap.dropped_ratio", "ratio", None, "dropped_ratio"),
    ("bayes.run_chain.s", "s", "bayes.run_chain", "incl_s"),
    ("bayes.sweep_ms", "ms", "bayes.run_chain", "sweep_ms"),
    ("bayes.loglik_calls_per_sweep", "count", "bayes.run_chain", "evals_per_sweep"),
    ("bayes.accept.omega", "ratio", None, "accept"),
    ("bayes.accept.mu", "ratio", None, "accept"),
    ("bayes.accept.sigma", "ratio", None, "accept"),
    ("bayes.mcse.s", "s", "bayes.mcse", "incl_s"),
    ("bayes.ess_per_s", "1/s", None, "ess_per_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("trace.total_s", "s", None, "traced_total"),
    ("trace.overhead_s", "s", None, "overhead"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no library source)."""


def load_library():
    src = ROOT / "src"
    if not (src / "copulagree" / "__init__.py").is_file():
        raise BenchError(f"no library source under {src}")
    sys.path.insert(0, str(src))
    import copulagree
    import copulagree.cli  # noqa: F401
    if Path(copulagree.__file__).resolve().parent != (src / "copulagree").resolve():
        raise BenchError(f"copulagree was imported from {copulagree.__file__}, not {src}")
    return copulagree


def environment() -> dict:
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Run:
    """One benchmark run: its datasets, CLI calls and checks."""

    def __init__(self, name: str, seed: int, work: Path, refs: list):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.refs = refs      # reference reports of datasets 0, 1, ... (may be empty)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def grid(self, index: int, seed: int | None = None) -> np.ndarray:
        wl = self.wl
        return gen.score_grid(self.seed if seed is None else seed, wl.stream, index,
                              wl.units, wl.marginal, wl.k)

    def dataset(self, index: int) -> Path:
        path = self.work / f"in{index}.csv"
        if not path.exists():
            path.write_text(gen.csv_text(self.grid(index)))
        return path

    def self_test(self) -> None:
        """Same seed -> byte-identical CSV; another seed -> a different one."""
        first = self.dataset(0).read_bytes()
        again = gen.csv_text(self.grid(0)).encode()
        other = gen.csv_text(self.grid(0, seed=self.seed + 1)).encode()
        if first != again:
            self.problems.append("generator: same seed gave different CSV bytes")
        if first == other:
            self.problems.append("generator: different seeds gave identical CSVs")

    def argv(self, index: int, threads: int = 1) -> tuple[list[str], Path]:
        wl = self.wl
        out = self.work / f"out{index}_t{threads}.json"
        argv = [wl.argv[0], str(self.dataset(index)), "--level", wl.level, *wl.argv[1:],
                "--threads", str(threads), "--seed", str(self.seed),
                "--format", "json", "--output", str(out)]
        if wl.argv[0] == "bayes":
            argv += ["--dump-draws", str(self.work / f"draws{index}.csv")]
        return argv, out

    def call(self, cg, index: int, threads: int = 1):
        """One CLI call; returns (seconds, report or None)."""
        argv, out = self.argv(index, threads)
        out.unlink(missing_ok=True)
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cg.cli.main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rc = f"exception {exc!r}"
        dt = time.perf_counter() - t0
        self.attempted += 1 + self.wl.bootit
        report = json.loads(out.read_text()) if rc == 0 and out.exists() else None
        if report is None:
            self.failed += 1
            self.problems.append(f"dataset {index}: exit {rc}: {err.getvalue().strip()}")
            return dt, None
        bad = self.check(index, report)
        dropped = int((report.get("boot") or {}).get("dropped", 0))
        self.failed += bool(bad) + dropped
        if dropped:
            bad.append(f"{dropped} bootstrap replicates dropped")
        self.problems += [f"dataset {index}: {b}" for b in bad]
        return dt, report

    def check(self, index: int, report: dict) -> list[str]:
        bad = []
        bayes = report["command"] == "bayes"
        converged = report["converged"] if bayes else report["convergence"]["converged"]
        if not converged:
            bad.append("not converged")
        coef = report["coefficients"]
        est = dict(zip(coef["names"], coef["estimate"]))
        for nm, true in gen.TRUE_OMEGA.items():
            if nm not in est or est[nm] is None or abs(est[nm] - true) > OMEGA_TOL:
                bad.append(f"{nm} = {est.get(nm)} is not within {OMEGA_TOL} of {true}")
        if index >= len(self.refs):
            return bad
        ref = self.refs[index]
        if ref["names"] != coef["names"]:
            return bad + [f"parameter names {coef['names']} != reference {ref['names']}"]
        for j, nm in enumerate(ref["names"]):
            diff = abs(coef["estimate"][j] - ref["estimate"][j])
            if bayes:
                tol = REF_MCSE * ref["mcse"][j]
            else:
                tol = REF_HALFWIDTH * 0.5 * (ref["upper"][j] - ref["lower"][j])
            if not diff <= tol:
                bad.append(f"{nm} = {coef['estimate'][j]!r} is {diff:.3g} from the "
                           f"reference {ref['estimate'][j]!r} (tolerance {tol:.3g})")
        if not bayes:
            obj, ref_obj = report["convergence"]["objective"], ref["objective"]
            if not obj >= ref_obj - REF_OBJECTIVE * abs(ref_obj):
                bad.append(f"objective {obj!r} is below the reference {ref_obj!r}")
        return bad


def setup_once(cg, path: Path, wl: Workload) -> float:
    """Read the CSV and build what the solver starts from; returns seconds."""
    t0 = time.perf_counter()
    data = cg.scores.read_score_csv(path, wl.level)
    structure = cg.structure.build_structure(data.labels, data.observed)
    model = cg.objectives.CopulaModel(structure, wl.marginal, data.scores_flat(),
                                      data.n_categories)
    cg.objectives.Objective(wl.method, model)
    return time.perf_counter() - t0


def setup_reps(cg, path: Path, wl: Workload, budget: float = 0.4) -> list[float]:
    """Repeat the set-up for ``budget`` seconds (at least once)."""
    times = [setup_once(cg, path, wl)]
    while sum(times) < budget:
        times.append(setup_once(cg, path, wl))
    return times


def batch_means_ess(x: np.ndarray) -> float:
    """n var(x) / sigma^2_BM with floor(sqrt(n)) draws per batch."""
    n = x.size
    b = int(np.sqrt(n))
    a = n // b
    x = x[: a * b]
    bm_var = b * x.reshape(a, b).mean(axis=1).var(ddof=1)
    return float(x.size * x.var(ddof=1) / bm_var)


def min_ess(path: Path) -> float:
    draws = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return min(batch_means_ess(draws[:, j]) for j in range(draws.shape[1]))


def keep_going(start: float, steps: list[float], seconds: float) -> bool:
    """Start another step only if it would end closer to the deadline than not."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * statistics.median(steps) < seconds


def timed_calls(cg, run: Run, seconds: float):
    """Set up and call the CLI on datasets 0..DATASETS-1, cycling, until
    ``seconds`` have passed.

    The set-up repetitions sit next to each call, so both samples span the
    whole run and see the same machine conditions.
    """
    setup_once(cg, run.dataset(0), run.wl)  # warm-up
    rows, setups, steps = [], [], []
    start = time.perf_counter()
    while len(rows) < DATASETS or keep_going(start, steps, seconds):
        t0 = time.perf_counter()
        index = len(rows) % DATASETS
        setups += [(index, dt) for dt in setup_reps(cg, run.dataset(index), run.wl)]
        dt, report = run.call(cg, index)
        rows.append((index, dt, report))
        steps.append(time.perf_counter() - t0)
    return rows, setups


def median_of_medians(samples) -> float:
    """Median over datasets of each dataset's median; ``samples`` holds
    (dataset, seconds) pairs."""
    by_dataset: dict[int, list[float]] = {}
    for index, value in samples:
        by_dataset.setdefault(index, []).append(value)
    return statistics.median(statistics.median(v) for v in by_dataset.values())


def thread_check(cg, run: Run, report: dict | None) -> None:
    """--threads 2 must give bit-identical coefficients to --threads 1."""
    _, report2 = run.call(cg, 0, threads=2)
    if report is not None and report2 is not None \
            and report2["coefficients"] != report["coefficients"]:
        run.failed += 1
        run.problems.append("--threads 2 coefficients differ from --threads 1")


def run_untraced(cg, run: Run, seconds: float) -> tuple[dict, dict]:
    rows, setups = timed_calls(cg, run, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "total_s": median_of_medians((index, dt) for index, dt, _ in rows),
        "setup_s": median_of_medians(setups),
        "peak_rss_mb": peak_mb,
    }
    detail = {"total_s": [(index, dt) for index, dt, _ in rows], "setup_s": setups}
    if run.wl.argv[0] == "bayes":
        # printed only: BENCHMARK.json's end-to-end metrics apply to every
        # workload, and this one exists only for the chain
        detail["ess_per_s"] = [min_ess(run.work / f"draws{i}.csv") / dt
                               for i, dt, rep in rows if rep]
    if run.wl.bootit:
        thread_check(cg, run, rows[0][2])
    return metrics, detail


def layer_metrics(tr: Tracer, report: dict | None, traced_s: float, untraced_s: float,
                  bootit: int, ess: float) -> dict:
    report = report or {}
    draws = report.get("draws") or 0
    out = {}
    for name, _unit, key, qty in LAYER:
        st = tr.stats.get(key) if key else None
        if qty == "traced_total":
            v = traced_s
        elif qty == "overhead":
            v = traced_s - untraced_s
        elif qty == "ess_per_s":
            v = ess / untraced_s
        elif qty == "dropped_ratio":
            v = (report.get("boot") or {}).get("dropped", 0) / bootit if bootit else 0.0
        elif qty == "accept":
            v = (report.get("accept") or {}).get(name.rsplit(".", 1)[1], 0.0)
        elif qty in ("none_ratio", "nonfinite_ratio"):
            count = st.none if qty == "none_ratio" else st.nonfinite
            v = count / st.calls if st.calls else 0.0
        elif qty == "ns_per_item":
            v = 1e9 * st.self_s / st.items if st.items else 0.0
        elif qty == "evals_per_call":
            v = tr.evals_under["fit.optimize_objective"] / st.calls if st.calls else 0.0
        elif qty == "unconverged":
            v = tr.unconverged
        elif qty == "sweep_ms":
            v = 1e3 * st.incl_s / draws if draws else 0.0
        elif qty == "evals_per_sweep":
            v = tr.evals_under["bayes.run_chain"] / draws if draws else 0.0
        elif key == "fit.minimize":
            v = st.kinds.get(qty, 0)
        else:
            v = getattr(st, qty)
        out[name] = float(v)
    return out


def run_traced(cg, run: Run, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced calls on dataset 0 until ``seconds`` pass.

    Counts repeat exactly from call to call; times are medians over calls.
    """
    samples, untraced, traced, steps = [], [], [], []
    start = time.perf_counter()
    while not samples or keep_going(start, steps, seconds):
        t0 = time.perf_counter()
        dt_plain, _ = run.call(cg, 0)
        with Tracer() as tr:
            dt, report = run.call(cg, 0)
        untraced.append(dt_plain)
        traced.append(dt)
        # the layer self times sum to cli.main's inclusive time by construction;
        # what can fail is that the wrapped layers leave much of it uncovered
        main_self = tr.stats["cli.main"].self_s
        if "cli.main" not in tr.absent and not main_self <= MAIN_SELF_SHARE * dt:
            run.problems.append(f"cli.main self time {main_self:.4f} s is over "
                                f"{MAIN_SELF_SHARE:.0%} of the traced total {dt:.4f} s")
        draws = run.work / "draws0.csv"
        ess = min_ess(draws) if report and draws.exists() else 0.0
        samples.append(layer_metrics(tr, report, dt, dt_plain, run.wl.bootit, ess))
        steps.append(time.perf_counter() - t0)
    metrics = {name: statistics.median(s[name] for s in samples) for name, *_ in LAYER}
    absent = [name for name, _u, key, _q in LAYER if key in tr.absent]
    for name in absent:
        metrics[name] = 0.0
    detail = {"untraced_s": untraced, "traced_s": traced, "absent": absent}
    if run.seed == DEFAULT_SEED:
        detail["count_changes"] = compare_counts(run.name, metrics)
    return metrics, detail


def compare_counts(name: str, metrics: dict) -> list[str]:
    """Differences from the exact counts recorded at the default seed."""
    recorded = json.loads((HERE / "counts.json").read_text())["workloads"][name]
    return [f"{k}: {metrics[k]!r} (recorded {v!r})"
            for k, v in recorded.items() if metrics.get(k) != v]


def load_refs(name: str, seed: int) -> list:
    ref = json.loads((HERE / "reference.json").read_text())
    return ref["workloads"][name] if ref["seed"] == seed else []


def run_workload(cg, name: str, seed: int, seconds: float, trace: int, env: dict,
                 refs: list) -> tuple[dict, dict]:
    """One run; returns (result line, full record)."""
    work = ROOT / ".perfbench_tmp" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(name, seed, work, refs)
        run.self_test()
        if trace:
            metrics, detail = run_traced(cg, run, seconds)
            units = {n: unit for n, unit, *_ in LAYER}
        else:
            metrics, detail = run_untraced(cg, run, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "problems": run.problems, "detail": detail, **result}
    return result, record


def summary(record: dict) -> str:
    lines = [f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
             f"env={json.dumps(record['environment'], sort_keys=True)}"]
    lines += [f"  problem: {p}" for p in record["problems"]]
    detail = record["detail"]
    if detail.get("absent"):
        lines.append(f"  absent: {', '.join(detail['absent'])}")
    if detail.get("count_changes"):
        lines.append(f"  counts changed since recorded: {'; '.join(detail['count_changes'])}")
    metrics = {k: (m["value"], m["unit"]) for k, m in record["metrics"].items()}
    if detail.get("ess_per_s"):
        metrics["ess_per_s"] = (statistics.median(detail["ess_per_s"]), "1/s")
    lines += [f"  {k:<48} {v:>14.6g} {unit}" for k, (v, unit) in metrics.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload == "all":
        # one child process per workload, so each peak_rss_mb is its own
        rcs = [subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)]).returncode
               for name in sorted(WORKLOADS)]
        return max(rcs)
    try:
        cg = load_library()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    result, record = run_workload(cg, args.workload, args.seed, args.seconds, args.trace,
                                  environment(), load_refs(args.workload, args.seed))
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(summary(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
