"""Record the output references and exact counts the benchmark checks against.

    python3 perfbench/record.py

Writes ``reference.json`` (each report's estimates, intervals, objective or
MCSEs for the datasets a run calls, at the default seed) and ``counts.json``
(counts from one traced call on dataset 0, which repeat exactly at that seed).
Re-record only when a change is meant to alter results or counts, and say
so with the change.
"""

from __future__ import annotations

import json
import shutil

import run as bench
from layertrace import Tracer

# counts that repeat exactly at a seed, so later changes can cite them
COUNTS = (
    "fit.optimize_objective.evals_per_call",
    "fit.minimize.lbfgsb_calls",
    "fit.minimize.slsqp_calls",
    "objectives.bivariate_normal_cdf.points",
    "structure.pair_list.rows",
    "bayes.loglik_calls_per_sweep",
)


def reference_entry(report: dict) -> dict:
    coef = report["coefficients"]
    entry = {"names": coef["names"], "estimate": coef["estimate"]}
    if report["command"] == "bayes":
        entry["mcse"] = coef["mcse"]
    else:
        entry.update(lower=coef["lower"], upper=coef["upper"],
                     objective=report["convergence"]["objective"])
    return entry


def main() -> int:
    cg = bench.load_library()
    seed = bench.DEFAULT_SEED
    refs, counts = {}, {}
    for name in bench.WORKLOADS:
        work = bench.ROOT / ".perfbench_tmp" / f"record-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            run = bench.Run(name, seed, work, refs=[])
            refs[name] = []
            for index in range(bench.DATASETS):
                _, report = run.call(cg, index)
                refs[name].append(reference_entry(report))
            dt_plain, _ = run.call(cg, 0)
            with Tracer() as tr:
                dt, report = run.call(cg, 0)
            layer = bench.layer_metrics(tr, report, dt, dt_plain, run.wl.bootit, ess=0.0)
            counts[name] = {k: layer[k] for k in COUNTS}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if run.problems:
            raise SystemExit(f"{name}: {run.problems}")
        print(name, counts[name], flush=True)
    (bench.HERE / "reference.json").write_text(
        json.dumps({"seed": seed, "workloads": refs}, indent=1) + "\n")
    (bench.HERE / "counts.json").write_text(
        json.dumps({"seed": seed, "workloads": counts}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
