"""One benchmark process: a set-up or one round of a workload's CLI commands.

Run as ``python3 perfbench/child.py JOB.json`` from the checkout root; the
job names the kind (``setup`` or ``round``), the workload, the seed, the
directories and whether to trace.  The result goes to the job's ``result``
path as JSON.  The package is imported from the checkout's ``src``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import checks
import spans
import workloads


def _import_package(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import attrition_conformal.cli  # noqa: F401  (imports every module)

    pkg = sys.modules["attrition_conformal"]
    if Path(pkg.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported attrition_conformal from {pkg.__file__}, not {src}")


def _environment() -> dict:
    import numpy
    import scipy
    from attrition_conformal import kernels

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "have_numba": kernels.HAVE_NUMBA,
            "use_numba": kernels.USE_NUMBA, "numba_env_flag": kernels.NUMBA_ENV_FLAG}


def _setup(job: dict) -> dict:
    workloads.build_input(job["workload"], job["seed"], Path(job["work"]))
    return {"environment": _environment()}


def _keep_intervals(draws: list, results: list) -> list:
    """Wrap ``simulation.generate`` and ``simulation.run_method`` so that
    each replicate's true ITEs and returned intervals are kept; return the
    undo list."""
    from attrition_conformal import simulation

    generate, run_method = simulation.generate, simulation.run_method

    def keep_draw(spec):
        draw = generate(spec)
        draws.append(draw.ite)
        return draw

    def keep_result(*args, **kwargs):
        res = run_method(*args, **kwargs)
        results.append((res.att_idx, res.che_lo, res.che_hi))
        return res

    return spans.rebind(generate, keep_draw) + spans.rebind(run_method, keep_result)


def _round(job: dict) -> dict:
    from attrition_conformal import cli

    draws, results = [], []
    if job["workload"] in workloads.SIMULATE:
        _keep_intervals(draws, results)
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    out = []
    for label, argv in workloads.commands(job["workload"], job["seed"], Path(job["work"]),
                                          Path(job["out"])):
        draws.clear()
        results.clear()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        entry = {"label": label, "rc": rc, "wall_s": wall}
        if draws:
            # per-replicate coverage and length from the returned intervals
            entry["recomputed"] = [
                checks.interval_metrics(lo.tolist(), hi.tolist(), ite[att].tolist())
                for ite, (att, lo, hi) in zip(draws, results)]
        out.append(entry)
    result = {"commands": out}
    if tracer is not None:
        spans_path = Path(job["out"]) / "spans.json"
        spans_path.write_text(json.dumps(tracer.records()), encoding="utf-8")
        agg = spans.layer_metrics(tracer.spans)
        result["trace"] = {"names": agg["names"], "layers": agg["layers"],
                           "total_self_s": agg["total_self_s"], "root_s": agg["root_s"],
                           "spans": len(tracer.spans)}
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    _import_package(Path(job["root"]))
    result = _setup(job) if job["kind"] == "setup" else _round(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
