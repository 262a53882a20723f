#!/usr/bin/env python3
"""Benchmark of the attrition_conformal CLI, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forest_mc --seed 1 --seconds 20 --trace 0

The run sets up the workload's input several times in fresh processes, then
repeats rounds of the workload's CLI commands (``simulate`` / ``analyze``
through ``attrition_conformal.cli.main``), one fresh process per round,
until ``--seconds`` have passed.  It checks every round's outputs and prints
an environment line, a report-digest line and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
untraced and traced rounds alternate and the metrics are the per-layer ones
derived from the traced rounds' spans.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent

N_SETUPS = 3
DEADLINE_S = 170.0
REPORTS = ("mc_report.json", "mc_long.csv", "ate_summary.json", "intervals.csv")

END_TO_END = (("wall_s", "s"), ("reps_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("interval_length", "outcome"))


def _per_layer_table():
    """(metric, unit, getter) for every per-layer metric; a getter reads the
    aggregate of one traced round (see spans.layer_metrics)."""

    def calls(name):
        return lambda a: a["names"].get(name, {}).get("calls", 0)

    def self_s(name):
        return lambda a: a["names"].get(name, {}).get("self_s", 0.0)

    def attr(name, key):
        return lambda a: a["names"].get(name, {}).get("attrs", {}).get(key, 0)

    roles = ("quantile", "propensity", "cdf", "mean")
    table = [
        ("kernels.grow_tree.calls", "count", calls("kernels.grow_tree")),
        ("kernels.grow_tree.self_s", "s", self_s("kernels.grow_tree")),
        ("kernels.apply.self_s", "s", self_s("kernels.apply")),
        ("kernels.pooled_quantiles.self_s", "s", self_s("kernels.pooled_quantiles")),
        ("forest.fit.calls", "count", calls("forest.fit")),
        ("forest.trees", "count", attr("forest.fit", "trees")),
        ("forest.fit.self_s", "s", self_s("forest.fit")),
        ("forest.predict.rows", "count", attr("forest.predict", "rows")),
        ("forest.predict.self_s", "s", self_s("forest.predict")),
    ]
    for role in roles:
        table.append((f"learners.{role}.calls", "count", calls(f"learners.{role}")))
        table.append((f"learners.{role}.self_s", "s", self_s(f"learners.{role}")))
    table += [
        ("learners.predict.self_s", "s", self_s("learners.predict")),
        ("learners.unconverged", "count",
         lambda a: sum(attr(f"learners.{r}", "unconverged")(a) for r in roles)),
        ("eif.solve.calls", "count", calls("eif.solve")),
        ("eif.solve.self_s", "s", self_s("eif.solve")),
        ("eif.solve.candidates", "count", attr("eif.solve", "candidates")),
        ("eif.psi.calls", "count", calls("eif.psi")),
        ("eif.psi.rows", "count", attr("eif.psi", "rows")),
        ("eif.psi.self_s", "s", self_s("eif.psi")),
        ("eif.degenerate", "count", attr("eif.solve", "degenerate")),
        ("conformal.wcqr.self_s", "s", self_s("conformal.wcqr")),
        ("conformal.wcqr.test_points", "count", attr("conformal.wcqr", "test_points")),
        ("pipelines.step1.self_s", "s", self_s("pipelines.step1")),
        ("pipelines.step2.self_s", "s", self_s("pipelines.step2")),
        ("pipelines.nested.self_s", "s", self_s("pipelines.nested")),
        ("pipelines.ipw.self_s", "s", self_s("pipelines.ipw")),
        ("simulation.generate.self_s", "s", self_s("simulation.generate")),
        ("simulation.reps", "count", calls("simulation.run_method")),
        ("simulation.reps_failed", "count", attr("simulation.run_method", "raised")),
        ("io.load_csv.self_s", "s", self_s("io.load_csv")),
        ("io.load_csv.rows", "count", attr("io.load_csv", "rows")),
        ("io.write.self_s", "s", self_s("io.write")),
        ("cli.self_s", "s", lambda a: a["layers"]["cli"]),
    ]
    for layer in spans.LAYERS:
        table.append((f"layer.{layer}.self_s", "s", lambda a, layer=layer: a["layers"][layer]))
    table += [
        ("trace.spans", "count", lambda a: a["spans"]),
        ("trace.remainder_s", "s", lambda a: a["wall_s"] - a["total_self_s"]),
        ("trace.wall_s", "s", lambda a: a["wall_s"]),
    ]
    return table


PER_LAYER = _per_layer_table()
# measured across traced and untraced rounds, not within one traced round
RUN_LEVEL = (("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"), ("kernels.jit", "flag"))


def _spawn(job: dict, work: Path, timeout: float) -> tuple:
    """Run child.py on ``job``; return (exit code, wall seconds, peak RSS MB).

    The RSS is the largest of the child and the processes it waited for,
    as wait4 reports it.
    """
    job_path = work / f"{job['id']}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(work / f"{job['id']}.log", "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _git_revision(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _kernel_path(env: dict) -> str:
    if env["use_numba"]:
        return "numba"
    if not env["have_numba"]:
        return "numpy (JIT path unavailable: numba is not installed)"
    return f"numpy (JIT path disabled by {env['numba_env_flag']})"


def _digests(out: Path, labels) -> dict:
    found = {}
    for label in labels:
        for name in REPORTS:
            p = out / label / name
            if p.is_file():
                found[f"{label}/{name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
    return found


class Run:
    """One benchmark invocation: set-ups, rounds, checks and metrics."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace = seconds, trace
        self.started = time.perf_counter()
        self.work = root / ".perfbench_runs" / workload
        self.reps_per_round = workloads.REPS_PER_ROUND[workload]
        self.labels = [label for label, _ in workloads.commands(workload, seed, Path("."), Path("."))]
        self.problems: list = []
        self.digests = None
        self.attempted = 0
        self.failed = 0
        self.lengths = None
        self.csv_facts = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def job(self, ident: str, kind: str, traced: bool = False, out: Path | None = None) -> dict:
        rel = self.work.relative_to(self.root)
        return {"id": ident, "kind": kind, "root": str(self.root), "workload": self.workload,
                "seed": self.seed, "work": str(rel), "trace": traced,
                "out": str(out.relative_to(self.root)) if out else None,
                "result": str(self.work / f"{ident}.result.json")}

    def setup(self, count: int) -> tuple:
        walls = []
        env = None
        for i in range(count):
            job = self.job(f"setup{i}", "setup")
            rc, wall, _ = _spawn(job, self.work, self.remaining())
            if rc != 0:
                raise RuntimeError(f"set-up failed (exit {rc}); see {self.work}/setup{i}.log")
            walls.append(wall)
            env = json.loads(Path(job["result"]).read_text(encoding="utf-8"))["environment"]
        return walls, env

    def round(self, k: int, traced: bool) -> dict | None:
        out = self.work / "out" / f"r{k}"
        job = self.job(f"r{k}", "round", traced, out)
        rc, wall, rss = _spawn(job, self.work, self.remaining())
        result_path = Path(job["result"])
        self.attempted += self.reps_per_round
        if rc != 0 or not result_path.is_file():
            self.problems.append(f"round {k} exited {rc}; see {self.work}/r{k}.log")
            self.failed += self.reps_per_round
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        bad = [c for c in result["commands"] if c["rc"] != 0]
        if bad:
            self.problems.append(f"round {k}: {[c['label'] for c in bad]} exited non-zero")
            self.failed += self.reps_per_round
            return None
        self.check_round(k, out, result)
        return {"wall_s": sum(c["wall_s"] for c in result["commands"]), "rss_mb": rss,
                "result": result, "traced": traced}

    def check_round(self, k: int, out: Path, result: dict) -> None:
        digests = _digests(out, self.labels)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append(f"round {k}: reports differ from round 0's")
            return
        lengths = []
        for cmd in result["commands"]:
            base = out / cmd["label"]
            if (base / "mc_report.json").is_file():
                doc = json.loads((base / "mc_report.json").read_text(encoding="utf-8"))
                self.failed += doc["aggregate"]["n_failed"]
                problems = (checks.check_mc_report(doc)
                            + checks.check_replicates(doc, cmd.get("recomputed", [])))
                lengths.append(doc["aggregate"]["mean_length"])
            else:
                doc = json.loads((base / "ate_summary.json").read_text(encoding="utf-8"))
                self.failed += len(doc["failed_reps"])
                problems = self.check_analyze(doc, base)
                lengths.append(doc["estimates"]["Length"])
            self.problems += [f"round {k} {cmd['label']}: {p}" for p in problems]
        if self.lengths is None:
            self.lengths = lengths

    def check_analyze(self, summary: dict, base: Path) -> list:
        if self.csv_facts is None:
            mapping = json.loads((self.work / "mapping.json").read_text(encoding="utf-8"))
            truth = json.loads((self.work / "truth.json").read_text(encoding="utf-8"))
            self.csv_facts = (checks.read_experiment_csv(self.work / "data.csv", mapping), truth)
        data, truth = self.csv_facts
        return (checks.check_ate_summary(summary, data, truth)
                + checks.check_intervals(checks.read_intervals_csv(base / "intervals.csv"),
                                         data["na_rows"], truth["att_ite"]))

    def rounds(self) -> list:
        done = []
        k = 0
        t0 = time.perf_counter()
        while True:
            traced = self.trace and k % 2 == 1
            r = self.round(k, traced)
            k += 1
            if r is None:
                break
            done.append(r)
            elapsed = time.perf_counter() - t0
            need_more = self.trace and k < 2
            if elapsed >= self.seconds and not need_more:
                break
            if self.remaining() < 1.5 * (elapsed / k) and not need_more:
                break
        return done


def _median(values):
    return statistics.median(values) if values else float("nan")


def _end_to_end(run: Run, setup_walls: list, rounds: list) -> dict:
    walls = [r["wall_s"] for r in rounds]
    wall = _median(walls)
    lengths = run.lengths or [float("nan")]
    return {"wall_s": wall, "reps_per_s": run.reps_per_round / wall,
            "setup_s": _median(setup_walls),
            "peak_rss_mb": _median([r["rss_mb"] for r in rounds]),
            "interval_length": sum(lengths) / len(lengths)}


def _per_layer(run: Run, rounds: list, env: dict) -> dict:
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    values = {name: [] for name, _, _ in PER_LAYER}
    for r in traced:
        agg = dict(r["result"]["trace"], wall_s=r["wall_s"])
        if abs(agg["total_self_s"] - agg["root_s"]) > 1e-6 * max(agg["root_s"], 1.0):
            run.problems.append("span self times do not add up to the root spans")
        remainder = agg["wall_s"] - agg["total_self_s"]
        if not (0.0 <= remainder <= 0.01 * agg["wall_s"] + 0.01):
            run.problems.append(f"traced wall {agg['wall_s']} s is not accounted for by "
                                f"span self times ({agg['total_self_s']} s)")
        for name, _, get in PER_LAYER:
            values[name].append(get(agg))
    # counts repeat exactly from round to round; keep them whole numbers
    metrics = {name: statistics.median_low(values[name]) if unit == "count" else _median(values[name])
               for name, unit, _ in PER_LAYER}
    untraced_wall = _median([r["wall_s"] for r in untraced])
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["kernels.jit"] = 1 if env["use_numba"] else 0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.REPS_PER_ROUND))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd().resolve()
    if not (root / "src" / "attrition_conformal" / "__init__.py").is_file():
        print(f"error: {root} holds no src/attrition_conformal package; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        setup_walls, env = run.setup(1 if run.trace else N_SETUPS)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env.update(kernel_path=_kernel_path(env), nproc=len(os.sched_getaffinity(0)),
               git_revision=_git_revision(root), source_sha256=_source_digest(root),
               workload=args.workload, seed=args.seed, trace=args.trace)
    (run.work / "environment.json").write_text(json.dumps(env, indent=2), encoding="utf-8")
    print("environment: " + json.dumps(env))

    rounds = run.rounds()
    print("rounds: " + json.dumps([{"wall_s": r["wall_s"], "rss_mb": r["rss_mb"],
                                    "traced": r["traced"]} for r in rounds]))
    print("reports: " + json.dumps(run.digests))
    if not rounds:
        metrics = {}
    elif run.trace:
        values = _per_layer(run, rounds, env)
        units = {name: unit for name, unit, _ in PER_LAYER}
        units.update(RUN_LEVEL)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        values = _end_to_end(run, setup_walls, rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not run.problems and bool(rounds)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
