"""In-memory span tracing of the package's public functions, from outside.

A :class:`Tracer` wraps functions and methods where the program looks them
up: the package imports many functions by name (``pipelines`` calls its own
``solve_smallest_eta``, ``learners`` its own ``fit_forest``, ``cli`` its own
``load_csv``), so :meth:`Tracer.install` replaces every module attribute
that is the original function, not only the defining one.  Each call
records a span ``(name, start, end, parent, attrs)``; spans stay in memory
until the run ends.  :func:`layer_metrics` turns them into per-layer self
times and counts.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("kernels", "forest", "learners", "conformal", "eif", "pipelines",
          "simulation", "io", "cli")
PACKAGE = "attrition_conformal"


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else len(x)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _unconverged(args, kwargs, result):
    bad = getattr(result, "warning", None) is not None or getattr(result, "converged", True) is False
    return {"unconverged": int(bad)}


def rebind(orig, new) -> list:
    """Bind ``new`` in place of every package-module attribute that is
    ``orig``; return the ``(module, attr, orig)`` undo list."""
    undo = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, new)
    return undo


def unbind(undo: list) -> None:
    """Restore the bindings an undo list records, last first."""
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


@dataclass(frozen=True)
class Target:
    """``path`` is ``module:function`` or ``module:Class.method``; ``attrs``
    turns (args, kwargs, result) into the counts stored on the span."""

    path: str
    span: str
    attrs: Callable | None = None


TARGETS = (
    Target("kernels:grow_tree", "kernels.grow_tree"),
    Target("kernels:apply_tree", "kernels.apply"),
    Target("kernels:forest_mean", "kernels.apply"),
    Target("kernels:forest_leaf_matrix", "kernels.apply"),
    Target("kernels:forest_pooled_quantiles", "kernels.pooled_quantiles"),
    Target("forest:fit_forest", "forest.fit",
           lambda a, k, r: {"trees": int(r.features.shape[0])}),
    Target("forest:FittedForest.predict_mean", "forest.predict",
           lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))}),
    Target("forest:FittedForest.predict_quantiles", "forest.predict",
           lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))}),
    Target("learners:fit_quantile_pair", "learners.quantile", _unconverged),
    Target("learners:fit_quantile", "learners.quantile", _unconverged),
    Target("learners:fit_propensity", "learners.propensity", _unconverged),
    Target("learners:fit_conditional_cdf", "learners.cdf", _unconverged),
    Target("learners:fit_mean", "learners.mean", _unconverged),
    Target("learners:ProbabilityModel.predict_proba", "learners.predict"),
    Target("learners:QuantilePairModel.predict", "learners.predict"),
    Target("learners:LinearMean.predict", "learners.predict"),
    Target("learners:ForestMean.predict", "learners.predict"),
    Target("learners:_QuantileAsMean.predict", "learners.predict"),
    Target("eif:solve_smallest_eta", "eif.solve",
           lambda a, k, r: {"candidates": r.candidates_scanned, "degenerate": int(r.degenerate)}),
    Target("eif:psi1_eval", "eif.psi", lambda a, k, r: {"rows": _rows(r)}),
    Target("eif:psi0_eval", "eif.psi", lambda a, k, r: {"rows": _rows(r)}),
    Target("eif:psiC_eval", "eif.psi", lambda a, k, r: {"rows": _rows(r)}),
    Target("eif:initial_eta", "eif.initial"),
    Target("conformal:weighted_split_cqr_batch", "conformal.wcqr",
           lambda a, k, r: {"test_points": _rows(r.lo)}),
    Target("conformal:cqr_score", "conformal.score"),
    Target("conformal:interval_score", "conformal.score"),
    Target("conformal:unweighted_quantile", "conformal.quantile"),
    Target("conformal:weighted_quantile", "conformal.quantile"),
    Target("conformal:unweighted_interval_conformal_batch", "conformal.interval"),
    Target("pipelines:run_cise", "pipelines.run_cise"),
    Target("pipelines:cise_step1", "pipelines.step1"),
    Target("pipelines:cise_step2", "pipelines.step2"),
    Target("pipelines:wcqr_nested_baseline", "pipelines.nested"),
    Target("pipelines:ipw_ate", "pipelines.ipw"),
    Target("pipelines:aggregate_ate", "pipelines.aggregate"),
    Target("simulation:generate", "simulation.generate"),
    Target("simulation:run_mc", "simulation.run_mc"),
    Target("simulation:run_method", "simulation.run_method"),
    Target("simulation:compute_metrics", "simulation.metrics"),
    Target("io:load_csv", "io.load_csv", lambda a, k, r: {"rows": r.n}),
    Target("io:ColumnMapping.from_json", "io.read"),
    Target("io:file_digest", "io.read"),
    Target("io:dump_json", "io.write"),
    Target("io:write_mc_long_csv", "io.write"),
    Target("io:mc_report_dict", "io.write"),
    Target("io:RunManifest.write", "io.write"),
    Target("cli:main", "cli.main"),
)


class Tracer:
    """Records one span per call of every wrapped function.

    ``spans`` holds ``(name, start, end, parent, attrs)`` tuples; ``parent``
    is the index of the enclosing span or -1.  A span's slot is taken when
    the call starts, so a parent always precedes its children.  A call that
    raises gets ``{"raised": 1}`` as its attrs.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []

    def wrap(self, name: str, fn, attrs=None):
        clock, spans, stack = time.perf_counter, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            extra = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                extra = attrs(args, kwargs, result) if attrs else None
            except BaseException:
                extra = {"raised": 1}
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, extra)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever the package binds it."""
        for t in TARGETS:
            mod_name, qual = t.path.split(":")
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self.wrap(t.span, orig.__func__, t.attrs))
                else:
                    wrapped = self.wrap(t.span, orig, t.attrs)
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(mod, qual)
            self._undo += rebind(orig, self.wrap(t.span, orig, t.attrs))

    def uninstall(self) -> None:
        unbind(self._undo)
        self._undo.clear()

    def records(self) -> list:
        """Spans as dicts with times relative to the first span's start."""
        base = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": s[0], "start": s[1] - base, "end": s[2] - base,
                 "parent": s[3], **({"attrs": s[4]} if s[4] else {})}
                for i, s in enumerate(self.spans)]


def _fit_role(name: str) -> bool:
    return name.startswith("learners.") and name != "learners.predict"


def layer_metrics(spans: list) -> dict:
    """Self time and counts per span name and per layer.

    A span's self time is its duration minus its direct children's.  A
    learner fit called from inside another learner fit (the CDF surrogate
    fits a propensity model) is folded into the outer fit, so each role
    counts the calls the pipeline made.  Returns ``{"names": {name: {...}},
    "layers": {layer: self_s}, "total_self_s": ..., "root_s": ...}``.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    label = []
    names: dict = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    root_s = 0.0
    for i, (name, t0, t1, parent, attrs) in enumerate(spans):
        folded = parent >= 0 and _fit_role(name) and _fit_role(label[parent])
        label.append(label[parent] if folded else name)
        entry = names.setdefault(label[i], {"calls": 0, "self_s": 0.0, "attrs": {}})
        self_s = (t1 - t0) - child_time[i]
        entry["self_s"] += self_s
        layers[label[i].split(".")[0]] += self_s
        if parent < 0:
            root_s += t1 - t0
        if not folded:
            entry["calls"] += 1
            for key, value in (attrs or {}).items():
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    return {"names": names, "layers": layers,
            "total_self_s": sum(layers.values()), "root_s": root_s}
