"""Synthetic data generators, oracle intervals, and the Monte Carlo harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import ctypes
import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from scipy.special import betainc, expit, ndtr, ndtri

from .data import (ConformalConfig, DataValidationError, ExperimentDataset,
                   InsufficientDataError)
from .pipelines import (CiseResult, aggregate_ate, diff_in_means, mean_and_spread,
                        run_cise, wcqr_nested_baseline)
from .rng import child_seed, make_rng

DGP1 = "dgp1"
DGP2 = "dgp2"
DGP_APPENDIX_E = "appendixE"
_KINDS = (DGP1, DGP2, DGP_APPENDIX_E)

METHODS = ("cise", "wcqr_nested_exact", "wcqr_nested_inexact")


@dataclass(frozen=True)
class DgpSpec:
    kind: str
    n: int
    rho: float = 0.0
    missingness: str = "MAR"  # appendixE only; MCAR keeps each row with p = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown DGP kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")
        if self.missingness not in ("MAR", "MCAR"):
            raise ValueError("missingness must be MAR or MCAR")
        if self.kind != DGP_APPENDIX_E and self.missingness != "MAR":
            raise ValueError("MCAR missingness applies to the appendixE DGP only")
        if self.kind == DGP_APPENDIX_E and self.rho != 0.0:
            raise ValueError("the appendixE DGP has independent covariates")

    @property
    def k(self) -> int:
        """The DGP's covariate dimension."""
        return 5 if self.kind == DGP_APPENDIX_E else 10


@dataclass(frozen=True)
class SimulatedDraw:
    """A dataset plus hidden truths; estimation code only ever sees .dataset."""

    dataset: ExperimentDataset
    y1: np.ndarray
    y0: np.ndarray
    ite: np.ndarray
    cate: np.ndarray


def _equicorrelated_gaussian(rng: np.random.Generator, spec: DgpSpec) -> np.ndarray:
    """Shared-factor construction: X_j = sqrt(rho) Z0 + sqrt(1 - rho) Z_j."""
    z0 = rng.standard_normal(spec.n)
    z = rng.standard_normal((spec.n, spec.k))
    return math.sqrt(spec.rho) * z0[:, None] + math.sqrt(1.0 - spec.rho) * z


def _independent_gaussian(rng: np.random.Generator, spec: DgpSpec) -> np.ndarray:
    # no shared factor: at rho = 0 the construction above would still draw Z0
    return rng.standard_normal((spec.n, spec.k))


def dgp1_f(x):
    return 2.0 / (1.0 + np.exp(-12.0 * (np.asarray(x, dtype=np.float64) - 0.5)))


def dgp1_cate(x: np.ndarray) -> np.ndarray:
    return dgp1_f(x[:, 0]) * dgp1_f(x[:, 1])


def dgp1_e_d(x: np.ndarray) -> np.ndarray:
    t = np.clip(x[:, 0], 0.0, 1.0)
    return 0.25 * (1.0 + betainc(2.0, 4.0, t))


def dgp1_e_r(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    return expit(-0.25 + 0.5 * np.asarray(d) + 0.2 * x[:, 0] - 0.3 * x[:, 1])


def dgp2_base(x: np.ndarray) -> np.ndarray:
    """The softplus-reciprocal term both potential outcomes share."""
    return 1.0 / np.log1p(np.exp(x[:, 2]))


def dgp2_cate(x: np.ndarray) -> np.ndarray:
    return x[:, 0] ** 2 + 0.2 * x[:, 1] + 0.8 * np.exp(x[:, 3])


def dgp2_e_d(x: np.ndarray) -> np.ndarray:
    return expit(-0.5 * x[:, 0] - 0.3 * x[:, 1] + 0.2 * x[:, 2])


def dgp2_e_r(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    return expit(-1.0 + 0.3 * np.asarray(d) + 0.5 * x[:, 0] - 0.4 * x[:, 1])


def appendix_e_cate(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=1)


def appendix_e_e_d(x: np.ndarray) -> np.ndarray:
    return ndtr(x[:, 0])


def appendix_e_e_r(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    return expit(-0.2 + 0.5 * np.asarray(d) + 0.2 * x[:, 0] - 0.3 * x[:, 1])


# kind -> (covariate draw, shared baseline term or None, CATE, treatment
# propensity, MAR response propensity).  DGP1: logistic-bump surface, beta-CDF
# treatment.  DGP2: curved surface over a shared baseline.  appendixE: linear
# surface in independent covariates, probit treatment.
_DESIGNS = {
    DGP1: (_equicorrelated_gaussian, None, dgp1_cate, dgp1_e_d, dgp1_e_r),
    DGP2: (_equicorrelated_gaussian, dgp2_base, dgp2_cate, dgp2_e_d, dgp2_e_r),
    DGP_APPENDIX_E: (_independent_gaussian, None, appendix_e_cate, appendix_e_e_d,
                     appendix_e_e_r),
}
MCAR_RESPONSE = 0.8


def generate(spec: DgpSpec) -> SimulatedDraw:
    """One draw of ``spec``'s design from the stream ``make_rng(spec.seed)``:
    covariates, the two outcome noises, treatment, then response."""
    draw_x, base, cate_fn, e_d, e_r = _DESIGNS[spec.kind]
    rng = make_rng(spec.seed)
    x = draw_x(rng, spec)
    eps1 = rng.standard_normal(spec.n)
    eps0 = rng.standard_normal(spec.n)
    shift = 0.0 if base is None else base(x)
    cate = cate_fn(x)
    y1, y0 = shift + cate + eps1, shift + eps0
    d = (rng.random(spec.n) < e_d(x)).astype(np.int64)
    p_r = MCAR_RESPONSE if spec.missingness == "MCAR" else e_r(x, d)
    r = (rng.random(spec.n) < p_r).astype(np.int64)
    y = np.where(r == 1, np.where(d == 1, y1, y0), np.nan)
    ds = ExperimentDataset(x=x, d=d, r=r, y=y)
    return SimulatedDraw(dataset=ds, y1=y1, y0=y0, ite=y1 - y0, cate=cate)


def oracle_interval(draw: SimulatedDraw, level: float) -> tuple[np.ndarray, np.ndarray, float]:
    """True conditional intervals for the ITE under the homoskedastic N(0,1)
    noise pair: CATE +- z_{1-level/2} * sqrt(2).  Returns (lo, hi, length)."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    z = ndtri(1.0 - level / 2.0)
    half = z * math.sqrt(2.0)
    return draw.cate - half, draw.cate + half, 2.0 * half


@dataclass(frozen=True)
class MetricResult:
    coverage: float
    avg_length: float
    infinite_count: int


def compute_metrics(lo, hi, truths) -> MetricResult:
    """Empirical coverage and average length; infinite-length intervals count
    as covering and push the average length to +inf (reported as a count)."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if lo.size == 0 or lo.shape != hi.shape or lo.shape != truths.shape:
        raise ValueError("intervals and truths must align and be non-empty")
    lengths = hi - lo
    infinite = ~np.isfinite(lengths)
    covered = np.where(infinite, True, (lo <= truths) & (truths <= hi))
    return MetricResult(coverage=float(covered.mean()),
                        avg_length=float(lengths.mean()) if not infinite.any() else math.inf,
                        infinite_count=int(infinite.sum()))


@dataclass(frozen=True)
class RepRecord:
    rep: int
    coverage: float | None = None
    avg_length: float | None = None
    infinite_count: int | None = None
    ate_r1: float | None = None
    ate_attrition: float | None = None
    n_attrition: int | None = None
    error: str | None = None


# The Monte Carlo aggregates: (name, RepRecord field, has a spread).  McReport.aggregate
# holds mean_<name>, then sd_<name> where there is a spread, in this order, over the
# successful replicates with a value (None when none has one).
AGGREGATES = (("coverage", "coverage", True), ("length", "avg_length", True),
              ("ate_r1", "ate_r1", False), ("ate_attrition", "ate_attrition", False))


@dataclass
class McReport:
    dgp: DgpSpec
    method: str
    cfg: ConformalConfig
    reps: list
    aggregate: dict
    n_failed: int
    wall_time: float = field(default=0.0, compare=False)


def run_method(ds: ExperimentDataset, method: str, cfg: ConformalConfig) -> CiseResult:
    if method == "cise":
        return run_cise(ds, cfg)
    if method == "wcqr_nested_exact":
        return wcqr_nested_baseline(ds, cfg, exact=True)
    if method == "wcqr_nested_inexact":
        return wcqr_nested_baseline(ds, cfg, exact=False)
    raise ValueError(f"unknown method {method!r}")


# the thread-count functions (get, set) of the OpenBLAS that numpy 2 and numpy 1 wheels bundle
_OPENBLAS_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads64_", "openblas_set_num_threads64_"))


@functools.cache
def _openblas():
    """The thread-count functions ``(get, set)`` of the OpenBLAS bundled in
    numpy's wheel (``numpy.libs``), or None when there is none."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        blas = ctypes.CDLL(str(lib))  # the copy numpy already loaded
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(blas, set_name):
                get, put = getattr(blas, get_name), getattr(blas, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _set_blas_threads(count: int) -> int | None:
    """Set numpy's OpenBLAS thread count; return the previous count, or None
    (and change nothing) when no OpenBLAS is found."""
    blas = _openblas()
    if blas is None:
        return None
    get, put = blas
    before = get()
    put(count)
    return before


def _run_one_rep(source, method: str, cfg: ConformalConfig, summarize, rep: int) -> tuple:
    try:
        draw = None
        if isinstance(source, DgpSpec):
            draw = generate(replace(source, seed=child_seed(source.seed, rep)))
        result = run_method(source if draw is None else draw.dataset, method,
                            replace(cfg, seed=child_seed(cfg.seed, rep)))
        return rep, summarize(rep, draw, result), None, False
    except DataValidationError:
        raise
    except (RuntimeError, ValueError) as exc:  # InsufficientDataError and numerical failures
        return (rep, None, f"{type(exc).__name__}: {exc}",
                isinstance(exc, InsufficientDataError))


_WORKER_JOB = None  # a pool worker's (source, method, cfg, summarize), set once per worker


def _start_worker(*job) -> None:
    global _WORKER_JOB
    _WORKER_JOB = job
    _set_blas_threads(1)


def _worker_rep(rep: int) -> tuple:
    return _run_one_rep(*_WORKER_JOB, rep)


def run_replicates(source, method: str, cfg: ConformalConfig, reps: int, summarize,
                   workers: int = 1) -> list:
    """Run ``method`` once per replicate with seeds derived from the rep index.

    ``source`` is a :class:`DgpSpec`, drawn afresh for every replicate, or
    one :class:`ExperimentDataset` that every replicate reuses.  Returns
    ``(rep, value, error)`` in rep order: ``value`` is ``summarize(rep, draw,
    result)`` (``draw`` is None for a fixed dataset); ``error`` is ``"Type: message"``
    for a replicate that failed on too little data or a numerical error.
    Structural data errors and programming errors propagate: ``reps`` or
    ``workers`` below 1 and an unknown ``method`` raise ValueError before any
    replicate runs.  More than 20% failed replicates raise :class:`InsufficientDataError`
    when every failure was one, else :class:`RuntimeError`.  ``workers > 1`` runs the
    replicates in a process pool, so ``summarize`` must then be picklable;
    each worker receives ``source`` once.  Every replicate runs with numpy's
    OpenBLAS on one thread, in this process or in a worker, so that the bits
    do not depend on ``workers``; this process's thread count is restored.
    """
    for name, value in (("reps", reps), ("workers", workers)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    workers = min(workers, reps)  # a fork pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(source, method, cfg, summarize)) as pool:
            out = list(pool.map(_worker_rep, range(reps)))
    else:
        before = _set_blas_threads(1)
        try:
            out = [_run_one_rep(source, method, cfg, summarize, rep) for rep in range(reps)]
        finally:
            if before is not None:
                _set_blas_threads(before)
    failed = [(rep, error, few) for rep, _, error, few in out if error is not None]
    if len(failed) > 0.2 * reps:
        kind = InsufficientDataError if all(few for *_, few in failed) else RuntimeError
        errors = [f"rep {rep}: {error}" for rep, error, _ in failed[:3]]
        raise kind(f"{len(failed)}/{reps} replicates failed; first errors: {errors}")
    return [(rep, value, error) for rep, value, error, _ in out]


def _rep_record(rep: int, draw: SimulatedDraw, result: CiseResult) -> RepRecord:
    att = result.att_idx
    if att.size == 0:
        raise InsufficientDataError("no attrition rows in draw")
    metrics = compute_metrics(result.che_lo, result.che_hi, draw.ite[att])
    diff = diff_in_means(draw.dataset)
    ate = aggregate_ate([(result.che_lo, result.che_hi)], draw.dataset, diff.estimate, diff.se)
    return RepRecord(rep=rep, coverage=metrics.coverage, avg_length=metrics.avg_length,
                     infinite_count=metrics.infinite_count, ate_r1=ate.ate_r1,
                     ate_attrition=ate.ate_r0, n_attrition=int(att.size))


def run_mc(dgp: DgpSpec, method: str, cfg: ConformalConfig, reps: int,
           workers: int = 1) -> McReport:
    """Monte Carlo replications with per-rep derived seeds.

    Failed replicates are recorded with their error and excluded from the
    aggregates; more than 20% failures aborts the run.
    """
    start = time.time()
    records = [value if error is None else RepRecord(rep=rep, error=error)
               for rep, value, error in run_replicates(dgp, method, cfg, reps, _rep_record,
                                                       workers)]
    done = [r for r in records if r.error is None]
    aggregate = {}
    for name, attr, spread in AGGREGATES:
        values = [v for r in done if (v := getattr(r, attr)) is not None]
        mean, sd = mean_and_spread(values) if values else (None, None)
        aggregate[f"mean_{name}"] = mean
        if spread:
            aggregate[f"sd_{name}"] = sd
    return McReport(dgp=dgp, method=method, cfg=cfg, reps=records, aggregate=aggregate,
                    n_failed=len(records) - len(done), wall_time=time.time() - start)
