"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight Monte
Carlo runs are shared across criteria through module-scoped fixtures.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from attrition_conformal.cli import main as cli_main
from attrition_conformal.conformal import ScoreSet, weighted_quantile, weighted_split_cqr_batch
from attrition_conformal.data import ConformalConfig, ExperimentDataset, make_splits
from attrition_conformal.eif import (counterfactual_terms, extrapolation_terms, psi_eval,
                                     solve_smallest_eta)
from attrition_conformal.pipelines import cise_step1, run_cise
from attrition_conformal.rng import make_rng
from attrition_conformal.simulation import (DgpSpec, dgp1_e_d, dgp1_e_r,
                                            gen_dgp1, oracle_interval, run_mc)

SEED = 20260810
CFG = ConformalConfig(alpha=0.025, gamma=0.025, seed=SEED)
FOREST_CFG = replace(CFG, learner="random_forest")
DGP1_1000 = DgpSpec(kind="dgp1", n=1000, rho=0.0, seed=SEED)


def _report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def cise_glm_mc():
    return run_mc(DGP1_1000, "cise", CFG, reps=25)


@pytest.fixture(scope="module")
def cise_forest_mc():
    return run_mc(DGP1_1000, "cise", FOREST_CFG, reps=25)


@pytest.fixture(scope="module")
def wcqr_forest_mc():
    return run_mc(DGP1_1000, "wcqr_nested_exact", FOREST_CFG, reps=25)


def test_criterion_1_split_cqr_marginal_coverage():
    """i.i.d. linear-Gaussian data, n=2000 split 50/50, alpha=0.1, 200 test
    points, 50 replicates: mean coverage in [0.87, 0.93]."""
    start = time.time()
    rng = make_rng(SEED)
    alpha = 0.1
    covers = []
    for _ in range(50):
        beta = rng.standard_normal(4)
        x = rng.standard_normal((2200, 4))
        y = x @ beta + rng.standard_normal(2200)
        band = weighted_split_cqr_batch(x[:1000], y[:1000], x[1000:2000], y[1000:2000],
                                        x[2000:], alpha,
                                        lambda z: np.ones(np.atleast_2d(z).shape[0]),
                                        "glm", 0)
        covers.append(np.mean((band.lo <= y[2000:]) & (y[2000:] <= band.hi)))
    mean_cov = float(np.mean(covers))
    elapsed = time.time() - start
    ok = 0.87 <= mean_cov <= 0.93 and elapsed < 60
    _report(1, ok, f"split-CQR mean coverage {mean_cov:.4f} over 50 reps "
                   f"(target [0.87, 0.93]); {elapsed:.1f}s (< 60s)")


def test_criterion_2_oracle_constant():
    """Oracle interval length at level 0.05 equals 5.5437 within 1e-3."""
    draw = gen_dgp1(DgpSpec(kind="dgp1", n=10, seed=0))
    _, _, length = oracle_interval(draw, 0.05)
    ok = abs(length - 5.5437) <= 1e-3
    _report(2, ok, f"oracle length {length:.4f} (target 5.5437 +- 1e-3)")


def test_criterion_3_cise_coverage(cise_glm_mc, cise_forest_mc):
    """DGP1, n=1000, rho=0, alpha=gamma=0.025, 25 reps: mean attrition-group
    ITE coverage >= 0.90 for both learner families."""
    g, f = cise_glm_mc.mean_coverage, cise_forest_mc.mean_coverage
    wall = cise_glm_mc.wall_time + cise_forest_mc.wall_time
    ok = g >= 0.90 and f >= 0.90 and wall < 600
    _report(3, ok, f"attrition coverage glm {g:.4f}, forest {f:.4f} "
                   f"(both >= 0.90); {wall:.0f}s (< 600s)")


def test_criterion_4_length_ordering(cise_forest_mc, wcqr_forest_mc):
    """Matched seeds on DGP1 n=1000, 25 reps, forest learners: mean length of
    the two-step method below the nested baseline, both covering >= 0.90."""
    len_cise = cise_forest_mc.mean_length
    len_wcqr = wcqr_forest_mc.mean_length
    cov_cise = cise_forest_mc.mean_coverage
    cov_wcqr = wcqr_forest_mc.mean_coverage
    wall = cise_forest_mc.wall_time + wcqr_forest_mc.wall_time
    ok = (math.isfinite(len_cise) and math.isfinite(len_wcqr)
          and len_cise < len_wcqr and cov_cise >= 0.90 and cov_wcqr >= 0.90
          and wall < 900)
    _report(4, ok, f"mean length {len_cise:.2f} < {len_wcqr:.2f}, coverage "
                   f"{cov_cise:.3f}/{cov_wcqr:.3f} >= 0.90; {wall:.0f}s (< 900s)")


def test_criterion_5_baseline_conservative():
    """MAR attrition DGP (5 covariates), n=2000, 25 reps, nested-exact
    baseline with forest learners: mean coverage >= 0.97."""
    dgp = DgpSpec(kind="appendixE", n=2000, seed=SEED)
    report = run_mc(dgp, "wcqr_nested_exact", FOREST_CFG, reps=25)
    ok = report.mean_coverage >= 0.97
    _report(5, ok, f"baseline coverage {report.mean_coverage:.4f} (>= 0.97)")


# ---- criteria 6 and 7: influence functions at the truth ----------------------


def _truth_setup(n=50_000, alpha=0.05, gamma=0.05, seed=SEED):
    """DGP1 draw plus closed-form nuisance truths.

    Quantile bands use the true conditional quantiles (CATE +- z); the score
    of either potential outcome is then max(-z - e, e - z) for a standard
    normal e, with CDF 2*Phi(z + eta) - 1 independent of x.  The surrogate
    intervals built from those bands at the true per-arm thresholds have
    interval scores |e|, with CDF 2*Phi(eta) - 1.
    """
    draw = gen_dgp1(DgpSpec(kind="dgp1", n=n, seed=seed))
    ds = draw.dataset
    z = ndtri(1 - alpha / 2)

    oracle_rng = make_rng(seed + 1)
    eps = oracle_rng.standard_normal(1_000_000)
    v_draws = np.maximum(-z - eps, eps - z)
    eta_alpha = float(np.quantile(v_draws, 1 - alpha))
    eta_gamma = float(np.quantile(np.abs(oracle_rng.standard_normal(1_000_000)),
                                  1 - gamma))

    e_d = dgp1_e_d(ds.x)
    e_r1 = dgp1_e_r(ds.x, np.ones(n))
    e_r0 = dgp1_e_r(ds.x, np.zeros(n))
    e_r_own = np.where(ds.d == 1, e_r1, e_r0)
    pi_d = e_d / (1 - e_d)

    def m_counterfactual(eta):
        return max(0.0, 2 * ndtr(z + eta) - 1)

    def m_extra(eta):
        return max(0.0, 2 * ndtr(eta) - 1)

    noise = np.where(ds.d == 1, draw.y1 - draw.cate, draw.y0)
    return {
        "draw": draw, "ds": ds, "z": z, "alpha": alpha, "gamma": gamma,
        "eta_alpha": eta_alpha, "eta_gamma": eta_gamma,
        "e_r1": e_r1, "e_r0": e_r0, "e_r_own": e_r_own, "pi_d": pi_d,
        "m_cf": m_counterfactual, "m_ex": m_extra, "noise": noise,
    }


def _counterfactual_inputs(setup, arm):
    ds = setup["ds"]
    n = ds.n
    if arm == 1:
        v_src = np.maximum(-setup["z"] - setup["noise"], setup["noise"] - setup["z"])
        v = np.where((ds.d == 1) & (ds.r == 1), v_src, np.nan)
    else:
        v_src = np.maximum(-setup["z"] - setup["noise"], setup["noise"] - setup["z"])
        v = np.where((ds.d == 0) & (ds.r == 1), v_src, np.nan)
    m = np.full(n, setup["m_cf"](setup["eta_alpha"]))
    return counterfactual_terms(arm, ds.d, ds.r, v, m, setup["e_r1"], setup["e_r0"],
                                setup["pi_d"], setup["alpha"])


def _extrapolation_inputs(setup, m_override=None, pi_override=None):
    ds = setup["ds"]
    v = np.where(ds.r == 1, np.abs(setup["noise"]), np.nan)
    m_val = setup["m_ex"](setup["eta_gamma"]) if m_override is None else m_override
    e_r = setup["e_r_own"]
    pi_r = e_r / (1 - e_r) if pi_override is None else np.full(ds.n, pi_override)
    return extrapolation_terms(ds.r, v, np.full(ds.n, m_val), pi_r, setup["gamma"])


def _zero_mean_check(values, n):
    mean = float(np.mean(values))
    sd = float(np.std(values))
    bound = 4 * sd / math.sqrt(n)
    return abs(mean) <= bound, mean, bound


def test_criterion_6_eif_zero_mean_at_truth():
    """With true nuisances and the MC-true threshold, each influence function
    has |sample mean| <= 4 SD / sqrt(n) at n = 50,000."""
    start = time.time()
    setup = _truth_setup()
    n = setup["ds"].n
    results = {}
    ok = True
    for name, values in (
        ("psi_1", psi_eval(_counterfactual_inputs(setup, 1), setup["eta_alpha"])),
        ("psi_0", psi_eval(_counterfactual_inputs(setup, 0), setup["eta_alpha"])),
        ("psi_C", psi_eval(_extrapolation_inputs(setup), setup["eta_gamma"])),
    ):
        good, mean, bound = _zero_mean_check(values, n)
        results[name] = f"{name}: |{mean:+.5f}| <= {bound:.5f}"
        ok = ok and good
    elapsed = time.time() - start
    ok = ok and elapsed < 120
    _report(6, ok, "; ".join(results.values()) + f"; {elapsed:.1f}s (< 120s)")


def test_criterion_7_double_robustness():
    """Zero mean survives a wrong conditional CDF (true odds) and wrong odds
    (true conditional CDF)."""
    setup = _truth_setup()
    n = setup["ds"].n
    wrong_m = psi_eval(_extrapolation_inputs(setup, m_override=1 - setup["gamma"]),
                       setup["eta_gamma"])
    ok_m, mean_m, bound_m = _zero_mean_check(wrong_m, n)
    wrong_pi = psi_eval(_extrapolation_inputs(setup, pi_override=2.0),
                        setup["eta_gamma"])
    ok_pi, mean_pi, bound_pi = _zero_mean_check(wrong_pi, n)
    ok = ok_m and ok_pi
    _report(7, ok, f"constant CDF: |{mean_m:+.5f}| <= {bound_m:.5f}; "
                   f"wrong odds=2: |{mean_pi:+.5f}| <= {bound_pi:.5f}")


def test_criterion_8_solver_exactness():
    """solve_smallest_eta matches a brute-force scan on 1000 random small
    instances; weighted_quantile matches enumeration on 1000 score sets."""
    rng = make_rng(SEED + 8)

    def brute_force(terms, candidates):
        for c in np.sort(candidates):
            if np.mean(psi_eval(terms, np.nextafter(c, math.inf))) >= 0.0:
                return float(c)
        return math.inf

    solver_mismatches = 0
    for i in range(1000):
        n = int(rng.integers(2, 51))
        if i % 2 == 0:
            r = rng.integers(0, 2, n)
            v = np.where(r == 1, np.round(rng.standard_normal(n), 1), np.nan)
            terms = extrapolation_terms(r=r, v=v, m=rng.uniform(0.05, 0.95, n),
                                        pi_r=rng.uniform(0.3, 3.0, n),
                                        gamma=float(rng.uniform(0.05, 0.5)))
        else:
            d = rng.integers(0, 2, n)
            r = rng.integers(0, 2, n)
            v = np.where((d == 1) & (r == 1), np.round(rng.standard_normal(n), 1), np.nan)
            terms = counterfactual_terms(1, d=d, r=r, v=v, m=rng.uniform(0.05, 0.95, n),
                                         e_r1=rng.uniform(0.2, 0.8, n),
                                         e_r0=rng.uniform(0.2, 0.8, n),
                                         pi_d=rng.uniform(0.3, 3.0, n),
                                         alpha=float(rng.uniform(0.05, 0.5)))
        candidates = terms.v[np.isfinite(terms.v)]
        got = solve_smallest_eta(terms).eta
        want = brute_force(terms, candidates)
        if got != want:
            solver_mismatches += 1

    def enumeration(scores, weights, test_weight, level):
        order = np.argsort(scores, kind="stable")
        total = weights.sum() + test_weight
        cum = 0.0
        for j in order:
            cum += weights[j] / total
            if cum >= level - 1e-12:
                return float(scores[j])
        return math.inf

    quantile_mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        scores = np.round(rng.standard_normal(n), 2)
        weights = rng.random(n) * 2
        tw = float(rng.random() * 2)
        level = float(rng.uniform(0.05, 0.99))
        got = weighted_quantile(ScoreSet(scores, weights, tw), level)
        if got != enumeration(scores, weights, tw, level):
            quantile_mismatches += 1

    ok = solver_mismatches == 0 and quantile_mismatches == 0
    _report(8, ok, f"solver mismatches {solver_mismatches}/1000, weighted-quantile "
                   f"mismatches {quantile_mismatches}/1000 (both must be 0)")


def test_criterion_9_extrapolation_nesting():
    """Pseudo-attrition holdout at n=2000: the fraction of held-out observed
    rows whose surrogate interval nests inside the extrapolated one is at
    least 1 - gamma - 0.03."""
    rng = make_rng(SEED + 9)
    gamma = CFG.gamma
    total, nested = 0, 0
    for rep in range(4):
        draw = gen_dgp1(DgpSpec(kind="dgp1", n=2000, seed=SEED + 100 + rep))
        ds = draw.dataset
        obs = np.flatnonzero(ds.r == 1)
        pseudo = obs[rng.random(obs.size) < 0.25]
        r2 = ds.r.copy()
        r2[pseudo] = 0
        ds2 = ExperimentDataset(x=ds.x, d=ds.d, r=r2, y=np.where(r2 == 1, ds.y, np.nan))
        cfg = ConformalConfig(alpha=CFG.alpha, gamma=CFG.gamma, seed=SEED + rep)
        res = run_cise(ds2, cfg)
        if not math.isfinite(res.eta_gamma):
            continue
        plan = make_splits(ds2.n, ds2.r, cfg)
        state = cise_step1(ds2, plan, cfg)
        for arm in (0, 1):
            rows = pseudo[ds.d[pseudo] == arm]
            if rows.size == 0 or not math.isfinite(state.eta_solutions[1 - arm].eta):
                continue
            cf = 1 - arm
            qlo, qhi = state.q_models[cf].predict(ds.x[rows])
            eta = state.eta_solutions[cf].eta
            cf_lo, cf_hi = qlo - eta, qhi + eta
            y = ds.y[rows]
            if arm == 1:
                ite_lo, ite_hi = y - cf_hi, y - cf_lo
            else:
                ite_lo, ite_hi = cf_lo - y, cf_hi - y
            che_lo, che_hi = res.extrapolate(ds.x[rows])
            total += rows.size
            nested += int(np.sum((che_lo <= ite_lo) & (ite_hi <= che_hi)))
    frac = nested / total if total else 0.0
    ok = total >= 500 and frac >= 1 - gamma - 0.03
    _report(9, ok, f"nesting fraction {frac:.4f} over {total} held-out rows "
                   f"(>= {1 - gamma - 0.03:.4f})")


def test_criterion_10_cli_determinism(tmp_path):
    """Every command rerun with identical flags writes byte-identical JSON
    outputs (manifests carry the volatile timestamps)."""
    sim = ["simulate", "--dgp", "dgp1", "--n", "400", "--reps", "3",
           "--method", "cise", "--learner", "glm", "--alpha", "0.05",
           "--gamma", "0.05", "--seed", "17"]
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(sim + ["--out", str(s1)]) == 0
    assert cli_main(sim + ["--out", str(s2)]) == 0
    sim_ok = ((s1 / "mc_report.json").read_bytes() == (s2 / "mc_report.json").read_bytes()
              and (s1 / "mc_long.csv").read_bytes() == (s2 / "mc_long.csv").read_bytes())

    from attrition_conformal.io import save_csv
    from attrition_conformal.simulation import gen_dgp1 as _gen

    draw = _gen(DgpSpec(kind="dgp1", n=600, seed=23))
    data = tmp_path / "exp.csv"
    mapping = save_csv(draw.dataset, data)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"outcome": "y", "treatment": "d", "response": "r",
                                    "covariates": list(mapping.covariate_cols)}))
    ana = ["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
           "--reps", "2", "--alpha", "0.05", "--gamma", "0.05", "--seed", "29"]
    a1, a2 = tmp_path / "a1", tmp_path / "a2"
    assert cli_main(ana + ["--out", str(a1)]) == 0
    assert cli_main(ana + ["--out", str(a2)]) == 0
    ana_ok = ((a1 / "ate_summary.json").read_bytes() == (a2 / "ate_summary.json").read_bytes()
              and (a1 / "intervals.csv").read_bytes() == (a2 / "intervals.csv").read_bytes())

    rep = ["report", "--in", str(s1 / "mc_report.json"), str(s2 / "mc_report.json")]
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(rep + ["--out", str(r1)]) == 0
    assert cli_main(rep + ["--out", str(r2)]) == 0
    rep_ok = ((r1 / "report.json").read_bytes() == (r2 / "report.json").read_bytes()
              and (r1 / "report.csv").read_bytes() == (r2 / "report.csv").read_bytes())

    ok = sim_ok and ana_ok and rep_ok
    _report(10, ok, f"byte-identical reruns: simulate {sim_ok}, analyze {ana_ok}, "
                    f"report {rep_ok}")
