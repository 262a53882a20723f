import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrition_conformal.eif import (EtaSolution, counterfactual_terms,
                                     extrapolation_terms, initial_eta, psi_eval,
                                     solve_smallest_eta)
from attrition_conformal.rng import make_rng


def _row(arm, d, r, v, m, e_r1=0.5, e_r0=0.5, pi_d=1.0, alpha=0.05):
    return counterfactual_terms(arm, [d], [r], [v], [m], [e_r1], [e_r0], [pi_d], alpha)


def test_psi1_spot_values():
    # target-arm row with m at 1 - alpha: both terms vanish
    assert psi_eval(_row(1, 0, 1, np.nan, 0.95), eta=1.0)[0] == pytest.approx(0.0)
    # source row, unit weights, score below threshold: 1 - m = 0.5
    assert psi_eval(_row(1, 1, 1, 0.0, 0.5), eta=1.0)[0] == pytest.approx(0.5)
    # attrited rows contribute exactly zero
    assert psi_eval(_row(1, 1, 0, 0.0, 0.7), eta=1.0)[0] == 0.0
    assert psi_eval(_row(1, 0, 0, np.nan, 0.7), eta=1.0)[0] == 0.0


def test_psi0_spot_values():
    assert psi_eval(_row(0, 1, 1, np.nan, 0.95), eta=1.0)[0] == pytest.approx(0.0)
    # source row (d=0), score at/above threshold: indicator 0, -m = -0.5
    assert psi_eval(_row(0, 0, 1, 2.0, 0.5), eta=1.0)[0] == pytest.approx(-0.5)
    assert psi_eval(_row(0, 0, 0, np.nan, 0.7), eta=1.0)[0] == 0.0


def test_psiC_spot_values():
    terms = extrapolation_terms(r=[0], v=[np.nan], m=[0.95], pi_r=[1.0], gamma=0.05)
    assert psi_eval(terms, eta=0.0)[0] == pytest.approx(0.0)
    terms = extrapolation_terms(r=[1], v=[0.0], m=[0.5], pi_r=[1.0], gamma=0.05)
    assert psi_eval(terms, eta=1.0)[0] == pytest.approx(0.5)
    terms = extrapolation_terms(r=[1], v=[2.0], m=[0.5], pi_r=[2.0], gamma=0.05)
    assert psi_eval(terms, eta=1.0)[0] == pytest.approx(-0.25)


def test_psiC_perfect_cdf_rows_vanish():
    # R=1 rows whose m equals the realized indicator contribute zero
    rng = make_rng(2)
    v = rng.standard_normal(100)
    eta = 0.3
    m = (v < eta).astype(float)
    terms = extrapolation_terms(r=np.ones(100), v=v, m=m, pi_r=rng.random(100) + 0.5,
                                gamma=0.1)
    assert np.allclose(psi_eval(terms, eta), 0.0)


def test_psi0_equals_psi1_after_relabeling():
    # swap (d -> 1-d, e_r1 <-> e_r0, pi_d -> 1/pi_d): psi1 becomes psi0
    rng = make_rng(3)
    n = 1000
    d = rng.integers(0, 2, n)
    r = rng.integers(0, 2, n)
    v = np.where((r == 1), rng.standard_normal(n), np.nan)
    m = rng.uniform(0.05, 0.95, n)
    e_r1 = rng.uniform(0.2, 0.8, n)
    e_r0 = rng.uniform(0.2, 0.8, n)
    pi_d = rng.uniform(0.3, 3.0, n)
    eta = 0.2
    orig = counterfactual_terms(0, d, r, v, m, e_r1, e_r0, pi_d, alpha=0.05)
    relabeled = counterfactual_terms(1, 1 - d, r, v, m, e_r0, e_r1, 1.0 / pi_d, alpha=0.05)
    assert np.allclose(psi_eval(orig, eta), psi_eval(relabeled, eta))


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_terms_reject_weights_that_break_monotonicity():
    with pytest.raises(ValueError, match="nonnegative"):
        extrapolation_terms(r=[1, 1], v=[0.1, 0.2], m=[0.5, 0.5], pi_r=[1.0, -1.0],
                            gamma=0.05)
    with pytest.raises(ValueError, match="finite"):
        extrapolation_terms(r=[1], v=[0.1], m=[0.5], pi_r=[0.0], gamma=0.05)
    with pytest.raises(ValueError, match="finite"):
        _row(1, 1, 1, 0.1, 0.5, e_r1=0.0)
    with pytest.raises(ValueError, match="arm"):
        _row(2, 1, 1, 0.1, 0.5)


def test_initial_eta_order_statistics():
    assert initial_eta(np.arange(1.0, 100.0), 0.95) == 95.0  # ceil(0.95*100)
    assert initial_eta([4.2], 0.5) == 4.2
    # level 0.975, n=39: ceil(0.975*40) = 39, clamped inside
    assert initial_eta(np.arange(1.0, 40.0), 0.975) == 39.0
    with pytest.raises(ValueError):
        initial_eta([], 0.5)
    with pytest.raises(ValueError):
        initial_eta([1.0], 1.5)


def _random_extrapolation_terms(rng, n_max=50):
    n = int(rng.integers(2, n_max))
    r = rng.integers(0, 2, n)
    if r.sum() == 0:
        r[0] = 1
    v = np.where(r == 1, np.round(rng.standard_normal(n), 1), np.nan)
    m = rng.uniform(0.05, 0.95, n)
    pi_r = rng.uniform(0.3, 3.0, n)
    gamma = float(rng.uniform(0.05, 0.5))
    return extrapolation_terms(r=r, v=v, m=m, pi_r=pi_r, gamma=gamma)


def _brute_force_scan(terms):
    """Scan every finite score in increasing order; the first nonnegative
    mean wins.  Returns (eta, moment at eta)."""
    candidates = np.sort(terms.v[np.isfinite(terms.v)])
    for c in candidates:
        moment = float(np.mean(psi_eval(terms, np.nextafter(c, math.inf))))
        if moment >= 0.0:
            return float(c), moment
    return math.inf, float(np.mean(psi_eval(terms, math.inf)))


def _column(n, elements):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@st.composite
def _solver_instances(draw):
    """Terms from one of the three builders.  Scores are rounded to one
    decimal (ties) and drawn independently of the weights (scored rows of
    zero weight); any row, or every row, may go unscored.  Dyadic instances
    set m to exactly the target level and every weight to a power of two,
    so many moments are exactly zero; the others use arbitrary floats, whose
    moments can sit within rounding of zero."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["psi1", "psi0", "psiC"]))
    d, r = draw(_column(n, st.integers(0, 1))), draw(_column(n, st.integers(0, 1)))
    scored = draw(_column(n, st.booleans()))
    v = np.where(scored, draw(_column(n, st.integers(-20, 20))) / 10, np.nan)
    if draw(st.booleans()):
        level = draw(st.sampled_from([0.25, 0.5, 0.75]))
        m = np.full(n, level)
        prob = _column(n, st.sampled_from([0.25, 0.5, 1.0]))
        odds = _column(n, st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
    else:
        level = draw(st.floats(0.5, 0.99))
        m = draw(_column(n, st.floats(0.0, 1.0)))
        prob = _column(n, st.floats(0.05, 0.95))
        odds = _column(n, st.floats(0.05, 20.0))
    if kind == "psiC":
        return extrapolation_terms(r, v, m, draw(odds), 1.0 - level)
    return counterfactual_terms(1 if kind == "psi1" else 0, d, r, v, m, draw(prob),
                                draw(prob), draw(odds), 1.0 - level)


@settings(max_examples=600, deadline=None)
@given(terms=_solver_instances())
def test_solver_matches_brute_force_scan(terms):
    """Bisection returns the scan's root and its exact moment, bit for bit."""
    sol = solve_smallest_eta(terms)
    eta, moment = _brute_force_scan(terms)
    assert (sol.eta, sol.moment_value_at_eta) == (eta, moment)
    assert sol.degenerate == math.isinf(eta)


def test_solver_monotone_moment():
    rng = make_rng(7)
    for _ in range(50):
        terms = _random_extrapolation_terms(rng)
        grid = np.linspace(-4, 4, 60)
        moments = [np.mean(psi_eval(terms, g)) for g in grid]
        assert all(b >= a - 1e-12 for a, b in zip(moments, moments[1:]))


def test_solver_no_scored_rows_constant_moment():
    # nothing jumps and nothing is a candidate: the root is +inf with the
    # flag, whatever the sign of the constant moment
    for m, sign in ((0.99, 1.0), (0.5, -1.0)):
        terms = extrapolation_terms(r=[0, 0], v=[np.nan, np.nan], m=[m, m],
                                    pi_r=[1.0, 1.0], gamma=0.05)
        sol = solve_smallest_eta(terms)
        assert isinstance(sol, EtaSolution)
        assert sol.eta == math.inf and sol.degenerate
        assert math.copysign(1.0, sol.moment_value_at_eta) == sign


def test_solver_reduces_to_weighted_quantile_form():
    # unit weights, m == 1 - alpha, balanced arms: the moment crossing sits
    # within one order statistic of the empirical (1 - alpha) quantile
    rng = make_rng(11)
    n = 400
    d = np.tile([0, 1], n // 2)
    r = np.ones(n, dtype=int)
    v = np.where(d == 1, rng.standard_normal(n), np.nan)
    alpha = 0.1
    terms = counterfactual_terms(1, d, r, v, np.full(n, 1 - alpha), np.full(n, 0.5),
                                 np.full(n, 0.5), np.ones(n), alpha)
    scores = np.sort(v[np.isfinite(v)])
    sol = solve_smallest_eta(terms)
    n_src = scores.size
    k = math.ceil((1 - alpha) * n_src)
    neighborhood = scores[max(0, k - 2):min(n_src, k + 1)]
    assert sol.eta in neighborhood
    assert sol.candidates_scanned <= math.ceil(math.log2(n_src + 1))

