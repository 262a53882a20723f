import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from attrition_conformal.conformal import (_CUM_EPS, cqr_score,
                                           expand_interval, interval_score,
                                           unweighted_interval_conformal_batch,
                                           unweighted_quantile, weighted_quantile,
                                           weighted_split_cqr_batch)
from attrition_conformal.learners import fit_mean, fit_quantile_pair
from attrition_conformal.rng import make_rng


def test_cqr_score_values():
    assert cqr_score(0.0, -1.0, 1.0) == -1.0
    assert cqr_score(2.0, -1.0, 1.0) == 1.0
    assert cqr_score(5.0, 5.0, 5.0) == 0.0
    with pytest.raises(ValueError, match="quantile pair out of order"):
        cqr_score(0.0, 1.0, -1.0)
    # the CQR score is the interval score of the point [y, y], bit for bit
    y, q_lo, spread = make_rng(2).standard_normal((3, 200))
    q_hi = q_lo + np.abs(spread)
    assert cqr_score(y, q_lo, q_hi).tobytes() == interval_score(y, y, q_lo, q_hi).tobytes()
    with pytest.raises(ValueError, match="quantile pair out of order"):
        cqr_score(y, q_hi + 1.0, q_lo)


def test_interval_score_values():
    assert interval_score(-1.0, 1.0, -2.0, 2.0) == -1.0  # nested
    assert interval_score(-3.0, 1.0, -2.0, 2.0) == 1.0   # left excess
    assert interval_score(-2.0, 2.0, -2.0, 2.0) == 0.0
    with pytest.raises(ValueError, match="interval endpoints out of order"):
        interval_score(1.0, -1.0, -2.0, 2.0)


def test_score_interval_duality():
    # y in [q_lo - eta, q_hi + eta] iff cqr_score(y, q_lo, q_hi) <= eta
    rng = make_rng(0)
    for _ in range(500):
        q_lo, spread, eta = rng.standard_normal(), abs(rng.standard_normal()), rng.standard_normal()
        q_hi = q_lo + spread
        y = rng.standard_normal() * 3
        inside = (q_lo - eta <= y <= q_hi + eta)
        assert inside == (cqr_score(y, q_lo, q_hi) <= eta)


def test_nestedness_duality():
    rng = make_rng(1)
    for _ in range(500):
        c_lo = rng.standard_normal()
        c_hi = c_lo + abs(rng.standard_normal())
        h_lo = rng.standard_normal()
        h_hi = h_lo + abs(rng.standard_normal())
        eta = rng.standard_normal()
        nested = (h_lo - eta <= c_lo) and (c_hi <= h_hi + eta)
        assert nested == (interval_score(c_lo, c_hi, h_lo, h_hi) <= eta)


# ---- weighted quantile ------------------------------------------------------

def test_expand_interval_negative_eta_keeps_ends_in_order():
    # a negative eta shrinks each interval; where the ends would cross, the
    # conformal set is empty and shows as the point at the midpoint
    lo, hi = expand_interval(np.array([0.0, 0.0, -1.0]), np.array([0.5, 4.0, 3.0]), -0.5)
    assert np.all(lo <= hi)
    assert lo.tolist() == [0.25, 0.5, -0.5] and hi.tolist() == [0.25, 3.5, 2.5]
    lo, hi = expand_interval(np.array([0.0]), np.array([0.5]), math.inf)
    assert (lo[0], hi[0]) == (-math.inf, math.inf)


def test_weighted_quantile_enumerated_masses():
    # scores [1,2,3], equal weights and test weight: masses 1/4 each
    scores, weights = np.array([1.0, 2.0, 3.0]), np.ones(3)
    assert weighted_quantile(scores, weights, 1.0, 0.5) == 2.0   # cumulative 0.25, 0.50
    assert weighted_quantile(scores, weights, 1.0, 0.9) == math.inf  # tops out at 0.75
    assert weighted_quantile(scores, weights, 1.0, 0.25) == 1.0


def test_unweighted_order_statistic_rule():
    scores = np.arange(1.0, 100.0)  # 1..99
    assert unweighted_quantile(scores, 0.95) == 95.0  # ceil(0.95 * 100) = 95
    assert unweighted_quantile(scores, 0.999) == math.inf  # index 100 > 99
    assert unweighted_quantile(np.empty(0), 0.5) == math.inf
    # a level outside (0, 1) has no order statistic; 0 would index the maximum
    for level in (0.0, -0.5, 1.0):
        with pytest.raises(ValueError, match=r"level must lie in \(0, 1\)"):
            unweighted_quantile(np.arange(1.0, 11.0), level)


def _enumeration_oracle(scores, weights, test_weight, level):
    order = np.argsort(scores, kind="stable")
    total = weights.sum() + test_weight
    cum = 0.0
    for i in order:
        cum += weights[i] / total
        if cum >= level - 1e-12:
            return float(scores[i])
    return math.inf


def test_weighted_quantile_matches_enumeration_oracle():
    rng = make_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        scores = np.round(rng.standard_normal(n), 2)  # ties on purpose
        weights = rng.random(n) * 3
        tw = float(rng.random() * 3)
        level = float(rng.uniform(0.05, 0.99))
        assert (weighted_quantile(scores, weights, tw, level)
                == _enumeration_oracle(scores, weights, tw, level))


def _brute_force_quantile(scores, weights, test_weight, level):
    """Smallest score whose total weight at or below it reaches ``level`` of
    all the mass, the test weight included; +inf if none does."""
    total = weights.sum() + test_weight
    if total <= 0:
        return math.inf
    for v in sorted(set(scores.tolist())):
        if weights[scores <= v].sum() >= level * total - _CUM_EPS * total:
            return v
    return math.inf


# weights are multiples of 1/4, so every partial sum is exact
_quarters = st.integers(0, 12).map(lambda q: q / 4)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(-4, 4).map(lambda v: v / 2), _quarters),
                      min_size=1, max_size=25),
       test_weights=st.lists(_quarters, min_size=1, max_size=4).map(lambda w: w + [0.0]),
       level=st.one_of(st.floats(1e-15, 1e-3), st.floats(1e-3, 1 - 1e-3),
                       st.floats(1 - 1e-3, 1 - 1e-15)))
def test_weighted_quantiles_match_brute_force(pairs, test_weights, level):
    """Ties, zero weights, a zero test weight and levels near 0 and 1."""
    scores = np.array([s for s, _ in pairs])
    weights = np.array([w for _, w in pairs])
    got = weighted_quantile(scores, weights, np.array(test_weights), level)
    want = [_brute_force_quantile(scores, weights, tw, level) for tw in test_weights]
    assert got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1), n_test=st.integers(1, 6),
       level=st.floats(1e-6, 1 - 1e-6))
def test_weighted_quantile_array_equals_scalar_calls(scores, seed, n_test, level):
    """An array of test weights gives, bit for bit, the scalar call per weight."""
    rng = make_rng(seed)
    weights = rng.random(len(scores)) * rng.integers(0, 2, len(scores))
    test_weights = np.append(rng.exponential(size=n_test), 0.0)
    got = weighted_quantile(scores, weights, test_weights, level)
    want = [weighted_quantile(scores, weights, float(tw), level) for tw in test_weights]
    assert got.shape == test_weights.shape
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def test_weighted_quantile_monotone_in_level():
    rng = make_rng(23)
    scores = rng.standard_normal(40)
    weights = rng.random(40)
    prev = -math.inf
    for level in np.linspace(0.05, 0.99, 40):
        q = weighted_quantile(scores, weights, 1.0, float(level))
        assert q >= prev
        prev = q


def test_batch_cqr_eta_agrees_with_weighted_quantile():
    # the batched calibration and the public weighted quantile implement the
    # same rule; cross-check them on one assembled score set
    rng = make_rng(53)
    train_x = rng.standard_normal((200, 2))
    train_y = rng.standard_normal(200)
    cal_x = rng.standard_normal((150, 2))
    cal_y = rng.standard_normal(150)
    x_test = rng.standard_normal((10, 2))

    def weight_fn(z):
        z = np.atleast_2d(z)
        return 1.0 + np.abs(z[:, 0])

    level = 0.2
    qp = fit_quantile_pair(train_x, train_y, level / 2, 1 - level / 2, "glm", 1)
    band = weighted_split_cqr_batch(qp, cal_x, cal_y, x_test, level,
                                    weight_fn(cal_x), weight_fn(x_test))
    lo, hi = qp.predict(cal_x)
    scores = np.maximum(lo - cal_y, cal_y - hi)
    w_cal = weight_fn(cal_x)
    w_test = weight_fn(x_test)
    for i in range(10):
        want = weighted_quantile(scores, w_cal, float(w_test[i]), 1 - level)
        assert band.eta[i] == want


def test_weighted_quantile_raising_top_weight_never_decreases():
    rng = make_rng(29)
    scores = rng.standard_normal(25)
    weights = rng.random(25)
    top = int(np.argmax(scores))
    base = weighted_quantile(scores, weights, 1.0, 0.8)
    weights2 = weights.copy()
    weights2[top] *= 10
    assert weighted_quantile(scores, weights2, 1.0, 0.8) >= base


_GOOD = {"scores": [0.5, -1.0, 2.0], "weights": [1.0, 0.0, 2.0], "test_weight": 1.0,
         "level": 0.5}


@pytest.mark.parametrize("field, bad, message", [
    ("scores", [], "at least one score"),
    ("weights", [1.0, 2.0], "weights must match scores in length"),
    ("scores", [0.5, math.nan, 2.0], "scores must be finite"),
    ("scores", [0.5, math.inf, 2.0], "scores must be finite"),
    ("weights", [1.0, -0.5, 2.0], "weights must be finite and nonnegative"),
    ("weights", [1.0, math.nan, 2.0], "weights must be finite and nonnegative"),
    ("test_weight", [1.0, -0.5], "test_weight must be nonnegative"),
    ("test_weight", math.nan, "test_weight must be nonnegative"),
    ("level", 0.0, r"level must lie in \(0, 1\)"),
    ("level", 1.0, r"level must lie in \(0, 1\)"),
])
def test_weighted_quantile_rejects_bad_input(field, bad, message):
    args = {**_GOOD, field: bad}
    if field == "scores":
        args["weights"] = np.ones(len(bad))
    assert math.isfinite(weighted_quantile(**_GOOD))
    with pytest.raises(ValueError, match=message):
        weighted_quantile(**args)


# ---- weighted split CQR -----------------------------------------------------

def _unit_weight_cqr(train_x, train_y, cal_x, cal_y, x_test, level):
    """Weighted split CQR with unit weights on a glm pair fitted with seed 0."""
    qp = fit_quantile_pair(train_x, train_y, level / 2, 1 - level / 2, "glm", 0)
    return weighted_split_cqr_batch(qp, cal_x, cal_y, x_test, level,
                                    np.ones(len(cal_y)), np.ones(len(x_test)))


def _independent_split_cqr(train_x, train_y, cal_x, cal_y, x_test, alpha, learner, seed):
    """Plain split CQR written independently of the weighted implementation."""
    qp = fit_quantile_pair(train_x, train_y, alpha / 2, 1 - alpha / 2, learner, seed)
    lo, hi = qp.predict(cal_x)
    scores = np.maximum(lo - cal_y, cal_y - hi)
    k = math.ceil((1 - alpha) * (len(cal_y) + 1))
    eta = math.inf if k > len(cal_y) else np.sort(scores)[k - 1]
    t_lo, t_hi = qp.predict(np.atleast_2d(x_test))
    return t_lo - eta, t_hi + eta


def test_weight_one_reduces_to_plain_split_cqr():
    rng = make_rng(11)
    train_x = rng.standard_normal((1000, 3))
    train_y = rng.standard_normal(1000)
    cal_x = rng.standard_normal((999, 3))
    cal_y = rng.standard_normal(999)
    x_test = rng.standard_normal((20, 3))

    band = _unit_weight_cqr(train_x, train_y, cal_x, cal_y, x_test, 0.1)
    want_lo, want_hi = _independent_split_cqr(train_x, train_y, cal_x, cal_y,
                                              x_test, 0.1, "glm", 0)
    assert np.allclose(band.lo, want_lo)
    assert np.allclose(band.hi, want_hi)
    # eta is the 900th order statistic of the calibration scores
    qp_scores_eta = band.eta[0]
    z = ndtri(0.95)
    assert abs(band.lo.mean() + z + qp_scores_eta) < 0.2
    assert abs(band.hi.mean() - z - qp_scores_eta) < 0.2


def test_constant_outcomes_give_point_interval():
    rng = make_rng(13)
    x = rng.standard_normal((50, 2))
    y = np.full(50, 2.5)
    band = _unit_weight_cqr(x[:25], y[:25], x[25:], y[25:], x[:1], 0.1)
    assert band.lo[0] == pytest.approx(2.5) and band.hi[0] == pytest.approx(2.5)


def test_uninformative_interval_when_test_weight_dominates():
    rng = make_rng(19)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)

    def weight_fn(z):
        z = np.atleast_2d(z)
        # unit weights on calibration rows, huge weight at the test point
        return np.where(np.abs(z[:, 0]) > 90, 1e6, 1.0)

    x_test = np.array([[99.0, 99.0], [0.0, 0.0]])  # the second point has unit weight
    qp = fit_quantile_pair(x[:20], y[:20], 0.05, 0.95, "glm", 0)
    band = weighted_split_cqr_batch(qp, x[20:], y[20:], x_test, 0.1,
                                    weight_fn(x[20:]), weight_fn(x_test))
    assert band.uninformative.tolist() == [True, False]
    # an unreachable quantile falls back to the largest calibration score
    top = cqr_score(y[20:], *qp.predict(x[20:])).max()
    assert np.all(band.eta[band.uninformative] == top)
    assert np.isfinite(band.lo).all() and np.isfinite(band.hi).all()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("where", ["w_cal", "w_test"])
def test_weights_must_be_finite_and_positive(bad, where):
    rng = make_rng(17)
    x = rng.standard_normal((45, 2))
    y = rng.standard_normal(45)
    qp = fit_quantile_pair(x[:20], y[:20], 0.05, 0.95, "glm", 0)
    weights = {"w_cal": np.ones(20), "w_test": np.ones(5)}
    weights[where][3] = bad
    with pytest.raises(ValueError, match="weights must be finite and positive"):
        weighted_split_cqr_batch(qp, x[20:40], y[20:40], x[40:], 0.1, **weights)


def test_split_cqr_marginal_coverage():
    # exchangeable data: coverage >= 1 - alpha - 3 binomial SE over 60 reps
    rng = make_rng(31)
    alpha = 0.1
    hits, total = 0, 0
    for _ in range(60):
        x = rng.standard_normal((360, 2))
        y = x[:, 0] + rng.standard_normal(360)
        band = _unit_weight_cqr(x[:150], y[:150], x[150:300], y[150:300], x[300:], 0.1)
        hits += int(np.sum((band.lo <= y[300:]) & (y[300:] <= band.hi)))
        total += 60
    coverage = hits / total
    se = math.sqrt(alpha * (1 - alpha) / total)
    assert coverage >= 1 - alpha - 3 * se


# ---- unweighted interval conformal -----------------------------------------

def _interval_conformal(x, lo, hi, x_test, gamma, split_seed):
    """Glm endpoint means (seed 0) fitted on one half of the rows, split by
    ``split_seed``, and interval conformal calibrated on the other half."""
    order = make_rng(split_seed).permutation(x.shape[0])
    tr, ca = order[:x.shape[0] // 2], order[x.shape[0] // 2:]
    h_lo, h_hi = fit_mean(x[tr], lo[tr], "glm", 0), fit_mean(x[tr], hi[tr], "glm", 0)
    return unweighted_interval_conformal_batch(h_lo, h_hi, x[ca], lo[ca], hi[ca], x_test, gamma)


def test_interval_conformal_identical_intervals():
    rng = make_rng(37)
    x = rng.standard_normal((40, 2))
    lo = np.zeros(40)
    hi = np.ones(40)
    band = _interval_conformal(x, lo, hi, x[:1], 0.2, split_seed=0)
    assert band.lo[0] == pytest.approx(0.0, abs=1e-9)
    assert band.hi[0] == pytest.approx(1.0, abs=1e-9)


def test_interval_conformal_quantile_index_rule():
    # gamma=0.05 with 99 calibration rows -> the ceil(0.95*100)=95th score
    rng = make_rng(41)
    n = 198  # halves into 99 train / 99 cal
    x = rng.standard_normal((n, 2))
    lo = x[:, 0] - 1.0 + 0.1 * rng.standard_normal(n)
    hi = x[:, 0] + 1.0 + 0.1 * rng.standard_normal(n)
    band = _interval_conformal(x, lo, hi, x[:5], 0.05, split_seed=3)
    # the helper's split and fits, scored independently
    order = make_rng(3).permutation(n)
    tr, ca = order[:n // 2], order[n // 2:]
    h_lo, h_hi = fit_mean(x[tr], lo[tr], "glm", 0), fit_mean(x[tr], hi[tr], "glm", 0)
    scores = np.maximum(h_lo.predict(x[ca]) - lo[ca], hi[ca] - h_hi.predict(x[ca]))
    assert scores.size == 99
    assert np.all(band.eta == np.sort(scores)[94])


def test_interval_conformal_single_calibration_row_is_unbounded():
    rng = make_rng(43)
    x = rng.standard_normal((4, 2))  # split 2/2; gamma small forces index 3 > 2
    lo, hi = x[:, 0] - 1, x[:, 0] + 1
    with np.errstate(all="ignore"):
        band = _interval_conformal(x, lo, hi, x[:2], 0.05, split_seed=0)
    assert band.uninformative.all()
    assert band.lo[0] == -math.inf
