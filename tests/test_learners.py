import numpy as np
import pytest
from scipy.special import expit, ndtri

from attrition_conformal.data import GLM, RANDOM_FOREST, InsufficientDataError
from attrition_conformal.forest import fit_forest
from attrition_conformal.learners import (ForestMean, ForestQuantilePair, LinearMean,
                                          QuantilePairModel, fit_conditional_cdf,
                                          fit_mean, fit_propensity, fit_quantile,
                                          fit_quantile_pair)
from attrition_conformal.rng import make_rng

CLIP = 0.01


def test_spec_validation():
    # every fit rejects an unknown learner name, also on data it would fit
    # without a model (single-class labels, constant targets)
    x, y = np.zeros((10, 2)), np.arange(10.0)
    for bad in ("boosting", "quantile_linear"):
        with pytest.raises(ValueError, match="unknown learner"):
            fit_propensity(x, np.ones(10), bad, 0)
        with pytest.raises(ValueError, match="unknown learner"):
            fit_mean(x, y, bad, 0)
        with pytest.raises(ValueError, match="unknown learner"):
            fit_quantile(x, y, 0.5, bad, 0)
        with pytest.raises(ValueError, match="unknown learner"):
            fit_quantile_pair(x, np.full(10, 1.0), 0.1, 0.9, bad, 0)
        with pytest.raises(ValueError, match="unknown learner"):
            fit_conditional_cdf(x, y, 0.5, bad, 0)


# ---- propensities -----------------------------------------------------------

def test_propensity_balanced_noise_predicts_half():
    # Bernoulli(0.5) labels independent of features: the truth is 0.5
    rng = make_rng(1)
    x = rng.standard_normal((10_000, 2))
    labels = (rng.random(10_000) < 0.5).astype(float)
    model = fit_propensity(x, labels, GLM, 0)
    p = model.predict_proba(rng.standard_normal((500, 2)))
    assert np.all(np.abs(p - 0.5) < 0.02)


def test_propensity_single_class_degenerates_to_clip():
    model = fit_propensity(np.zeros((10, 2)), np.ones(10), GLM, 0)
    assert model.degenerate
    assert np.allclose(model.predict_proba(np.zeros((3, 2))), 1.0 - CLIP)
    model0 = fit_propensity(np.zeros((10, 2)), np.zeros(10), GLM, 0)
    assert np.allclose(model0.predict_proba(np.zeros((3, 2))), CLIP)


def test_propensity_recovers_attrition_model_coefficients():
    # labels ~ Bern(logistic(-0.25 + 0.5 d + 0.2 x1 - 0.3 x2)) at n=20000;
    # IRLS consistency puts every coefficient within +-0.1
    rng = make_rng(7)
    n = 20_000
    d = (rng.random(n) < 0.5).astype(float)
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    p = expit(-0.25 + 0.5 * d + 0.2 * x1 - 0.3 * x2)
    labels = (rng.random(n) < p).astype(float)
    model = fit_propensity(np.column_stack([d, x1, x2]), labels, GLM, 0)
    assert abs(model.score.intercept_ - (-0.25)) < 0.1
    assert np.all(np.abs(model.score.coef_ - np.array([0.5, 0.2, -0.3])) < 0.1)


def test_propensity_outputs_always_clipped():
    rng = make_rng(3)
    x = rng.standard_normal((500, 2))
    labels = (x[:, 0] > 0).astype(float)  # separable -> extreme fitted logits
    for kind in (GLM, RANDOM_FOREST):
        model = fit_propensity(x, labels, kind, 0)
        p = model.predict_proba(rng.standard_normal((300, 2)) * 3)
        assert p.min() >= CLIP and p.max() <= 1.0 - CLIP


# ---- quantiles --------------------------------------------------------------

def test_quantile_pair_gaussian_tails():
    # oracle: N(0,1) quantiles at (0.025, 0.975) are -+1.959964
    rng = make_rng(42)
    x = rng.standard_normal((20_000, 3))
    y = rng.standard_normal(20_000)
    z = ndtri(0.975)
    qp = fit_quantile_pair(x, y, 0.025, 0.975, GLM, 0)
    lo, hi = qp.predict(x[:200])
    assert abs(lo.mean() - (-z)) < 0.05
    assert abs(hi.mean() - z) < 0.05


def test_quantile_intercept_only_equals_empirical_quantile():
    # pinball optimality: intercept-only fit = sample quantile within 1e-3
    rng = make_rng(5)
    y = rng.standard_normal(501)
    x = np.zeros((501, 1))
    for level in (0.1, 0.33, 0.5, 0.9):
        m = fit_quantile(x, y, level, GLM, 0)
        want = np.quantile(y, level, method="inverted_cdf")
        assert abs(m.predict(x[:1])[0] - want) < 1e-3


def test_quantile_constant_targets_exact():
    qp = fit_quantile_pair(np.zeros((30, 2)), np.full(30, 3.0), 0.1, 0.9,
                           GLM, 0)
    lo, hi = qp.predict(np.zeros((4, 2)))
    assert np.array_equal(lo, np.full(4, 3.0))
    assert np.array_equal(hi, np.full(4, 3.0))


def test_quantile_level_order_enforced():
    with pytest.raises(ValueError):
        fit_quantile_pair(np.zeros((30, 1)), np.arange(30.0), 0.9, 0.1, GLM, 0)


def test_quantile_no_crossing_after_repair():
    rng = make_rng(9)
    x = rng.standard_normal((60, 5))
    y = 0.1 * rng.standard_normal(60)
    for kind in (GLM, RANDOM_FOREST):
        qp = fit_quantile_pair(x, y, 0.45, 0.55, kind, 0)
        lo, hi = qp.predict(rng.standard_normal((200, 5)) * 2)
        assert (lo <= hi).all()


def test_forest_quantiles_gaussian_tails():
    rng = make_rng(12)
    x = rng.standard_normal((4000, 3))
    y = rng.standard_normal(4000)
    qp = fit_quantile_pair(x, y, 0.05, 0.95, RANDOM_FOREST, 0)
    lo, hi = qp.predict(x[:200])
    z = ndtri(0.95)
    # leaf pooling shrinks tails a bit; a loose band around the truth
    assert abs(lo.mean() + z) < 0.25
    assert abs(hi.mean() - z) < 0.25


# ---- means ------------------------------------------------------------------

def test_mean_exact_linear_recovery():
    rng = make_rng(21)
    x = rng.standard_normal((100, 4))
    m = fit_mean(x, 2.0 * x[:, 0], GLM, 0)
    assert np.abs(m.predict(x) - 2.0 * x[:, 0]).max() < 1e-8


def test_mean_constant_targets():
    m = fit_mean(np.random.default_rng(0).standard_normal((50, 3)), np.full(50, 4.5),
                 GLM, 0)
    assert np.allclose(m.predict(np.zeros((5, 3))), 4.5)


def test_mean_rank_deficient_falls_back_to_ridge():
    rng = make_rng(2)
    base = rng.standard_normal((40, 2))
    x = np.column_stack([base, base[:, 0]])  # duplicated column
    m = fit_mean(x, base[:, 0] + 0.1 * rng.standard_normal(40), GLM, 0)
    assert m.degenerate and m.warning == "rank-deficient design"
    assert np.isfinite(m.predict(x)).all()


def test_forest_beats_glm_on_friedman_surface():
    rng = make_rng(77)
    x = rng.random((800, 5))
    y = (10 * np.sin(np.pi * x[:, 0] * x[:, 1]) + 20 * (x[:, 2] - 0.5) ** 2
         + 10 * x[:, 3] + 5 * x[:, 4] + rng.standard_normal(800))
    glm = fit_mean(x, y, GLM, 0)
    forest = fit_mean(x, y, RANDOM_FOREST, 2)
    mse_glm = np.mean((glm.predict(x) - y) ** 2)
    mse_forest = np.mean((forest.predict(x) - y) ** 2)
    assert mse_forest <= mse_glm


def test_mean_too_few_rows():
    with pytest.raises(InsufficientDataError):
        fit_mean(np.zeros((1, 2)), np.zeros(1), GLM, 0)


# ---- conditional CDF --------------------------------------------------------

def test_conditional_cdf_uniform_scores():
    # scores ~ U(0,1) independent of x, threshold 0.3: truth is 0.3 everywhere
    rng = make_rng(8)
    x = rng.standard_normal((20_000, 3))
    scores = rng.random(20_000)
    model = fit_conditional_cdf(x, scores, 0.3, GLM, 0)
    p = model.predict_proba(x[:300])
    assert np.all(np.abs(p - 0.3) < 0.03)


def test_conditional_cdf_degenerate_thresholds():
    rng = make_rng(4)
    x = rng.standard_normal((100, 2))
    scores = rng.random(100)
    below = fit_conditional_cdf(x, scores, scores.min() - 1.0, GLM, 0)
    assert np.allclose(below.predict_proba(x[:5]), CLIP)
    above = fit_conditional_cdf(x, scores, scores.max() + 1.0, GLM, 0)
    assert np.allclose(above.predict_proba(x[:5]), 1.0 - CLIP)


def test_conditional_cdf_requires_finite_threshold():
    with pytest.raises(ValueError):
        fit_conditional_cdf(np.zeros((10, 1)), np.zeros(10), np.inf, GLM, 0)


# ---- learner families -------------------------------------------------------

def test_learner_families_per_role():
    # one family serves every role: glm fits linear columns, random_forest forests
    rng = make_rng(6)
    x = rng.standard_normal((120, 3))
    y = x[:, 0] + rng.standard_normal(120)
    labels = (rng.random(120) < 0.5).astype(float)
    for learner, pair, column in ((GLM, QuantilePairModel, LinearMean),
                                  (RANDOM_FOREST, ForestQuantilePair, ForestMean)):
        assert type(fit_quantile_pair(x, y, 0.1, 0.9, learner, 4)) is pair
        assert isinstance(fit_propensity(x, labels, learner, 4).score, column)
        assert isinstance(fit_conditional_cdf(x, y, 0.0, learner, 4).score, column)
        assert isinstance(fit_mean(x, y, learner, 4), column)


# ---- fit diagnostics ----------------------------------------------------------

def _diagnostics(model):
    assert type(model.degenerate) is bool
    assert model.warning is None or type(model.warning) is str
    return model.degenerate, model.warning


@pytest.mark.parametrize("learner", [GLM, RANDOM_FOREST])
def test_every_fit_carries_degenerate_and_warning(learner):
    rng = make_rng(10)
    x = rng.standard_normal((80, 2))
    y = x[:, 0] + rng.standard_normal(80)
    labels = (rng.random(80) < 0.5).astype(float)
    fits = (fit_propensity(x, labels, learner, 1), fit_mean(x, y, learner, 1),
            fit_quantile(x, y, 0.3, learner, 1), fit_quantile_pair(x, y, 0.1, 0.9, learner, 1),
            fit_conditional_cdf(x, y, 0.0, learner, 1))
    for model in fits:
        degenerate, warning = _diagnostics(model)
        assert not degenerate
        if learner == RANDOM_FOREST:
            assert warning is None

    # single-class labels: a degenerate constant probability that says why
    for model in (fit_propensity(x, np.ones(80), learner, 1),
                  fit_conditional_cdf(x, y, y.min() - 1.0, learner, 1)):
        assert _diagnostics(model) == (True, "single-class labels")

    # constant targets: the pair is degenerate, with no warning
    pair = fit_quantile_pair(x, np.full(80, 2.5), 0.1, 0.9, learner, 1)
    assert _diagnostics(pair) == (True, None)
    assert _diagnostics(fit_mean(x, np.full(80, 2.5), learner, 1))[1] is None
    _diagnostics(fit_quantile(x, np.full(80, 2.5), 0.5, learner, 1))

    # rank-deficient design
    dup = np.column_stack([x, x[:, 0]])
    degenerate, warning = _diagnostics(fit_mean(dup, y, learner, 1))
    if learner == GLM:
        assert (degenerate, warning) == (True, "rank-deficient design")
    for model in (fit_propensity(dup, labels, learner, 1),
                  fit_quantile_pair(dup, y, 0.1, 0.9, learner, 1)):
        _diagnostics(model)


def test_forest_quantile_is_the_forest_pooled_quantile():
    rng = make_rng(11)
    x = rng.standard_normal((150, 3))
    y = x[:, 1] + rng.standard_normal(150)
    x_new = rng.standard_normal((40, 3))
    for level in (0.05, 0.5, 0.9):
        got = fit_quantile(x, y, level, RANDOM_FOREST, 3).predict(x_new)
        want = fit_forest(x, y, 3).predict_quantiles(x_new, level, level)[0]
        assert np.array_equal(got, want)
