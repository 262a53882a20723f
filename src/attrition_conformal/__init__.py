"""Distribution-free prediction intervals for treatment effects under attrition.

The package implements a two-step conformal procedure for randomized
experiments with missing outcomes: counterfactual intervals calibrated by
influence-function moment conditions on the observed group, then a second
calibrated expansion that carries the treatment-effect intervals to the
attrited units.  A weighted-CQR nested baseline, IPW estimation, synthetic
benchmark generators, and a CLI round out the toolkit.
"""

from .conformal import (cqr_score, interval_score, unweighted_interval_conformal_batch,
                        weighted_quantile, weighted_split_cqr_batch)
from .data import (LEARNERS, ConformalConfig, DataValidationError, ExperimentDataset,
                   InsufficientDataError, SplitPlan)
from .eif import (EtaSolution, PsiTerms, counterfactual_terms, extrapolation_terms,
                  initial_eta, psi_eval, solve_smallest_eta)
from .learners import (fit_conditional_cdf, fit_mean, fit_propensity, fit_quantile,
                       fit_quantile_pair)
from .pipelines import (AteEstimate, AteSummary, CiseResult, aggregate_ate,
                        cise_step1, cise_step2, ipw_ate, make_splits, run_cise,
                        wcqr_nested_baseline)
from .simulation import (DgpSpec, McReport, SimulatedDraw, compute_metrics, generate,
                         oracle_interval, run_mc)

__version__ = "0.1.0"
