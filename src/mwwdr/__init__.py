"""Doubly robust Mann-Whitney-Wilcoxon causal effect estimation.

Estimates delta = P(treated potential outcome <= control potential outcome)
across distinct subjects from observational two-arm data, combining a
logistic propensity model with a pairwise outcome-indicator model, with
joint pairwise estimating-equation inference and a Monte Carlo study
harness.
"""

from .data import CsvSchema, Dataset, PotentialDataset, load_csv
from .errors import (ConvergenceError, EstimabilityError, IngestionError,
                     MwwdrError, SeparationError, SingularDesignError,
                     ValidationError)
from .estimators import EstimateResult, ipw_estimate, mww_estimate
from .gpi import GpiModel, fit_gpi
from .propensity import PropensityModel, fit_propensity
from .simstudy import (ScenarioConfig, StudySummary, generate_dataset,
                       run_study, synthetic_confounded_trial, true_delta,
                       true_gamma)
from .special import expit, std_normal_cdf
from .streams import RngStream
from .ugee import (FrmSpec, UgeeFit, WaldResult, sandwich_covariance,
                   solve_families, solve_ugee, wald_test)

__version__ = "0.1.0"

__all__ = [
    "CsvSchema", "Dataset", "PotentialDataset", "load_csv",
    "MwwdrError", "ValidationError", "IngestionError", "EstimabilityError",
    "SingularDesignError", "SeparationError", "ConvergenceError",
    "EstimateResult", "mww_estimate", "ipw_estimate",
    "GpiModel", "fit_gpi",
    "PropensityModel", "fit_propensity",
    "ScenarioConfig", "StudySummary", "generate_dataset", "true_gamma",
    "true_delta", "run_study", "synthetic_confounded_trial",
    "expit", "std_normal_cdf",
    "RngStream",
    "FrmSpec", "UgeeFit", "WaldResult", "solve_ugee", "solve_families",
    "sandwich_covariance", "wald_test",
    "__version__",
]
