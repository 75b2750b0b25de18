"""Doubly robust Mann-Whitney-Wilcoxon causal effect estimation.

Estimates delta = P(treated potential outcome <= control potential outcome)
across distinct subjects from observational two-arm data, combining a
logistic propensity model with a pairwise outcome-indicator model, with
joint pairwise estimating-equation inference and a Monte Carlo study
harness.
"""

from .data import CsvSchema, Dataset, PairIndex, PotentialDataset, Subject, \
    discordant_pairs, enumerate_pairs, load_csv
from .errors import (ConvergenceError, EstimabilityError, IngestionError,
                     MwwdrError, SeparationError, SingularDesignError,
                     ValidationError)
from .estimators import (EstimateResult, dr_estimate, ipw_estimate, kernel,
                         msi_estimate, mww_estimate)
from .gpi import GpiModel, fit_gpi, g_value
from .propensity import PropensityModel, fit_propensity, predict_pi
from .simstudy import (ScenarioConfig, StudySummary, generate_dataset,
                       run_study, synthetic_confounded_trial, true_delta,
                       true_gamma)
from .special import expit, std_normal_cdf
from .streams import RngStream, sample_bernoulli, sample_centered_chisq, \
    sample_normal
from .ugee import (FrmSpec, UgeeFit, WaldResult, sandwich_covariance,
                   solve_families, solve_ugee, wald_test)

__version__ = "0.1.0"

__all__ = [
    "CsvSchema", "Dataset", "PairIndex", "PotentialDataset", "Subject",
    "discordant_pairs", "enumerate_pairs", "load_csv",
    "MwwdrError", "ValidationError", "IngestionError", "EstimabilityError",
    "SingularDesignError", "SeparationError", "ConvergenceError",
    "EstimateResult", "kernel", "mww_estimate", "ipw_estimate",
    "msi_estimate", "dr_estimate",
    "GpiModel", "fit_gpi", "g_value",
    "PropensityModel", "fit_propensity", "predict_pi",
    "ScenarioConfig", "StudySummary", "generate_dataset", "true_gamma",
    "true_delta", "run_study", "synthetic_confounded_trial",
    "expit", "std_normal_cdf",
    "RngStream", "sample_normal", "sample_bernoulli", "sample_centered_chisq",
    "FrmSpec", "UgeeFit", "WaldResult", "solve_ugee", "solve_families",
    "sandwich_covariance", "wald_test",
    "__version__",
]
