"""Semiparametric logistic propensity model: fit and clipped prediction."""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (ConvergenceError, SeparationError, SingularDesignError,
                     ValidationError)
from .newton import newton
from .special import expit, logit

DEFAULT_CLIP_EPS = 1e-6
SCORE_TOL = 1e-8
STALL_TOL = 1e-6
STEP_TOL = 1e-10
MAX_ITER = 100
SEPARATION_BOUND = 30.0


@dataclass(frozen=True)
class PropensityModel:
    """Fitted logistic coefficients (intercept first)."""

    eta: np.ndarray
    intercept_only: bool
    converged: bool
    iterations: int
    score_norm: float
    clip_eps: float = DEFAULT_CLIP_EPS


def design_matrix(dataset, intercept_only):
    if intercept_only or dataset.p == 0:
        return np.ones((dataset.n, 1))
    return np.column_stack([np.ones(dataset.n), dataset.w])


def _loglik(z, xb):
    # log L = sum z*xb - log(1 + exp(xb)), computed stably
    return float(np.sum(z * xb - np.logaddexp(0.0, xb)))


def fit_propensity(dataset, intercept_only=False, clip_eps=DEFAULT_CLIP_EPS):
    """Maximum-likelihood logistic fit by IRLS with step-halving.

    Converges when max |score component| <= 1e-8, or <= 1e-6 once the
    relative Newton step falls below 1e-10 or 100 steps are taken; raises
    otherwise. A fit with any coefficient beyond +-30 is reported as
    separation, naming the covariate.
    """
    dataset.require_both_arms()
    X = design_matrix(dataset, intercept_only)
    z = dataset.z.astype(float)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise SingularDesignError("propensity design matrix is rank deficient")

    def check_separation(coefs):
        offenders = np.flatnonzero(np.abs(coefs) > SEPARATION_BOUND)
        if offenders.size:
            names = ["intercept" if k == 0 else f"covariate {k - 1}"
                     for k in offenders]
            raise SeparationError("propensity coefficients diverged; likely "
                                  f"separation in: {', '.join(names)}")

    def evaluate(eta):
        pi = expit(X @ eta)
        score = X.T @ (z - pi)
        return score, (X * (pi * (1.0 - pi))[:, None]).T @ X, \
            float(np.max(np.abs(score)))

    def advance(eta, step):
        # halve until the likelihood stops decreasing
        ll = _loglik(z, X @ eta)
        scale = 1.0
        for _ in range(30):
            if _loglik(z, X @ (eta + scale * step)) >= ll - 1e-12:
                break
            scale *= 0.5
        eta = eta + scale * step
        return eta, bool(np.linalg.norm(scale * step)
                         <= STEP_TOL * max(1.0, np.linalg.norm(eta)))

    eta = np.zeros(X.shape[1])
    eta[0] = logit(z.mean())
    try:
        fit = newton(evaluate, eta, SCORE_TOL, MAX_ITER,
                     partial(ConvergenceError, "propensity IRLS did not converge"),
                     lambda **_: SingularDesignError(
                         "singular information matrix while fitting propensity"),
                     final_tol=STALL_TOL, advance=advance)
    except ConvergenceError as exc:
        check_separation(exc.last_iterate)
        raise
    check_separation(fit.x)
    return PropensityModel(fit.x, intercept_only or dataset.p == 0, True,
                           fit.iterations, fit.score_norm, clip_eps)


def clipped_propensities(X, eta, clip_eps):
    """expit(X eta) clipped to [clip_eps, 1 - clip_eps], and the mask of the
    subjects held at a bound."""
    pi = np.clip(expit(X @ eta), clip_eps, 1.0 - clip_eps)
    return pi, (pi <= clip_eps) | (pi >= 1.0 - clip_eps)


def predict_pi_dataset(model, dataset):
    """Clipped propensities for every subject, plus the count at the bound."""
    if not model.intercept_only and dataset.p != len(model.eta) - 1:
        raise ValidationError("covariate dimension does not match the model")
    pi, at_bound = clipped_propensities(
        design_matrix(dataset, model.intercept_only), model.eta, model.clip_eps)
    return pi, int(at_bound.sum())
