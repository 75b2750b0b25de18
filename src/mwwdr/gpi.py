"""Pairwise outcome model for the indicator I(y_first_treated <= y_second_control).

The model regresses that indicator on both subjects' covariates through a
probit (default) or logit link: g = link_inv(g0 + g11'w_first + g10'w_second).
Fitting uses every observed discordant (treated, control) pair with
Bernoulli working variance g(1 - g). The Newton steps on the observed
information, minus the exact Jacobian of that score, so it converges
quadratically under either link; the sandwich's bread keeps the expected
information. gamma_block gives both.
"""

from dataclasses import dataclass
from functools import partial
from statistics import NormalDist

import numpy as np

from .data import kernel_sums, outcome_kernel, pair_tiles, treated_control
from .errors import (ConvergenceError, EstimabilityError, SeparationError,
                     ValidationError)
from .newton import newton
from .parallel import TilePool
from .special import _check_finite, expit, logit, normal_cdf_pdf

LINKS = ("probit", "logit")
SCORE_TOL = 1e-8
MAX_ITER = 100
SEPARATION_BOUND = 30.0


def link_values(link, a):
    """g and dg/da at the linear predictors a (an array), g clamped as
    special's inverse links clamp it; a is not written to."""
    if link == "logit":
        g = expit(a)
        return g, g * (1.0 - g)
    _check_finite(a, "linear predictor")
    return normal_cdf_pdf(a)


def pair_link_values(link, x, y, constant):
    """(A, G, D), all writable: the predictors A = x[:, None] + y[None, :]
    of a block of pairs and link_values there. A model without covariate
    columns (constant) has one predictor: its link is evaluated once and
    the three arrays are filled."""
    if not constant:
        A = x[:, None] + y[None, :]
        return (A, *link_values(link, A))
    a = x[:1] + y[:1]
    return tuple(np.full((len(x), len(y)), v[0]) for v in (a, *link_values(link, a)))


def link_initial(link, mean):
    mean = min(max(mean, 1e-6), 1.0 - 1e-6)
    if link == "probit":
        return NormalDist().inv_cdf(mean)
    return logit(mean)


@dataclass(frozen=True)
class GpiModel:
    """Fitted pairwise-indicator model coefficients.

    gamma stacks (g0, g11, g10); for a constant-only model it is just (g0,).
    """

    gamma: np.ndarray
    link: str
    constant_only: bool
    p: int
    converged: bool
    iterations: int
    score_norm: float


def predictors(gamma, w_first, w_second):
    """(a1, a0) with a1 = g0 + g11'w_first and a0 = g10'w_second, so that
    the linear predictor of the ordered (first a, second b) pair is
    a1[a] + a0[b]."""
    p = w_first.shape[1]
    return gamma[0] + w_first @ gamma[1:1 + p], w_second @ gamma[1 + p:]


def model_covariates(w, constant_only):
    """The covariate columns the model reads: none for the constant model,
    which every formula here then treats as the model with p = 0."""
    return w[:, :0] if constant_only else w


def gamma_block(K, G, D, w1, w0, link=None, A=None):
    """Score and information of the outcome block over one block of
    treated x control pairs, with the per-subject scores or not.

    K, G and D are the block's matrices of the observed indicators, the
    modeled g and its derivative in the linear predictor; w1 and w0 the
    model's covariate rows of its treated and its control subjects. With
    u = (1, w_t, w_c) and v = g(1 - g), a pair contributes the score
    S u, S = d v^-1 (K - g), and the expected information d^2 v^-1 u u'.
    Every output is a sum over the block's pairs, so the blocks of a tiling
    add up to the whole treated x control block.

    Without link (the sandwich's form) it returns (score, info, rows1,
    rows0) with the expected information: rows1[a] sums treated subject
    a's pair scores, rows0[b] control subject b's, so both sum to the
    score; no input is written to. With link (the Newton's form) it
    returns (score, info) with the observed information, minus the
    Jacobian of the score: a pair's weight d^2 / v gains
    S (d (1 - 2g) / v - d'/d), which is zero under logit, the canonical
    link, and S (a + d (1 - 2g) / v) under probit, read from the block's
    linear predictors A. The weight is then minus the second derivative
    of K log g + (1 - K) log(1 - g) in a, positive for K in [0, 1] where
    g is not clamped. G and A are overwritten.
    """
    V = 1.0 - G
    V *= G  # v
    S = D / V
    Q = D * D
    Q /= V
    np.subtract(K, G, out=V)
    if link == "probit":
        G *= -2.0
        G += 1.0
        G *= S
        A += G  # a + d (1 - 2g) / v
    S *= V
    if link == "probit":
        A *= S
        Q += A
    rs, cs = S.sum(axis=1), S.sum(axis=0)
    qr, qc = Q.sum(axis=1), Q.sum(axis=0)
    p = w1.shape[1]
    score = np.concatenate([[rs.sum()], w1.T @ rs, w0.T @ cs])
    info = np.empty((1 + 2 * p, 1 + 2 * p))
    info[0, 0] = Q.sum()
    info[0, 1:1 + p] = info[1:1 + p, 0] = w1.T @ qr
    info[0, 1 + p:] = info[1 + p:, 0] = w0.T @ qc
    info[1:1 + p, 1:1 + p] = (w1 * qr[:, None]).T @ w1
    info[1 + p:, 1 + p:] = (w0 * qc[:, None]).T @ w0
    info[1:1 + p, 1 + p:] = w1.T @ Q @ w0
    info[1 + p:, 1:1 + p] = info[1:1 + p, 1 + p:].T
    if link is not None:
        return score, info
    rows1 = np.column_stack([rs, w1 * rs[:, None], S @ w0])
    rows0 = np.column_stack([cs, S.T @ w1, w0 * cs[:, None]])
    return score, info, rows1, rows0


def fit_gpi(dataset, constant_only=False, link="probit"):
    """Newton solve of the discordant-pair estimating equation.

    Score: sum over observed (treated, control) pairs of
    d * v^-1 * (indicator - g), with d the gradient of g in gamma and
    v = g(1 - g). Each step solves with the observed information
    (gamma_block's Newton form). The blocks run on the caller's thread;
    solve_families runs fit_gpi_pairs on its tile pool.
    """
    t, c = treated_control(dataset)
    w = model_covariates(dataset.w, constant_only)
    return fit_gpi_pairs(dataset.y[t], dataset.y[c], dataset.ties,
                         w[t], w[c], link, TilePool())


def fit_gpi_pairs(y1, y0, ties, w1, w0, link, pool):
    """fit_gpi on the outcomes y1 of the treated and y0 of the control
    subjects, scored with or without ties, and their model covariate rows
    w1, w0 (zero columns for the constant model). The mean indicator it
    starts from is taken from one sort (data.kernel_sums); every pair sum of
    the Newton streams over the treated x control blocks of pair_tiles, the
    blocks the sandwich's pass reads, through the tile map of the TilePool
    pool."""
    if link not in LINKS:
        raise ValidationError(f"link must be one of {LINKS}")
    n1, n0 = len(y1), len(y0)
    m = n1 * n0
    if m == 0:
        raise EstimabilityError("no discordant pairs to fit the outcome model on")
    p = w1.shape[1]
    blocks = [(rows, slice(cols.start - n1, cols.stop - n1))
              for _, _, rows, cols in pair_tiles(n1 + n0, n1)
              if rows.start < rows.stop and cols.start < cols.stop]
    mean_ind = float(kernel_sums(y1, y0, ties).sum()) / m
    if mean_ind in (0.0, 1.0):
        raise SeparationError(
            f"all observed pair indicators equal {int(mean_ind)}; "
            "the outcome model intercept diverges")

    def evaluate(gamma):
        if np.max(np.abs(gamma)) > SEPARATION_BOUND:
            raise SeparationError(
                "outcome-model fit diverged; response may be degenerate")
        a1, a0 = predictors(gamma, w1, w0)

        def block_sums(block):
            a, b = block
            A, G, D = pair_link_values(link, a1[a], a0[b], p == 0)
            return gamma_block(outcome_kernel(y1[a], y0[b], ties), G, D,
                               w1[a], w0[b], link, A)

        score = info = 0.0
        for s, q in pool.map(block_sums, blocks):
            score = score + s
            info = info + q
        return score, info, float(np.max(np.abs(score)))

    gamma = np.zeros(1 + 2 * p)
    gamma[0] = link_initial(link, mean_ind)
    fit = newton(evaluate, gamma, max(SCORE_TOL, m * 1e-13), MAX_ITER,
                 partial(ConvergenceError,
                         "outcome-model Newton iteration did not converge"),
                 partial(ConvergenceError, "singular Jacobian in outcome-model fit"))
    return GpiModel(fit.x, link, p == 0, p, True, fit.iterations, fit.score_norm)
