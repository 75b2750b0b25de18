"""Pairwise outcome model for the indicator I(y_first_treated <= y_second_control).

The model regresses that indicator on both subjects' covariates through a
probit (default) or logit link: g = link_inv(g0 + g11'w_first + g10'w_second).
Fitting uses every observed discordant (treated, control) pair with
Bernoulli working variance g(1 - g). Its Newton, ugee._fit_gamma_pairwise,
sets the pair workspace's predictors at every step and steps on the
observed information, minus the exact Jacobian of that score, so it
converges quadratically under either link; the sandwich's bread keeps the
expected information. gamma_block gives both. At zero slopes every pair has
one predictor, and flat_gamma_block gives the Newton's form from kernel
sums without visiting a pair: the fit's first evaluation, and every one of
a constant model.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .special import _check_finite, expit, logit, normal_cdf_pdf

LINKS = ("probit", "logit")
# the settings of the outcome Newton, ugee._fit_gamma_pairwise
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


def pair_link_values(link, x, y):
    """(A, G, D), all writable: the predictors A = x[:, None] + y[None, :]
    of a block of pairs and link_values there."""
    A = x[:, None] + y[None, :]
    return (A, *link_values(link, A))


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
    score, info = _score_info(rs, cs, Q.sum(axis=1), Q.sum(axis=0), Q.sum(),
                              w1.T @ Q @ w0, w1, w0)
    if link is not None:
        return score, info
    rows1 = np.column_stack([rs, w1 * rs[:, None], S @ w0])
    rows0 = np.column_stack([cs, S.T @ w1, w0 * cs[:, None]])
    return score, info, rows1, rows0


def _score_info(rs, cs, qr, qc, qtotal, cross, w1, w0):
    """The outcome block's score and information from the sums of its pair
    terms: rs and qr sum the score term S and the weight over each treated
    subject's pairs, cs and qc over each control subject's, qtotal sums the
    weight over the block and cross is w1' Q w0, Q the weights."""
    p = w1.shape[1]
    score = np.concatenate([[rs.sum()], w1.T @ rs, w0.T @ cs])
    info = np.empty((1 + 2 * p, 1 + 2 * p))
    info[0, 0] = qtotal
    info[0, 1:1 + p] = info[1:1 + p, 0] = w1.T @ qr
    info[0, 1 + p:] = info[1 + p:, 0] = w0.T @ qc
    info[1:1 + p, 1:1 + p] = (w1 * qr[:, None]).T @ w1
    info[1 + p:, 1 + p:] = (w0 * qc[:, None]).T @ w0
    info[1:1 + p, 1 + p:] = cross
    info[1 + p:, 1:1 + p] = cross.T
    return score, info


def flat_gamma_block(sums, a, g, d, w1, w0, link):
    """gamma_block's Newton form, (score, info), over a treated x control
    block whose pairs all have the predictor a, so that g and dg/da take
    one value, g and d. A pair's score term S = c (K - g), c = d / v, and
    its weight d^2 / v + e S, with e = a + c (1 - 2g) under probit and 0
    under logit, are then linear in the indicator K, so every sum comes
    from sums = (k1, k0, kw): each treated subject's kernel sum over the
    controls, each control's over the treated, and w1' K w0. No pair is
    visited."""
    k1, k0, kw = sums
    n1, n0 = len(k1), len(k0)
    v = g * (1.0 - g)
    c, q = d / v, d * d / v
    e = a + c * (1.0 - 2.0 * g) if link == "probit" else 0.0
    rs, cs = c * (k1 - n0 * g), c * (k0 - n1 * g)
    ss = np.outer(w1.sum(axis=0), w0.sum(axis=0))  # w1' 1 1' w0
    return _score_info(rs, cs, n0 * q + e * rs, n1 * q + e * cs,
                       n1 * n0 * q + e * rs.sum(), q * ss + e * c * (kw - g * ss),
                       w1, w0)


def fit_gpi(dataset, constant_only=False, link="probit"):
    """Newton solve of the discordant-pair estimating equation.

    Score: sum over observed (treated, control) pairs of
    d * v^-1 * (indicator - g), with d the gradient of g in gamma and
    v = g(1 - g). Each step solves with the observed information
    (gamma_block's Newton form). This is the outcome fit of solve_families
    (ugee._fit_gamma_pairwise) on a workspace of its own, which sets the
    predictors at every step; its tiles run on the caller's thread.
    """
    from .ugee import FrmSpec, _fit_gamma_pairwise, _Workspace  # ugee imports gpi
    spec = FrmSpec(link=link, constant_only_gpi=constant_only)
    return _fit_gamma_pairwise(_Workspace(dataset, spec))
