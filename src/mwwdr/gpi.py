"""Pairwise outcome model for the indicator I(y_first_treated <= y_second_control).

The model regresses that indicator on both subjects' covariates through a
probit (default) or logit link: g = link_inv(g0 + g11'w_first + g10'w_second).
Fitting uses every observed discordant (treated, control) pair with
Bernoulli working variance g(1 - g). Its Newton, ugee._fit_gamma_pairwise,
sets the pair workspace's predictors at every step and steps on the
observed information, minus the exact Jacobian of that score, so it
converges quadratically under either link; the sandwich's bread keeps the
expected information. gamma_block gives both, summed over pairs. Every
Newton evaluation is gamma_newton_block, which maps over no tile: exact
from kernel sums at zero slopes, where every pair has one predictor, and
elsewhere interpolating the pair functions in one arm's predictor at NODES
Chebyshev points. Only the pair pass, which sums gamma_block's other form,
judges a root.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import PAIR_TILE, outcome_kernel
from .special import PROB_EPS, _check_finite, expit, logit, normal_cdf_pdf

LINKS = ("probit", "logit")
# the settings of the outcome Newton, ugee._fit_gamma_pairwise
SCORE_TOL = 1e-8
MAX_ITER = 100
SEPARATION_BOUND = 30.0
# Chebyshev points per panel of gamma_newton_block's predictors, and
# the widest panel: its pair functions' complex poles nearest the real axis
# lie 2.8 off it (probit; pi under logit), so on a panel of half-width 3.5
# the points interpolate them to within about 1e-15 (Trefethen, Approximation
# Theory and Approximation Practice, 2013, ch. 8)
NODES = 48
PANEL = 7.0


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


def _one_predictor(x, y):
    """Whether the pairs x[:, None] + y[None, :] have one predictor: x's
    values and y's each equal as floats, as at zero slopes."""
    return np.all(x == x[0]) and np.all(y == y[0])


def pair_link(link, x, y):
    """(G, D), both writable: pair_link_values without the predictors. At
    one predictor the link is evaluated once and fills the block, which
    builds no predictor array; Phi and phi agree at +-0, the one way such
    predictors can differ, so that is the per-element kernel's value."""
    if _one_predictor(x, y):
        return tuple(np.full((len(x), len(y)), v[0])
                     for v in link_values(link, x[:1] + y[:1]))
    return pair_link_values(link, x, y)[1:]


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
    S, Q = _pair_terms(K, A, G, D, link)
    rs, cs = S.sum(axis=1), S.sum(axis=0)
    score, info = _score_info(rs, cs, Q.sum(axis=1), Q.sum(axis=0), Q.sum(),
                              w1.T @ Q @ w0, w1, w0)
    if link is not None:
        return score, info
    rows1 = np.column_stack([rs, w1 * rs[:, None], S @ w0])
    rows0 = np.column_stack([cs, S.T @ w1, w0 * cs[:, None]])
    return score, info, rows1, rows0


def _pair_terms(K, A, G, D, link):
    """gamma_block's pair terms over a block of pairs, (S, Q): the score
    terms and the weights, the observed information's under probit (read
    from A), else d^2 / v (under logit both). G and A are overwritten."""
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
    return S, Q


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


def _lagrange(x):
    """(nodes, L): the interpolation nodes of the values x and the Lagrange
    weights L[j, k] = ell_k(x_j). The nodes are NODES Chebyshev points of
    each of the fewest equal panels of [min x, max x] no wider than PANEL,
    with the weights of the barycentric formula on x's panel (Berrut &
    Trefethen 2004, SIAM Rev. 46:501); where x has at most NODES distinct
    values, they are those values, whose weights pick each x exactly."""
    nodes = np.sort(x)  # np.unique would import numpy.ma, 0.6 MB
    nodes = nodes[np.r_[True, nodes[1:] != nodes[:-1]]]
    if len(nodes) <= NODES:
        return nodes, (x[:, None] == nodes).astype(float)
    lo, hi = x.min(), x.max()
    edges = np.linspace(lo, hi, 1 + int(np.ceil((hi - lo) / PANEL)))
    k = np.arange(NODES)
    b = np.where(k % 2, -1.0, 1.0) * np.where(k % (NODES - 1), 1.0, 0.5)
    unit = 0.5 * (1.0 + np.cos(np.pi * k / (NODES - 1)))
    nodes, L = [], np.zeros((len(x), NODES * (len(edges) - 1)))
    panel = np.minimum(np.searchsorted(edges, x, "right"), len(edges) - 1) - 1
    for p, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        nodes.append(lo + (hi - lo) * unit)
        j = np.flatnonzero(panel == p)
        W = x[j, None] - nodes[-1]
        at = W == 0.0
        W[at] = 1.0
        np.divide(b, W, out=W)
        W /= W.sum(axis=1, keepdims=True)
        hit = at.any(axis=1)
        W[hit] = at[hit]
        L[j, p * NODES:(p + 1) * NODES] = W
    return np.concatenate(nodes), L


def _newton_terms(link, A):
    """(c, c g, q - e c g, e c, g) at the predictors A: a pair's score term
    in gamma_block's Newton form is S = c K - c g, and its weight is
    Q = (q - e c g) + e c K, with c = d / v, q = c d and e as there.
    Probit's v is t (1 - t) from the tail t = Phi(-|a|), which keeps its
    digits where g nears 1 and 1 - g does not, as an interpolant needs."""
    if link == "probit":
        t, d = normal_cdf_pdf(-np.abs(A))
        g, v = np.where(A < 0.0, t, 1.0 - t), t * (1.0 - t)
    else:
        g, d = link_values(link, A)
        v = (1.0 - g) * g  # under logit d, so c = 1
    c = d / v
    ec = c * (A + c * (1.0 - 2.0 * g)) if link == "probit" else np.zeros_like(c)
    return c, c * g, c * d - ec * g, ec, g


def gamma_newton_block(sort, a1, a0, w1, w0, link):
    """gamma_block's Newton form, (score, info), over the treated x control
    block of the predictors a1 + a0, from kernel sums of sort, the block's
    data.OutcomeSort.

    Where a1 and a0 are each constant, the block has one predictor (at
    zero slopes, the only such case once each arm's covariates have full
    rank). A pair's score term S = c (K - g), c = d / v, and its weight
    d^2 / v + e S, with e = a + c (1 - 2g) under probit and 0 under logit,
    are then linear in the indicator K, so every sum is exact from K's row
    sums, its column sums and w1' K w0, and no pair is visited.

    At other slopes a treated subject's sums interpolate each pair
    function h of _newton_terms in the control predictor,
    h(a1_i + a0_j) ~ sum_k h(a1_i + y_k) ell_k(a0_j) (_lagrange), so they
    need h at the nodes and the kernel sums of the Lagrange weights (times
    w0's columns for w1' Q w0); a control subject's interpolate in the
    treated predictor. Each subject's weights sum to 1, so S's terms at the
    middle node sum to c k - c g n exactly from its kernel sum k, and only
    the rest is interpolated, which keeps round-off to what varies over the
    nodes. Where a subject's predictors reach the link's clamp, its terms
    have a kink that no polynomial follows, and its sums are gamma_block's
    pair terms summed pair by pair, as are those of a block no larger than
    one pair tile, whose n1 x n0 terms cost less than its interpolants'
    (n1 + n0) R."""
    if _one_predictor(a1, a0):
        (g,), (d,) = link_values(link, a1[:1] + a0[:1])
        n1, n0 = len(a1), len(a0)
        v = g * (1.0 - g)
        c, q = d / v, d * d / v
        e = a1[0] + a0[0] + c * (1.0 - 2.0 * g) if link == "probit" else 0.0
        rs, cs = c * (sort.sums() - n0 * g), c * (sort.sums(rows=False) - n1 * g)
        ss = np.outer(w1.sum(axis=0), w0.sum(axis=0))  # w1' 1 1' w0
        return _score_info(rs, cs, n0 * q + e * rs, n1 * q + e * cs,
                           n1 * n0 * q + e * rs.sum(),
                           q * ss + e * c * (w1.T @ sort.sums(w0) - g * ss), w1, w0)
    if len(a1) * len(a0) <= PAIR_TILE ** 2:
        A, G, D = pair_link_values(link, a1, a0)
        K = outcome_kernel(sort.y1, sort.y0, sort.ties)
        return gamma_block(K, G, D, w1, w0, link, A)
    parts = []
    for rows, a, b, w in ((True, a1, a0, w0), (False, a0, a1, w1[:, :0])):
        nodes, L = _lagrange(b)
        mid, total, Lw = len(nodes) // 2, L.sum(axis=0), L.T @ w
        k, KL = sort.sums(rows=rows), sort.sums(L, rows)
        S, Q, Qw = np.empty(len(a)), np.empty(len(a)), np.empty((len(a), w.shape[1]))
        EC, near = np.empty(KL.shape), []
        # a tile's rows at a time, so that no array outgrows the pass's
        for i in range(0, len(a), PAIR_TILE):
            at = slice(i, i + PAIR_TILE)
            c, cg, qa, EC[at], g = _newton_terms(link, a[at, None] + nodes)
            c0, cg0 = c[:, mid].copy(), cg[:, mid].copy()
            c -= c0[:, None]
            cg -= cg0[:, None]
            S[at] = np.einsum("ik,ik->i", c, KL[at]) - cg @ total \
                + (c0 * k[at] - cg0 * len(b))
            Q[at] = qa @ total + np.einsum("ik,ik->i", EC[at], KL[at])
            Qw[at] = qa @ Lw
            near.extend(i + np.flatnonzero((g.min(axis=1) <= PROB_EPS)
                                           | (g.max(axis=1) >= 1.0 - PROB_EPS)))
        # where Q reads K (probit): e c K (L * w_m) for each of w's columns
        for m in range(w.shape[1]) if link == "probit" else ():
            Qw[:, m] += np.einsum("ik,ik->i", EC, sort.sums(L * w[:, m, None], rows))
        step = max(1, PAIR_TILE ** 2 // len(b))  # a tile's worth of pairs
        for j in (near[s:s + step] for s in range(0, len(near), step)):
            K = outcome_kernel(sort.y1[j], sort.y0, sort.ties) if rows else \
                outcome_kernel(sort.y1, sort.y0[j], sort.ties).T
            PS, PQ = _pair_terms(K, *pair_link_values(link, a[j], b), link)
            S[j], Q[j], Qw[j] = PS.sum(axis=1), PQ.sum(axis=1), PQ @ w
        parts.append((S, Q, Qw))
    (rs, qr, Qw0), (cs, qc, _) = parts
    return _score_info(rs, cs, qr, qc, qr.sum(), w1.T @ Qw0, w1, w0)


def fit_gpi(dataset, constant_only=False, link="probit"):
    """Newton solve of the discordant-pair estimating equation.

    Score: sum over observed (treated, control) pairs of
    d * v^-1 * (indicator - g), with d the gradient of g in gamma and
    v = g(1 - g). Each step solves with the observed information
    (gamma_block's Newton form). This is the outcome fit of solve_families
    (ugee._fit_gamma_pairwise) on a workspace of its own, which sets the
    predictors at every step, and judges its root by a pair pass with no
    delta row, whose tiles run on the threads of its one tile map.
    """
    from .ugee import FrmSpec, _fit_gamma_pairwise, _Workspace  # ugee imports gpi
    spec = FrmSpec(link=link, constant_only_gpi=constant_only)
    return _fit_gamma_pairwise(_Workspace(dataset, spec))
