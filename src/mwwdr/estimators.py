"""The four point estimators of delta = P(treated outcome <= control outcome).

All pair sums are vectorized. Terms that read the outcomes live on the
n1 x n0 treated x control block; the other terms are n x n matrices indexed
by ordered pairs (i, j), and unordered-pair sums take half the off-diagonal
total of a symmetric matrix.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import discordant_kernel, treated_control
from .errors import ValidationError
from .gpi import g_matrix
from .propensity import predict_pi_dataset


def kernel(y_a, y_b, ties=False):
    """Pair kernel: I(y_a <= y_b), or I(<) + 0.5 I(=) when ties are scored."""
    if not np.isfinite(y_a) or not np.isfinite(y_b):
        raise ValidationError("kernel arguments must be finite")
    if ties:
        return float(y_a < y_b) + 0.5 * float(y_a == y_b)
    return float(y_a <= y_b)


@dataclass
class EstimateResult:
    """Point estimate of delta with bookkeeping.

    se is None when inference is deferred to the joint UGEE fit.
    """

    estimator_kind: str
    delta_hat: float
    se: Optional[float]
    n: int
    n1: int
    n0: int
    notes: dict = field(default_factory=dict)


def _offdiag_sum(m):
    return float(m.sum() - np.trace(m))


def pair_mean(m):
    """Mean over unordered pairs of a symmetric pair matrix."""
    n = m.shape[0]
    return _offdiag_sum(m) / (n * (n - 1))


def resolve_propensities(dataset, propensity):
    """Accept a fitted PropensityModel, an array of known propensities, or a
    single known constant; return (pi vector, clipped-count)."""
    if hasattr(propensity, "eta"):
        return predict_pi_dataset(propensity, dataset)
    pi = np.asarray(propensity, dtype=float)
    if pi.ndim == 0:
        pi = np.full(dataset.n, float(pi))
    if pi.shape != (dataset.n,):
        raise ValidationError("propensity vector length does not match the data")
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise ValidationError("propensities must lie strictly inside (0, 1)")
    return pi, 0


def pair_response(t, c, K, PT=None, G=None):
    """Symmetric n x n matrix of the per-pair responses f3 of the delta row:
    the average of the two orientations of the ordered response

      R_ij K_ij + (1 - R_ij) G_ij,   R_ij = r_ij / PT_ij,

    with r_ij = z_i (1 - z_j) and PT_ij = pi_i (1 - pi_j). This is the doubly
    robust response; without PT (PT = 1, so R = r) it is the mean-score
    imputed one, and without G (G = 0) the inverse-probability weighted one.
    r_ij is 1 exactly on the treated x control block (rows t, columns c), so
    K and PT are given on that n1 x n0 block; G is the n x n matrix
    g(w_i, w_j).
    """
    block = np.ix_(t, c)
    F = np.zeros((len(t) + len(c),) * 2) if G is None else G.copy()
    R = 1.0 if PT is None else 1.0 / PT
    F[block] = R * K + (1.0 - R) * F[block]
    F = F + F.T
    F *= 0.5
    return F


def mww_estimate(dataset) -> EstimateResult:
    """Rank-sum estimator: average kernel over the n1*n0 observed pairs.

    The standard error comes from the two-sample U-statistic projection
    variance (components averaged within each arm).
    """
    dataset.require_both_arms()
    K = discordant_kernel(dataset, dataset.ties)
    delta = float(K.mean())
    n1, n0 = K.shape
    notes = {"ties": dataset.ties}
    se = None
    if n1 >= 2 and n0 >= 2:
        s1 = K.mean(axis=1).var(ddof=1)
        s0 = K.mean(axis=0).var(ddof=1)
        se = float(np.sqrt(s1 / n1 + s0 / n0))
    else:
        notes["se_unavailable"] = "need at least two subjects per arm"
    return EstimateResult("MWW", delta, se, dataset.n, n1, n0, notes)


def ipw_estimate(dataset, propensity, hajek=False) -> EstimateResult:
    """Inverse-probability-weighted estimator over all subject pairs.

    hajek=True divides by the realized sum of weights instead of the pair
    count; with a known constant propensity that reproduces the rank-sum
    estimator exactly.
    """
    dataset.require_both_arms()
    pi, clipped = resolve_propensities(dataset, propensity)
    t, c = treated_control(dataset)
    PT = np.outer(pi[t], 1.0 - pi[c])
    total = _offdiag_sum(pair_response(
        t, c, discordant_kernel(dataset, dataset.ties), PT))
    if hajek:
        delta = total / float((1.0 / PT).sum())
    else:
        delta = total / (dataset.n * (dataset.n - 1))
    notes = {"ties": dataset.ties, "hajek": hajek, "clipped_propensities": clipped}
    if not 0.0 <= delta <= 1.0:
        notes["range_exit"] = True
    return EstimateResult("IPW", float(delta), None, dataset.n,
                          dataset.n1, dataset.n0, notes)


def msi_estimate(dataset, gpi) -> EstimateResult:
    """Mean-score-imputed estimator: observed discordant indicators kept,
    unobserved indicators replaced by their modeled means.

    Well-defined even with no discordant pairs (pure imputation), so no
    both-arms requirement.
    """
    t, c = treated_control(dataset)
    f = pair_response(t, c, discordant_kernel(dataset, dataset.ties),
                      G=g_matrix(gpi, dataset.w))
    return EstimateResult("MSI", pair_mean(f), None, dataset.n,
                          dataset.n1, dataset.n0, {"ties": dataset.ties})


def dr_estimate(dataset, propensity, gpi) -> EstimateResult:
    """Doubly robust estimator: the plain average over all pairs of the
    augmented weighted response."""
    dataset.require_both_arms()
    pi, clipped = resolve_propensities(dataset, propensity)
    t, c = treated_control(dataset)
    f = pair_response(t, c, discordant_kernel(dataset, dataset.ties),
                      np.outer(pi[t], 1.0 - pi[c]), g_matrix(gpi, dataset.w))
    delta = pair_mean(f)
    notes = {"ties": dataset.ties, "clipped_propensities": clipped}
    if not 0.0 <= delta <= 1.0:
        notes["range_exit"] = True
    return EstimateResult("DR", delta, None, dataset.n,
                          dataset.n1, dataset.n0, notes)
