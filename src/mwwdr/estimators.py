"""The rank-sum and inverse-probability weighted point estimators of
delta = P(treated outcome <= control outcome). Both are sums of each
treated subject's kernel sum over the controls, its placement value, which
data.OutcomeSort takes from one sort of each arm; no pair array is built.
The msi and dr point estimates are the delta_plain of ugee.py's fits.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import OutcomeSort, treated_control
from .errors import ValidationError
from .propensity import predict_pi_dataset


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


def mww_estimate(dataset) -> EstimateResult:
    """Rank-sum estimator: average kernel over the n1*n0 observed pairs.

    The standard error comes from the two-sample U-statistic projection
    variance (components averaged within each arm). Each subject's kernel
    sum over the other arm, its placement value, is taken from one sort:
    a control's from the negated outcomes, since I(y_t <= y_c) =
    I(-y_c <= -y_t), ties included. The kernel takes multiples of 1/2, so
    every sum is exact.
    """
    dataset.require_both_arms()
    t, c = treated_control(dataset)
    sort = OutcomeSort(dataset.y[t], dataset.y[c], dataset.ties)
    sums1, sums0 = sort.sums(), sort.sums(rows=False)
    n1, n0 = dataset.n1, dataset.n0
    delta = float(sums1.sum() / (n1 * n0))
    notes = {"ties": dataset.ties}
    se = None
    if n1 >= 2 and n0 >= 2:
        s1 = (sums1 / n0).var(ddof=1)
        s0 = (sums0 / n1).var(ddof=1)
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
    # the weight 1 / (pi_t (1 - pi_c)) of a treated x control pair factors
    w0 = 1.0 / (1.0 - pi[c])
    sort = OutcomeSort(dataset.y[t], dataset.y[c], dataset.ties)
    total = float(np.sum(sort.sums(w0) / pi[t]))
    if hajek:
        # so the realized weights sum to a product of two sums
        delta = total / float(np.sum(1.0 / pi[t]) * np.sum(w0))
    else:
        delta = total / (dataset.n * (dataset.n - 1))
    notes = {"ties": dataset.ties, "hajek": hajek, "clipped_propensities": clipped}
    if not 0.0 <= delta <= 1.0:
        notes["range_exit"] = True
    return EstimateResult("IPW", float(delta), None, dataset.n,
                          dataset.n1, dataset.n0, notes)
