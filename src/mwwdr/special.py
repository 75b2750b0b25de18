"""Special functions used throughout: inverse links and the normal CDF.

All probability outputs are clamped to [PROB_EPS, 1 - PROB_EPS] so that
downstream logs and reciprocals stay finite. Propensity clipping is a
separate, coarser bound applied in the propensity module.
"""

import numpy as np

from .errors import ValidationError

# Floor/ceiling applied to every probability returned from this module.
PROB_EPS = 1e-12

# Phi(-x) = exp(-x^2 / 2) P(x) / Q(x) for x >= 0, after Cody (1969, Math.
# Comp. 23:631), with one degree-(8, 8) rational on [0, 7.1]: least squares
# at 40 digits, Lawson-weighted towards the minimax relative error, 7.5e-17
# in exact arithmetic. P(0) is pinned to 1/2, so Phi(0) is exactly 1/2.
# Phi(-7.1) = 6.2e-13 is below PROB_EPS, so past 7.1 only the clamp is read.
_CDF_P = (0.5, 0.5797896517822086, 0.3373564836940517, 0.12100249836693701,
          0.02847262981087304, 0.004367191263814829, 0.0004045722306213441,
          1.7578362467200745e-05, 6.692103498403957e-13)
_CDF_Q = (1.0, 1.9574638643672735, 1.7365431630966275, 0.9147955638155245,
          0.31418500000265964, 0.07238294189166662, 0.010991079871146772,
          0.0010141080169171035, 4.406254126588345e-05)
# |a| is cut to this before the kernel squares it: a^2 stays finite, and
# exp(-a^2 / 2) is exactly 0 from |a| = 38.6 on either way.
_CDF_CUT = 40.0
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _check_finite(x, name):
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} must be finite")


def _polynomial(coefs, x):
    """coefs[0] + coefs[1] x + ... by Horner's rule, in one new array."""
    out = x * coefs[-1]
    for c in coefs[-2:0:-1]:
        out += c
        out *= x
    out += coefs[0]
    return out


def normal_cdf_pdf(a):
    """Phi(a), clamped to [PROB_EPS, 1 - PROB_EPS], and the density phi(a)
    of the finite float array a (at least one dimension), both from one
    exp. Phi is within 18 ulp of the exact value wherever it is not
    clamped; phi is exp(a * -0.5 * a) / sqrt(2 pi), bit for bit. a is not
    written to."""
    x = np.abs(a)
    np.minimum(x, _CDF_CUT, out=x)
    g = _polynomial(_CDF_P, x)
    q = _polynomial(_CDF_Q, x)
    g /= q
    # exp(-x^2 / 2), in Q's place: three arrays of a's size at most
    d = np.multiply(x, -0.5, out=q)
    d *= x
    np.exp(d, out=d)
    g *= d  # Phi(-|a|)
    # Phi(a) = 1 - Phi(-|a|) where a's sign bit is clear, else Phi(-|a|):
    # 1 - g and 0 + g, without a masked subtract (11 ns an element on a
    # 256 x 256 block, a quarter of the kernel)
    np.copysign(g, a, out=g)
    np.subtract(~np.signbit(a), g, out=g)
    np.clip(g, PROB_EPS, 1.0 - PROB_EPS, out=g)
    d /= _SQRT_2PI
    return g, d


def expit(x):
    """Inverse logit 1 / (1 + exp(-x)), clamped to [1e-12, 1 - 1e-12].

    Accepts scalars or arrays; returns the matching shape. It is computed
    as e / (1 + e) below 0 and 1 / (1 + e) above, e = exp(-|x|), which
    cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x, "expit argument")
    e = np.exp(-np.abs(x))
    out = np.clip(np.where(x < 0.0, e, 1.0) / (1.0 + e),
                  PROB_EPS, 1.0 - PROB_EPS)
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal CDF through normal_cdf_pdf's rational kernel,
    clamped to [1e-12, 1 - 1e-12]; relative error below 2.5e-15 (18 ulp)
    wherever it is not clamped. Accepts scalars or arrays; returns the
    matching shape."""
    x = np.asarray(x, dtype=float)
    _check_finite(x, "std_normal_cdf argument")
    out = normal_cdf_pdf(x.reshape(-1))[0].reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def logit(p):
    """Inverse of expit on (0, 1)."""
    p = np.asarray(p, dtype=float)
    _check_finite(p, "logit argument")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValidationError("logit argument must lie strictly inside (0, 1)")
    out = np.log(p / (1.0 - p))
    return float(out) if out.ndim == 0 else out
