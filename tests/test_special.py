import decimal
import warnings
from decimal import Decimal

import numpy as np
import pytest

from mwwdr.errors import ValidationError
from mwwdr.special import (PROB_EPS, expit, logit, normal_cdf_pdf,
                           std_normal_cdf)


def dec_expit_one():
    """1 / (1 + e^-1) with 50-digit arithmetic."""
    decimal.getcontext().prec = 50
    return Decimal(1) / (Decimal(1) + (-Decimal(1)).exp())


def dec_erf(x, prec=50, terms=200):
    """erf via its Maclaurin series in 50-digit arithmetic."""
    decimal.getcontext().prec = prec
    x = Decimal(x)
    total = Decimal(0)
    fact = Decimal(1)
    for n in range(terms):
        if n:
            fact *= n
        total += (-1) ** n * x ** (2 * n + 1) / (fact * (2 * n + 1))
    pi = Decimal("3.14159265358979323846264338327950288419716939937511")
    return total * 2 / pi.sqrt()


def dec_normal_cdf(x):
    two = Decimal(2)
    return (Decimal(1) + dec_erf(Decimal(x) / two.sqrt())) / two


class TestExpit:
    def test_symmetry_point(self):
        assert expit(0.0) == 0.5

    def test_saturation_clamped(self):
        assert expit(40.0) == 1.0 - 1e-12
        assert expit(-40.0) == 1e-12

    def test_high_precision_value(self):
        oracle = float(dec_expit_one())
        assert abs(expit(1.0) - oracle) < 1e-15

    def test_reflection_identity(self):
        xs = np.linspace(-30, 30, 501)
        assert np.max(np.abs(expit(xs) + expit(-xs) - 1.0)) < 1e-14

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            expit(float("nan"))
        with pytest.raises(ValidationError):
            expit(float("inf"))

    def test_array_shape(self):
        out = expit(np.zeros((3, 2)))
        assert out.shape == (3, 2)

    def test_huge_inputs_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expit(np.array([-1e300, -800.0, 800.0, 1e300]))
        assert out.tolist() == [1e-12, 1e-12, 1.0 - 1e-12, 1.0 - 1e-12]


class TestStdNormalCdf:
    def test_symmetry(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_reflection(self):
        xs = np.linspace(-8, 8, 401)
        assert np.max(np.abs(std_normal_cdf(xs) + std_normal_cdf(-xs) - 1.0)) < 1e-14

    def test_against_series_oracle(self):
        for x in (0.1, 0.5, 1.0, 1.5, 2.0, 3.0):
            oracle = float(dec_normal_cdf(x))
            assert abs(std_normal_cdf(x) - oracle) <= 1e-12

    def test_monotone_on_grid(self):
        xs = np.linspace(-10, 10, 2001)
        vals = std_normal_cdf(xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            std_normal_cdf(float("nan"))


# Phi's error bound wherever it is not clamped, in units in the last place of
# the exact value. Most of it is the rounding of a^2 / 2 before exp, which
# exp turns into a relative error of up to a^2 / 2 half-ulps (about 16 ulp
# at a = -7); the rational itself is within 7.5e-17 of exact.
CDF_ULPS = 20


class TestNormalCdfKernel:
    def test_against_forty_digit_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        a = np.linspace(-8.0, 8.0, 16001)
        g = normal_cdf_pdf(a)[0]
        with mpmath.workdps(40):
            exact = [mpmath.ncdf(v) for v in a.tolist()]
            off = np.array([float(abs(mpmath.mpf(v) - e))
                            for v, e in zip(g.tolist(), exact)])
        exact = np.array(exact, dtype=float)
        free = (exact > PROB_EPS) & (exact < 1.0 - PROB_EPS)
        assert free.sum() > 14000  # Phi is clamped beyond |a| = 7.03
        assert np.max(off[free] / np.spacing(exact[free])) <= CDF_ULPS

    def test_tail_against_series_oracle(self):
        # the lower tail, where Phi is not near 1 and every digit shows
        for x in (-7.0, -6.3, -5.0, -3.3, -1.1, -0.2):
            exact = float(dec_normal_cdf(x))
            assert abs(std_normal_cdf(x) - exact) <= CDF_ULPS * np.spacing(exact)

    def test_against_scipy(self):
        scipy_special = pytest.importorskip("scipy.special")
        a = np.linspace(-8.0, 8.0, 16001)
        # scipy's ndtr is itself up to 75 ulp off on this grid
        np.testing.assert_allclose(
            normal_cdf_pdf(a)[0],
            np.clip(scipy_special.ndtr(a), PROB_EPS, 1.0 - PROB_EPS),
            rtol=2.5e-14, atol=0.0)

    def test_center_and_exact_reflection(self):
        assert normal_cdf_pdf(np.array([0.0, -0.0]))[0].tolist() == [0.5, 0.5]
        a = np.linspace(1e-3, 10.0, 10000)
        assert np.array_equal(std_normal_cdf(a), 1.0 - std_normal_cdf(-a))

    def test_monotone_on_dense_grid(self):
        g = std_normal_cdf(np.linspace(-8.5, 8.5, 170001))
        assert np.all(np.diff(g) >= 0.0)

    def test_huge_inputs_raise_no_warning(self):
        a = np.array([-1e300, -1e160, -40.0, -8.5, 8.5, 40.0, 1e160, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, d = normal_cdf_pdf(a)
            assert std_normal_cdf(1e300) == 1.0 - PROB_EPS
        assert g.tolist() == [PROB_EPS] * 4 + [1.0 - PROB_EPS] * 4
        assert d[[0, 1, 2, 5, 6, 7]].tolist() == [0.0] * 6

    def test_scalar_and_shape(self):
        assert isinstance(std_normal_cdf(1.0), float)
        assert std_normal_cdf(np.zeros((3, 2))).shape == (3, 2)
        g, d = normal_cdf_pdf(np.zeros((3, 2)))
        assert g.shape == d.shape == (3, 2)


def test_pdf_matches_derivative():
    x = np.linspace(-4, 4, 41)
    h = 1e-6
    fd = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2 * h)
    assert np.max(np.abs(fd - normal_cdf_pdf(x)[1])) < 1e-9


def test_logit_inverts_expit():
    xs = np.linspace(-15, 15, 101)
    assert np.max(np.abs(logit(expit(xs)) - xs)) < 1e-8
    with pytest.raises(ValidationError):
        logit(0.0)
