import numpy as np
import pytest

from mwwdr import data
from mwwdr.data import Dataset
from mwwdr.errors import EstimabilityError, ValidationError
from mwwdr.estimators import (dr_estimate, ipw_estimate, kernel, msi_estimate,
                              mww_estimate)
from mwwdr.gpi import GpiModel, fit_gpi
from mwwdr.propensity import fit_propensity

from conftest import random_dataset
from oracles import brute_dr, brute_ipw, brute_msi, brute_mww, normal_ppf


def const_g(c):
    return GpiModel(np.array([normal_ppf(c)]), "probit", True, 0, True, 0, 0.0)


class TestKernel:
    def test_spot_values(self):
        assert kernel(1.0, 2.0, ties=False) == 1.0
        assert kernel(2.0, 2.0, ties=True) == 0.5
        assert kernel(2.0, 2.0, ties=False) == 1.0
        assert kernel(3.0, 2.0, ties=False) == 0.0
        assert kernel(3.0, 2.0, ties=True) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            kernel(np.nan, 1.0)


class TestMww:
    def test_worked_example(self, four_row_dataset):
        est = mww_estimate(four_row_dataset)
        assert est.delta_hat == 0.75
        assert est.n1 == 2 and est.n0 == 2

    def test_symmetric_construction(self):
        ds = Dataset([1, 1, 0, 0], [1.0, 4.0, 2.0, 3.0])
        assert mww_estimate(ds).delta_hat == 0.5

    def test_single_arm_error(self):
        with pytest.raises(EstimabilityError):
            mww_estimate(Dataset([1, 1], [1.0, 2.0]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            ds = random_dataset(rng, n=12)
            base = mww_estimate(ds).delta_hat
            for f in (np.exp, np.arctan, lambda v: v ** 3 + 5 * v):
                ds2 = Dataset(ds.z, f(ds.y), ds.w)
                assert mww_estimate(ds2).delta_hat == base

    def test_count_outcome_uses_tie_kernel(self):
        ds = Dataset([1, 0], [2, 2], outcome_kind="count")
        assert mww_estimate(ds).delta_hat == 0.5
        assert mww_estimate(ds).notes["ties"] is True

    def test_range(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            ds = random_dataset(rng, n=8)
            assert 0.0 <= mww_estimate(ds).delta_hat <= 1.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ds = random_dataset(rng, count=bool(rng.integers(2)))
            est = mww_estimate(ds)
            assert abs(est.delta_hat
                       - brute_mww(list(ds.z), list(ds.y), ds.ties)) < 1e-12


class TestIpw:
    def test_known_p_hajek_equals_mww(self):
        # algebraic identity: weight-normalized IPW with any known constant
        # propensity collapses to the rank-sum estimator
        rng = np.random.default_rng(24)
        for _ in range(200):
            ds = random_dataset(rng, n=int(rng.integers(4, 13)))
            p = float(rng.uniform(0.1, 0.9))
            est = ipw_estimate(ds, p, hajek=True)
            assert abs(est.delta_hat - mww_estimate(ds).delta_hat) < 1e-12

    def test_worked_example_hajek(self, four_row_dataset):
        est = ipw_estimate(four_row_dataset, 0.5, hajek=True)
        assert abs(est.delta_hat - 0.75) < 1e-12

    def test_plain_form_with_arm_fraction(self, four_row_dataset):
        # with pi = n1/n the unnormalized average is MWW * n/(n-1)
        est = ipw_estimate(four_row_dataset, 0.5)
        assert abs(est.delta_hat - 0.75 * 4.0 / 3.0) < 1e-12

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            ds = random_dataset(rng)
            pi = rng.uniform(0.2, 0.8, ds.n)
            for hajek in (False, True):
                est = ipw_estimate(ds, pi, hajek=hajek)
                want = brute_ipw(list(ds.z), list(ds.y), list(pi),
                                 ds.ties, hajek)
                assert abs(est.delta_hat - want) < 1e-12

    def test_fitted_model_accepted(self, four_row_dataset):
        pm = fit_propensity(four_row_dataset, intercept_only=True)
        est = ipw_estimate(four_row_dataset, pm)
        assert est.notes["clipped_propensities"] == 0

    def test_range_exit_recorded(self):
        ds = Dataset([1, 1, 1, 0], [4.0, 3.0, 2.0, 10.0])
        est = ipw_estimate(ds, np.array([0.95, 0.95, 0.95, 0.9]))
        # big weights on all-positive indicators push the plain average
        # outside the unit interval, which must be flagged
        assert est.delta_hat > 1.0
        assert est.notes["range_exit"] is True


class TestMsi:
    def test_pure_imputation_no_discordant(self):
        ds = Dataset([1, 1, 1], [1.0, 2.0, 3.0])
        est = msi_estimate(ds, const_g(0.5))
        assert abs(est.delta_hat - 0.5) < 1e-12

    def test_hand_expansion(self, four_row_dataset):
        est = msi_estimate(four_row_dataset, const_g(0.5))
        assert abs(est.delta_hat - (2 * 0.75 + 4 * 0.5) / 6.0) < 1e-12
        assert abs(est.delta_hat - 0.5833333333333334) < 1e-12

    def test_constant_g_msi_equals_mww(self):
        # with g fitted as the mean observed indicator, imputation reproduces
        # the rank-sum value exactly
        rng = np.random.default_rng(26)
        for _ in range(20):
            ds = random_dataset(rng, n=10)
            try:
                m = fit_gpi(ds, constant_only=True)
            except Exception:
                continue
            est = msi_estimate(ds, m)
            assert abs(est.delta_hat - mww_estimate(ds).delta_hat) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            ds = random_dataset(rng)
            est = msi_estimate(ds, const_g(float(rng.uniform(0.05, 0.95))))
            assert 0.0 <= est.delta_hat <= 1.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            ds = random_dataset(rng, p=1)
            m = GpiModel(rng.normal(0, 0.7, 3), "probit", False, 1, True, 0, 0.0)
            est = msi_estimate(ds, m)
            from mwwdr.gpi import g_value
            want = brute_msi(list(ds.z), list(ds.y),
                             lambda i, j: g_value(m, ds.w[i], ds.w[j]), ds.ties)
            assert abs(est.delta_hat - want) < 1e-12


class TestDr:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            ds = random_dataset(rng, p=1, count=bool(rng.integers(2)))
            pi = rng.uniform(0.2, 0.8, ds.n)
            m = GpiModel(rng.normal(0, 0.7, 3), "probit", False, 1, True, 0, 0.0)
            est = dr_estimate(ds, pi, m)
            from mwwdr.gpi import g_value
            want = brute_dr(list(ds.z), list(ds.y), list(pi),
                            lambda i, j: g_value(m, ds.w[i], ds.w[j]), ds.ties)
            assert abs(est.delta_hat - want) < 1e-12

    def test_reduces_to_msi_when_weights_match(self):
        # if every observed indicator equals its modeled mean the augmented
        # correction vanishes pair by pair
        ds = Dataset([1, 0], [1.0, 2.0])
        m = const_g(1.0 - 1e-12)
        est_dr = dr_estimate(ds, np.array([0.3, 0.7]), m)
        est_msi = msi_estimate(ds, m)
        assert abs(est_dr.delta_hat - est_msi.delta_hat) < 1e-9

    def test_single_arm_error(self):
        with pytest.raises(EstimabilityError):
            dr_estimate(Dataset([0, 0], [1.0, 2.0]), 0.5, const_g(0.5))


def test_many_tiles_match_one(monkeypatch):
    # 7-subject blocks at n = 60: partial tiles, one of them holding both
    # arms, give the single-tile values to rounding
    rng = np.random.default_rng(30)
    ds = random_dataset(rng, n=60, p=1)
    pi = rng.uniform(0.2, 0.8, ds.n)
    m = GpiModel(rng.normal(0, 0.7, 3), "probit", False, 1, True, 0, 0.0)

    def values():
        return np.array([ipw_estimate(ds, pi).delta_hat,
                         ipw_estimate(ds, pi, hajek=True).delta_hat,
                         msi_estimate(ds, m).delta_hat,
                         dr_estimate(ds, pi, m).delta_hat])

    one = values()
    monkeypatch.setattr(data, "_tile_size", lambda n: 7)
    assert np.max(np.abs(values() - one)) <= 1e-12
