import threading

import numpy as np
import pytest

from mwwdr import data, parallel
from mwwdr.data import Dataset, outcome_kernel
from mwwdr.errors import EstimabilityError, ValidationError
from mwwdr.estimators import ipw_estimate, mww_estimate
from mwwdr.gpi import fit_gpi
from mwwdr.propensity import fit_propensity
from mwwdr.ugee import FrmSpec, solve_ugee

from conftest import plugin_delta, random_dataset
from oracles import (_g_of, _pi_of, brute_dr, brute_ipw, brute_msi, brute_mww,
                     normal_ppf)


def kernel(y_a, y_b, ties):
    return float(outcome_kernel(np.array([y_a]), np.array([y_b]), ties)[0, 0])


def oracle_pi(ds, eta):
    """The loop oracle's propensities of ds's subjects at eta."""
    return [_pi_of(eta, list(r), False) for r in ds.w]


def oracle_g(ds, gamma):
    """The loop oracle's probit g at gamma of an ordered pair of ds."""
    return lambda i, j: _g_of(gamma, list(ds.w[i]), list(ds.w[j]), "probit",
                              False)[0]


class TestKernel:
    def test_spot_values(self):
        assert kernel(1.0, 2.0, ties=False) == 1.0
        assert kernel(2.0, 2.0, ties=True) == 0.5
        assert kernel(2.0, 2.0, ties=False) == 1.0
        assert kernel(3.0, 2.0, ties=False) == 0.0
        assert kernel(3.0, 2.0, ties=True) == 0.0

    def test_nonfinite_rejected(self):
        # a non-finite outcome never reaches the kernel
        with pytest.raises(ValidationError):
            Dataset([1, 0], [np.nan, 1.0])


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
    """The msi plug-in estimate, read off the stacked residual."""

    def test_pure_imputation_no_discordant(self):
        ds = Dataset([1, 1, 1], [1.0, 2.0, 3.0])
        est = plugin_delta(ds, "msi", gamma=[normal_ppf(0.5)])
        assert abs(est - 0.5) < 1e-12

    def test_hand_expansion(self, four_row_dataset):
        est = plugin_delta(four_row_dataset, "msi", gamma=[normal_ppf(0.5)])
        assert abs(est - (2 * 0.75 + 4 * 0.5) / 6.0) < 1e-12
        assert abs(est - 0.5833333333333334) < 1e-12

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
            est = plugin_delta(ds, "msi", gamma=m.gamma, constant_only_gpi=True)
            assert abs(est - mww_estimate(ds).delta_hat) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            ds = random_dataset(rng)
            est = plugin_delta(ds, "msi", constant_only_gpi=True,
                               gamma=[normal_ppf(float(rng.uniform(0.05, 0.95)))])
            assert 0.0 <= est <= 1.0

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            ds = random_dataset(rng, p=1)
            gamma = rng.normal(0, 0.7, 3)
            est = plugin_delta(ds, "msi", gamma=gamma)
            want = brute_msi(list(ds.z), list(ds.y), oracle_g(ds, gamma), ds.ties)
            assert abs(est - want) < 1e-12


class TestDr:
    """The dr plug-in estimate, read off the stacked residual."""

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            ds = random_dataset(rng, p=1, count=bool(rng.integers(2)))
            eta = rng.normal(0, 0.5, 2)
            gamma = rng.normal(0, 0.7, 3)
            est = plugin_delta(ds, "dr", eta, gamma)
            want = brute_dr(list(ds.z), list(ds.y), oracle_pi(ds, eta),
                            oracle_g(ds, gamma), ds.ties)
            assert abs(est - want) < 1e-12

    def test_reduces_to_msi_when_weights_match(self):
        # if every observed indicator equals its modeled mean the augmented
        # correction vanishes pair by pair; the covariate sets the two
        # propensities to 0.3 and 0.7
        ds = Dataset([1, 0], [1.0, 2.0], [[np.log(0.3 / 0.7)], [np.log(0.7 / 0.3)]])
        gamma = [normal_ppf(1.0 - 1e-12)]
        est_dr = plugin_delta(ds, "dr", [0.0, 1.0], gamma, constant_only_gpi=True)
        est_msi = plugin_delta(ds, "msi", gamma=gamma, constant_only_gpi=True)
        assert abs(est_dr - est_msi) < 1e-9

    def test_single_arm_error(self):
        with pytest.raises(EstimabilityError):
            solve_ugee(Dataset([0, 0], [1.0, 2.0]), FrmSpec())


def test_many_tiles_match_one(monkeypatch):
    # 7-subject blocks at n = 60: partial tiles, one of them holding both
    # arms, give the single-tile values to rounding; on one thread and on
    # two, the same bits
    rng = np.random.default_rng(30)
    ds = random_dataset(rng, n=60, p=1)
    eta = rng.normal(0, 0.5, 2)
    gamma = rng.normal(0, 0.7, 3)
    pi = np.array(oracle_pi(ds, eta))

    def values():
        mww = mww_estimate(ds)
        return np.concatenate([[ipw_estimate(ds, pi).delta_hat,
                                ipw_estimate(ds, pi, hajek=True).delta_hat,
                                plugin_delta(ds, "msi", gamma=gamma),
                                plugin_delta(ds, "dr", eta, gamma),
                                mww.delta_hat, mww.se],
                               fit_gpi(ds).gamma])

    one = values()
    monkeypatch.setattr(data, "_tile_size", lambda n: 7)
    before = threading.active_count()
    many = {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "_tile_workers", lambda: workers)
        many[workers] = values()
        assert threading.active_count() == before
    assert np.max(np.abs(many[1] - one)) <= 1e-12
    assert many[1].tobytes() == many[2].tobytes()
