import math

import numpy as np
import pytest

from mwwdr.data import Dataset
from mwwdr.errors import SeparationError, SingularDesignError, ValidationError
from mwwdr.propensity import (PropensityModel, fit_propensity,
                              predict_pi_dataset)


def test_intercept_only_balanced():
    ds = Dataset([1, 1, 0, 0], [1.0, 2.0, 3.0, 4.0])
    m = fit_propensity(ds, intercept_only=True)
    assert m.converged
    assert abs(m.eta[0]) < 1e-9


def test_intercept_only_closed_form():
    ds = Dataset([1, 1, 1, 0], [1.0, 2.0, 3.0, 4.0])
    m = fit_propensity(ds, intercept_only=True)
    assert abs(m.eta[0] - math.log(3.0)) < 1e-9  # logit(0.75)


def test_score_identity_and_mean_match():
    rng = np.random.default_rng(5)
    w = rng.normal(1.0, 0.5, (300, 2))
    lin = 0.5 - 0.8 * w[:, 0] + 0.3 * w[:, 1]
    z = (rng.random(300) < 1 / (1 + np.exp(-lin))).astype(int)
    ds = Dataset(z, rng.normal(size=300), w)
    m = fit_propensity(ds)
    pi, _ = predict_pi_dataset(m, ds)
    X = np.column_stack([np.ones(300), w])
    score = X.T @ (z - pi)
    assert np.max(np.abs(score)) < 1e-6
    assert abs(pi.mean() - z.mean()) < 1e-8


def test_affine_rescaling_invariance():
    rng = np.random.default_rng(6)
    w = rng.normal(0, 1, (200, 1))
    z = (rng.random(200) < 1 / (1 + np.exp(-w[:, 0]))).astype(int)
    ds1 = Dataset(z, rng.normal(size=200), w)
    ds2 = Dataset(z, ds1.y, 3.0 * w + 7.0)
    p1, _ = predict_pi_dataset(fit_propensity(ds1), ds1)
    p2, _ = predict_pi_dataset(fit_propensity(ds2), ds2)
    assert np.max(np.abs(p1 - p2)) < 1e-8


def test_predict_values():
    ds = Dataset([1, 0], [1.0, 2.0], [[1.0], [1.0]])
    m0 = PropensityModel(np.array([0.0]), True, True, 0, 0.0)
    assert np.all(predict_pi_dataset(m0, ds)[0] == 0.5)
    m1 = PropensityModel(np.array([1.0, -1.0]), False, True, 0, 0.0)
    assert np.max(np.abs(predict_pi_dataset(m1, ds)[0] - 0.5)) < 1e-12
    m_big = PropensityModel(np.array([50.0]), True, True, 0, 0.0)
    # clipping contract
    assert np.all(predict_pi_dataset(m_big, ds)[0] == 1.0 - 1e-6)


def test_predict_dimension_mismatch():
    m = PropensityModel(np.array([1.0, -1.0]), False, True, 0, 0.0)
    with pytest.raises(ValidationError):
        predict_pi_dataset(m, Dataset([1, 0], [1.0, 2.0], [[1.0, 2.0], [0.5, 0.5]]))


def test_separation_detected():
    w = np.r_[np.zeros(10), np.ones(10)][:, None]
    z = np.r_[np.zeros(10, int), np.ones(10, int)]
    ds = Dataset(z, np.arange(20, dtype=float), w)
    with pytest.raises(SeparationError, match="covariate"):
        fit_propensity(ds)


def test_singular_design():
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=30)
    w = np.column_stack([w1, 2.0 * w1])
    z = (rng.random(30) < 0.5).astype(int)
    z[0], z[1] = 1, 0
    ds = Dataset(z, rng.normal(size=30), w)
    with pytest.raises(SingularDesignError):
        fit_propensity(ds)


def test_clip_eps_configurable():
    ds = Dataset([1, 1, 1, 0], [1.0, 2.0, 3.0, 4.0])
    m = fit_propensity(ds, intercept_only=True, clip_eps=0.3)
    pi, n_clipped = predict_pi_dataset(m, ds)
    assert np.all(pi <= 0.7)
    assert n_clipped == 4
