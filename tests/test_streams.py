import math

import numpy as np
import pytest

from mwwdr.errors import ValidationError
from mwwdr.simstudy import ScenarioConfig, generate_dataset
from mwwdr.streams import RngStream


def draws(n, seed, **config):
    """The potential data of replication 0 of a scenario of n subjects."""
    pot, _ = generate_dataset(ScenarioConfig(n=n, reps=1, seed=seed, **config), 0)
    return pot


def test_same_key_same_sequence():
    a = RngStream(42, 7).generator().random(1000)
    b = RngStream(42, 7).generator().random(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(42, 7).generator().random(1000)
    b = RngStream(42, 8).generator().random(1000)
    c = RngStream(43, 7).generator().random(1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # no noticeable cross-stream correlation
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_child_streams_disjoint():
    s = RngStream(1, 5)
    assert s.child(1).stream_id != s.stream_id
    assert s.child(1) != s.child(2)


def test_key_validation():
    with pytest.raises(ValidationError):
        RngStream(-1, 0)
    with pytest.raises(ValidationError):
        RngStream(0, 1 << 65)


def test_bernoulli_boundaries():
    # treatment z ~ Bernoulli(expit(eta0 + eta1 w)), here with eta1 = 0
    assert np.all(draws(100, 3, eta_true=(-50.0, 0.0)).z == 0)
    assert np.all(draws(100, 3, eta_true=(50.0, 0.0)).z == 1)
    z = draws(200_000, 3, eta_true=(math.log(1.0 / 3.0), 0.0)).z
    assert abs(z.mean() - 0.25) < 0.01


def test_normal_moments():
    w = draws(1_000_000, 11, mu_w=1.0, sigma2_w=0.25).w
    assert abs(w.mean() - 1.0) < 0.002  # 3 sigma/sqrt(N) bound
    assert abs(w.var() - 0.25) < 0.005


def test_centered_chisq_moments():
    # the subject effect b is centered scaled chi-square(1) with variance
    # sigma2_b
    b = draws(1_000_000, 12, sigma2_b=1.0).b
    assert abs(b.mean()) < 0.005
    assert abs(b.var() - 1.0) < 0.02
    skew = np.mean(((b - b.mean()) / b.std()) ** 3)
    assert abs(skew - np.sqrt(8.0)) < 0.1


def test_centered_chisq_scaling():
    b = draws(500_000, 13, sigma2_b=4.0).b
    assert abs(b.var() - 4.0) < 0.1


def test_parameter_validation():
    with pytest.raises(ValidationError):
        ScenarioConfig(sigma2=0.0)
    with pytest.raises(ValidationError):
        ScenarioConfig(sigma2_b=-1.0)
    with pytest.raises(ValidationError):
        ScenarioConfig(sigma2_w=-0.1)
