import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mwwdr.data import Dataset
from mwwdr.ugee import FrmSpec, stacked_residual


@pytest.fixture
def four_row_dataset():
    """treated y = (1, 3), control y = (2, 4)."""
    return Dataset(z=[1, 1, 0, 0], y=[1.0, 3.0, 2.0, 4.0])


def random_dataset(rng, n=None, p=1, both_arms=True, count=False):
    """Small random dataset helper shared by the oracle-comparison tests."""
    n = n if n is not None else int(rng.integers(4, 7))
    while True:
        z = (rng.random(n) < 0.5).astype(int)
        if not both_arms or 0 < z.sum() < n:
            break
    if count:
        y = rng.integers(0, 4, size=n).astype(float)
    else:
        y = rng.normal(0, 1, n)
    w = rng.normal(0, 1, (n, p)) if p else None
    kind = "count" if count else "continuous"
    return Dataset(z, y, w, outcome_kind=kind)


def plugin_delta(ds, family, eta=(), gamma=(), **spec):
    """The plug-in estimate of delta at the nuisance coefficients eta and
    gamma: the delta component of the stacked residual with unit pair
    weights at delta = 0, which is sum_ij f3_ij / (n (n - 1)) over the
    ordered pairs."""
    spec = FrmSpec(family=family, weighted_delta=False, fd_check_pairs=0, **spec)
    return float(stacked_residual(ds, np.r_[eta, gamma, 0.0], spec)[-1])
