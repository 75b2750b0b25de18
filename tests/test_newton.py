import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mwwdr import gpi, propensity
from mwwdr.data import Dataset
from mwwdr.errors import ConvergenceError, MwwdrError
from mwwdr.propensity import design_matrix
from mwwdr.simstudy import synthetic_confounded_trial
from mwwdr.special import expit
from mwwdr.ugee import FrmSpec, solve_families, stacked_residual


def _propensity_norm(ds, model):
    X = design_matrix(ds, model.intercept_only)
    return float(np.max(np.abs(X.T @ (ds.z - expit(X @ model.eta)))))


def _gpi_norm(ds, model):
    # the outcome block of the msi system is the outcome model's score,
    # over the pair count
    u = stacked_residual(ds, np.r_[model.gamma, 0.5], FrmSpec(family="msi"))
    return float(np.max(np.abs(u[:-1]))) * ds.n * (ds.n - 1) / 2


@pytest.mark.parametrize("module, fit, norm_at", [
    (gpi, gpi.fit_gpi, _gpi_norm),
    (propensity, propensity.fit_propensity, _propensity_norm)],
    ids=["gpi", "propensity"])
def test_fit_judges_its_last_iterate(module, fit, norm_at, monkeypatch):
    # with MAX_ITER set to exactly the steps the fit needs, the iterate
    # after the last step is judged, accepted and reported
    ds = synthetic_confounded_trial(n=300, seed=7)
    steps = fit(ds).iterations
    monkeypatch.setattr(module, "MAX_ITER", steps)
    model = fit(ds)
    assert model.iterations == module.MAX_ITER
    assert model.score_norm == pytest.approx(norm_at(ds, model), rel=1e-6)


@st.composite
def hard_fits(draw):
    """Small datasets near separation (assignment logit up to 50 times a
    covariate) with tied or continuous outcomes, fitted with propensities
    clipped up to 0.45, either link and either misspecification switch."""
    n = draw(st.integers(4, 40))
    p = draw(st.integers(1, 2))
    scale = draw(st.floats(0.0, 50.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    count = draw(st.booleans())
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, (n, p))
    z = (rng.random(n) < expit(scale * w[:, 0])).astype(int)
    y = w.sum(axis=1) + rng.normal(0.0, 1.0, n)
    ds = Dataset(z, np.round(y) if count else y, w,
                 outcome_kind="count" if count else "continuous")
    spec = FrmSpec(link=draw(st.sampled_from(["probit", "logit"])),
                   clip_eps=draw(st.floats(1e-6, 0.45)),
                   intercept_only_propensity=draw(st.booleans()),
                   constant_only_gpi=draw(st.booleans()))
    return ds, spec


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hard_fits())
def test_every_fit_returns_or_raises_typed(case):
    ds, spec = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fits = list(solve_families(ds, spec))
        except MwwdrError:
            return
    assert all(np.all(np.isfinite(fit.theta)) for fit in fits)


def _fits_or_error(ds, spec):
    try:
        return list(solve_families(ds, spec))
    except MwwdrError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hard_fits())
def test_increasing_map_of_y_keeps_every_bit(case):
    # TestMetamorphic's increasing map of y, over hard_fits's data: y enters
    # only through the pair kernel K, which a map that keeps every order
    # and every tie leaves as it is, so both fits raise the same error or
    # agree bit for bit
    ds, spec = case
    y = 3.0 * np.arctan(ds.y) + 1.0
    assume(np.array_equal(np.sign(ds.y[:, None] - ds.y[None, :]),
                          np.sign(y[:, None] - y[None, :])))
    mapped = Dataset(ds.z, y, ds.w, outcome_kind=ds.outcome_kind)
    a, b = _fits_or_error(ds, spec), _fits_or_error(mapped, spec)
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
        return
    for fa, fb in zip(a, b):
        for name in ("theta", "se", "B_hat"):
            assert getattr(fa, name).tobytes() == getattr(fb, name).tobytes()


_RESIDUAL = (ConvergenceError, "stacked system residual above tolerance")


def _gate(a, b):
    """The largest difference of a and b in the benchmark gate's form,
    |a - b| / max(1, |a|, |b|)."""
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a),
                                                                    np.abs(b)))))


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hard_fits())
def test_permuting_the_subjects_moves_only_round_off(case):
    # TestMetamorphic's permutation over hard_fits's data: it changes the
    # order of every sum, so both fits raise the same class of error or
    # agree to round-off. Measured over these examples: theta within
    # 1.5e-14 in gate form (5.7e-15 with the separable treatment block and
    # the interpolated outcome Newton); the bound is the 9.5e-14 measured
    # on TestMetamorphic's data. Round-off alone may turn the treatment
    # Newton's "did not converge" into "singular Jacobian", so only the
    # class is compared. The finite-difference check draws its pairs by
    # content, so a permutation checks the same pairs: it stays on
    ds, spec = case
    perm = np.random.default_rng(0).permutation(ds.n)
    permuted = Dataset(ds.z[perm], ds.y[perm], ds.w[perm],
                       outcome_kind=ds.outcome_kind)
    a, b = _fits_or_error(ds, spec), _fits_or_error(permuted, spec)
    if isinstance(a, tuple) or isinstance(b, tuple):
        # round-off alone can decide dr's stacked-residual check, which is
        # absolute on a row of scale sum w (ROADMAP item 4): one example
        # here fits in one order only, with the tiled nuisance sums too
        if _RESIDUAL not in (a, b):
            assert isinstance(a, tuple) and isinstance(b, tuple) and a[0] is b[0]
        return
    assert max(_gate(fa.theta, fb.theta) for fa, fb in zip(a, b)) <= 9.5e-14


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hard_fits())
def test_affine_map_of_w_moves_se_only_by_round_off(case):
    # TestMetamorphic's affine map w -> 2w + 1 over hard_fits's data: every
    # model's coefficients move to others with the same fitted values, so
    # where both fits return, se(delta) moves only as far as the Newton
    # tolerances let the roots: measured within 3.9e-9 relative over these
    # examples, before and after the interpolated outcome Newton; the bound
    # allows 10 times that. The map changes the coefficients' sizes, which
    # the separation checks read, so an error may change class or become a
    # fit; such examples are not compared
    ds, spec = case
    mapped = Dataset(ds.z, ds.y, 2.0 * ds.w + 1.0, outcome_kind=ds.outcome_kind)
    a, b = _fits_or_error(ds, spec), _fits_or_error(mapped, spec)
    if isinstance(a, tuple) or isinstance(b, tuple):
        return
    for fa, fb in zip(a, b):
        assert abs(fb.se[-1] - fa.se[-1]) <= 3.9e-8 * fa.se[-1]


def _clamped_g_case():
    # hard_fits's data at n = 4, p = 1, scale = 1e-6, seed 2, continuous
    # outcomes
    rng = np.random.default_rng(2)
    w = rng.normal(0.0, 1.0, (4, 1))
    z = (rng.random(4) < expit(1e-6 * w[:, 0])).astype(int)
    ds = Dataset(z, w.sum(axis=1) + rng.normal(0.0, 1.0, 4), w)
    return ds, FrmSpec(link="probit", clip_eps=1e-6)


def test_dr_fit_with_clamped_g_stops_at_the_stacked_residual():
    # the fit stops before its finite-difference check runs
    ds, spec = _clamped_g_case()
    with pytest.raises(ConvergenceError,
                       match="stacked system residual above tolerance"):
        list(solve_families(ds, spec, ("dr",)))


@pytest.mark.xfail(strict=True, raises=MwwdrError, reason=(
    "dr's stacked system residual at the solved root is above its 1e-8 "
    "tolerance on this case (4.5e-8; 9.6e-8 with scipy's ndtr), so the fit "
    "raises ConvergenceError before the finite-difference check runs; g "
    "sits at the 1e-12 clamp on 3 of the 12 ordered pairs, and dr's 1/V3 "
    "pair weights reach 4.7e9"))
def test_fd_check_of_a_dr_fit_with_clamped_g():
    # ipw and msi at the same root pass the check (errors at most 4e-11)
    ds, spec = _clamped_g_case()
    fits = list(solve_families(ds, spec, ("ipw", "msi")))
    assert all(fit.diagnostics["fd_check_max_err"] <= 1e-10 for fit in fits)
    dr, = solve_families(ds, spec, ("dr",))
    assert dr.diagnostics["fd_check_max_err"] <= 1e-5
