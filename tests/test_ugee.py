import math
import threading
import tracemalloc

import numpy as np
import pytest

from mwwdr import data, gpi, parallel, ugee
from mwwdr.data import Dataset
from mwwdr.errors import ConvergenceError, ValidationError
from mwwdr.propensity import clipped_propensities, design_matrix
from mwwdr.simstudy import (ScenarioConfig, generate_dataset,
                            synthetic_confounded_trial)
from mwwdr.ugee import (FrmSpec, ThetaLayout, UgeeFit,
                        check_residual_derivatives, sandwich_covariance,
                        solve_families, solve_ugee, stacked_residual,
                        wald_test)

from conftest import plugin_delta, random_dataset
from oracles import (brute_bread, brute_eta_block, brute_projections,
                     brute_ugee_residual)


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def small_sim_dataset(n=60, seed=4):
    _, ds = generate_dataset(ScenarioConfig(n=n, reps=1, seed=seed), 0)
    return ds


class TestBuildPairResponse:
    """The per-pair responses and working variances, read off the tile
    kernel over the whole dataset (subjects held treated first) and the
    workspace that the fits and the sandwich use."""

    def test_working_variance_spot_values(self):
        # pi = 0.5 everywhere, g = 0.5 everywhere
        ds = Dataset([1, 0], [1.0, 2.0], [[0.0], [0.0]])
        theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.4])
        ws, _, _, _ = ugee._at(ds, FrmSpec(), theta)
        # one pair, whose h1 = (pi_i + pi_j)/2 has the intercept derivative
        # pi (1 - pi) = 0.25: the treatment block's Jacobian is -0.25^2 / V1
        assert abs(-0.25 ** 2 / ws.eta_jac[0, 0] - 0.125) < 1e-12
        assert abs(1.0 / ws.tile().weights()[0, 1] - 0.5) < 1e-12

    def test_concordant_pair_imputes_both(self):
        ds = Dataset([1, 1, 0], [1.0, 2.0, 3.0], [[0.1], [0.2], [0.3]])
        theta = np.array([0.2, 0.1, 0.3, -0.5, 0.5, 0.5])
        ws, _, _, _ = ugee._at(ds, FrmSpec(), theta)
        tile = ws.tile()
        # both weighting terms vanish: f3 is the average of the two g values
        assert abs(tile.response(True, True)[0, 1]
                   - 0.5 * (tile.G[0, 1] + tile.G[1, 0])) < 1e-12

    def test_discordant_worked_example(self):
        # pi_i = 0.8, pi_j = 0.2, indicator = 1, g_ij = 0.6, g_ji = 0.4:
        # f3 = 1/2[(1/0.64)*1 + (1 - 1/0.64)*0.6] + 1/2[0.4] = 0.8125
        ds = Dataset([1, 0], [1.0, 2.0], [[1.0], [-1.0]])
        from oracles import normal_ppf
        eta1 = np.log(0.8 / 0.2)  # logit(0.8) so pi_i = expit(eta1 * 1)
        g6 = normal_ppf(0.6)
        # with w = (+1, -1): linear predictor g11 - g10 for (i,j) and
        # -(g11 - g10) for (j,i); choose them so g_ij = 0.6, g_ji = 0.4
        theta = np.array([0.0, eta1, 0.0, g6 / 2.0, -g6 / 2.0, 0.5])
        ws, _, _, _ = ugee._at(ds, FrmSpec(), theta)
        tile = ws.tile()
        assert abs(tile.response(True, True)[0, 1] - 0.8125) < 1e-9
        assert tile.K.tolist() == [[1.0]]

    def test_working_variances_positive(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n=6)
        theta = np.zeros(ThetaLayout(ds.p, FrmSpec()).q)
        theta[-1] = 0.5
        ws, _, _, _ = ugee._at(ds, FrmSpec(), theta)
        # V1 > 0 on every pair makes the treatment block's expected
        # Jacobian -sum d1 V1^-1 d1' negative definite
        assert np.all(np.linalg.eigvalsh(ws.eta_jac) < 0)
        assert np.all(ws.tile().weights()[~np.eye(ds.n, dtype=bool)] > 0)

    def test_theta_length_checked(self):
        ds = Dataset([1, 0], [1.0, 2.0], [[0.0], [0.0]])
        with pytest.raises(ValidationError):
            stacked_residual(ds, np.zeros(3), FrmSpec())

    @pytest.mark.parametrize("field, value", [("family", "ols"),
                                              ("link", "Probit"),
                                              ("clip_eps", 0.5)])
    def test_spec_fields_checked_when_built(self, field, value):
        # a bad spec is refused before any fit reads it
        with pytest.raises(ValidationError, match=f"^{field} must"):
            FrmSpec(**{field: value})


class TestSolve:
    def test_residual_at_root(self):
        ds = small_sim_dataset()
        for fam in ("dr", "ipw", "msi"):
            fit = solve_ugee(ds, FrmSpec(family=fam))
            assert fit.residual_norm <= 1e-8

    def test_brute_force_residual_agreement(self):
        rng = np.random.default_rng(32)
        for clip_eps in (1e-6, 0.2):
            clipped = {"dr": 0, "ipw": 0}
            for _ in range(25):
                ds = random_dataset(rng, p=1)
                for fam in ("dr", "ipw", "msi"):
                    spec = FrmSpec(family=fam, fd_check_pairs=0, clip_eps=clip_eps)
                    layout = ThetaLayout(ds.p, spec)
                    theta = rng.normal(0, 0.5, layout.q)
                    theta[-1] = rng.uniform(0.2, 0.8)
                    ours = stacked_residual(ds, theta, spec)
                    brute = brute_ugee_residual(
                        list(ds.z), list(ds.y), [list(r) for r in ds.w],
                        list(theta), family=fam, clip_eps=clip_eps)
                    assert np.max(np.abs(ours - np.asarray(brute))) < 1e-12
                    if layout.eta_dim:
                        pi = clipped_propensities(design_matrix(ds, False),
                                                  theta[layout.eta_slice],
                                                  clip_eps)[0]
                        clipped[fam] += int(np.sum((pi <= clip_eps)
                                                   | (pi >= 1 - clip_eps)))
            assert all((c > 0) == (clip_eps == 0.2) for c in clipped.values())

    @pytest.mark.parametrize("link", ["probit", "logit"])
    @pytest.mark.parametrize("constant_only_gpi", [False, True])
    @pytest.mark.parametrize("intercept_only_propensity", [False, True])
    @pytest.mark.parametrize("family", ["dr", "ipw", "msi"])
    def test_brute_residual_zero_at_fit(self, family, intercept_only_propensity,
                                        constant_only_gpi, link):
        ds = small_sim_dataset(40, seed=9)
        fit = solve_ugee(ds, FrmSpec(
            family=family, link=link,
            intercept_only_propensity=intercept_only_propensity,
            constant_only_gpi=constant_only_gpi))
        brute = brute_ugee_residual(list(ds.z), list(ds.y),
                                    [list(r) for r in ds.w], list(fit.theta),
                                    family=family, link=link,
                                    intercept_only=intercept_only_propensity,
                                    constant_only=constant_only_gpi)
        assert max(abs(b) for b in brute) <= 1e-8

    def test_spec_ties_reach_outcome_block(self):
        # count data with tied outcomes: the outcome model must be fitted on
        # the half-tie kernel its workspace scores, so every family reaches
        # the root of the half-tie system
        base = small_sim_dataset(120, seed=3)
        ds = Dataset(base.z, np.round(base.y), base.w, outcome_kind="count")
        assert ds.ties and len(np.unique(ds.y)) < ds.n
        for fam in ("dr", "ipw", "msi"):
            fit = solve_ugee(ds, FrmSpec(family=fam))
            brute = brute_ugee_residual(list(ds.z), list(ds.y),
                                        [list(r) for r in ds.w],
                                        list(fit.theta), family=fam, ties=True)
            assert max(abs(b) for b in brute) <= 1e-8

    def test_tiny_constant_blocks_closed_form(self):
        # with intercept-only pi and constant g the delta equation is linear
        # in delta, so the root from the solver must bracket-sign-change and
        # zero out exactly where the weighted mean of f3 sits
        ds = Dataset([1, 0, 1, 0], [1.0, 4.0, 3.0, 2.0], [[0.1], [0.4], [0.2], [0.9]])
        spec = FrmSpec(intercept_only_propensity=True, constant_only_gpi=True)
        fit = solve_ugee(ds, spec)
        at_root = stacked_residual(ds, fit.theta, spec)[-1]
        below = stacked_residual(ds, np.r_[fit.theta[:-1], fit.delta - 0.1], spec)[-1]
        above = stacked_residual(ds, np.r_[fit.theta[:-1], fit.delta + 0.1], spec)[-1]
        assert abs(at_root) < 1e-12
        assert below > 0 > above

    def test_misspecification_switches_change_layout(self):
        ds = small_sim_dataset()
        f1 = solve_ugee(ds, FrmSpec(intercept_only_propensity=True))
        assert f1.names == ("eta0", "gamma0", "gamma11", "gamma10", "delta")
        f2 = solve_ugee(ds, FrmSpec(constant_only_gpi=True))
        assert f2.names == ("eta0", "eta1", "gamma0", "delta")

    def test_families_share_block_roots(self):
        ds = small_sim_dataset()
        dr = solve_ugee(ds, FrmSpec(family="dr"))
        ipw = solve_ugee(ds, FrmSpec(family="ipw"))
        msi = solve_ugee(ds, FrmSpec(family="msi"))
        assert np.allclose(dr.theta[:2], ipw.theta[:2], atol=1e-9)
        assert np.allclose(dr.theta[2:5], msi.theta[:3], atol=1e-9)

    def test_delta_plain_matches_dr_estimate(self):
        # delta_plain is the plug-in dr estimate at the fitted nuisance
        # coefficients
        ds = small_sim_dataset()
        fit = solve_ugee(ds, FrmSpec())
        est = plugin_delta(ds, "dr", fit.theta[:2], fit.theta[2:5])
        assert abs(fit.delta_plain - est) < 1e-10

    @pytest.mark.parametrize("tol", [1e-3, 1e-4])
    def test_eta_score_norm_at_returned_theta(self, tol, monkeypatch):
        # one Newton step from the maximum-likelihood start meets either
        # tolerance: the fit is accepted, and its score norm reported, at
        # the iterate it returns
        ds = small_sim_dataset()
        monkeypatch.setattr(ugee, "TOL", tol)
        monkeypatch.setattr(ugee, "MAX_ITER", 1)
        spec = FrmSpec(family="ipw")
        fit = solve_ugee(ds, spec)
        u = stacked_residual(ds, fit.theta, spec)
        assert fit.diagnostics["eta_score_norm"] == pytest.approx(
            np.max(np.abs(u[ThetaLayout(ds.p, spec).eta_slice])), rel=1e-12)


class TestEtaBlock:
    @pytest.mark.parametrize("p, intercept_only, clip_eps, spread", [
        (1, True, 1e-6, 1.5), (1, False, 1e-6, 1.5), (2, False, 1e-6, 1.5),
        (2, False, 0.2, 1.5), (2, False, 1e-6, 12.0)],
        ids=["intercept-only", "p1", "p2", "p2-clipped", "p2-at-1e-6"])
    def test_matches_brute_force(self, p, intercept_only, clip_eps, spread):
        # at clip_eps = 1e-6 with subjects held at the bound, pp = pi(1 - pi)
        # is near 1e-6 and a subject's own term 2 / pp, which the separable
        # sum subtracts, dwarfs its row of 1/V1
        rng = np.random.default_rng(41 + p)
        spec = FrmSpec(intercept_only_propensity=intercept_only,
                       clip_eps=clip_eps)
        clipped = 0
        for _ in range(10):
            ds = random_dataset(rng, n=int(rng.integers(4, 12)), p=p)
            X = design_matrix(ds, intercept_only)
            eta = rng.normal(0, spread, X.shape[1])
            pi, at_bound = clipped_propensities(X, eta, spec.clip_eps)
            clipped += int(np.sum(at_bound))
            z = ds.z.astype(float)
            ours = ugee._eta_block(X, z, pi, at_bound)
            brute = brute_eta_block(list(ds.z), [list(r) for r in ds.w],
                                    list(eta), intercept_only, clip_eps)
            for got, want in zip(ours, brute):
                want = np.asarray(want)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert (clipped > 0) == (clip_eps == 0.2 or spread > 1.5)


class TestSolveFamilies:
    @pytest.mark.parametrize("link", ["probit", "logit"])
    @pytest.mark.parametrize("constant_only_gpi", [False, True])
    @pytest.mark.parametrize("intercept_only_propensity", [False, True])
    def test_matches_per_family_solve(self, intercept_only_propensity,
                                      constant_only_gpi, link):
        ds = small_sim_dataset(60, seed=5)
        spec = FrmSpec(link=link,
                       intercept_only_propensity=intercept_only_propensity,
                       constant_only_gpi=constant_only_gpi)
        shared = list(solve_families(ds, spec, ("ipw", "msi", "dr")))
        assert [fit.spec.family for fit in shared] == ["ipw", "msi", "dr"]
        for fit in shared:
            alone = solve_ugee(ds, FrmSpec(
                family=fit.spec.family, link=link,
                intercept_only_propensity=intercept_only_propensity,
                constant_only_gpi=constant_only_gpi))
            assert np.array_equal(fit.theta, alone.theta)
            assert np.array_equal(fit.se, alone.se)
            assert np.array_equal(fit.Sigma_theta, alone.Sigma_theta)
            assert fit.delta_plain == alone.delta_plain
            assert fit.diagnostics == alone.diagnostics

    def test_each_block_fitted_once(self, monkeypatch):
        calls = {"fit_propensity": 0, "_fit_gamma_pairwise": 0, "_eta_block": 0,
                 "clipped_propensities": 0, "_pair_pass": 0, "set_gamma": 0}
        for name in calls:
            owner = ugee._Workspace if name == "set_gamma" else ugee
            def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        ds = small_sim_dataset()
        # the finite-difference check evaluates the blocks again on its own
        # sub-dataset; it is off here, so that only the fit is counted
        spec = FrmSpec(fd_check_pairs=0)
        fits = list(solve_families(ds, spec, ("ipw", "msi", "dr")))
        # the Newton evaluates the treatment block into the workspace once
        # per iteration plus once at the root, and every family reads that;
        # the one pass over the pair tiles evaluates the outcome block at
        # its root, where the outcome Newton's last step left the
        # predictors: they are set once per outcome step plus once at the
        # root, and not again
        newton = fits[0].diagnostics["eta_iterations"] + 1
        gamma_newton = fits[1].diagnostics["gamma_iterations"] + 1
        assert calls == {"fit_propensity": 1, "_fit_gamma_pairwise": 1,
                         "_eta_block": newton, "clipped_propensities": newton,
                         "_pair_pass": 1, "set_gamma": gamma_newton}
        for name in calls:
            calls[name] = 0
        msi, = solve_families(ds, spec, ("msi",))
        assert calls == {"fit_propensity": 0, "_fit_gamma_pairwise": 1,
                         "_eta_block": 0, "clipped_propensities": 0,
                         "_pair_pass": 1,
                         "set_gamma": msi.diagnostics["gamma_iterations"] + 1}


class TestPairTiles:
    @pytest.mark.parametrize("link", ["probit", "logit"])
    @pytest.mark.parametrize("constant_only_gpi", [False, True])
    @pytest.mark.parametrize("intercept_only_propensity", [False, True])
    def test_many_tiles_match_one(self, intercept_only_propensity,
                                  constant_only_gpi, link, monkeypatch):
        ds = small_sim_dataset(60, seed=5)
        spec = FrmSpec(link=link,
                       intercept_only_propensity=intercept_only_propensity,
                       constant_only_gpi=constant_only_gpi)
        families = ("ipw", "msi", "dr")
        one = list(solve_families(ds, spec, families))
        # 7-subject blocks: the last one is partial, and one block holds
        # both treated and control subjects
        monkeypatch.setattr(data, "_tile_size", lambda n: 7)
        blocks = [I for I, J, _, _ in data.pair_tiles(ds.n, ds.n1) if I == J]
        assert len(blocks) == 9 and blocks[-1].stop - blocks[-1].start == 4
        assert any(I.start < ds.n1 < I.stop for I in blocks)
        # the tiles on one thread and on two: the sums are added in tile
        # order either way, so every number is the same bit for bit
        runs = {}
        before = threading.active_count()
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "_tile_workers", lambda: workers)
            runs[workers] = list(solve_families(ds, spec, families))
            assert threading.active_count() == before
        many = runs[1]
        for a, b in zip(one, many):
            for name in ("theta", "se", "Sigma_theta", "B_hat", "delta_plain"):
                x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
                assert np.max(np.abs(x - y)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
        for a, b in zip(runs[1], runs[2]):
            for name in ("theta", "se", "B_hat", "Sigma_theta", "vhat",
                         "delta_plain"):
                assert same_bits(getattr(a, name), getattr(b, name)), name
            assert a.diagnostics == b.diagnostics

    def test_peak_memory_streams_over_tiles(self):
        # the largest pair arrays of a fit at n = 1000 are its tiles, the
        # treatment block's blocks of 1/V1 among them: under 16 MB in all,
        # where one n x n float64 array alone is 8 MB
        ds = synthetic_confounded_trial(n=1000, seed=7)
        tracemalloc.start()
        try:
            list(solve_families(ds, FrmSpec(), ("ipw", "msi", "dr")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestSandwich:
    def test_symmetric_psd(self):
        rng = np.random.default_rng(33)
        for seed in range(5):
            ds = small_sim_dataset(50, seed=seed)
            fit = solve_ugee(ds, FrmSpec())
            S = fit.Sigma_theta
            assert np.allclose(S, S.T, atol=1e-10)
            evals = np.linalg.eigvalsh(S)
            assert evals.min() >= -1e-8 * max(1.0, evals.max())

    def test_public_op_matches_fit(self):
        ds = small_sim_dataset()
        fit = solve_ugee(ds, FrmSpec())
        Sig, B, Sth, se_delta = sandwich_covariance(ds, fit.theta, FrmSpec())
        assert np.allclose(Sig, fit.Sigma_hat, atol=1e-12)
        assert np.allclose(B, fit.B_hat, atol=1e-12)
        assert abs(se_delta - fit.se[-1]) < 1e-12

    @pytest.mark.parametrize("link", ["probit", "logit"])
    @pytest.mark.parametrize("constant_only_gpi", [False, True])
    @pytest.mark.parametrize("intercept_only_propensity", [False, True])
    @pytest.mark.parametrize("family, weighted_delta", [
        ("dr", True), ("dr", False), ("ipw", True), ("msi", True)])
    def test_bread_matches_brute_force(self, family, weighted_delta,
                                       intercept_only_propensity,
                                       constant_only_gpi, link):
        rng = np.random.default_rng(51)
        # at the default clip_eps no propensity is clipped; at 0.2, with
        # eta spread 4x wider, some are, and the bread holds them fixed
        for clip_eps, spread in ((FrmSpec.clip_eps, 1.0), (0.2, 4.0)):
            spec = FrmSpec(family=family, link=link, weighted_delta=weighted_delta,
                           intercept_only_propensity=intercept_only_propensity,
                           constant_only_gpi=constant_only_gpi, fd_check_pairs=0,
                           clip_eps=clip_eps)
            clipped = 0
            for _ in range(6):
                ds = random_dataset(rng, n=int(rng.integers(8, 13)), p=2)
                layout = ThetaLayout(ds.p, spec)
                theta = rng.normal(0, 0.5, layout.q)
                theta[layout.eta_slice] *= spread
                theta[-1] = rng.uniform(0.2, 0.8)
                if layout.eta_dim:
                    X = design_matrix(ds, intercept_only_propensity)
                    pi = 1.0 / (1.0 + np.exp(-X @ theta[layout.eta_slice]))
                    clipped += int(np.sum((pi <= clip_eps) | (pi >= 1 - clip_eps)))
                B = ugee._bread(*ugee._at(ds, spec, theta)[:3])
                brute = np.asarray(brute_bread(
                    list(ds.z), list(ds.y), [list(r) for r in ds.w], list(theta),
                    family=family, link=link,
                    intercept_only=intercept_only_propensity,
                    constant_only=constant_only_gpi, weighted_delta=weighted_delta,
                    clip_eps=clip_eps))
                assert B.shape == brute.shape
                assert np.max(np.abs(B - brute)) \
                    <= 1e-10 * max(1.0, np.max(np.abs(brute)))
            if layout.eta_dim:
                assert (clipped > 0) == (clip_eps == 0.2)

    @pytest.mark.parametrize("link", ["probit", "logit"])
    @pytest.mark.parametrize("constant_only_gpi", [False, True])
    @pytest.mark.parametrize("intercept_only_propensity", [False, True])
    @pytest.mark.parametrize("family", ugee.FAMILIES)
    def test_projections_match_brute_force(self, family, intercept_only_propensity,
                                           constant_only_gpi, link):
        # vhat at the fitted root, whose outcome block the pass sums at the
        # iterate the outcome Newton hands it, against each subject's
        # average pair score by a double loop; then the standard errors
        # from the brute-force projections and bread. Measured over these
        # cases: within 5.2e-12 (vhat) and 4.9e-12 (se) relative
        base = small_sim_dataset(40, seed=5)
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, 60)
        z = (rng.random(60) < 1 / (1 + np.exp(-(0.3 + w)))).astype(int)
        clip = Dataset(z, rng.normal(0, 1, 60) + 0.5 * z + w, w[:, None])
        count = Dataset(base.z, np.round(base.y), base.w, outcome_kind="count")
        assert count.ties and len(np.unique(count.y)) < count.n
        for ds, clip_eps in ((base, FrmSpec.clip_eps), (count, FrmSpec.clip_eps),
                             (clip, 0.1)):
            spec = FrmSpec(family=family, link=link, clip_eps=clip_eps,
                           intercept_only_propensity=intercept_only_propensity,
                           constant_only_gpi=constant_only_gpi, fd_check_pairs=0)
            fit = solve_ugee(ds, spec)
            if spec.has_eta and not intercept_only_propensity:
                assert (fit.diagnostics["clipped_propensities"] > 0) == (ds is clip)
            args = (list(ds.z), list(ds.y), [list(r) for r in ds.w], list(fit.theta))
            kw = dict(family=family, link=link, ties=ds.ties, clip_eps=clip_eps,
                      intercept_only=intercept_only_propensity,
                      constant_only=constant_only_gpi)
            V = np.asarray(brute_projections(*args, **kw))
            assert V.shape == fit.vhat.shape
            assert np.max(np.abs(fit.vhat - V)) <= 1e-10 * max(1.0, np.max(np.abs(V)))
            Binv = np.linalg.inv(np.asarray(brute_bread(*args, **kw)))
            se = np.sqrt(np.diag(4.0 * Binv @ (V.T @ V / ds.n) @ Binv.T) / ds.n)
            assert np.max(np.abs(se - fit.se) / fit.se) <= 1e-10

    def test_analytic_gradient_vs_finite_differences(self):
        ds = small_sim_dataset(80, seed=14)
        for fam in ("dr", "ipw", "msi"):
            fit = solve_ugee(ds, FrmSpec(family=fam, fd_check_pairs=0))
            worst = check_residual_derivatives(ds, fit.theta,
                                               FrmSpec(family=fam),
                                               n_pairs=100, seed=1)
            assert worst <= 1e-5

    @pytest.mark.parametrize("family", ["ipw", "msi", "dr"])
    def test_fd_check_draws_its_pairs_by_content(self, family):
        # a permutation of the subjects checks the same pairs, in the same
        # order, so at one theta it returns the same bits
        ds = small_sim_dataset(80, seed=14)
        spec = FrmSpec(family=family)
        theta = solve_ugee(ds, FrmSpec(family=family, fd_check_pairs=0)).theta
        perm = np.random.default_rng(5).permutation(ds.n)
        permuted = Dataset(ds.z[perm], ds.y[perm], ds.w[perm])
        assert (check_residual_derivatives(permuted, theta, spec, n_pairs=8)
                == check_residual_derivatives(ds, theta, spec, n_pairs=8))

    @pytest.mark.parametrize("block", ["eta", "gamma"])
    def test_fd_check_reads_the_bread(self, block, monkeypatch):
        # the per-fit check differentiates the delta row the sandwich is
        # built from, so one wrong entry of that row fails it
        ds = small_sim_dataset()
        spec = FrmSpec()
        fit = solve_ugee(ds, spec)
        col = getattr(ThetaLayout(ds.p, spec), f"{block}_slice").start
        bread = ugee._bread

        def perturbed(ws, row, layout):
            B = bread(ws, row, layout)
            B[layout.delta_index, col] *= 1.1
            return B

        assert check_residual_derivatives(ds, fit.theta, spec, n_pairs=8) <= 1e-5
        monkeypatch.setattr(ugee, "_bread", perturbed)
        assert check_residual_derivatives(ds, fit.theta, spec, n_pairs=8) > 1e-5

    @pytest.mark.parametrize("clip_eps", [0.05, 0.1])
    @pytest.mark.parametrize("family", ["ipw", "dr"])
    def test_fd_check_with_clipped_propensities(self, family, clip_eps):
        # a clipped propensity is constant in eta; the analytic pair gradient
        # must treat it so, or the per-fit check fails the fit at random
        rng = np.random.default_rng(3)
        w = rng.normal(0, 1, 60)
        z = (rng.random(60) < 1 / (1 + np.exp(-(0.3 + w)))).astype(int)
        y = rng.normal(0, 1, 60) + 0.5 * z + w
        ds = Dataset(z, y, w[:, None])
        spec = FrmSpec(family=family, clip_eps=clip_eps)
        fit = solve_ugee(ds, spec)
        assert fit.diagnostics["clipped_propensities"] > 0
        assert check_residual_derivatives(ds, fit.theta, spec,
                                          n_pairs=500, seed=1) <= 1e-5

    def test_se_positive(self):
        ds = small_sim_dataset()
        fit = solve_ugee(ds, FrmSpec())
        assert np.all(fit.se > 0)

    def test_report_roundtrip(self):
        import json

        ds = small_sim_dataset()
        fit = solve_ugee(ds, FrmSpec())
        rep = fit.to_report()
        assert json.loads(json.dumps(rep))["components"]["delta"]["estimate"] == fit.delta


class TestMetamorphic:
    """Relations between the fits of two datasets that need no oracle."""

    @pytest.mark.parametrize("link", ["probit", "logit"])
    def test_increasing_map_of_y_keeps_every_bit(self, link):
        # y enters only through the pair kernel K, which a strictly
        # increasing map that keeps every order and tie leaves as it is
        ds = synthetic_confounded_trial(n=150, seed=3)
        mapped = Dataset(ds.z, 3.0 * np.arctan(ds.y) + 1.0, ds.w,
                         outcome_kind=ds.outcome_kind)
        order = np.sign(ds.y[:, None] - ds.y[None, :])
        assert np.array_equal(order, np.sign(mapped.y[:, None] - mapped.y[None, :]))
        families = ("dr", "ipw", "msi")
        spec = FrmSpec(link=link)
        fits = list(zip(solve_families(ds, spec, families),
                        solve_families(mapped, spec, families)))
        assert [a.spec.family for a, _ in fits] == list(families)
        for a, b in fits:
            assert same_bits(a.theta, b.theta) and same_bits(a.se, b.se)

    @pytest.mark.parametrize("link", ["probit", "logit"])
    def test_permuting_the_subjects_moves_only_round_off(self, link):
        # the permutation changes which subjects the outcome Newton holds as
        # treated rows and control columns, and the order of every sum.
        # Measured with this permutation under both links: theta within
        # 5.9e-14 and se within 4.1e-13 relative (1.6e-13 and 4.1e-13 over
        # the permutations of seeds 0 to 2); the bounds allow 10 times that
        ds = synthetic_confounded_trial(n=150, seed=3)
        perm = np.random.default_rng(0).permutation(ds.n)
        permuted = Dataset(ds.z[perm], ds.y[perm], ds.w[perm],
                           outcome_kind=ds.outcome_kind)
        families = ("dr", "ipw", "msi")
        spec = FrmSpec(link=link)
        for a, b in zip(solve_families(ds, spec, families),
                        solve_families(permuted, spec, families)):
            assert a.spec.family == b.spec.family
            assert np.max(np.abs(b.theta - a.theta) / np.abs(a.theta)) <= 6e-13
            assert np.max(np.abs(b.se - a.se) / a.se) <= 4e-12

    @pytest.mark.parametrize("link", ["probit", "logit"])
    @pytest.mark.parametrize("mirror", ["swap_arms", "negate_y"])
    def test_mirrored_data_gives_the_complement(self, link, mirror):
        # with no tied outcomes, both maps turn every pair indicator
        # I(y_t <= y_c) into its complement, so delta + delta' = 1 for dr
        # and msi. Measured under both links: within 5.1e-15; the bound
        # allows 10 times that. ipw is not asserted: there delta + delta'
        # is the mean of the Horvitz-Thompson weights r_ij / (pi_i
        # (1 - pi_j)) over the ordered pairs, 1.146 on these data, since
        # those weights do not sum to the pair count
        ds = synthetic_confounded_trial(n=150, seed=3)
        assert len(np.unique(ds.y)) == ds.n
        z, y = (1 - ds.z, ds.y) if mirror == "swap_arms" else (ds.z, -ds.y)
        mirrored = Dataset(z, y, ds.w, outcome_kind=ds.outcome_kind)
        families = ("dr", "msi")
        spec = FrmSpec(link=link)
        for a, b in zip(solve_families(ds, spec, families),
                        solve_families(mirrored, spec, families)):
            assert a.spec.family == b.spec.family
            assert abs(a.delta + b.delta - 1.0) <= 5.1e-14

    @pytest.mark.parametrize("link", ["probit", "logit"])
    def test_affine_map_of_w_moves_only_round_off(self, link):
        # w -> 2w + 1 maps each model's coefficients onto others that give
        # the same propensities and pair probabilities, so delta and its se
        # move only as far as the Newton tolerances let the roots. Measured
        # under both links: delta within 7.2e-13 (dr), 3.5e-11 (ipw) and
        # 2.2e-16 (msi), and se(delta) within 1.6e-10 relative; the bounds
        # allow 10 times that
        ds = synthetic_confounded_trial(n=150, seed=3)
        mapped = Dataset(ds.z, ds.y, 2.0 * ds.w + 1.0, outcome_kind=ds.outcome_kind)
        bound = {"dr": 7.2e-12, "ipw": 3.5e-10, "msi": 2.2e-15}
        spec = FrmSpec(link=link)
        for a, b in zip(solve_families(ds, spec), solve_families(mapped, spec)):
            assert a.spec.family == b.spec.family
            assert abs(b.delta - a.delta) <= bound[a.spec.family]
            assert abs(b.se[-1] - a.se[-1]) <= 1.6e-9 * a.se[-1]


class TestOutcomeNewton:
    """The outcome Newton maps over no tile: every evaluation is
    gpi.gamma_newton_block, closed-form at zero slopes and interpolated
    elsewhere. Only the pair pass judges an iterate, a constant model's
    one evaluation too, so a fit maps over the pair tiles in its passes
    alone and ends on the pass that judged its root."""

    @staticmethod
    def count_maps(monkeypatch):
        calls = {"map": 0, "pass": 0}
        tile_map, pair_pass = ugee.tile_map, ugee._pair_pass

        def counted_map(*args):
            calls["map"] += 1
            return tile_map(*args)

        def counted_pass(*args):
            calls["pass"] += 1
            return pair_pass(*args)

        monkeypatch.setattr(ugee, "tile_map", counted_map)
        monkeypatch.setattr(ugee, "_pair_pass", counted_pass)
        return calls

    @staticmethod
    def exact_norm(ds, gamma, link="probit"):
        # the msi system's outcome block is the outcome score over the pair
        # count, summed by a pass of its own
        u = stacked_residual(ds, np.r_[gamma, 0.5], FrmSpec(family="msi", link=link))
        return float(np.max(np.abs(u[:-1]))) * ds.n * (ds.n - 1) / 2

    def test_one_pass_and_no_other_tile_map(self, monkeypatch):
        calls = self.count_maps(monkeypatch)
        ds = synthetic_confounded_trial(n=2000, seed=7)
        spec = FrmSpec(fd_check_pairs=0)
        # 7 evaluations: the first at zero slopes, the last judged by the
        # pass, whose sums the fits then read
        fits = list(solve_families(ds, spec))
        assert fits[0].diagnostics["gamma_iterations"] == 6
        assert calls == {"map": 1, "pass": 1}
        for key in calls:
            calls[key] = 0
        # fit_gpi judges with a pass of no delta row
        assert gpi.fit_gpi(ds).iterations == 6
        assert calls == {"map": 1, "pass": 1}
        for constant in (FrmSpec(constant_only_gpi=True, fd_check_pairs=0),
                         FrmSpec(fd_check_pairs=0)):
            for key in calls:
                calls[key] = 0
            no_w = ds if constant.constant_only_gpi else Dataset(ds.z, ds.y)
            list(solve_families(no_w, constant))
            assert calls == {"map": 1, "pass": 1}

    @pytest.mark.parametrize("link", ["probit", "logit"])
    def test_a_constant_model_is_judged_by_one_pass(self, link, monkeypatch):
        # the constant model starts at its root, and the pass judges that
        # start: fit_gpi maps over the tiles in that pass alone, and both
        # fits report the pass's exact norm, not the closed form's
        calls = self.count_maps(monkeypatch)
        ds = synthetic_confounded_trial(n=600, seed=7)
        m = gpi.fit_gpi(ds, constant_only=True, link=link)
        assert calls == {"map": 1, "pass": 1}
        assert m.iterations == 0
        spec = FrmSpec(link=link, constant_only_gpi=True, fd_check_pairs=0)
        ws = ugee._Workspace(ds, spec)
        ws.set_gamma(m.gamma)
        ugee._pair_pass(ws, [])
        assert m.score_norm == float(np.max(np.abs(ws.gamma_score)))
        msi, = solve_families(ds, spec, ("msi",))
        assert msi.diagnostics["gamma_score_norm"] == m.score_norm

    def test_a_poor_interpolant_costs_passes_not_convergence(self, monkeypatch):
        # with 6 nodes the interpolated score misses the exact one by far
        # more than half the tolerance; once a pass shows that, the pass
        # judges every later iterate, and the fit reaches the same root.
        # Measured: 18 passes and 35 steps, theta within 1.8e-12
        calls = self.count_maps(monkeypatch)
        ds = synthetic_confounded_trial(n=2000, seed=7)
        spec = FrmSpec(fd_check_pairs=0)
        want, = solve_families(ds, spec, ("msi",))
        monkeypatch.setattr(gpi, "NODES", 6)
        calls["pass"] = 0
        got, = solve_families(ds, spec, ("msi",))
        assert calls["pass"] > 1
        tol = max(gpi.SCORE_TOL, ds.n1 * ds.n0 * 1e-13)
        assert self.exact_norm(ds, got.theta[:-1]) <= tol
        assert np.max(np.abs(got.theta - want.theta)) <= 1e-9

    @pytest.mark.parametrize("link", ["probit", "logit"])
    def test_a_miss_costs_one_pass(self, link, monkeypatch):
        # the pass judges the first interpolated iterate, which misses; the
        # Newton steps on the pass's score and goes on, and the pass judges
        # again at the root. After the miss the steps read the exact score,
        # so the root moves by round-off: measured here, every field within
        # 5.5e-13 in gate form (theta 2.8e-14); at n = 400 Sigma_theta moved
        # 1.3e-12, a theta move of 3e-14 through B^-1
        calls = self.count_maps(monkeypatch)
        ds = synthetic_confounded_trial(n=2000, seed=7)
        spec = FrmSpec(link=link, fd_check_pairs=0)
        tol = max(gpi.SCORE_TOL, ds.n1 * ds.n0 * 1e-13)
        rules = {"predicted": ugee._predicts_final,
                 "miss": lambda norms, tol: len(norms) == 1}
        fits, passes = {}, {}
        for name, rule in rules.items():
            monkeypatch.setattr(ugee, "_predicts_final", rule)
            calls["pass"] = 0
            fits[name] = list(solve_families(ds, spec))
            passes[name] = calls["pass"]
            dr = fits[name][0]
            assert self.exact_norm(ds, dr.theta[dr.index_of("gamma0"):-1], link) <= tol
        assert passes == {"predicted": 1, "miss": 2}
        for a, b in zip(fits["predicted"], fits["miss"]):
            for field in ("theta", "se", "B_hat", "Sigma_theta", "vhat",
                          "delta_plain"):
                x, y = np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
                assert np.max(np.abs(x - y) / np.maximum(1.0, np.maximum(
                    np.abs(x), np.abs(y)))) <= 1e-12, field
            assert a.diagnostics.get("gamma_iterations") \
                == b.diagnostics.get("gamma_iterations")


class TestWald:
    def fake_fit(self, est, se):
        return UgeeFit(FrmSpec(), ("delta",), np.array([est]), np.array([se]),
                       np.eye(1), np.eye(1), np.eye(1), np.zeros((2, 1)),
                       est, 0.0, 100)

    def test_null_value_gives_p_one(self):
        w = wald_test(self.fake_fit(0.5, 0.1), "delta", 0.5, 0.05)
        assert w.z == 0.0 and abs(w.p_value - 1.0) < 1e-12
        assert not w.reject

    def test_two_sigma_example(self):
        w = wald_test(self.fake_fit(0.430, 0.035), "delta", 0.5, 0.05)
        assert abs(w.z - (-2.0)) < 1e-9
        assert abs(w.p_value - 0.0455) < 3e-4
        assert w.reject

    def test_p_value_not_floored(self):
        # z = -16: p = 2 Phi(-16) is about 1.3e-57, far below the 2e-12 at
        # which a clamped normal CDF would floor it
        w = wald_test(self.fake_fit(0.34, 0.01), "delta", 0.5, 0.05)
        assert abs(w.z + 16.0) < 1e-9
        expected = math.erfc(abs(w.z) / math.sqrt(2.0))
        assert abs(w.p_value - expected) <= 1e-12 * expected

    def test_ci_covers_estimate(self):
        w = wald_test(self.fake_fit(0.44, 0.05), "delta", 0.5, 0.05)
        assert w.ci_lo < 0.44 < w.ci_hi
        assert abs((w.ci_hi - 0.44) - 1.959964 * 0.05) < 1e-4

    def test_unknown_component(self):
        with pytest.raises(ValidationError):
            wald_test(self.fake_fit(0.5, 0.1), "nonsense", 0.5, 0.05)

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            wald_test(self.fake_fit(0.5, 0.1), "delta", 0.5, 1.5)


def test_nonconvergence_diagnostics(monkeypatch):
    # absurd tolerance forces the convergence failure path to carry data
    ds = small_sim_dataset()
    monkeypatch.setattr(ugee, "TOL", 1e-300)
    monkeypatch.setattr(ugee, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as err:
        solve_ugee(ds, FrmSpec())
    assert err.value.residual is not None
