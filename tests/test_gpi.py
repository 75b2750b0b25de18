import numpy as np
import pytest

from mwwdr import data, gpi, ugee
from mwwdr.data import Dataset, outcome_kernel
from mwwdr.errors import EstimabilityError, SeparationError, ValidationError
from mwwdr.gpi import (LINKS, GpiModel, fit_gpi, gamma_block, gamma_newton_block,
                       link_initial, link_values, pair_link_values, predictors)
from mwwdr.simstudy import (ScenarioConfig, generate_dataset,
                            synthetic_confounded_trial)
from mwwdr.ugee import (FrmSpec, PairTile, _Workspace, solve_families,
                        stacked_residual)

from oracles import _g_of, normal_ppf


def model(gamma, link="probit", constant=False, p=1):
    gamma = np.asarray(gamma, dtype=float)
    return GpiModel(gamma, link, constant, 0 if constant else p, True, 0, 0.0)


def tile_g(m, w):
    """The tile kernel's g of every ordered pair of subjects with covariate
    rows w, held in the order given."""
    w = np.asarray(w, dtype=float)
    ws = _Workspace(Dataset(np.ones(len(w), dtype=int), np.zeros(len(w)), w),
                    FrmSpec(link=m.link, constant_only_gpi=m.constant_only))
    ws.set_gamma(m.gamma)
    return ws.tile().G


def g_value(m, w_first, w_second):
    """The tile kernel's g of the ordered pair (first, second)."""
    return float(tile_g(m, [w_first, w_second])[0, 1])


class TestGValue:
    def test_zero_coefficients(self):
        assert g_value(model([0.0, 0.0, 0.0]), [1.3], [0.2]) == 0.5

    def test_antisymmetric_cancellation(self):
        m = model([0.0, -0.5, 0.5])
        assert abs(g_value(m, [0.7], [0.7]) - 0.5) < 1e-12

    def test_complement_identity(self):
        rng = np.random.default_rng(2)
        m = model([0.0, -0.8, 0.8])
        for _ in range(25):
            wi, wj = rng.normal(size=2)
            s = g_value(m, [wi], [wj]) + g_value(m, [wj], [wi])
            assert abs(s - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        # a one-covariate model on two-covariate data is rejected
        ds = Dataset([1, 0], [1.0, 2.0], [[1.0, 2.0], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            stacked_residual(ds, np.array([0.0, 1.0, 1.0, 0.5]),
                             FrmSpec(family="msi"))

    def test_logit_link(self):
        m = model([1.0, 0.0, 0.0], link="logit")
        assert abs(g_value(m, [0.0], [0.0]) - 1 / (1 + np.exp(-1))) < 1e-12

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(5, 1))
        m = model([0.2, -0.4, 0.6])
        G = tile_g(m, w)
        for i in range(5):
            for j in range(5):
                want = _g_of(m.gamma, list(w[i]), list(w[j]), m.link, False)[0]
                assert abs(G[i, j] - want) < 1e-12

    def test_probit_density_is_the_four_step_formula(self):
        # dg/da must not move by a bit: exp(a * -0.5 * a) / sqrt(2 pi), as
        # the fits computed it before Phi came from the rational kernel
        rng = np.random.default_rng(6)
        A = np.concatenate([np.linspace(-45.0, 45.0, 90001),
                            rng.normal(0.0, 3.0, 10000),
                            [-1e300, -1e154, -38.7, 38.5, 1e-300, -0.0]])
        with np.errstate(over="ignore"):
            want = np.multiply(A, -0.5)
            want *= A
        np.exp(want, out=want)
        want /= np.sqrt(2.0 * np.pi)
        before = A.copy()
        G, D = link_values("probit", A[None, :])
        assert np.array_equal(D.ravel(), want)
        assert np.array_equal(A, before)


class TestPairLinkValues:
    """A block of pairs with one predictor: the link at it, filled."""

    # 0, the rational's end 7.1 and the cut 40, on both sides, and past them
    VALUES = (0.0, -0.0, 7.1, -7.1, 40.0, -40.0, 45.0, -45.0, 0.6744897501,
              -1.3, 3.75, 1e-300)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 4), (256, 256)])
    @pytest.mark.parametrize("link", LINKS)
    def test_filled_block_is_the_per_element_kernel(self, link, shape, monkeypatch):
        # at zero slopes a tile evaluates the link once per orientation and
        # fills its g and dg/da, forward and backward: in the constant
        # model, and in a covariate model, whose predictors g0 + w'0 and
        # w'0 then hold zeros of either sign
        evaluated, link_values = [], gpi.link_values

        def counted(*args):
            evaluated.append(args[1].size)
            return link_values(*args)

        monkeypatch.setattr(gpi, "link_values", counted)
        r, c = shape
        rng = np.random.default_rng(5)
        ds = Dataset(np.repeat([1, 0], shape), rng.normal(size=r + c),
                     rng.normal(size=(r + c, 2)))
        I, J = slice(0, r), slice(r, r + c)
        for constant in (True, False):
            ws = _Workspace(ds, FrmSpec(link=link, constant_only_gpi=constant))
            for value in self.VALUES:
                gamma = np.zeros(1 + 2 * ws.wg.shape[1])
                gamma[0] = value
                ws.set_gamma(gamma)
                tile = PairTile(ws, I, J, I, J)
                per_element = (*pair_link_values(link, ws.a1[I], ws.a0[J])[1:],
                               *pair_link_values(link, ws.a0[I], ws.a1[J])[1:])
                evaluated.clear()
                filled = (tile.G, tile.DG, tile.Gb, tile.DGb)
                assert evaluated == [1, 1]
                for got, want in zip(filled, per_element):
                    assert got.shape == shape
                    assert got.tobytes() == want.tobytes(), (value, constant)
                    assert got.flags.writeable

    @pytest.mark.parametrize("link", LINKS)
    def test_gamma_block_writes_only_g_and_a(self, link):
        rng = np.random.default_rng(8)
        K = outcome_kernel(rng.normal(size=6), rng.normal(size=5), False)
        w1, w0 = np.zeros((6, 0)), np.zeros((5, 0))
        x, y = np.full(6, 0.4), np.zeros(5)
        A, G, D = pair_link_values(link, x, y)
        before = [v.copy() for v in (K, A, G, D)]
        got = gamma_block(K, G, D, w1, w0, link, A)
        assert np.array_equal(K, before[0]) and np.array_equal(D, before[3])
        # the Newton's form writes G and A under probit only
        written = link == "probit"
        assert np.array_equal(A, before[1]) != written
        assert np.array_equal(G, before[2]) != written
        A, G, D = pair_link_values(link, x, y)
        want = gamma_block(K, G, D, w1, w0, link, A)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def unidentified_dataset(case):
    """(dataset, arm): an outcome model with covariates that one arm's
    covariate rows do not identify, and that arm; the pair indicators are
    not all equal."""
    rng = np.random.default_rng(3)
    y = np.array([0.0, 0.3, -1.0, 1.0, -2.0, 2.0, 0.5, -0.5, 1.5, -1.5])
    if case == "one_treated":  # one row, centred, is zero at p = 1
        return Dataset([1] + [0] * 6, y[:7], rng.normal(size=(7, 1))), "treated"
    if case == "two_treated_p2":  # two rows, centred, have rank 1
        return Dataset([1, 1] + [0] * 6, y[:8], rng.normal(size=(8, 2))), "treated"
    w = rng.normal(size=(10, 2))
    w[5:, 1] = 0.1  # constant within the control arm
    return Dataset([1] * 5 + [0] * 5, y, w), "control"


class TestFitGpi:
    def test_constant_only_closed_form(self, four_row_dataset):
        # observed indicators over (treated, control) pairs: (1, 1, 0, 1)
        m = fit_gpi(four_row_dataset, constant_only=True)
        assert m.converged
        assert abs(m.gamma[0] - normal_ppf(0.75)) < 1e-6
        assert abs(m.gamma[0] - 0.6744897501) < 1e-6

    def test_constant_only_logit(self, four_row_dataset):
        m = fit_gpi(four_row_dataset, constant_only=True, link="logit")
        assert abs(1 / (1 + np.exp(-m.gamma[0])) - 0.75) < 1e-9

    def test_degenerate_response(self):
        ds = Dataset([1, 1, 0, 0], [1.0, 2.0, 3.0, 4.0])  # all indicators 1
        with pytest.raises(SeparationError):
            fit_gpi(ds, constant_only=True)

    def test_single_arm_rejected(self):
        ds = Dataset([1, 1, 1], [1.0, 2.0, 3.0])
        with pytest.raises(EstimabilityError):
            fit_gpi(ds)

    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("case", ["one_treated", "two_treated_p2",
                                      "constant_in_control"])
    def test_unidentified_model_rejected_before_newton(self, case, link):
        # an arm whose covariates, centred, have rank below p leaves the
        # information singular; before the rank check, round-off decided
        # between "diverged", "singular Jacobian" and a meaningless fit
        ds, arm = unidentified_dataset(case)
        for fit in (lambda: fit_gpi(ds, link=link),
                    lambda: list(solve_families(ds, FrmSpec(
                        link=link, intercept_only_propensity=True), ("msi",)))):
            with pytest.raises(EstimabilityError, match=f"the {arm} arm's"):
                fit()
        # the constant model reads no covariate and fits as before
        m = fit_gpi(ds, constant_only=True, link=link)
        msi, = solve_families(ds, FrmSpec(link=link, constant_only_gpi=True),
                              ("msi",))
        assert m.converged and m.gamma.tobytes() == msi.theta[:-1].tobytes()

    @pytest.mark.parametrize("constant_only", [False, True])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("link", ["probit", "logit"])
    def test_score_zero_at_convergence(self, link, p, constant_only):
        rng = np.random.default_rng(8)
        w = rng.normal(1.0, 0.5, (80, p))
        z = (rng.random(80) < 0.5).astype(int)
        y = w.sum(axis=1) + rng.normal(0, 1, 80)
        ds = Dataset(z, y, w)
        m = fit_gpi(ds, constant_only=constant_only, link=link)
        # weighted residual sum is zero within 1e-6 for every component
        from oracles import brute_ugee_residual
        theta = list(m.gamma) + [0.5]
        resid = brute_ugee_residual(list(z), list(y), [list(r) for r in w],
                                    theta, family="msi", link=link,
                                    constant_only=constant_only)
        npairs = 80 * 79 / 2
        assert max(abs(r) for r in resid[:-1]) * npairs < 1e-6

    @pytest.mark.parametrize("link", LINKS)
    @pytest.mark.parametrize("constant_only", [False, True])
    @pytest.mark.parametrize("count", [False, True])
    def test_public_fit_is_the_programs_fit(self, link, constant_only, count,
                                            monkeypatch):
        # fit_gpi and solve_families run one outcome Newton on one kind of
        # workspace, so they agree bit for bit; 7-subject tiles give blocks
        # that hold both arms and tiles with no treated x control pair
        monkeypatch.setattr(data, "_tile_size", lambda n: 7)
        _, ds = generate_dataset(ScenarioConfig(n=60, reps=1, seed=5), 0)
        if count:
            ds = Dataset(ds.z, np.round(ds.y), ds.w, outcome_kind="count")
            assert ds.ties and len(np.unique(ds.y)) < ds.n
        tiles = data.pair_tiles(ds.n, ds.n1)
        assert any(I.start < ds.n1 < I.stop for I, _, _, _ in tiles)
        assert not all(rows.start < rows.stop and cols.start < cols.stop
                       for _, _, rows, cols in tiles)
        m = fit_gpi(ds, constant_only, link)
        fit, = solve_families(ds, FrmSpec(link=link, constant_only_gpi=constant_only),
                              ("msi",))
        assert m.gamma.tobytes() == fit.theta[:-1].tobytes()  # msi: (gamma, delta)
        assert m.iterations == fit.diagnostics["gamma_iterations"]
        assert m.score_norm == fit.diagnostics["gamma_score_norm"]

    def test_antisymmetry_of_slopes_under_null(self):
        # under a null generator the fitted slopes are opposite and the
        # intercept is near zero, whatever the noise shape
        cfg = ScenarioConfig(n=2000, reps=1, seed=99)
        _, ds = generate_dataset(cfg, 0)
        m = fit_gpi(ds)
        g0, g11, g10 = m.gamma
        assert abs(g0) < 0.08
        assert abs(float(g11 + g10)) < 0.08
        assert g11 < -0.4 and g10 > 0.4

    @pytest.mark.xfail(
        strict=True,
        reason="With the generator's centered chi-square noise the pairwise "
        "probit working model is misspecified: its pseudo-true slopes are "
        "about (-0.69, +0.69), not the (-0.5, +0.5) implied by the normal "
        "approximation (measured mean at n=400 over 300 replications: "
        "(0.00, -0.69, +0.68)). Recovery within 0.03 of the normal-theory "
        "values is unattainable under this data-generating process.")
    def test_normal_theory_parameter_recovery(self):
        rng_reps = 60
        vals = []
        for r in range(rng_reps):
            cfg = ScenarioConfig(n=400, reps=1, seed=1000 + r)
            _, ds = generate_dataset(cfg, 0)
            vals.append(fit_gpi(ds).gamma)
        mean = np.mean(vals, axis=0)
        assert np.max(np.abs(mean - np.array([0.0, -0.5, 0.5]))) < 0.03


def _block(gamma, K, w1, w0, link, newton):
    """gamma_block at gamma: the sandwich's form, or the Newton's form."""
    a1, a0 = predictors(gamma, w1, w0)
    A = a1[:, None] + a0[None, :]
    G, D = link_values(link, A)
    if newton:
        return gamma_block(K, G, D, w1, w0, link, A)
    return gamma_block(K, G, D, w1, w0)


class TestNewtonInformation:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("link", ["probit", "logit"])
    def test_minus_jacobian_of_the_score(self, link, p, ties, seed):
        rng = np.random.default_rng([seed, p, ties])
        n1, n0 = rng.integers(12, 19, size=2)
        w1, w0 = rng.normal(0.0, 1.0, (n1, p)), rng.normal(0.0, 1.0, (n0, p))
        y1, y0 = rng.normal(0.3, 1.0, n1), rng.normal(0.0, 1.0, n0)
        if ties:
            y1, y0 = np.round(y1), np.round(y0)
        K = outcome_kernel(y1, y0, ties)
        gamma = rng.normal(0.0, 0.6, 1 + 2 * p)
        score, info = _block(gamma, K, w1, w0, link, True)
        h = 1e-5
        jac = np.empty_like(info)
        for k in range(len(gamma)):
            e = np.zeros(len(gamma))
            e[k] = h
            jac[:, k] = (_block(gamma + e, K, w1, w0, link, False)[0]
                         - _block(gamma - e, K, w1, w0, link, False)[0]) / (2 * h)
        assert np.max(np.abs(info + jac)) <= 1e-6 * np.max(np.abs(info))
        expected = _block(gamma, K, w1, w0, link, False)
        assert np.array_equal(score, expected[0])
        if link == "logit":
            assert np.array_equal(info, expected[1])
        else:
            assert not np.array_equal(info, expected[1])

    def test_sandwich_form_leaves_its_inputs(self):
        rng = np.random.default_rng(4)
        w1, w0 = rng.normal(size=(6, 1)), rng.normal(size=(5, 1))
        K = outcome_kernel(rng.normal(size=6), rng.normal(size=5), False)
        a1, a0 = predictors(np.array([0.2, -0.4, 0.6]), w1, w0)
        A = a1[:, None] + a0[None, :]
        G, D = link_values("probit", A)
        before = [x.copy() for x in (K, G, D, A)]
        gamma_block(K, G, D, w1, w0)
        assert all(np.array_equal(x, y) for x, y in zip((K, G, D, A), before))

    def test_probit_fit_converges_quadratically(self):
        # Fisher scoring, the parent method, took 11 steps on this input
        m = fit_gpi(synthetic_confounded_trial(n=300, seed=7))
        assert m.iterations <= 6
        assert m.score_norm <= gpi.SCORE_TOL


class TestFlatBlock:
    """The outcome block's Newton form at zero slopes, from kernel sums."""

    @pytest.mark.parametrize("mean", [0.37, 1e-7])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("p", [0, 1, 4])
    @pytest.mark.parametrize("link", LINKS)
    def test_matches_the_tile_sum(self, link, p, ties, mean):
        # the start of a fit at a mean indicator of 0.37, and one clamped
        # at 1e-6 (g near 1e-6, so d / v is large), against the sum of
        # gamma_block's Newton form over every treated x control pair.
        # Measured: within 2.0e-15 of the largest entry of each
        rng = np.random.default_rng([p, ties])
        n = 90
        z = (rng.random(n) < 0.45).astype(int)
        y = rng.normal(0.3 * z, 1.0)
        ds = Dataset(z, np.round(y) if ties else y, rng.normal(0.5, 1.0, (n, p)),
                     outcome_kind="count" if ties else "continuous")
        assert ds.ties == ties and (len(np.unique(ds.y)) < n) == ties
        ws = _Workspace(ds, FrmSpec(link=link))
        gamma = np.zeros(1 + 2 * p)
        gamma[0] = link_initial(link, mean)
        ws.set_gamma(gamma)
        n1 = ws.n1
        w1, w0 = ws.wg[:n1], ws.wg[n1:]
        sort = data.OutcomeSort(ws.y[:n1], ws.y[n1:], ties)
        got = gamma_newton_block(sort, ws.a1[:n1], ws.a0[n1:], w1, w0, link)
        A, G, D = pair_link_values(link, ws.a1[:n1], ws.a0[n1:])
        K = outcome_kernel(ws.y[:n1], ws.y[n1:], ties)
        want = gamma_block(K, G, D, w1, w0, link, A)
        for x, y_ in zip(got, want):
            assert x.shape == y_.shape
            assert np.max(np.abs(x - y_)) <= 1e-12 * np.max(np.abs(y_))

    @pytest.mark.parametrize("link", LINKS)
    def test_the_predictors_choose_the_closed_form(self, link, monkeypatch):
        # the block takes its closed form from predictors that are each
        # constant, and visits no pair; at a non-zero slope it does
        ds = synthetic_confounded_trial(n=60, seed=3)
        ws = _Workspace(ds, FrmSpec(link=link))
        n1 = ws.n1
        w1, w0 = ws.wg[:n1], ws.wg[n1:]
        sort = data.OutcomeSort(ws.y[:n1], ws.y[n1:], ws.ties)
        visited = []
        kernel = gpi.outcome_kernel
        monkeypatch.setattr(gpi, "outcome_kernel",
                            lambda *args: visited.append(1) or kernel(*args))
        for slope, visits in ((0.0, []), (0.01, [1])):
            gamma = np.zeros(1 + 2 * ws.wg.shape[1])
            gamma[:2] = 0.2, slope
            ws.set_gamma(gamma)
            gamma_newton_block(sort, ws.a1[:n1], ws.a0[n1:], w1, w0, link)
            assert visited == visits


def _newton_iterates(ds, link):
    """The workspace of ds and the outcome Newton's iterates at non-zero
    slopes."""
    ws = _Workspace(ds, FrmSpec(link=link))
    iterates, set_gamma = [], ws.set_gamma
    ws.set_gamma = lambda gamma: (iterates.append(gamma), set_gamma(gamma))
    ugee._fit_gamma_pairwise(ws)
    return ws, set_gamma, [g for g in iterates if np.any(g[1:])]


def _blocks(ws, link):
    """The interpolated block and gamma_block's dense Newton form at the
    workspace's predictors."""
    n1 = ws.n1
    w1, w0, a1, a0 = ws.wg[:n1], ws.wg[n1:], ws.a1[:n1], ws.a0[n1:]
    sort = data.OutcomeSort(ws.y[:n1], ws.y[n1:], ws.ties)
    got = gamma_newton_block(sort, a1, a0, w1, w0, link)
    A, G, D = pair_link_values(link, a1, a0)
    K = outcome_kernel(ws.y[:n1], ws.y[n1:], ws.ties)
    return got, gamma_block(K, G, D, w1, w0, link, A)


def kinked_dataset():
    """n = 600 outcomes so well predicted by the first covariate that
    12.6 % of the probit root's pair predictors lie past the clamp at
    -7.03."""
    rng = np.random.default_rng(11)
    w = rng.normal(0.0, 1.0, (600, 2))
    y = 2.0 * w[:, 0] + w[:, 1] + rng.normal(0.0, 0.5, 600)
    return Dataset((rng.random(600) < 0.5).astype(int), y, w)


class TestInterpolatedBlock:
    """The outcome block's Newton form at any slopes, interpolated in one
    arm's predictor, against gamma_block's sum over every pair."""

    @pytest.mark.parametrize("case", ["seed7-probit", "seed7-logit", "kink-probit"])
    def test_matches_the_dense_sum_at_the_newton_iterates(self, case):
        # bounds: information within 1e-13 of its largest entry and the
        # score within half the Newton's tolerance. Measured: information
        # within 1.9e-15 (seed 7) and 5.3e-16 (kink), score within 7.6e-9
        # of the 1e-7 tolerance (seed 7) and 8.1e-12 of 1e-8 (kink)
        link = case.split("-")[1]
        ds = synthetic_confounded_trial(n=2000, seed=7) if case.startswith("seed7") \
            else kinked_dataset()
        ws, set_gamma, iterates = _newton_iterates(ds, link)
        assert len(iterates) >= 5
        tol = max(gpi.SCORE_TOL, ws.n1 * (ws.n - ws.n1) * 1e-13)
        past = 0.0
        for gamma in iterates:
            set_gamma(gamma)
            A = ws.a1[:ws.n1, None] + ws.a0[ws.n1:]
            past = max(past, np.mean(np.abs(A) > 7.04))
            (score, info), (want_score, want_info) = _blocks(ws, link)
            assert np.max(np.abs(info - want_info)) <= 1e-13 * np.max(np.abs(want_info))
            assert np.max(np.abs(score - want_score)) <= tol / 2
        assert (past > 0.1) == case.startswith("kink")

    @pytest.mark.parametrize("link", LINKS)
    def test_few_predictor_values_are_the_nodes(self, link):
        # covariates in {0, 1, 2}: at most 9 predictor values a side, which
        # are the nodes, so the weights pick each subject's value and the
        # kernel sums are those of the dense kernel exactly; the block
        # differs from the dense sum by its order of adding alone. A block
        # of at most one tile's pairs is the dense sum. Measured: within
        # 2.0e-15 (score) and 6.0e-15 (information) of the largest entry
        rng = np.random.default_rng(5)
        w = rng.integers(0, 3, (1000, 2)).astype(float)
        y = w.sum(axis=1) + rng.normal(0.0, 1.0, 1000)
        ds = Dataset((rng.random(1000) < 0.5).astype(int), y, w)
        ws = _Workspace(ds, FrmSpec(link=link))
        ws.set_gamma(np.array([0.1, -0.4, 0.3, 0.5, -0.2]))
        n1 = ws.n1
        nodes, L = gpi._lagrange(ws.a0[n1:])
        assert len(nodes) <= 9
        assert L.tobytes() == (ws.a0[n1:, None] == nodes).astype(float).tobytes()
        K = outcome_kernel(ws.y[:n1], ws.y[n1:], ws.ties)
        sort = data.OutcomeSort(ws.y[:n1], ws.y[n1:], ws.ties)
        assert sort.sums(L).tobytes() == (K @ L).tobytes()
        (score, info), (want_score, want_info) = _blocks(ws, link)
        for got, want in ((score, want_score), (info, want_info)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        small = Dataset(ds.z[:500], ds.y[:500], ds.w[:500])
        ws = _Workspace(small, FrmSpec(link=link))
        ws.set_gamma(np.array([0.1, -0.4, 0.3, 0.5, -0.2]))
        assert ws.n1 * (ws.n - ws.n1) <= data.PAIR_TILE ** 2
        got, want = _blocks(ws, link)
        assert all(g.tobytes() == w_.tobytes() for g, w_ in zip(got, want))
