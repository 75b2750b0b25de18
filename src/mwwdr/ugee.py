"""Joint inference for (eta, gamma, delta) via pairwise estimating equations.

The stacked system sums D_i V_i^{-1} (f_i - h_i) over all unordered subject
pairs, with identity working correlation. Response rows per pair:

  * a treatment row  f1 = (z_i + z_j)/2        with mean (pi_i + pi_j)/2
  * the observed pair indicator (discordant pairs only) with mean g
  * the delta row    f3 = R K + (1 - R) g      with mean delta

where R = r / (pi_i (1 - pi_j)) weights the observed indicator K. The delta
row is the doubly robust one for every family: ipw is dr with g = 0 (no
outcome block), and msi is dr with pi_i (1 - pi_j) = 1 (no treatment
block), so R = r.

Unobserved indicator components are dropped from the system together with
the matching rows of the gradient and working variance, so the treatment
and outcome blocks reproduce the standalone propensity and pairwise-outcome
fits, and the delta equation is linear given the other blocks. One
workspace per dataset holds the blocks every family shares. Its pair pass
streams over the fixed tiles of data.pair_tiles, which PairTile evaluates
on the threads of one parallel.tile_map, and adds their sums in tile
order, so no n x n array is built; the nuisance Newtons read separable
and kernel sums, and the outcome fit ends on the pass judging its root.

The covariance of the stacked root is the U-statistic sandwich
4 B^{-1} Sigma B^{-T}, with Sigma estimated from per-subject projections
(the average pair score over each subject's partners) and B from the
pair-level gradient of the residuals.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from statistics import NormalDist
from typing import Optional, Tuple

import numpy as np

from . import gpi
from .data import (Dataset, OutcomeSort, outcome_kernel, pair_tiles,
                   treated_control)
from .errors import (ConvergenceError, DerivativeCheckError, EstimabilityError,
                     MwwdrError, SeparationError, ValidationError)
from .gpi import (LINKS, GpiModel, gamma_block, gamma_newton_block,
                  link_initial, pair_link, predictors)
from .newton import newton
from .parallel import malloc_policy, tile_map
from .propensity import (DEFAULT_CLIP_EPS, PropensityModel,
                         clipped_propensities, design_matrix, fit_propensity)

FAMILIES = ("dr", "ipw", "msi")
# the treatment-block Newton's tolerance (TOL / 100 before its last cycle)
# and step limit; the stacked-residual check of every fit accepts TOL too
TOL = 1e-8
MAX_ITER = 100
# the finite-difference check's relative step in each coordinate of theta
FD_STEP = 1e-6
# the step of the trapezoid rule behind _eta_block's sums of 1/V1
ETA_STEP = 0.25


@dataclass(frozen=True)
class FrmSpec:
    """Configuration of the joint system.

    family selects the blocks beside the delta row: "dr" (doubly robust)
    has both, "ipw" (weighting only) no outcome block, "msi" (imputation
    only) no propensity block. The misspecification switches force
    intercept-only propensity or a constant outcome model. Tied outcomes
    score 1/2 exactly when the dataset says so (Dataset.ties).
    """

    family: str = "dr"
    link: str = "probit"
    intercept_only_propensity: bool = False
    constant_only_gpi: bool = False
    clip_eps: float = DEFAULT_CLIP_EPS
    weighted_delta: bool = True
    fd_check_pairs: int = 8

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}")
        if self.link not in LINKS:
            raise ValidationError(f"link must be one of {LINKS}")
        if not 0.0 < self.clip_eps < 0.5:
            raise ValidationError("clip_eps must lie in (0, 0.5)")

    @property
    def has_eta(self):
        return self.family in ("dr", "ipw")

    @property
    def has_gamma(self):
        return self.family in ("dr", "msi")


class ThetaLayout:
    """Index bookkeeping for the stacked parameter vector."""

    def __init__(self, p, spec):
        self.p = p
        self.eta_dim = (1 if (spec.intercept_only_propensity or p == 0) else 1 + p) \
            if spec.has_eta else 0
        self.gamma_dim = (1 if (spec.constant_only_gpi or p == 0) else 1 + 2 * p) \
            if spec.has_gamma else 0
        self.q = self.eta_dim + self.gamma_dim + 1
        self.eta_slice = slice(0, self.eta_dim)
        self.gamma_slice = slice(self.eta_dim, self.eta_dim + self.gamma_dim)
        self.delta_index = self.q - 1
        names = []
        if self.eta_dim:
            names += ["eta0"] + [f"eta{k}" for k in range(1, self.eta_dim)]
        if self.gamma_dim:
            names.append("gamma0")
            nslopes = (self.gamma_dim - 1) // 2
            if nslopes == 1:
                names += ["gamma11", "gamma10"]
            else:
                names += [f"gamma11_{k}" for k in range(1, nslopes + 1)]
                names += [f"gamma10_{k}" for k in range(1, nslopes + 1)]
        names.append("delta")
        self.names = tuple(names)

    def unpack(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.q,):
            raise ValidationError(f"theta must have length {self.q}")
        return (theta[self.eta_slice], theta[self.gamma_slice],
                float(theta[self.delta_index]))


# ---------------------------------------------------------------------------
# workspace, pair tiles and pass


def _eta_block(X, z, pi, clipped):
    """Score and Jacobian of the treatment block at propensities pi, and
    each subject's sum of its pair scores.

    A pair contributes d1 V1^-1 (f1 - h1), with f1 - h1 = (e_i + e_j)/2 for
    e = z - pi, V1 = (pp_i + pp_j)/4 for pp = pi(1 - pi), and the weight
    d1 = (Ap_i + Ap_j)/2 for Ap = pp * X. The Jacobian is the expected one,
    -d1 V1^-1 dh1', with dh1 the gradient of h1 in eta: d1 without the
    terms of the clipped subjects, whose propensity is held at the bound
    and so does not move with eta. With M the n x n matrix of 1/V1 (zero
    diagonal), every pair sum is M times one of the columns C = (1, e, Ap,
    e * Ap); M is symmetric, so the clipped subjects' terms are read off
    M Ap too. M is separable: 1/s = int exp(u - s e^u) du, and the
    trapezoid rule in v, u = v - e^-v, gives 4/s = sum_k w_k exp(-t_k s)
    within 1e-15 relative for s in [2 min pp, 1/2], so M C = E diag(w) E' C
    minus its diagonal's terms, E_ik = exp(-t_k pp_i), in O(n R) for R = 40
    to 90 nodes.
    """
    pp = pi * (1.0 - pi)
    e = z - pi
    Ap = X * pp[:, None]
    k = Ap.shape[1]
    C = np.column_stack([np.ones_like(e), e, Ap, e[:, None] * Ap])
    # the integrand's tails are below 1e-19 of 1/s outside the nodes
    v = np.arange(-3.8, math.log(22.5 / pp.min()) + ETA_STEP, ETA_STEP)
    t = np.exp(v - np.exp(-v))
    w = 4.0 * ETA_STEP * t * (1.0 + np.exp(-v))
    E = np.multiply.outer(pp, -t)
    np.exp(E, out=E)
    MC = E @ (w[:, None] * (E.T @ C)) - np.einsum("ik,ik,k->i", E, E, w)[:, None] * C
    m1, me, mA, meA = MC[:, 0], MC[:, 1], MC[:, 2:2 + k], MC[:, 2 + k:]
    cr = 0.5 * (e * m1 + me)  # each subject's sum of V1^-1 (f1 - h1)
    score = 0.5 * Ap.T @ cr
    proj = 0.5 * (Ap * cr[:, None] + 0.5 * (e[:, None] * mA + meA))
    Dp = np.where(clipped[:, None], 0.0, Ap)
    # Ap' M Ac = (M Ap)' Ac, Ac = Ap - Dp the clipped rows (zero if none)
    jac = -0.25 * (Ap.T @ (Dp * m1[:, None]) + Ap.T @ mA - mA.T @ (Ap - Dp))
    return score, jac, proj


class _Workspace:
    """One dataset's pair engine and the blocks every family's delta row
    shares, filled only when some family has them. The subjects are held
    treated first (order[k] is held subject k's dataset position), with the
    O(n) vectors the tiles read: y, z, the propensity design X, the outcome
    model's covariates wg and, once set, the propensities pi (set_eta, by
    each step of _fit_eta_pairwise, also fills clipped and _eta_block's
    value) and the outcome model's predictors (set_gamma, by each step of
    _fit_gamma_pairwise; _pair_pass then fills its block). It holds data
    only: the pass maps over its tiles (data.pair_tiles) with
    parallel.tile_map."""

    def __init__(self, dataset, spec):
        t, c = treated_control(dataset)
        self.order = np.concatenate([t, c])
        self.n, self.n1 = dataset.n, len(t)
        self.dataset, self.spec = dataset, spec
        self.ties, self.link = dataset.ties, spec.link
        self.npairs = self.n * (self.n - 1) // 2
        self.y = dataset.y[self.order]
        self.z = dataset.z[self.order].astype(float)
        self.X = design_matrix(dataset, spec.intercept_only_propensity)[self.order]
        # the constant model reads no covariate column: every formula then
        # treats it as the model with p = 0
        w = dataset.w[self.order]
        self.wg = w[:, :0] if spec.constant_only_gpi else w
        self.pi = self.a1 = self.a0 = None
        self.tiles = pair_tiles(self.n, self.n1)
        malloc_policy()  # before the Newtons' O(n R) arrays, not at the pass

    def set_eta(self, eta):
        self.eta = eta
        self.pi, self.clipped = clipped_propensities(self.X, eta,
                                                     self.spec.clip_eps)
        self.eta_score, self.eta_jac, self.eta_proj = _eta_block(
            self.X, self.z, self.pi, self.clipped)

    def set_gamma(self, gamma):
        """The outcome model's linear predictors at gamma, a1 on a subject's
        treated side (with the intercept) and a0 on its control side, so
        that g of the ordered pair (i, j) is link_inv(a1_i + a0_j). At zero
        slopes (always, in the constant model) every pair has one
        predictor, and gpi.pair_link fills each tile's g and dg/da."""
        self.a1, self.a0 = predictors(gamma, self.wg, self.wg)

    def tile(self):
        """All the subjects as one diagonal tile."""
        every = slice(0, self.n)
        return PairTile(self, every, every, slice(0, self.n1),
                        slice(self.n1, self.n))


def add_sums(v, sums):
    """Add a tile's per-subject sums, (subjects, values) pairs, to v."""
    for at, values in sums:
        v[at] += values


class PairTile:
    """The tile kernel: one tile of a workspace's ordered pairs (see
    data.pair_tiles), evaluated from its O(n) vectors.

    Arrays span I x J. Forward ones hold the pair (i, j), backward ones
    (suffix b) its reverse (j, i); on a diagonal tile (I = J) the forward
    arrays already hold every ordered pair, and the backward ones are not
    read. The treated x control pairs are the block tc of the forward
    arrays, with subjects rows x cols; K and PT = pi_i (1 - pi_j) hold only
    that block. Each array is evaluated once, when first read, and never
    written to afterwards; g and dg/da are evaluated together, so that
    their linear predictor is not kept.
    """

    def __init__(self, ws, I, J, rows, cols):
        self.ws, self.I, self.J = ws, I, J
        self.rows, self.cols = rows, cols
        self.diag = I == J
        self.shape = (I.stop - I.start, J.stop - J.start)
        self.has_tc = rows.start < rows.stop and cols.start < cols.stop
        self.tc = (slice(0, rows.stop - I.start),
                   slice(cols.start - J.start, cols.stop - J.start))

    @cached_property
    def K(self):
        y = self.ws.y
        return outcome_kernel(y[self.rows], y[self.cols], self.ws.ties)

    @cached_property
    def PT(self):
        pi = self.ws.pi
        return np.outer(pi[self.rows], 1.0 - pi[self.cols])

    @cached_property
    def _forward(self):
        """G and DG; DG, dg/da, is zero on a diagonal tile's diagonal."""
        G, D = pair_link(self.ws.link, self.ws.a1[self.I], self.ws.a0[self.J])
        if self.diag:
            np.fill_diagonal(D, 0.0)
        return G, D

    @cached_property
    def _backward(self):
        return pair_link(self.ws.link, self.ws.a0[self.I], self.ws.a1[self.J])

    G = property(lambda self: self._forward[0])
    DG = property(lambda self: self._forward[1])
    Gb = property(lambda self: self._backward[0])
    DGb = property(lambda self: self._backward[1])

    def response(self, use_pt, use_g):
        """The delta row's per-pair response f3 on the tile, symmetric, with
        a zero diagonal on a diagonal tile: the average of the two
        orientations of the ordered response

          R_ij K_ij + (1 - R_ij) g_ij,   R_ij = r_ij / (pi_i (1 - pi_j)),

        with r_ij = z_i (1 - z_j). This is the doubly robust response;
        without use_pt (pi_i (1 - pi_j) = 1, so R = r) it is the
        mean-score imputed one, and without use_g (g = 0) the
        inverse-probability weighted one."""
        F = self.G.copy() if use_g else np.zeros(self.shape)
        if self.has_tc:
            T = F[self.tc]
            if use_pt:
                # R is evaluated twice, so that one tc block is held beside F
                U = 1.0 / self.PT
                T *= np.subtract(1.0, U, out=U)
                U = np.divide(1.0, self.PT, out=U)
                U *= self.K
                T += U
            else:
                # R = 1: the g term is 0 * g = +0, and K + 0 is K exactly
                T[...] = self.K
        if self.diag:
            F = F + F.T
        elif use_g:
            F += self.Gb
        F *= 0.5
        if self.diag:
            np.fill_diagonal(F, 0.0)
        return F

    def weights(self):
        """dr's delta-row pair weights 1/V3 on the tile, symmetric, with a
        zero diagonal on a diagonal tile: V3 averages g (1 - g) / (pi_i
        (1 - pi_j)) over the pair's two orientations, over 2."""
        pi = self.ws.pi
        V = 1.0 - self.G
        V *= self.G
        P = np.multiply.outer(pi[self.I], 1.0 - pi[self.J])
        V /= P
        if self.diag:
            del P
            V = V + V.T
        else:
            Vb = np.subtract(1.0, self.Gb, out=P)
            Vb *= self.Gb
            Vb /= np.multiply.outer(1.0 - pi[self.I], pi[self.J])
            V += Vb
        V *= 0.25
        W = np.divide(1.0, V, out=V)
        if self.diag:
            np.fill_diagonal(W, 0.0)
        return W

    def row_sums(self, S):
        """The partner sums of a symmetric tile array S, as add_sums takes
        them: its row sums for I and, off the diagonal, its column sums for
        J."""
        sums = [(self.I, S.sum(axis=1))]
        if not self.diag:
            sums.append((self.J, S.sum(axis=0)))
        return sums


class _DeltaRow:
    """One family's delta row on a workspace, reading only the blocks spec
    has, with its sums over the workspace's tiles, added tile by tile:
    each subject's weighted sums of f3 and of the pair weights over its
    partners (f3_rows, w_rows), the unweighted sum of f3 over every ordered
    pair (total), and the pair sums behind _bread's delta row. use_pt and
    use_g select the response (see PairTile.response); weighted selects
    dr's 1/V3 pair weights, else every weight is 1. On the treated x
    control pairs, with T = -w (K - g) / (2 PT^2): eta_rows[i] sums
    T_ij (1 - pi_j) over a treated subject's partners and eta_rows[j] sums
    -T_ij pi_i over a control subject's. Over every ordered pair, with
    W = w (1 - R) dg/da / 2: g_rows[i] sums W_ij over j and g_cols[j] over
    i."""

    def __init__(self, ws, spec):
        self.use_pt, self.use_g = spec.has_eta, spec.has_gamma
        self.weighted = spec.family == "dr" and spec.weighted_delta
        self.f3_rows = np.zeros(ws.n)
        self.w_rows = np.zeros(ws.n) if self.weighted else np.full(ws.n, ws.n - 1.0)
        self.total = 0.0
        if self.use_pt:
            self.eta_rows = np.zeros(ws.n)
        if self.use_g:
            self.g_rows, self.g_cols = np.zeros(ws.n), np.zeros(ws.n)

    def tile_sums(self, tile):
        """One tile's sums, computed on any thread and added by add:
        (its part of total, {accumulator: its per-subject sums})."""
        w = tile.weights() if self.weighted else None
        F = tile.response(self.use_pt, self.use_g)
        total = float(F.sum()) * (1.0 if tile.diag else 2.0)
        if w is not None:
            F *= w
        sums = {"f3_rows": tile.row_sums(F)}
        if w is not None:
            sums["w_rows"] = tile.row_sums(w)
        if self.use_pt and tile.has_tc:
            if self.use_g:
                T = tile.K - tile.G[tile.tc]
                T *= -0.5
            else:
                T = -0.5 * tile.K
            T /= tile.PT ** 2
            if w is not None:
                T *= w[tile.tc]
            pi = tile.ws.pi
            sums["eta_rows"] = [(tile.rows, T @ (1.0 - pi[tile.cols])),
                                (tile.cols, -(T.T @ pi[tile.rows]))]
            del T
        if self.use_g:
            W = 0.5 * tile.DG
            if w is not None:
                W *= w
            if tile.has_tc:
                if self.use_pt:
                    U = 1.0 / tile.PT
                    W[tile.tc] *= np.subtract(1.0, U, out=U)
                    del U
                else:
                    W[tile.tc] *= 0.0
            sums["g_rows"] = [(tile.I, W.sum(axis=1))]
            sums["g_cols"] = [(tile.J, W.sum(axis=0))]
            if not tile.diag:
                np.multiply(0.5, tile.DGb, out=W)
                if w is not None:
                    W *= w
                sums["g_rows"].append((tile.J, W.sum(axis=0)))
                sums["g_cols"].append((tile.I, W.sum(axis=1)))
        return total, sums

    def add(self, tile_sums):
        """Add one tile's tile_sums; the tiles are added in their order."""
        total, sums = tile_sums
        self.total += total
        for name, part in sums.items():
            add_sums(getattr(self, name), part)

    def solve_delta(self):
        return float(self.f3_rows.sum() / self.w_rows.sum())

    def delta_rows(self, delta):
        """Each subject's weighted sum of f3 - delta over its partners."""
        return self.f3_rows - delta * self.w_rows


def _pair_pass(ws, rows):
    """The one pass over ws's pair tiles: every delta row in rows adds its
    sums, and, once the outcome model is set, its block's score,
    information and per-subject scores at gamma are summed from the
    tiles' treated x control pairs. Each tile is evaluated once, for all
    of them, on the thread the tile map gives it, which builds the tile
    and drops it with the arrays it cached and returns only sums; they are
    added up here, in tile order."""
    outcome = ws.a1 is not None
    if outcome:
        q = 1 + 2 * ws.wg.shape[1]
        ws.gamma_score, ws.gamma_info = np.zeros(q), np.zeros((q, q))
        ws.gamma_proj = np.zeros((ws.n, q))

    def tile_sums(tile_spec):
        tile = PairTile(ws, *tile_spec)
        block = None
        if outcome and tile.has_tc:
            score, info, rows1, rows0 = gamma_block(
                tile.K, tile.G[tile.tc], tile.DG[tile.tc], ws.wg[tile.rows],
                ws.wg[tile.cols])
            block = score, info, [(tile.rows, rows1), (tile.cols, rows0)]
        return block, [row.tile_sums(tile) for row in rows]

    for block, sums in tile_map(tile_sums, ws.tiles):
        if block is not None:
            score, info, proj = block
            ws.gamma_score += score
            ws.gamma_info += info
            add_sums(ws.gamma_proj, proj)
        for row, row_sums in zip(rows, sums):
            row.add(row_sums)


def _fit_eta_pairwise(ws):
    """Newton solve of the treatment-row block, initialized at the
    maximum-likelihood logistic fit, which is kept as ws.mle. Every
    evaluation fills the workspace's treatment part, so on return it holds
    the block at the root."""
    spec = ws.spec
    ws.mle = fit_propensity(ws.dataset, clip_eps=spec.clip_eps,
                            intercept_only=spec.intercept_only_propensity)

    def evaluate(eta):
        ws.set_eta(eta)
        return ws.eta_score, -ws.eta_jac, \
            float(np.max(np.abs(ws.eta_score))) / ws.npairs

    return newton(evaluate, ws.mle.eta, 0.01 * TOL, MAX_ITER,
                  partial(ConvergenceError,
                          "treatment-block Newton did not converge"),
                  partial(ConvergenceError, "singular Jacobian in the treatment "
                          "block; consider intercept_only_propensity"),
                  final_tol=TOL)


def _predicts_final(norms, tol):
    """Whether quadratic convergence from the last two score norms,
    norm_k (norm_k / norm_k-1)^2, puts the next one within tol."""
    return len(norms) > 1 and norms[-1] * (norms[-1] / norms[-2]) ** 2 <= tol


def _fit_gamma_pairwise(ws, judge=None):
    """Newton solve of the outcome block, from the constant model at the
    mean observed indicator, setting the workspace's predictors at every
    evaluation. Every evaluation is gpi.gamma_newton_block, from one
    data.OutcomeSort, which maps over no tile: exact at zero slopes (the
    first, and every one of a constant model), interpolated elsewhere.

    Only the pair pass judges: judge(), the pass at the predictors just set
    (one with no delta row when None), leaves the block's exact score in
    ws.gamma_score. The Newton calls it where _predicts_final calls the
    iterate final, where the evaluated norm is within tolerance, and on its
    last cycle, and stops only on its norm, so every fit ends on the pass
    that judged its root. On a miss it steps on the pass's score with the
    evaluated information; if those scores differ by tol / 2, the pass
    judges every later iterate, as the interpolant cannot find the root."""
    n1 = ws.n1
    m = n1 * (ws.n - n1)
    if m == 0:
        raise EstimabilityError("no discordant pairs to fit the outcome model on")
    w1, w0 = ws.wg[:n1], ws.wg[n1:]
    sort = OutcomeSort(ws.y[:n1], ws.y[n1:], ws.ties)
    mean_ind = float(sort.sums().sum()) / m
    if mean_ind in (0.0, 1.0):
        raise SeparationError(
            f"all observed pair indicators equal {int(mean_ind)}; "
            "the outcome model intercept diverges")

    p = w1.shape[1]
    # the information is singular unless each arm's covariates, centred,
    # have rank p (round-off then decides how the Newton ends)
    for arm, w in (("treated", w1), ("control", w0)) if p else ():
        tol = max(w.shape) * np.finfo(float).eps * np.linalg.norm(w)
        if np.linalg.matrix_rank(w - w.mean(axis=0), tol) < p:
            raise EstimabilityError(
                f"the {arm} arm's covariates, centred, have rank below {p}; "
                "the outcome model is not identified")

    judge = judge or (lambda: _pair_pass(ws, []))
    tol, max_iter = max(gpi.SCORE_TOL, m * 1e-13), gpi.MAX_ITER
    norms, exact = [], False

    def block():
        return gamma_newton_block(sort, ws.a1[:n1], ws.a0[n1:], w1, w0, ws.link)

    def evaluate(gamma):
        nonlocal exact
        if np.max(np.abs(gamma)) > gpi.SEPARATION_BOUND:
            raise SeparationError(
                "outcome-model fit diverged; response may be degenerate")
        ws.set_gamma(gamma)
        # every earlier cycle added its norm
        last = len(norms) == max_iter
        info, judged = None, exact or last or _predicts_final(norms, tol)
        if not judged:
            score, info = block()
            judged = np.max(np.abs(score)) <= tol
        if judged:
            judge()
            if last or np.max(np.abs(ws.gamma_score)) <= tol:
                return ws.gamma_score, None, float(np.max(np.abs(ws.gamma_score)))
            score, info = block() if info is None else (score, info)
            exact = exact or np.max(np.abs(score - ws.gamma_score)) > tol / 2
            score = ws.gamma_score
        norms.append(float(np.max(np.abs(score))))
        return score, info, norms[-1]

    gamma = np.zeros(1 + 2 * p)
    gamma[0] = link_initial(ws.link, mean_ind)
    fit = newton(evaluate, gamma, tol, max_iter,
                 partial(ConvergenceError,
                         "outcome-model Newton iteration did not converge"),
                 partial(ConvergenceError, "singular Jacobian in outcome-model fit"))
    return GpiModel(fit.x, ws.link, p == 0, p, True, fit.iterations,
                    fit.score_norm)


@dataclass
class UgeeFit:
    """Joint root, sandwich covariance, and diagnostics. plugin is the
    maximum-likelihood propensity fit the treatment block started from
    (None without a treatment block)."""

    spec: FrmSpec
    names: Tuple[str, ...]
    theta: np.ndarray
    se: np.ndarray
    Sigma_hat: np.ndarray
    B_hat: np.ndarray
    Sigma_theta: np.ndarray
    vhat: np.ndarray
    delta_plain: float
    residual_norm: float
    n: int
    diagnostics: dict = field(default_factory=dict)
    plugin: Optional[PropensityModel] = None

    @property
    def delta(self):
        return float(self.theta[-1])

    def index_of(self, component):
        try:
            return self.names.index(component)
        except ValueError:
            raise ValidationError(
                f"unknown component {component!r}; have {self.names}") from None

    def to_report(self):
        return {
            "family": self.spec.family,
            "components": {nm: {"estimate": float(t), "se": float(s)}
                           for nm, t, s in zip(self.names, self.theta, self.se)},
            "delta_plain": self.delta_plain,
            "covariance": [[float(v) for v in row] for row in self.Sigma_theta],
            "diagnostics": {k: (float(v) if isinstance(v, (int, float, np.floating))
                                else v)
                            for k, v in self.diagnostics.items()},
            "n": self.n,
        }


@dataclass
class WaldResult:
    component: str
    estimate: float
    se: float
    z: float
    p_value: float
    ci_lo: float
    ci_hi: float
    alpha: float
    null_value: float
    reject: bool


def wald(estimate, se, null_value=0.5, alpha=0.05, component="delta") -> WaldResult:
    """Two-sided normal test of an estimate with standard error se > 0
    against a point null; p = 2 Phi(-|z|), without a floor."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    zval = (estimate - null_value) / se
    crit = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return WaldResult(component, estimate, se, float(zval),
                      math.erfc(abs(zval) / math.sqrt(2.0)),
                      estimate - crit * se, estimate + crit * se, alpha,
                      null_value, bool(abs(zval) > crit))


def wald_test(fit, component="delta", null_value=0.5, alpha=0.05) -> WaldResult:
    """Two-sided normal test of one component against a point null."""
    k = fit.index_of(component)
    est, se = float(fit.theta[k]), float(fit.se[k])
    if se <= 0.0:
        raise MwwdrError(f"degenerate test: se({component}) = 0")
    return wald(est, se, null_value, alpha, component)


# ---------------------------------------------------------------------------
# sandwich machinery


def _projections(ws, row, layout, delta):
    vhat = np.zeros((ws.n, layout.q))
    if layout.eta_dim:
        vhat[:, layout.eta_slice] = ws.eta_proj
    if layout.gamma_dim:
        vhat[:, layout.gamma_slice] = ws.gamma_proj
    vhat[:, layout.delta_index] = row.delta_rows(delta)
    out = np.empty_like(vhat)
    out[ws.order] = vhat  # back to the dataset's subject order
    return out / (ws.n - 1)


def _bread(ws, row, layout):
    """Pair-averaged Jacobian of the stacked system. Block lower-triangular:
    the eta and gamma blocks' own Jacobians, then the delta row, whose
    derivatives in eta read only the treated x control pairs. The delta row
    is the dr row, with g = 0 without an outcome block and pi_i (1 - pi_j)
    = 1 without a treatment block."""
    q = layout.q
    B = np.zeros((q, q))
    if layout.eta_dim:
        B[layout.eta_slice, layout.eta_slice] = ws.eta_jac
    if layout.gamma_dim:
        B[layout.gamma_slice, layout.gamma_slice] = -ws.gamma_info

    d = layout.delta_index
    if layout.eta_dim:
        # a clipped propensity is held at the bound, so it does not move
        # with eta
        pp = np.where(ws.clipped, 0.0, ws.pi * (1.0 - ws.pi))
        B[d, layout.eta_slice] = ws.X.T @ (pp * row.eta_rows)
    if layout.gamma_dim:
        B[d, layout.gamma_slice] = np.concatenate(
            [[row.g_rows.sum()], ws.wg.T @ row.g_rows, ws.wg.T @ row.g_cols])
    B[d, d] = -0.5 * row.w_rows.sum()
    return B / ws.npairs


def _covariance(ws, row, layout, delta):
    vhat = _projections(ws, row, layout, delta)
    Sigma = vhat.T @ vhat / ws.n
    B = _bread(ws, row, layout)
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise MwwdrError("singular bread matrix B; the system may be "
                         "unidentified — consider misspecification switches") from None
    Sigma_theta = 4.0 * Binv @ Sigma @ Binv.T
    Sigma_theta = 0.5 * (Sigma_theta + Sigma_theta.T)
    diag = np.diag(Sigma_theta).copy()
    floored = diag < 0.0
    if np.any(floored):
        diag[floored] = 0.0
    se = np.sqrt(diag / ws.n)
    return vhat, Sigma, B, Sigma_theta, se, int(floored.sum())


def _stacked_u(ws, row, layout, delta):
    """The stacked estimating-function vector at the workspace's parameters,
    normalized by the pair count."""
    parts = []
    if layout.eta_dim:
        parts.append(ws.eta_score)
    if layout.gamma_dim:
        parts.append(ws.gamma_score)
    parts.append([0.5 * row.delta_rows(delta).sum()])
    return np.concatenate(parts) / ws.npairs


def _at(dataset, spec, theta):
    """The workspace, spec's delta row, the layout and delta at theta."""
    layout = ThetaLayout(dataset.p, spec)
    eta, gamma, delta = layout.unpack(theta)
    ws = _Workspace(dataset, spec)
    if layout.eta_dim:
        ws.set_eta(eta)
    if layout.gamma_dim:
        ws.set_gamma(gamma)
    row = _DeltaRow(ws, spec)
    _pair_pass(ws, [row])
    return ws, row, layout, delta


def sandwich_covariance(dataset, theta_hat, spec: FrmSpec):
    """Sandwich pieces at a given root: (Sigma_hat, B_hat, Sigma_theta, se_delta)."""
    ws, row, layout, delta = _at(dataset, spec, theta_hat)
    _, Sigma, B, Sigma_theta, se, _ = _covariance(ws, row, layout, delta)
    return Sigma, B, Sigma_theta, float(se[layout.delta_index])


def stacked_residual(dataset, theta, spec: FrmSpec):
    """Evaluate the normalized stacked estimating function at any theta."""
    return _stacked_u(*_at(dataset, spec, theta))


def solve_ugee(dataset, spec: FrmSpec):
    """Fit the joint system and return a UgeeFit.

    The treatment block starts at the maximum-likelihood propensity
    coefficients; the outcome block self-starts at the constant solution.
    The delta equation is linear given the other blocks.
    """
    return next(solve_families(dataset, spec, (spec.family,)))


def solve_families(dataset, spec: FrmSpec, families=FAMILIES):
    """Fit the joint system of each family in turn and yield its UgeeFit.

    spec sets everything but the family. The families share one workspace:
    the treatment block (maximum-likelihood start, pairwise Newton, and its
    score, Jacobian and projections at the root) and the outcome block are
    fitted once if any family needs them. The pass that judged the outcome
    root, or one of its own without an outcome block, sums every delta row.
    Each family gets its own residual check, sandwich and
    finite-difference check.

    Each pass maps its tiles over threads, one per CPU the process may use
    (capped by the tile count), that exist for that one map
    (parallel.tile_map), so none is left when the first fit is yielded.
    The tiles' sums are added in one fixed order, so the fits do not
    depend on the thread count; they depend on OpenBLAS's thread count
    unless the caller pins it to one thread, as the command line does
    (parallel.one_blas_thread).
    """
    dataset.require_both_arms()
    specs = [replace(spec, family=family) for family in families]
    ws = _Workspace(dataset, spec)
    eta_fit = gamma_fit = rows = None

    def pass_all():
        """Every family's delta row, and the outcome block once its
        predictors are set, from one pass."""
        nonlocal rows
        rows = [_DeltaRow(ws, fspec) for fspec in specs]
        _pair_pass(ws, rows)

    if any(fspec.has_eta for fspec in specs):
        eta_fit = _fit_eta_pairwise(ws)
    if any(fspec.has_gamma for fspec in specs):
        # the outcome fit ends on the pass that judged its root
        gamma_fit = _fit_gamma_pairwise(ws, pass_all)
    else:
        pass_all()
    for fspec, row in zip(specs, rows):
        yield _solve_family(dataset, fspec, ws, row, eta_fit, gamma_fit)


def _solve_family(dataset, spec, ws, row, eta_fit, gamma_fit):
    """One family's UgeeFit from the workspace's fitted blocks and its
    delta row's sums: the delta root, the stacked-residual check, the
    sandwich and the finite-difference check."""
    layout = ThetaLayout(dataset.p, spec)
    diagnostics = {}
    theta = np.zeros(layout.q)
    plugin = None
    if layout.eta_dim:
        theta[layout.eta_slice] = ws.eta
        plugin = ws.mle
        diagnostics["eta_iterations"] = eta_fit.iterations
        diagnostics["eta_score_norm"] = eta_fit.score_norm
    if layout.gamma_dim:
        theta[layout.gamma_slice] = gamma_fit.gamma
        diagnostics["gamma_iterations"] = gamma_fit.iterations
        diagnostics["gamma_score_norm"] = gamma_fit.score_norm

    delta = row.solve_delta()
    theta[layout.delta_index] = delta

    residual = float(np.max(np.abs(_stacked_u(ws, row, layout, delta))))
    if residual > TOL:
        raise ConvergenceError("stacked system residual above tolerance",
                               last_iterate=theta, residual=residual)

    vhat, Sigma, B, Sigma_theta, se, floored = _covariance(ws, row, layout, delta)
    diagnostics["residual_norm"] = residual
    diagnostics["clipped_propensities"] = \
        int(ws.clipped.sum()) if layout.eta_dim else 0
    if floored:
        diagnostics["negative_variances_floored"] = floored

    if spec.fd_check_pairs > 0:
        worst = check_residual_derivatives(dataset, theta, spec,
                                           n_pairs=spec.fd_check_pairs, seed=0)
        diagnostics["fd_check_max_err"] = worst
        if worst > 1e-5:
            raise DerivativeCheckError(
                f"finite-difference check of the bread's delta row failed "
                f"(max scaled err {worst:.2e})")

    return UgeeFit(spec, layout.names, theta, se, Sigma, B, Sigma_theta,
                   vhat, row.total / (ws.n * (ws.n - 1)), residual, dataset.n,
                   diagnostics, plugin)


# ---------------------------------------------------------------------------
# finite-difference check of the bread's delta row


def check_residual_derivatives(dataset, theta, spec, n_pairs=100, seed=0):
    """Compare the bread's delta row with central finite differences.

    The n_pairs random pairs are drawn as positions in one content order
    of the subjects (by z, then y, then the columns of w), so a permutation
    of the subjects checks the same pairs. On the sub-dataset of the
    subjects they touch, in that order, _bread's delta row is compared, in
    each coordinate of theta, with the central difference of the normalized
    delta residual sum_ij w_ij (f3_ij - delta) over its pairs. The
    sub-dataset is one tile of the pair engine: f3 is that tile's response
    at the moved theta, and the pair weights w are held at theta; with w
    fixed, that is exactly B's delta row. Returns the worst scaled
    discrepancy.
    """
    rng = np.random.default_rng(seed)
    picked = set()
    for _ in range(n_pairs):
        i = int(rng.integers(0, dataset.n - 1))
        picked.update((i, int(rng.integers(i + 1, dataset.n))))
    if not picked:
        return 0.0
    order = np.lexsort((*dataset.w.T[::-1], dataset.y, dataset.z))
    idx = order[sorted(picked)]
    sub = Dataset(dataset.z[idx], dataset.y[idx], dataset.w[idx],
                  outcome_kind=dataset.outcome_kind)
    ws, row, layout, _ = _at(sub, spec, theta)
    analytic = _bread(ws, row, layout)[layout.delta_index]
    w = ws.tile().weights() if row.weighted else 1.0 - np.eye(ws.n)

    def residual(th):
        # moves ws's vectors, which nothing reads after the check
        eta, gamma, delta = layout.unpack(th)
        if layout.eta_dim:
            ws.pi = clipped_propensities(ws.X, eta, spec.clip_eps)[0]
        if layout.gamma_dim:
            ws.set_gamma(gamma)
        F3 = ws.tile().response(row.use_pt, row.use_g)
        return 0.5 * np.sum(w * (F3 - delta)) / ws.npairs

    theta = np.asarray(theta, dtype=float)
    fd = np.empty(layout.q)
    for k in range(layout.q):
        h = np.zeros(layout.q)
        h[k] = FD_STEP * max(1.0, abs(theta[k]))
        fd[k] = (residual(theta + h) - residual(theta - h)) / (2.0 * h[k])
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / scale))
