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
workspace per dataset holds the blocks every family shares.

The covariance of the stacked root is the U-statistic sandwich
4 B^{-1} Sigma B^{-T}, with Sigma estimated from per-subject projections
(the average pair score over each subject's partners) and B from the
pair-level gradient of the residuals.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from .data import Dataset, discordant_kernel, treated_control
from .errors import ConvergenceError, MwwdrError, ValidationError
from .estimators import pair_mean, pair_response
from .gpi import (fit_gpi_pairs, gamma_block, link_derivative, link_inverse,
                  model_covariates, pair_predictor)
from .propensity import (DEFAULT_CLIP_EPS, PropensityModel, design_matrix,
                         fit_propensity)
from .special import expit

FAMILIES = ("dr", "ipw", "msi")


@dataclass(frozen=True)
class FrmSpec:
    """Configuration of the joint system.

    family selects the blocks beside the delta row: "dr" (doubly robust)
    has both, "ipw" (weighting only) no outcome block, "msi" (imputation
    only) no propensity block. The misspecification switches force
    intercept-only propensity or a constant outcome model.
    """

    family: str = "dr"
    link: str = "probit"
    intercept_only_propensity: bool = False
    constant_only_gpi: bool = False
    clip_eps: float = DEFAULT_CLIP_EPS
    tol: float = 1e-8
    max_iter: int = 100
    weighted_delta: bool = True
    ties: Optional[bool] = None
    fd_check_pairs: int = 8

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}")
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


def _ties(dataset, spec):
    return dataset.ties if spec.ties is None else spec.ties


# ---------------------------------------------------------------------------
# vectorized workspace


def _propensities(X, eta, spec):
    return np.clip(expit(X @ eta), spec.clip_eps, 1.0 - spec.clip_eps)


def _eta_block(X, z, pi):
    """Score and Jacobian of the treatment block at propensities pi, and
    each subject's sum of its pair scores.

    A pair contributes d1 V1^-1 (f1 - h1), with f1 - h1 = (e_i + e_j)/2 for
    e = z - pi, V1 = (pp_i + pp_j)/4 for pp = pi(1 - pi), and d1 = (Ap_i +
    Ap_j)/2 the gradient of h1 in eta (Ap = pp * X); the Jacobian is the
    expected one, -d1 V1^-1 d1'. With M the n x n matrix of 1/V1 (zero
    diagonal), every pair sum is M times one of the columns (1, e, Ap,
    e * Ap), so M is the only n x n array and it is read once.
    """
    pp = pi * (1.0 - pi)
    e = z - pi
    Ap = X * pp[:, None]
    k = Ap.shape[1]
    M = np.add.outer(pp, pp)
    np.divide(4.0, M, out=M)
    np.fill_diagonal(M, 0.0)
    MC = M @ np.column_stack([np.ones_like(e), e, Ap, e[:, None] * Ap])
    m1, me, mA, meA = MC[:, 0], MC[:, 1], MC[:, 2:2 + k], MC[:, 2 + k:]
    cr = 0.5 * (e * m1 + me)  # each subject's sum of V1^-1 (f1 - h1)
    score = 0.5 * Ap.T @ cr
    proj = 0.5 * (Ap * cr[:, None] + 0.5 * (e[:, None] * mA + meA))
    jac = -0.25 * (Ap.T @ (Ap * m1[:, None]) + Ap.T @ mA)
    return score, jac, proj


class _Workspace:
    """One dataset's pair quantities, shared by every family's delta row:
    the n1 x n0 observed indicators K, and two parts filled when a family
    first needs them. set_eta: the propensities, which of them are
    clipped, the n1 x n0 PT = pi_i (1 - pi_j) and _eta_block's value.
    set_gamma: g and its derivative DG on every ordered pair (DG with a
    zero diagonal), G's treated x control block G_tc, and the outcome
    block's score, information and per-subject scores."""

    def __init__(self, dataset, spec):
        self.dataset, self.spec = dataset, spec
        self.n = dataset.n
        self.npairs = self.n * (self.n - 1) // 2
        self.t, self.c = treated_control(dataset)
        self.block = np.ix_(self.t, self.c)
        self.K = discordant_kernel(dataset, _ties(dataset, spec))
        self.wg = model_covariates(dataset.w, spec.constant_only_gpi)

    def set_eta(self, eta):
        eps = self.spec.clip_eps
        self.eta = eta
        self.X = design_matrix(self.dataset, self.spec.intercept_only_propensity)
        self.pi = _propensities(self.X, eta, self.spec)
        self.clipped = (self.pi <= eps) | (self.pi >= 1.0 - eps)
        self.clip_count = int(self.clipped.sum())
        self.PT = np.outer(self.pi[self.t], 1.0 - self.pi[self.c])
        self.eta_score, self.eta_jac, self.eta_proj = _eta_block(
            self.X, self.dataset.z.astype(float), self.pi)

    def set_gamma(self, gamma):
        A = pair_predictor(gamma, self.wg, self.wg)
        self.G = link_inverse(self.spec.link, A)
        self.DG = link_derivative(self.spec.link, A)
        np.fill_diagonal(self.DG, 0.0)
        self.G_tc = self.G[self.block]
        self.gamma_score, self.gamma_info, rows1, rows0 = gamma_block(
            self.K, self.G_tc, self.DG[self.block], self.wg[self.t],
            self.wg[self.c])
        self.gamma_proj = np.empty((self.n, len(gamma)))
        self.gamma_proj[self.t] = rows1
        self.gamma_proj[self.c] = rows0


class _DeltaRow:
    """One family's delta row on a workspace, reading only the blocks spec
    has: the n x n responses F3 and pair weights wdelta, both with a zero
    diagonal (wdelta is None when every weight is 1), and each subject's
    weighted sums of f3 and of the weights over its partners (f3_rows,
    w_rows)."""

    def __init__(self, ws, spec):
        self.F3 = pair_response(ws.t, ws.c, ws.K,
                                ws.PT if spec.has_eta else None,
                                ws.G if spec.has_gamma else None)
        np.fill_diagonal(self.F3, 0.0)
        self.wdelta = None
        if spec.family == "dr" and spec.weighted_delta:
            # 1 / V3 built in place: G, DG and F3 are alive here
            V3 = ws.G * (1.0 - ws.G)
            V3 /= np.outer(ws.pi, 1.0 - ws.pi)
            V3 = V3 + V3.T
            V3 *= 0.25
            self.wdelta = np.divide(1.0, V3, out=V3)
            np.fill_diagonal(self.wdelta, 0.0)
            self.f3_rows = np.einsum("ij,ij->i", self.wdelta, self.F3)
            self.w_rows = self.wdelta.sum(axis=1)
        else:
            self.f3_rows = self.F3.sum(axis=1)
            self.w_rows = np.full(ws.n, ws.n - 1.0)

    def solve_delta(self):
        return float(self.f3_rows.sum() / self.w_rows.sum())

    def delta_rows(self, delta):
        """Each subject's weighted sum of f3 - delta over its partners."""
        return self.f3_rows - delta * self.w_rows


class _EtaFit(NamedTuple):
    """The maximum-likelihood fit the treatment-block Newton started from,
    and the Newton's iterations and score norm."""

    mle: PropensityModel
    iterations: int
    score_norm: float


def _fit_eta_pairwise(ws, init=None):
    """Newton solve of the treatment-row block, initialized at the
    maximum-likelihood logistic fit. Every evaluation fills the workspace's
    treatment part, so on return it holds the block at the root."""
    spec = ws.spec
    mle = fit_propensity(ws.dataset, intercept_only=spec.intercept_only_propensity,
                         clip_eps=spec.clip_eps)
    eta = mle.eta.copy() if init is None else np.asarray(init, dtype=float).copy()
    for it in range(spec.max_iter + 1):
        ws.set_eta(eta)
        score_norm = float(np.max(np.abs(ws.eta_score))) / ws.npairs
        if score_norm <= 0.01 * spec.tol:
            return _EtaFit(mle, it, score_norm)
        if it == spec.max_iter:
            break
        try:
            step = np.linalg.solve(ws.eta_jac, -ws.eta_score)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Jacobian in the treatment block; "
                                   "consider intercept_only_propensity",
                                   last_iterate=eta, residual=score_norm,
                                   iterations=it + 1) from None
        eta = eta + step
    if score_norm <= spec.tol:
        return _EtaFit(mle, spec.max_iter, score_norm)
    raise ConvergenceError("treatment-block Newton did not converge",
                           last_iterate=eta, residual=score_norm,
                           iterations=spec.max_iter)


@dataclass
class UgeeFit:
    """Joint root, sandwich covariance, and diagnostics."""

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
    def plugin_eta(self):
        """Coefficients of the maximum-likelihood propensity fit the
        treatment block started from; None without a treatment block."""
        return None if self.plugin is None else self.plugin.eta

    @property
    def delta(self):
        return float(self.theta[-1])

    def index_of(self, component):
        try:
            return self.names.index(component)
        except ValueError:
            raise ValidationError(
                f"unknown component {component!r}; have {self.names}") from None

    def component(self, name):
        return float(self.theta[self.index_of(name)])

    def se_of(self, name):
        return float(self.se[self.index_of(name)])

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
    zval = (estimate - null_value) / se
    crit = float(ndtri(1.0 - alpha / 2.0))
    return WaldResult(component, estimate, se, float(zval),
                      float(2.0 * ndtr(-abs(zval))),
                      estimate - crit * se, estimate + crit * se, alpha,
                      null_value, bool(abs(zval) > crit))


def wald_test(fit, component="delta", null_value=0.5, alpha=0.05) -> WaldResult:
    """Two-sided normal test of one component against a point null."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
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
    return vhat / (ws.n - 1)


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
    t, c = ws.t, ws.c
    if layout.eta_dim:
        T = -0.5 * (ws.K - (ws.G_tc if layout.gamma_dim else 0.0)) / ws.PT ** 2
        if row.wdelta is not None:
            T *= row.wdelta[ws.block]
        # a clipped propensity is held at the bound, so it does not move
        # with eta
        pp = np.where(ws.clipped, 0.0, ws.pi * (1.0 - ws.pi))
        B[d, layout.eta_slice] = \
            ws.X[t].T @ (pp[t] * (T @ (1.0 - ws.pi[c]))) \
            - ws.X[c].T @ (pp[c] * (T.T @ ws.pi[t]))
    if layout.gamma_dim:
        W = 0.5 * ws.DG
        if row.wdelta is not None:
            W *= row.wdelta
        W[ws.block] *= 1.0 - 1.0 / (ws.PT if layout.eta_dim else 1.0)
        B[d, layout.gamma_slice] = np.concatenate(
            [[W.sum()], ws.wg.T @ W.sum(axis=1), ws.wg.T @ W.sum(axis=0)])
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
    return ws, _DeltaRow(ws, spec), layout, delta


def sandwich_covariance(dataset, theta_hat, spec: FrmSpec):
    """Sandwich pieces at a given root: (Sigma_hat, B_hat, Sigma_theta, se_delta)."""
    ws, row, layout, delta = _at(dataset, spec, theta_hat)
    _, Sigma, B, Sigma_theta, se, _ = _covariance(ws, row, layout, delta)
    return Sigma, B, Sigma_theta, float(se[layout.delta_index])


def stacked_residual(dataset, theta, spec: FrmSpec):
    """Evaluate the normalized stacked estimating function at any theta."""
    return _stacked_u(*_at(dataset, spec, theta))


def solve_ugee(dataset, spec: FrmSpec, init=None):
    """Fit the joint system and return a UgeeFit.

    Default initialization: maximum-likelihood propensity coefficients for
    the treatment block; the outcome block self-starts at the constant
    solution. The delta equation is linear given the other blocks.
    """
    eta_init = None
    if init is not None and spec.has_eta:
        eta_init = np.asarray(init, dtype=float)[
            ThetaLayout(dataset.p, spec).eta_slice]
    return next(solve_families(dataset, spec, (spec.family,), eta_init))


def solve_families(dataset, spec: FrmSpec, families=FAMILIES, eta_init=None):
    """Fit the joint system of each family in turn and yield its UgeeFit.

    spec sets everything but the family. The families share one workspace:
    the observed indicators are built once, and the treatment block
    (maximum-likelihood start, pairwise Newton, and its score, Jacobian and
    projections at the root) and the outcome block are fitted and evaluated
    the first time a family needs them. Each family gets its own delta row,
    freed before the next family's is built, and its own residual check,
    sandwich and finite-difference check. eta_init starts the
    treatment-block Newton.
    """
    dataset.require_both_arms()
    ws = _Workspace(dataset, spec)
    eta_fit = gamma_fit = None
    for family in families:
        fspec = replace(spec, family=family)
        if fspec.has_eta and eta_fit is None:
            eta_fit = _fit_eta_pairwise(ws, eta_init)
        if fspec.has_gamma and gamma_fit is None:
            gamma_fit = fit_gpi_pairs(ws.K, ws.wg[ws.t], ws.wg[ws.c], spec.link)
            ws.set_gamma(gamma_fit.gamma)
        yield _solve_family(dataset, fspec, ws, eta_fit, gamma_fit)


def _solve_family(dataset, spec, ws, eta_fit, gamma_fit):
    """One family's UgeeFit from the workspace's fitted blocks: the delta
    root, the stacked-residual check, the sandwich and the
    finite-difference check."""
    layout = ThetaLayout(dataset.p, spec)
    diagnostics = {}
    theta = np.zeros(layout.q)
    plugin = None
    if layout.eta_dim:
        theta[layout.eta_slice] = ws.eta
        plugin = eta_fit.mle
        diagnostics["eta_iterations"] = eta_fit.iterations
        diagnostics["eta_score_norm"] = eta_fit.score_norm
    if layout.gamma_dim:
        theta[layout.gamma_slice] = gamma_fit.gamma
        diagnostics["gamma_iterations"] = gamma_fit.iterations
        diagnostics["gamma_score_norm"] = gamma_fit.score_norm

    row = _DeltaRow(ws, spec)
    delta = row.solve_delta()
    theta[layout.delta_index] = delta

    residual = float(np.max(np.abs(_stacked_u(ws, row, layout, delta))))
    if residual > spec.tol:
        raise ConvergenceError("stacked system residual above tolerance",
                               last_iterate=theta, residual=residual)

    vhat, Sigma, B, Sigma_theta, se, floored = _covariance(ws, row, layout, delta)
    diagnostics["residual_norm"] = residual
    diagnostics["clipped_propensities"] = ws.clip_count if layout.eta_dim else 0
    if floored:
        diagnostics["negative_variances_floored"] = floored

    if spec.fd_check_pairs > 0:
        worst = check_residual_derivatives(dataset, theta, spec,
                                           n_pairs=spec.fd_check_pairs, seed=0)
        diagnostics["fd_check_max_err"] = worst
        if worst > 1e-5:
            raise MwwdrError(
                f"finite-difference check of the bread's delta row failed "
                f"(max scaled err {worst:.2e})")

    return UgeeFit(spec, layout.names, theta, se, Sigma, B, Sigma_theta,
                   vhat, pair_mean(row.F3), residual, dataset.n, diagnostics,
                   plugin)


# ---------------------------------------------------------------------------
# finite-difference check of the bread's delta row


def check_residual_derivatives(dataset, theta, spec, n_pairs=100, seed=0,
                               step=1e-6):
    """Compare the bread's delta row with central finite differences.

    The n_pairs random pairs pick the subjects they touch; on the
    sub-dataset of those subjects, _bread's delta row is compared, in each
    coordinate of theta, with the central difference of the normalized
    delta residual sum_ij w_ij (f3_ij - delta) over its pairs, with f3
    rebuilt through pair_response at the moved theta and the pair weights w
    held at theta: with w fixed, that is exactly B's delta row. Returns the
    worst scaled discrepancy.
    """
    rng = np.random.default_rng(seed)
    picked = set()
    for _ in range(n_pairs):
        i = int(rng.integers(0, dataset.n - 1))
        picked.update((i, int(rng.integers(i + 1, dataset.n))))
    if not picked:
        return 0.0
    idx = sorted(picked)
    sub = Dataset(dataset.z[idx], dataset.y[idx], dataset.w[idx],
                  outcome_kind=dataset.outcome_kind)
    ws, row, layout, _ = _at(sub, spec, theta)
    analytic = _bread(ws, row, layout)[layout.delta_index]
    w = 1.0 - np.eye(ws.n) if row.wdelta is None else row.wdelta

    def residual(th):
        eta, gamma, delta = layout.unpack(th)
        PT = G = None
        if layout.eta_dim:
            pi = _propensities(ws.X, eta, spec)
            PT = np.outer(pi[ws.t], 1.0 - pi[ws.c])
        if layout.gamma_dim:
            G = link_inverse(spec.link, pair_predictor(gamma, ws.wg, ws.wg))
        F3 = pair_response(ws.t, ws.c, ws.K, PT, G)
        return 0.5 * np.sum(w * (F3 - delta)) / ws.npairs

    theta = np.asarray(theta, dtype=float)
    fd = np.empty(layout.q)
    for k in range(layout.q):
        h = np.zeros(layout.q)
        h[k] = step * max(1.0, abs(theta[k]))
        fd[k] = (residual(theta + h) - residual(theta - h)) / (2.0 * h[k])
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / scale))
