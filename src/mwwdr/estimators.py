"""The rank-sum and inverse-probability weighted point estimators of
delta = P(treated outcome <= control outcome), and the tiled pair engine
that every pair sum of them and of ugee.py runs on. The msi and dr point
estimates are the delta_plain of ugee.py's fits.

The engine holds a dataset's subjects treated first (PairSet) and streams
over the fixed tiles of data.pair_tiles through the ordered tile map of
parallel.TilePool: PairTile, the one tile kernel, evaluates a tile's pair
quantities from O(n) vectors on whichever thread the map gives the tile,
which returns only per-subject sums, and the caller adds them in tile
order; DeltaRow sums a delta row so. No pair array larger than a tile is
built.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .data import outcome_kernel, pair_tiles, treated_control
from .errors import ValidationError
from .gpi import link_derivative, link_inverse
from .parallel import TilePool
from .propensity import predict_pi_dataset


@dataclass
class EstimateResult:
    """Point estimate of delta with bookkeeping.

    se is None when inference is deferred to the joint UGEE fit.
    """

    estimator_kind: str
    delta_hat: float
    se: Optional[float]
    n: int
    n1: int
    n0: int
    notes: dict = field(default_factory=dict)


def resolve_propensities(dataset, propensity):
    """Accept a fitted PropensityModel, an array of known propensities, or a
    single known constant; return (pi vector, clipped-count)."""
    if hasattr(propensity, "eta"):
        return predict_pi_dataset(propensity, dataset)
    pi = np.asarray(propensity, dtype=float)
    if pi.ndim == 0:
        pi = np.full(dataset.n, float(pi))
    if pi.shape != (dataset.n,):
        raise ValidationError("propensity vector length does not match the data")
    if np.any(pi <= 0.0) or np.any(pi >= 1.0):
        raise ValidationError("propensities must lie strictly inside (0, 1)")
    return pi, 0


class PairSet:
    """A dataset's subjects held treated first, and the O(n) vectors its
    pair tiles are evaluated from: the outcomes and, once set, the
    propensities pi and the outcome model's linear predictors, a1 on a
    subject's treated side (with the intercept) and a0 on its control side,
    so that g of the ordered pair (i, j) is link_inv(a1_i + a0_j). order[k]
    is the dataset position of held subject k. pool is the TilePool its
    tile maps run on: one thread until tile_pool() is entered."""

    def __init__(self, dataset, ties, link=None):
        t, c = treated_control(dataset)
        self.order = np.concatenate([t, c])
        self.n, self.n1 = dataset.n, len(t)
        self.y = dataset.y[self.order]
        self.ties, self.link = ties, link
        self.pi = self.a1 = self.a0 = None
        self.pool = TilePool()

    def set_gamma(self, gamma, wg):
        """The outcome model's predictors at gamma, from its covariate rows
        wg in held order (zero columns for the constant model)."""
        p = wg.shape[1]
        self.a1 = gamma[0] + wg @ gamma[1:1 + p]
        self.a0 = wg @ gamma[1 + p:]

    def tile_pool(self):
        """A TilePool sized to the pair set's tiles, which its tile maps run
        on from now on; enter it (a with block) around the fit."""
        self.pool = TilePool(len(pair_tiles(self.n, self.n1)))
        return self.pool

    def map_tiles(self, fn):
        """The pass: fn(tile) of every tile of data.pair_tiles, yielded in
        its fixed order through the tile map. The thread that evaluates a
        tile builds it, and drops it with the arrays it cached, so fn
        returns only sums."""
        return self.pool.map(lambda spec: fn(PairTile(self, *spec)),
                             pair_tiles(self.n, self.n1))

    def tile(self):
        """All the subjects as one diagonal tile."""
        every = slice(0, self.n)
        return PairTile(self, every, every, slice(0, self.n1),
                        slice(self.n1, self.n))


def _link_values(link, A, zero_diagonal):
    """g and dg/da at the linear predictors A (dg/da with a zero diagonal
    when asked)."""
    G, D = link_inverse(link, A), link_derivative(link, A)
    if zero_diagonal:
        np.fill_diagonal(D, 0.0)
    return G, D


def add_sums(v, sums):
    """Add a tile's per-subject sums, (subjects, values) pairs, to v."""
    for at, values in sums:
        v[at] += values


class PairTile:
    """The tile kernel: one tile of a PairSet's ordered pairs (see
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

    def __init__(self, pairs, I, J, rows, cols):
        self.pairs, self.I, self.J = pairs, I, J
        self.rows, self.cols = rows, cols
        self.diag = I == J
        self.shape = (I.stop - I.start, J.stop - J.start)
        self.has_tc = rows.start < rows.stop and cols.start < cols.stop
        self.tc = (slice(0, rows.stop - I.start),
                   slice(cols.start - J.start, cols.stop - J.start))

    @cached_property
    def K(self):
        y = self.pairs.y
        return outcome_kernel(y[self.rows], y[self.cols], self.pairs.ties)

    @cached_property
    def PT(self):
        pi = self.pairs.pi
        return np.outer(pi[self.rows], 1.0 - pi[self.cols])

    @cached_property
    def _forward(self):
        """G and DG; DG, dg/da, is zero on a diagonal tile's diagonal."""
        a1, a0 = self.pairs.a1, self.pairs.a0
        return _link_values(self.pairs.link,
                            a1[self.I][:, None] + a0[self.J][None, :], self.diag)

    @cached_property
    def _backward(self):
        a1, a0 = self.pairs.a1, self.pairs.a0
        return _link_values(self.pairs.link,
                            a0[self.I][:, None] + a1[self.J][None, :], False)

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
        pi = self.pairs.pi
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


class DeltaRow:
    """One delta row's sums over a PairSet's tiles, added tile by tile:
    each subject's weighted sums of f3 and of the pair weights over its
    partners (f3_rows, w_rows), and the unweighted sum of f3 over every
    ordered pair (total). use_pt and use_g select the response (see
    PairTile.response); weighted selects dr's 1/V3 pair weights, else every
    weight is 1."""

    def __init__(self, n, use_pt, use_g, weighted):
        self.use_pt, self.use_g, self.weighted = use_pt, use_g, weighted
        self.f3_rows = np.zeros(n)
        self.w_rows = np.zeros(n) if weighted else np.full(n, n - 1.0)
        self.total = 0.0

    def tile_sums(self, tile):
        """One tile's sums, computed on any thread and added by add:
        (its part of total, {accumulator: its per-subject sums})."""
        return self._tile_sums(tile)[:2]

    def _tile_sums(self, tile):
        """tile_sums, and the tile's pair weights (None when all are 1)."""
        w = tile.weights() if self.weighted else None
        F = tile.response(self.use_pt, self.use_g)
        total = float(F.sum()) * (1.0 if tile.diag else 2.0)
        if w is not None:
            F *= w
        sums = {"f3_rows": tile.row_sums(F)}
        if w is not None:
            sums["w_rows"] = tile.row_sums(w)
        return total, sums, w

    def add(self, tile_sums):
        """Add one tile's tile_sums; the tiles are added in their order."""
        total, sums = tile_sums
        self.total += total
        for name, part in sums.items():
            add_sums(getattr(self, name), part)


def _pair_total(dataset, pi):
    """Sum over ordered pairs of the inverse-probability weighted response
    f3 at the propensities pi (see PairTile.response)."""
    pairs = PairSet(dataset, dataset.ties)
    pairs.pi = pi[pairs.order]
    row = DeltaRow(dataset.n, True, False, False)
    for sums in pairs.map_tiles(row.tile_sums):
        row.add(sums)
    return row.total


def _kernel_sums(tile):
    """Each subject's kernel sum over its partners in the tile."""
    if not tile.has_tc:
        return []
    return [(tile.rows, tile.K.sum(axis=1)), (tile.cols, tile.K.sum(axis=0))]


def mww_estimate(dataset) -> EstimateResult:
    """Rank-sum estimator: average kernel over the n1*n0 observed pairs.

    The standard error comes from the two-sample U-statistic projection
    variance (components averaged within each arm). Each subject's kernel
    sum over its partners in the other arm is added up over the pair
    tiles; the kernel takes multiples of 1/2, so every sum is exact.
    """
    dataset.require_both_arms()
    pairs = PairSet(dataset, dataset.ties)
    sums = np.zeros(dataset.n)
    for part in pairs.map_tiles(_kernel_sums):
        add_sums(sums, part)
    n1, n0 = dataset.n1, dataset.n0
    delta = float(sums[:n1].sum() / (n1 * n0))
    notes = {"ties": dataset.ties}
    se = None
    if n1 >= 2 and n0 >= 2:
        s1 = (sums[:n1] / n0).var(ddof=1)
        s0 = (sums[n1:] / n1).var(ddof=1)
        se = float(np.sqrt(s1 / n1 + s0 / n0))
    else:
        notes["se_unavailable"] = "need at least two subjects per arm"
    return EstimateResult("MWW", delta, se, dataset.n, n1, n0, notes)


def ipw_estimate(dataset, propensity, hajek=False) -> EstimateResult:
    """Inverse-probability-weighted estimator over all subject pairs.

    hajek=True divides by the realized sum of weights instead of the pair
    count; with a known constant propensity that reproduces the rank-sum
    estimator exactly.
    """
    dataset.require_both_arms()
    pi, clipped = resolve_propensities(dataset, propensity)
    total = _pair_total(dataset, pi)
    if hajek:
        # the realized weights 1 / (pi_i (1 - pi_j)) of the treated x
        # control pairs factor, so their sum is a product of two sums
        t, c = treated_control(dataset)
        delta = total / float(np.sum(1.0 / pi[t]) * np.sum(1.0 / (1.0 - pi[c])))
    else:
        delta = total / (dataset.n * (dataset.n - 1))
    notes = {"ties": dataset.ties, "hajek": hajek, "clipped_propensities": clipped}
    if not 0.0 <= delta <= 1.0:
        notes["range_exit"] = True
    return EstimateResult("IPW", float(delta), None, dataset.n,
                          dataset.n1, dataset.n0, notes)
